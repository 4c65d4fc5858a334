"""Property test: the echoed effective configuration reloads to the same
configuration for any valid input."""

import dataclasses
import os
import tempfile

import pytest

from h2grid.chain import (CARRIERS, ImportSpec, ProductionParams,
                          TransportParams)
from h2grid.config import (InputPaths, StationConfig, SynthConfig,
                           dump_config, load_config, parse_config)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FLOATS = st.floats(allow_nan=False, allow_infinity=False)
SHARES = st.floats(0.0, 1.0, exclude_min=True)
FRACTIONS = st.floats(0.0, 1.0)
POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)
NONNEG = st.floats(0.0, allow_infinity=False)
# the values check_ranges accepts, for the section values it checks
RANGED = {"capacity_factor": SHARES, "ee": SHARES, "ec_kwh_per_kg": POSITIVE,
          "speed_km_per_hour": POSITIVE, "wacc": NONNEG,
          "cap_kg_per_day": NONNEG, "cost_eur_per_kg": NONNEG,
          "cap_min_mw": NONNEG, "cap_max_mw": NONNEG,
          "cars_twh": NONNEG, "trucks_twh": NONNEG,
          "n_nodes": st.integers(2, 10**6), "congestion": FRACTIONS,
          "mean_demand_mw": NONNEG, "renewable_share": FRACTIONS}


def section(cls):
    """Any subset of *cls*'s keys, each with a value of its default's type
    in the key's range; keys that default to None (input paths) take a
    string, and keys without a default (the import node) are always present
    with an integer."""
    required, values = {}, {}
    for f in dataclasses.fields(cls):
        if f.default is dataclasses.MISSING:
            required[f.name] = st.integers(0, 10**6)
        elif f.name in RANGED:
            values[f.name] = RANGED[f.name]
        elif isinstance(f.default, bool):
            values[f.name] = st.booleans()
        elif isinstance(f.default, int):
            values[f.name] = st.integers(1, 10**6)
        elif isinstance(f.default, float):
            values[f.name] = FLOATS
        else:
            values[f.name] = st.none() | st.text(min_size=1)
    return st.fixed_dictionaries(required, optional=values)


@st.composite
def configs(draw):
    data = draw(st.fixed_dictionaries({}, optional={
        "hours": st.integers(1, 8760),
        "seed": st.integers(0, 2**32 - 1),
        "fixture": st.sampled_from([None, "congested10"]),
        "h2_demand_kg_day": NONNEG,
        "ngp": FLOATS,
        "cheap_share": SHARES,
        "production": section(ProductionParams),
        "transport": section(TransportParams),
        "imports": st.none() | section(ImportSpec),
        "scenarios": st.lists(st.fixed_dictionaries({}, optional={
            "spatial": st.sampled_from(["uniform", "nodal"]),
            "temporal": st.sampled_from(["flat", "real_time"]),
            "carrier": st.sampled_from(CARRIERS)}), min_size=1, max_size=4),
    }))
    if data.get("fixture") is None:
        data["synthetic"] = synthetic = draw(st.none() | section(SynthConfig))
        if synthetic is not None:
            # enough lines for a spanning tree
            tree = synthetic.get("n_nodes", SynthConfig.n_nodes) - 1
            if synthetic.get("n_lines", SynthConfig.n_lines) < tree:
                synthetic["n_lines"] = tree
    # network and sink inputs in a combination the run reads in full
    inputs = draw(section(InputPaths))
    if data.get("fixture") is not None or data.get("synthetic") is not None:
        for name in ("nodes", "lines", "generators", "demand"):
            inputs.pop(name, None)
    if inputs.get("consumption"):
        inputs.pop("industrial_sites", None)
        inputs.pop("station_candidates", None)
    elif inputs.get("station_candidates"):
        data["stations"] = draw(section(StationConfig))
        if not any(v > 0 for v in data["stations"].values()):
            inputs.pop("station_candidates")
    data["inputs"] = inputs
    # the seed builds a fixture or synthetic network, and the fixture's own
    # sinks alone read the hydrogen demand
    if data.get("fixture") is None and data.get("synthetic") is None:
        data.pop("seed", None)
    if data.get("fixture") is None or any(
            inputs.get(name) for name in ("consumption", "industrial_sites",
                                          "station_candidates")):
        data.pop("h2_demand_kg_day", None)
    return data


@hypothesis.settings(database=None, deadline=None, derandomize=True)
@hypothesis.given(configs())
def test_effective_config_reloads_equal(data):
    cfg = parse_config(data)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "effective_config.yaml")
        dump_config(cfg, path)
        assert load_config(path) == cfg
