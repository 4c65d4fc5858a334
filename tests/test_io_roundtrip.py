"""Property test: CSV files the writers produce read back into objects that
the writers turn into the same bytes, for seeded synthetic systems and
consumption sets on their nodes."""

import filecmp
import os
import tempfile

import pytest

from h2grid.demand import (INDUSTRY, STATION_CARS, STATION_TRUCKS,
                           ConsumptionLocation)
from h2grid.io import (read_consumption, read_system, write_consumption,
                       write_system)
from h2grid.synth import SyntheticSpec, generate_synthetic_system

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FLOATS = st.floats(allow_nan=False, allow_infinity=False)
NONNEG = st.floats(0.0, allow_infinity=False)


@st.composite
def systems(draw):
    n_nodes = draw(st.integers(2, 12))
    return generate_synthetic_system(SyntheticSpec(
        seed=draw(st.integers(0, 2**32 - 1)), n_nodes=n_nodes,
        n_lines=draw(st.integers(n_nodes - 1, 2 * n_nodes)),
        hours=draw(st.integers(1, 48)),
        congestion=draw(st.floats(0.0, 1.0)),
        mean_demand_mw=draw(st.floats(1.0, 1000.0)),
        renewable_share=draw(st.floats(0.0, 1.0))))


def sinks(n_nodes):
    return st.lists(st.builds(
        ConsumptionLocation, id=st.integers(0, 10**6),
        kind=st.sampled_from([INDUSTRY, STATION_CARS, STATION_TRUCKS]),
        hd_kg_per_day=NONNEG, node=st.integers(0, n_nodes - 1), x=FLOATS,
        y=FLOATS), max_size=8)


def same_files(a, b):
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    for name in names:
        assert filecmp.cmp(os.path.join(a, name), os.path.join(b, name),
                           shallow=False), name


@hypothesis.settings(database=None, deadline=None, derandomize=True,
                     max_examples=25)
@hypothesis.given(st.data())
def test_write_read_write_is_byte_identical(data):
    system = data.draw(systems())
    consumption = data.draw(sinks(system.n_nodes))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a"), os.path.join(tmp, "b")
        for out in (first, second):
            os.mkdir(out)
            write_system(out, system)
            write_consumption(os.path.join(out, "consumption.csv"),
                              consumption)
            system = read_system(*(os.path.join(out, f"{name}.csv")
                                   for name in ("nodes", "lines",
                                                "generators", "demand")),
                                 system.horizon)
            consumption = read_consumption(
                os.path.join(out, "consumption.csv"), system.n_nodes)
        same_files(first, second)
