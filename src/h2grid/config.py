"""Study configuration.

YAML in, the library's own types out: ``scenarios`` parse into
``pipeline.Scenario``, ``imports`` into a ``chain.ImportSpec`` (None when
absent or null), and ``production`` and ``transport`` into the chain's
parameter types.  The defaults of ``synthetic``, ``ngp`` and
``cheap_share`` are read from ``synth.SyntheticSpec`` and
``pipeline.StudyCase``.  Unknown keys are rejected with the full key path
so typos (a classic: ``electrolyser_cost``) fail loudly instead of being
silently ignored, and so are known keys that another key would make the
run ignore.  A scalar or section value must match its field's type: a
number for a float field (an int or a float, not a bool), an integer for an
int field and true or false for a bool field.  Values must also lie in
their range (``check_ranges``): ``hours`` positive and ``seed``
non-negative, also after the command line overrides them, the economic
values a formula divides by, or reads as a share, rate or period, and
every other number finite, before any model runs.
Every omitted economic value falls back to the package default, and the
effective configuration can be echoed back to YAML; loading that echo
reproduces the same configuration.
"""

import dataclasses
import functools
import math
from dataclasses import dataclass

import yaml

from .chain import CARRIERS, ImportSpec, ProductionParams, TransportParams
from .errors import ConfigError
from .pipeline import FLAT, NODAL, REAL_TIME, UNIFORM, Scenario, StudyCase
from .synth import FIXTURE_H2_KG_DAY, SyntheticSpec

FIXTURES = ("congested10",)

# libyaml's parser and emitter when PyYAML was built with it; they read and
# write the same documents as the pure-Python ones, several times faster
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


@dataclass(frozen=True)
class InputPaths:
    nodes: str = None
    lines: str = None
    generators: str = None
    demand: str = None
    industrial_sites: str = None
    station_candidates: str = None
    consumption: str = None


@dataclass(frozen=True)
class SynthConfig:
    """``SyntheticSpec`` without the run-wide ``seed`` and ``hours``."""
    n_nodes: int = SyntheticSpec.n_nodes
    n_lines: int = SyntheticSpec.n_lines
    congestion: float = SyntheticSpec.congestion
    mean_demand_mw: float = SyntheticSpec.mean_demand_mw
    renewable_share: float = SyntheticSpec.renewable_share


@dataclass(frozen=True)
class StationConfig:
    cars_twh: float = 0.0
    trucks_twh: float = 0.0


@dataclass(frozen=True)
class StudyConfig:
    hours: int = 168
    seed: int = 42
    fixture: str = None              # name of a shipped study fixture
    h2_demand_kg_day: float = FIXTURE_H2_KG_DAY
    ngp: float = StudyCase.ngp
    cheap_share: float = StudyCase.cheap_share
    inputs: InputPaths = InputPaths()
    synthetic: SynthConfig = None
    scenarios: tuple = (Scenario(),)
    production: ProductionParams = ProductionParams()
    transport: TransportParams = TransportParams()
    imports: ImportSpec = None
    stations: StationConfig = StationConfig()


_SECTIONS = {
    "inputs": InputPaths,
    "synthetic": SynthConfig,
    "production": ProductionParams,
    "transport": TransportParams,
    "imports": ImportSpec,
    "stations": StationConfig,
}
_NULLABLE = ("synthetic", "imports")  # null: no network block, no terminal
_SCALARS = ("hours", "seed", "fixture", "h2_demand_kg_day", "ngp",
            "cheap_share")


# the values a field of each type takes (a bool is an int to Python)
_KINDS = {float: ((int, float), "a number"), int: ((int,), "an integer"),
          bool: ((bool,), "true or false")}


def _check_type(path, value, field_type):
    kind = _KINDS.get(field_type)
    if kind and (not isinstance(value, kind[0])
                 or isinstance(value, bool) != (field_type is bool)):
        raise ConfigError(f"{path}: expected {kind[1]}, got {value!r}")


def _build_section(cls, data, path):
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in types:
            raise ConfigError(f"unknown key {path}.{key}")
        _check_type(f"{path}.{key}", value, types[key])
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_config(data):
    """Build a StudyConfig from a parsed YAML mapping."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a mapping")
    types = {f.name: f.type for f in dataclasses.fields(StudyConfig)}
    kwargs = {}
    for key, value in data.items():
        if key in _SCALARS:
            _check_type(key, value, types[key])
            kwargs[key] = value
        elif key in _SECTIONS:
            if key in _NULLABLE and value is None:
                kwargs[key] = None
            else:
                kwargs[key] = _build_section(_SECTIONS[key], value, key)
        elif key == "scenarios":
            if not isinstance(value, list):
                raise ConfigError("scenarios: expected a list")
            kwargs["scenarios"] = tuple(
                _build_section(Scenario, item, f"scenarios[{i}]")
                for i, item in enumerate(value))
        else:
            raise ConfigError(f"unknown key {key}")
    cfg = StudyConfig(**kwargs)
    if cfg.fixture is not None and cfg.fixture not in FIXTURES:
        raise ConfigError(f"fixture: unknown fixture {cfg.fixture!r}; "
                          f"known: {', '.join(FIXTURES)}")
    for i, sc in enumerate(cfg.scenarios):
        if sc.spatial not in (UNIFORM, NODAL):
            raise ConfigError(f"scenarios[{i}].spatial: {sc.spatial!r}")
        if sc.temporal not in (FLAT, REAL_TIME):
            raise ConfigError(f"scenarios[{i}].temporal: {sc.temporal!r}")
        if sc.carrier not in CARRIERS:
            raise ConfigError(f"scenarios[{i}].carrier: {sc.carrier!r}; "
                              f"known: {', '.join(CARRIERS)}")
    check_ranges(cfg)
    reject_ignored(cfg)
    # a synthetic network needs a spanning tree (a block next to a fixture
    # is rejected above as unread)
    syn = cfg.synthetic
    if syn is not None and syn.n_lines < syn.n_nodes - 1:
        raise ConfigError(f"synthetic.n_lines: expected at least "
                          f"synthetic.n_nodes - 1 = {syn.n_nodes - 1}, "
                          f"got {syn.n_lines}")
    return cfg


def lookup(cfg, path):
    """The value at a dotted key path such as ``production.ee``."""
    return functools.reduce(getattr, path.split("."), cfg)


_SHARE = (lambda v: 0 < v <= 1, "a number in (0, 1]")
_FRACTION = (lambda v: 0 <= v <= 1, "a number in [0, 1]")
_POSITIVE = (lambda v: v > 0, "a positive number")
_NONNEG = (lambda v: 0 <= v < math.inf, "a non-negative number")
_PERIOD = (lambda v: v >= 1, "at least 1 year")
# numpy's generators reject negative seeds; capacity factor, efficiency,
# energy use and speed are divisors, and the annuity needs a period of a
# year or more at a finite non-negative rate; demands, volumes and
# capacities and the import price are finite amounts (an infinite import
# capacity would leave the siting LP's import column unboxed), and a
# synthetic network has two regions; every other number must be finite
_RANGES = {
    "hours": (lambda v: v >= 1, "a positive integer"),
    "seed": (lambda v: v >= 0, "a non-negative integer"),
    "h2_demand_kg_day": _NONNEG,
    "imports.cap_kg_per_day": _NONNEG,
    "imports.cost_eur_per_kg": _NONNEG,
    "production.cap_min_mw": _NONNEG,
    "production.cap_max_mw": _NONNEG,
    "stations.cars_twh": _NONNEG,
    "stations.trucks_twh": _NONNEG,
    "synthetic.n_nodes": (lambda v: v >= 2, "an integer of at least 2"),
    "synthetic.congestion": _FRACTION,
    "synthetic.mean_demand_mw": _NONNEG,
    "synthetic.renewable_share": _FRACTION,
    "cheap_share": _SHARE,
    "production.capacity_factor": _SHARE,
    "production.ee": _SHARE,
    "production.ec_kwh_per_kg": _POSITIVE,
    "production.wacc": _NONNEG,
    "production.depreciation_years": _PERIOD,
    "transport.truck_depreciation_years": _PERIOD,
    "transport.trailer_depreciation_years": _PERIOD,
    "transport.speed_km_per_hour": _POSITIVE,
}


def check_ranges(cfg):
    """Raise on the first value of ``_RANGES`` outside its range, then on
    the first float field still holding an infinity or NaN; a null section
    has nothing to check."""
    for path, (ok, expected) in _RANGES.items():
        section = path.rpartition(".")[0]
        if section and lookup(cfg, section) is None:
            continue
        if not ok(lookup(cfg, path)):
            raise ConfigError(f"{path}: expected {expected}, "
                              f"got {lookup(cfg, path)!r}")
    for name in ("", *_SECTIONS):
        section = lookup(cfg, name) if name else cfg
        if section is None:
            continue
        for f in dataclasses.fields(section):
            value = getattr(section, f.name)
            # an int (a float field takes one) is always finite
            if isinstance(value, float) and not math.isfinite(value):
                path = f"{name}.{f.name}" if name else f.name
                raise ConfigError(f"{path}: expected a finite number, "
                                  f"got {value!r}")


def reject_ignored(cfg):
    """Raise on keys the run would echo to effective_config.yaml but never
    read: a fixture or synthetic block builds its own network, from the
    ``seed``; the fixture's own sinks alone read ``h2_demand_kg_day``;
    stations are planned only on station candidates for a positive volume,
    and a consumption set replaces every other sink input."""
    if cfg.fixture is not None and cfg.synthetic is not None:
        raise ConfigError("synthetic: not used next to fixture")
    defaults = StudyConfig()
    if (cfg.seed != defaults.seed and cfg.fixture is None
            and cfg.synthetic is None):
        raise ConfigError("seed: not used without fixture or synthetic")
    if cfg.h2_demand_kg_day != defaults.h2_demand_kg_day:
        if cfg.fixture is None:
            raise ConfigError("h2_demand_kg_day: not used without fixture")
        sinks = [f"inputs.{name}" for name in ("consumption",
                                               "industrial_sites",
                                               "station_candidates")
                 if getattr(cfg.inputs, name)]
        if sinks:
            raise ConfigError(f"h2_demand_kg_day: not used next to "
                              f"{sinks[0]}")
    network = [key for key in ("fixture", "synthetic")
               if getattr(cfg, key) is not None]
    paths = [f"inputs.{name}" for name in ("nodes", "lines", "generators",
                                           "demand")
             if getattr(cfg.inputs, name)]
    if network and paths:
        raise ConfigError(f"{paths[0]}: not used next to {network[0]}")
    volumes = [f"stations.{name}" for name in ("cars_twh", "trucks_twh")
               if getattr(cfg.stations, name) > 0]
    if volumes and not cfg.inputs.station_candidates:
        raise ConfigError(f"{volumes[0]}: not used without "
                          f"inputs.station_candidates")
    if cfg.inputs.consumption:
        shadowed = volumes + [
            f"inputs.{name}" for name in ("industrial_sites",
                                          "station_candidates")
            if getattr(cfg.inputs, name)]
        if shadowed:
            raise ConfigError(f"{shadowed[0]}: not used next to "
                              f"inputs.consumption")
    if cfg.inputs.station_candidates and not volumes:
        raise ConfigError("inputs.station_candidates: not used without a "
                          "stations.cars_twh or stations.trucks_twh above 0")


def load_config(path):
    try:
        with open(path) as fh:
            data = yaml.load(fh, Loader=_LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    return parse_config(data)


def effective_config(cfg):
    """The full configuration with all defaults filled in, as a mapping."""
    out = {k: getattr(cfg, k) for k in _SCALARS}
    for name in _SECTIONS:
        section = getattr(cfg, name)
        out[name] = None if section is None else dataclasses.asdict(section)
    out["scenarios"] = [dataclasses.asdict(s) for s in cfg.scenarios]
    return out


def dump_config(cfg, path):
    with open(path, "w") as fh:
        yaml.dump(effective_config(cfg), fh, Dumper=_DUMPER, sort_keys=True)
