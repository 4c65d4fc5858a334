"""CSV input and output.

All numeric output is formatted to six significant digits so repeated runs
produce byte-identical files.  Readers validate headers, numbers (finite;
capacities, reactances and profile MW not negative, line capacities and
reactances above zero), positional indices (in range, never negative),
lines (two distinct ends) and demand (one row per hour and node of the run:
a missing or a duplicate pair is an error, never a silent 0 or overwrite),
and raise IoError with the offending file and column.  A generator
``kind`` must be one the grid model knows (``dispatchable``, ``solar`` or
``wind``).  The sink files are checked the same way: a consumption
``kind``, an industrial ``sector`` and ``basis_kind`` must be one the
demand model knows, and sink masses, output bases, self supply and station
candidate weights must not be negative.
"""

import csv
import math
import os

import numpy as np

from .demand import (BASIS_KG_PER_HOUR, BASIS_TONS_H2_PER_YEAR,
                     BASIS_TONS_PER_YEAR, INDUSTRY, SECTORS, STATION_CARS,
                     STATION_TRUCKS, ConsumptionLocation, IndustrialSite)
from .dispatch import MODE_UNIFORM_REDISPATCH
from .errors import IoError
from .grid import (DISPATCHABLE, SOLAR, WIND, Generator, Line, Node,
                   PowerSystem, RENEWABLE_KINDS, compute_ptdf)


def _fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".6g")


def write_csv(path, header, rows):
    _write_rows(path, header, ([_fmt(v) for v in row] for row in rows))


def _write_rows(path, header, rows):
    """Write *rows* whose cells are strings ``_fmt`` made, or ints."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _g6(values):
    """``_fmt`` of every value of the float array *values*, in one pass."""
    return [format(v, ".6g") for v in np.asarray(values, float).tolist()]


def _write_table(path, column, table):
    """An hours x nodes table as ``hour, node, <column>`` rows, hour-major."""
    hours, nodes = table.shape
    _write_rows(path, ("hour", "node", column),
                zip(np.repeat(np.arange(hours), nodes).tolist(),
                    np.tile(np.arange(nodes), hours).tolist(),
                    _g6(table.ravel())))


def _read_rows(path, required):
    if not os.path.exists(path):
        raise IoError(f"{path}: file not found")
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise IoError(f"{path}: empty file")
        missing = [c for c in required if c not in reader.fieldnames]
        if missing:
            raise IoError(f"{path}: missing columns {missing}")
        return list(reader)


def _num(row, col, path, cast=float):
    try:
        value = cast(row[col])
    except (TypeError, ValueError) as exc:
        raise IoError(f"{path}: bad value {row.get(col)!r} "
                      f"in column {col}") from exc
    if not math.isfinite(value):
        raise IoError(f"{path}: non-finite value {row[col]!r} "
                      f"in column {col}")
    return value


def _nonneg(row, col, path, allow_zero=True):
    """A number that is at least 0, and above 0 unless *allow_zero*."""
    value = _num(row, col, path)
    if value < 0 or (value == 0 and not allow_zero):
        raise IoError(f"{path}: {'negative' if allow_zero else 'nonpositive'} "
                      f"value {row[col]!r} in column {col}")
    return value


def _opt_num(row, col, path, read=_num):
    """An optional numeric column, read by *read*; absent or blank reads as
    0."""
    return read(row, col, path) if row.get(col) else 0.0


def _choice(row, col, path, known):
    """A text column whose value is one of *known*."""
    value = row[col]
    if value not in known:
        raise IoError(f"{path}: unknown value {value!r} in column {col}; "
                      f"known: {', '.join(known)}")
    return value


def _index(row, col, path, stop=math.inf):
    """A 0-based integer index below *stop*; negatives never wrap."""
    value = _num(row, col, path, int)
    if value < 0:
        raise IoError(f"{path}: negative index {value} in column {col}")
    if value >= stop:
        raise IoError(f"{path}: index {value} >= {stop} in column {col}")
    return value


# -- network ----------------------------------------------------------------

def read_nodes(path):
    """Nodes CSV; ids are positions, so they must be 0..n-1 in file order."""
    rows = _read_rows(path, ("id", "x", "y"))
    nodes = []
    for k, r in enumerate(rows):
        node_id = _num(r, "id", path, int)
        if node_id != k:
            raise IoError(f"{path}: id {node_id} in row {k + 1} should be "
                          f"{k} (ids are 0..n-1 in file order) in column id")
        nodes.append(Node(node_id, _num(r, "x", path), _num(r, "y", path)))
    return tuple(nodes)


def read_lines(path, n_nodes):
    rows = _read_rows(path, ("id", "from", "to", "capacity_mw",
                             "reactance_pu"))
    lines = []
    for r in rows:
        line_id = _num(r, "id", path, int)
        ends = _index(r, "from", path, n_nodes), _index(r, "to", path, n_nodes)
        if ends[0] == ends[1]:
            raise IoError(f"{path}: line {line_id} connects node {ends[0]} "
                          f"to itself in column to")
        lines.append(Line(
            line_id, *ends,
            _nonneg(r, "capacity_mw", path, allow_zero=False),
            _nonneg(r, "reactance_pu", path, allow_zero=False),
            voltage_class=r.get("voltage_class") or "kV380"))
    return tuple(lines)


def read_generators(path, hours, n_nodes):
    """Generators CSV; renewables reference a profile CSV of hourly MW."""
    rows = _read_rows(path, ("id", "node", "kind", "marginal_cost",
                             "capacity_mw"))
    base = os.path.dirname(os.path.abspath(path))
    gens = []
    for r in rows:
        kind = _choice(r, "kind", path, (DISPATCHABLE, SOLAR, WIND))
        profile = None
        if kind in RENEWABLE_KINDS:
            ref = r.get("profile")
            if not ref:
                raise IoError(f"{path}: renewable generator {r['id']} "
                              "needs a profile file")
            profile = read_profile(os.path.join(base, ref), hours)
        gens.append(Generator(
            _num(r, "id", path, int), _index(r, "node", path, n_nodes), kind,
            _num(r, "marginal_cost", path),
            _nonneg(r, "capacity_mw", path), profile))
    return tuple(gens)


def read_profile(path, hours):
    rows = _read_rows(path, ("hour", "mw"))
    if len(rows) < hours:
        raise IoError(f"{path}: profile has {len(rows)} hours, "
                      f"need {hours}")
    values = np.full(len(rows), np.nan)
    for r in rows:
        t = _index(r, "hour", path, len(rows))
        if not np.isnan(values[t]):
            raise IoError(f"{path}: duplicate hour {t} in column hour")
        values[t] = _nonneg(r, "mw", path)
    return values


def read_demand(path, n_nodes, hours):
    """Hourly MW per node; every hour below *hours* needs a row for every
    node, and rows for hours at or past *hours* are skipped."""
    rows = _read_rows(path, ("hour", "node", "mw"))
    demand = np.full((hours, n_nodes), np.nan)
    seen = set()
    for r in rows:
        t = _index(r, "hour", path)
        n = _index(r, "node", path, n_nodes)
        mw = _num(r, "mw", path)
        if (t, n) in seen:
            raise IoError(f"{path}: duplicate row for hour {t}, node {n} "
                          f"in columns hour, node")
        seen.add((t, n))
        if t < hours:
            demand[t, n] = mw
    missing = np.argwhere(np.isnan(demand))
    if len(missing):
        t, n = missing[0]
        raise IoError(f"{path}: no row for hour {t}, node {n} "
                      f"in columns hour, node")
    return demand


def read_system(nodes_path, lines_path, generators_path, demand_path,
                hours):
    nodes = read_nodes(nodes_path)
    lines = read_lines(lines_path, len(nodes))
    generators = read_generators(generators_path, hours, len(nodes))
    demand = read_demand(demand_path, len(nodes), hours)
    ptdf = compute_ptdf(nodes, lines, slack=0)
    return PowerSystem(nodes, lines, generators, demand, ptdf)


def write_system(out_dir, system):
    write_csv(os.path.join(out_dir, "nodes.csv"), ("id", "x", "y"),
              [(n.id, n.x, n.y) for n in system.nodes])
    write_csv(os.path.join(out_dir, "lines.csv"),
              ("id", "from", "to", "voltage_class", "capacity_mw",
               "reactance_pu"),
              [(l.id, l.from_node, l.to_node, l.voltage_class,
                l.capacity_mw, l.reactance_pu) for l in system.lines])
    gen_rows = []
    profiles = {}  # the generators of a kind share one profile array
    for g in system.generators:
        ref = ""
        if g.profile is not None:
            ref = f"profile_{g.id}.csv"
            if id(g.profile) not in profiles:
                profiles[id(g.profile)] = _g6(g.profile)
            _write_rows(os.path.join(out_dir, ref), ("hour", "mw"),
                        enumerate(profiles[id(g.profile)]))
        gen_rows.append((g.id, g.node, g.kind, g.marginal_cost,
                         g.capacity_mw, ref))
    write_csv(os.path.join(out_dir, "generators.csv"),
              ("id", "node", "kind", "marginal_cost", "capacity_mw",
               "profile"), gen_rows)
    _write_table(os.path.join(out_dir, "demand.csv"), "mw", system.demand)


# -- hydrogen inputs ----------------------------------------------------------

def read_industrial_sites(path):
    rows = _read_rows(path, ("name", "sector", "basis_kind", "basis_value"))
    sites = []
    for r in rows:
        sites.append(IndustrialSite(
            name=r["name"], sector=_choice(r, "sector", path, SECTORS),
            basis_kind=_choice(r, "basis_kind", path, (
                BASIS_TONS_PER_YEAR, BASIS_KG_PER_HOUR,
                BASIS_TONS_H2_PER_YEAR)),
            basis_value=_nonneg(r, "basis_value", path),
            deduction_kg_per_hour=_opt_num(r, "deduction_kg_per_hour", path,
                                           _nonneg),
            x=_opt_num(r, "x", path), y=_opt_num(r, "y", path)))
    return tuple(sites)


def read_station_candidates(path):
    rows = _read_rows(path, ("id", "x", "y", "weight"))
    return [(_num(r, "id", path, int), _num(r, "x", path),
             _num(r, "y", path), _nonneg(r, "weight", path)) for r in rows]


def read_consumption(path, n_nodes):
    """Consumption CSV; every ``node`` must be a node of the network."""
    rows = _read_rows(path, ("id", "kind", "node", "kg_per_day"))
    out = []
    for r in rows:
        out.append(ConsumptionLocation(
            id=_num(r, "id", path, int),
            kind=_choice(r, "kind", path, (INDUSTRY, STATION_CARS,
                                           STATION_TRUCKS)),
            hd_kg_per_day=_nonneg(r, "kg_per_day", path),
            node=_index(r, "node", path, n_nodes),
            x=_opt_num(r, "x", path), y=_opt_num(r, "y", path)))
    return tuple(out)


def write_consumption(path, sinks):
    write_csv(path, ("id", "kind", "node", "kg_per_day", "x", "y"),
              [(s.id, s.kind, s.node, s.hd_kg_per_day, s.x, s.y)
               for s in sinks])


# -- dispatch outputs ---------------------------------------------------------

def write_dispatch_outputs(out_dir, summary):
    """The price file of the summary's market, its redispatch cost per hour
    and one summary row.  A uniform+redispatch summary writes only its
    uniform prices, although it carries nodal ones too."""
    if summary.mode == MODE_UNIFORM_REDISPATCH:
        _write_rows(os.path.join(out_dir, "prices_uniform.csv"),
                    ("hour", "price_eur_mwh"),
                    enumerate(_g6(summary.price_series)))
    else:
        _write_table(os.path.join(out_dir, "prices_nodal.csv"),
                     "price_eur_mwh", summary.nodal_price_series)
    _write_rows(os.path.join(out_dir, "redispatch.csv"), ("hour", "cost_eur"),
                enumerate(_g6(summary.redispatch_cost_series)))
    write_csv(os.path.join(out_dir, "summary.csv"),
              ("mode", "hours", "energy_mwh", "mean_price_eur_mwh",
               "congestion_cost_eur"),
              [(summary.mode, summary.hours, summary.total_energy_mwh,
                summary.mean_price if summary.mean_price is not None
                else "", summary.congestion_cost_eur)])


# -- chain outputs ------------------------------------------------------------

def write_chain_outputs(out_dir, design):
    design_rows = [(node, int(design.x[node]), design.hp_kg_day[node])
                   for node in sorted(design.hp_kg_day)]
    if design.import_node is not None:
        design_rows.append(("import", int(design.import_kg_day > 0),
                            design.import_kg_day))
    write_csv(os.path.join(out_dir, "chain_design.csv"),
              ("source", "open", "kg_per_day"), design_rows)
    write_csv(os.path.join(out_dir, "chain_flows.csv"),
              ("source", "sink", "kg_per_day"),
              [(src, snk, kg) for (src, snk), kg in
               sorted(design.flows.items(), key=lambda kv: str(kv[0]))])
    write_csv(os.path.join(out_dir, "cost_breakdown.csv"),
              ("component", "eur_per_year"),
              [(k, design.components[k]) for k in sorted(design.components)])


# -- study outputs ------------------------------------------------------------

def write_report(out_dir, report):
    write_csv(os.path.join(out_dir, "report.csv"),
              ("scenario", "demand_mwh", "mean_price_eur_mwh",
               "congestion_cost_eur", "delta_demand_pct", "delta_price_pct",
               "delta_congestion_pct"), report.rows())
    for result in report.results:
        name = result.scenario.name
        spread = report.nodal_price_spread
        rows = []
        for node, hp in sorted(result.design.hp_kg_day.items()):
            rows.append((node, int(result.design.x.get(node, 0)), hp,
                         spread.get(node, 0.0)))
        write_csv(os.path.join(out_dir, f"siting_{name}.csv"),
                  ("node", "open", "kg_per_day",
                   "uniform_minus_nodal_price_eur_mwh"), rows)
        write_csv(os.path.join(out_dir, f"breakdown_{name}.csv"),
                  ("component", "eur_per_kg"),
                  [(k, v) for k, v in sorted(result.breakdown.items())])
