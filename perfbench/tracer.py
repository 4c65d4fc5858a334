"""Outside-in span recorder for the benchmark's traced runs.

The tracer replaces a public layer function at the binding its caller looks
up, so no file of the package changes.  Modules that import a function by
name (``from .lp import solve_lp``) hold their own binding; each such
binding is patched separately, which is why the patch table below names the
calling module and not only the defining one.

Spans stay in memory as ``Span`` records (name, start, end, parent index,
attributes) and are written once, by ``dump``, when the run ends.

``LapClock`` patches the same bindings but only reads the clock at each
call's entry and exit; the untimed runs use it to cut a unit into laps.
"""

import contextlib
import json
import time
from dataclasses import dataclass, field

import h2grid.chain
import h2grid.cli
import h2grid.config
import h2grid.dispatch
import h2grid.io
import h2grid.lp
import h2grid.pipeline
import h2grid.synth


@dataclass
class Span:
    name: str
    start: float
    end: float = None
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _lp_attrs(args, kwargs, sol):
    problem = args[0]
    attrs = {"rows": problem.n_cons, "cols": problem.n_vars,
             "status": sol.status,
             "iterations": int(sol.stats.get("iterations", 0))}
    if sol.optimal and sol.duality_gap is not None:
        attrs["gap_rel"] = abs(sol.duality_gap) / max(1.0, abs(sol.objective))
    return attrs


def _milp_attrs(args, kwargs, sol):
    return {"nodes": int(sol.stats.get("nodes", 0)), "status": sol.status}


def _year_attrs(args, kwargs, summary):
    return {"hours": int(summary.hours), "mode": summary.mode}


def _build_attrs(args, kwargs, problem):
    return {"carrier": problem.carrier.state,
            "binaries": len(problem.lp.binaries)}


def _solve_chain_attrs(args, kwargs, design):
    return {"carrier": design.carrier}


# (module, attribute, span name, attribute extractor).  Order matters only
# for readability: every entry is an independent binding.
PATCHES = (
    (h2grid.lp, "solve_lp", "lp.solve", _lp_attrs),          # B&B re-solves
    (h2grid.dispatch, "solve_lp", "lp.solve", _lp_attrs),
    (h2grid.chain, "solve_milp", "lp.milp", _milp_attrs),
    (h2grid.dispatch, "uniform_dispatch", "dispatch.uniform", None),
    (h2grid.dispatch, "redispatch", "dispatch.redispatch", None),
    (h2grid.dispatch, "nodal_dispatch", "dispatch.nodal", None),
    (h2grid.dispatch, "run_year", "dispatch.run_year", _year_attrs),
    (h2grid.pipeline, "run_year", "dispatch.run_year", _year_attrs),
    (h2grid.chain, "build_chain_problem", "chain.build", _build_attrs),
    (h2grid.pipeline, "build_chain_problem", "chain.build", _build_attrs),
    (h2grid.chain, "solve_chain", "chain.solve", _solve_chain_attrs),
    (h2grid.pipeline, "solve_chain", "chain.solve", _solve_chain_attrs),
    (h2grid.pipeline, "derive_tariffs", "pipeline.tariffs", None),
    (h2grid.pipeline, "electrolyzer_loads", "pipeline.loads", None),
    (h2grid.pipeline, "run_scenario", "pipeline.scenario", None),
    (h2grid.cli, "run_full_study", "pipeline.study", None),
    (h2grid.cli, "congested_fixture", "synth.fixture", None),
    (h2grid.synth, "generate_synthetic_system", "synth.generate", None),
    (h2grid.synth, "compute_ptdf", "grid.ptdf", None),
    (h2grid.config, "load_config", "config.load", None),
    (h2grid.config, "dump_config", "io.write", None),
    (h2grid.io, "write_report", "io.write", None),
)


class _Patcher:
    """Installs ``self._wrap`` around every binding in PATCHES."""

    def __init__(self):
        self._saved = []

    def install(self):
        for module, attr, name, attrs_of in PATCHES:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, attrs_of))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


class LapClock(_Patcher):
    """Appends ``time.perf_counter()`` to ``marks`` at the entry and the exit
    of every patched call: two clock reads and no allocation beyond the list
    append, so the unit it cuts into laps runs at untraced speed."""

    def __init__(self):
        super().__init__()
        self.marks = []

    def _wrap(self, fn, name, attrs_of):
        marks, clock = self.marks, time.perf_counter

        def timed(*args, **kwargs):
            marks.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                marks.append(clock())
        timed.__wrapped__ = fn
        return timed


class Tracer(_Patcher):
    """Records nested spans around patched layer functions."""

    def __init__(self):
        super().__init__()
        self.spans = []
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name, attrs_of):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs_of is not None:
                span.attrs = attrs_of(args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump([{"name": s.name, "start": s.start, "end": s.end,
                        "parent": s.parent, "attrs": s.attrs}
                       for s in self.spans], fh)


# -- derived per-layer metrics ------------------------------------------------

def _percentile(values, q):
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def self_times(spans):
    """Per-span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def subtree(spans, root):
    """Indices of *root* and every span below it (spans are in open order)."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
    return sorted(inside)


def layer_metrics(spans, unit_root):
    """Per-layer metrics (name -> (value, unit)) from one run's spans.

    *unit_root* is the index of the span around the timed unit; the
    accounting metrics compare its duration with the layer spans below it.
    """
    selfs = self_times(spans)
    names = [s.name for s in spans]

    def of(name):
        return [i for i, n in enumerate(names) if n == name]

    def total(idx):
        return sum(spans[i].duration for i in idx)

    def attr(i, key, default=0):
        # a call that raised left its span without attributes
        return spans[i].attrs.get(key, default)

    def lp_parent(i):
        p = spans[i].parent
        return p >= 0 and names[p].startswith("lp.")

    solves = of("lp.solve")
    milps = of("lp.milp")
    milp_set = set(milps)
    milp_solves = [i for i in solves if spans[i].parent in milp_set]
    iterations = sum(attr(i, "iterations") for i in solves)
    solve_time = total(solves)
    lp_top = [i for i in solves + milps if not lp_parent(i)]
    gaps = [spans[i].attrs.get("gap_rel", 0.0) for i in solves]

    redispatch = of("dispatch.redispatch")
    nodal = of("dispatch.nodal")
    years = of("dispatch.run_year")
    solve_parents = {spans[j].parent for j in solves}
    congested = [i for i in redispatch if i in solve_parents]
    redispatch_hours = sum(attr(i, "hours") for i in years
                           if attr(i, "mode", None) != "nodal")
    study = of("pipeline.study")
    scenario_set = set(of("pipeline.scenario"))
    baseline = [i for i in years if spans[i].parent in set(study)]
    feedback = [i for i in years if spans[i].parent in scenario_set]

    builds = of("chain.build")
    chain_solves = of("chain.solve")

    unit = spans[unit_root]
    inside = subtree(spans, unit_root)
    accounted = sum(selfs[i] for i in inside if i != unit_root)

    m = {
        "lp.solves": (len(solves), "count"),
        "lp.iterations": (iterations, "count"),
        "lp.iterations_per_solve": (iterations / len(solves) if solves
                                    else 0.0, "count"),
        "lp.busy_s": (total(lp_top), "s"),
        "lp.us_per_iteration": (1e6 * solve_time / iterations if iterations
                                else 0.0, "us"),
        "lp.solve_ms_p50": (1e3 * _percentile(
            [spans[i].duration for i in solves], 50), "ms"),
        "lp.solve_ms_p90": (1e3 * _percentile(
            [spans[i].duration for i in solves], 90), "ms"),
        "lp.rows_mean": (sum(attr(i, "rows") for i in solves)
                         / len(solves) if solves else 0.0, "count"),
        "lp.cols_mean": (sum(attr(i, "cols") for i in solves)
                         / len(solves) if solves else 0.0, "count"),
        "lp.max_duality_gap_rel": (float(max(gaps, default=0.0)), "ratio"),
        "lp.milp_nodes": (sum(attr(i, "nodes") for i in milps),
                          "count"),
        "lp.milp_lp_solves": (len(milp_solves), "count"),
        "lp.milp_iterations": (sum(attr(i, "iterations")
                                   for i in milp_solves), "count"),
        "lp.milp_busy_s": (total(milps), "s"),
        "dispatch.hours": (sum(attr(i, "hours") for i in years),
                           "count"),
        "dispatch.congested_hours": (len(congested), "count"),
        "dispatch.congested_share": (len(congested) / redispatch_hours
                                     if redispatch_hours else 0.0, "ratio"),
        "dispatch.uniform_s": (total(of("dispatch.uniform")), "s"),
        "dispatch.redispatch_s": (total(redispatch), "s"),
        "dispatch.redispatch_self_s": (sum(selfs[i] for i in redispatch),
                                       "s"),
        "dispatch.nodal_s": (total(nodal), "s"),
        "dispatch.nodal_self_s": (sum(selfs[i] for i in nodal), "s"),
        "dispatch.redispatch_hour_ms_p50": (1e3 * _percentile(
            [spans[i].duration for i in redispatch], 50), "ms"),
        "dispatch.redispatch_hour_ms_p90": (1e3 * _percentile(
            [spans[i].duration for i in redispatch], 90), "ms"),
        "dispatch.nodal_hour_ms_p50": (1e3 * _percentile(
            [spans[i].duration for i in nodal], 50), "ms"),
        "dispatch.nodal_hour_ms_p90": (1e3 * _percentile(
            [spans[i].duration for i in nodal], 90), "ms"),
        "chain.build_s": (total(builds), "s"),
        "chain.solve_s": (total(chain_solves), "s"),
        "chain.binaries": (sum(attr(i, "binaries") for i in builds), "count"),
        "pipeline.dispatch_years": (len(baseline) + len(feedback), "count"),
        "pipeline.baseline_uniform_s": (total(
            [i for i in baseline if attr(i, "mode", None) != "nodal"]), "s"),
        "pipeline.baseline_nodal_s": (total(
            [i for i in baseline if attr(i, "mode", None) == "nodal"]), "s"),
        "pipeline.scenario_s": (total(scenario_set), "s"),
        "pipeline.feedback_year_s": (total(feedback), "s"),
        "synth.generate_s": (total(of("synth.generate")), "s"),
        "grid.ptdf_s": (total(of("grid.ptdf")), "s"),
        "config.load_s": (total(of("config.load")), "s"),
        "io.write_s": (total(of("io.write")), "s"),
        "trace.spans": (len(spans), "count"),
        "trace.wall_s": (unit.duration, "s"),
        "trace.unaccounted_s": (selfs[unit_root], "s"),
        "trace.accounted_share": (accounted / unit.duration
                                  if unit.duration else 0.0, "ratio"),
    }
    for carrier in ("LH2", "GH2", "LOHC"):
        m[f"chain.solve_s.{carrier}"] = (total(
            [i for i in chain_solves
             if attr(i, "carrier", None) == carrier]), "s")
    return m
