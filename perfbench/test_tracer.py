"""Self-consistency of the benchmark's tracer.

Run from the repository root:  python3 -m pytest -q perfbench/test_tracer.py

The fixture test runs ``fixture_study`` twice (a few seconds): once with
only an iteration counter on the LP bindings and once fully traced.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import h2grid.dispatch  # noqa: E402
import h2grid.lp  # noqa: E402
from run import lap_floor  # noqa: E402
from tracer import LapClock, Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import FixtureStudy  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [Span("unit", 0.0, 10.0), Span("dispatch.redispatch", 1.0, 5.0, 0),
             Span("lp.solve", 2.0, 4.0, 1), Span("io.write", 6.0, 7.0, 0)]
    assert self_times(spans) == [5.0, 2.0, 2.0, 1.0]


def test_accounting_covers_unit_span():
    spans = [Span("unit", 0.0, 10.0), Span("dispatch.nodal", 0.5, 9.5, 0),
             Span("lp.solve", 1.0, 9.0, 1,
                  {"rows": 3, "cols": 4, "status": "Optimal",
                   "iterations": 5, "gap_rel": 0.0})]
    m = layer_metrics(spans, 0)
    assert m["lp.busy_s"] == (8.0, "s")
    assert m["dispatch.nodal_self_s"] == (1.0, "s")
    assert m["trace.unaccounted_s"] == (1.0, "s")
    assert m["trace.accounted_share"] == (0.9, "ratio")


def test_install_and_uninstall_restore_bindings():
    before = (h2grid.lp.solve_lp, h2grid.dispatch.solve_lp)
    tracer = Tracer()
    tracer.install()
    assert h2grid.dispatch.solve_lp is not before[1]
    tracer.uninstall()
    assert (h2grid.lp.solve_lp, h2grid.dispatch.solve_lp) == before


def test_lap_clock_marks_entry_and_exit_of_each_call():
    import numpy as np
    from h2grid import LinearProblem

    problem = LinearProblem(
        np.array([1.0, 2.0]), np.zeros(2), np.full(2, 10.0),
        np.array([0, 0]), np.array([0, 1]), np.array([1.0, 1.0]),
        (">=",), np.array([3.0]))
    saved = h2grid.dispatch.solve_lp
    clock = LapClock()
    clock.install()
    try:
        for _ in range(3):
            assert h2grid.dispatch.solve_lp(problem).optimal
    finally:
        clock.uninstall()
    assert h2grid.dispatch.solve_lp is saved
    assert len(clock.marks) == 6 and clock.marks == sorted(clock.marks)


def test_lap_floor_takes_fastest_repetition_per_lap():
    assert lap_floor([[1.0, 5.0, 2.0], [3.0, 1.0, 2.5]]) == 4.0
    assert lap_floor([[1.0, 2.0], [1.0]]) is None


def _count_iterations(wl, state):
    """Iterations from Solution.stats with no span recording."""
    total = {"solves": 0, "iterations": 0}
    saved = (h2grid.lp.solve_lp, h2grid.dispatch.solve_lp)

    def counted(fn):
        def inner(problem):
            sol = fn(problem)
            total["solves"] += 1
            total["iterations"] += sol.stats["iterations"]
            return sol
        return inner

    h2grid.lp.solve_lp = counted(saved[0])
    h2grid.dispatch.solve_lp = counted(saved[1])
    try:
        wl.execute(wl.prepare(state, 0))
    finally:
        h2grid.lp.solve_lp, h2grid.dispatch.solve_lp = saved
    return total


def test_fixture_spans_match_known_work(tmp_path):
    wl = FixtureStudy(str(tmp_path))
    state = wl.setup(1)
    untraced = _count_iterations(wl, state)

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("unit"):
            rc = wl.execute(wl.prepare(state, 0))
    finally:
        tracer.uninstall()
    assert rc == 0
    names = [s.name for s in tracer.spans]
    # baseline nodal year; uniform+redispatch baseline and 4 feedback years
    assert names.count("dispatch.nodal") == FixtureStudy.HOURS
    assert names.count("dispatch.redispatch") == 5 * FixtureStudy.HOURS
    m = layer_metrics(tracer.spans, 0)
    solves = m["lp.solves"][0]
    assert solves == (FixtureStudy.HOURS + m["dispatch.congested_hours"][0]
                      + m["lp.milp_lp_solves"][0])
    assert solves == untraced["solves"]
    assert m["lp.iterations"][0] == untraced["iterations"]
    assert m["pipeline.dispatch_years"][0] == 6
