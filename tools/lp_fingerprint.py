"""Print sha256 digests of the solves of a fixed, seeded set of LPs and
MILPs.

Each line is ``<name> <sha256>``, the digest of everything the solve
returns: its status, the bytes of ``x``, the duals and the reduced costs,
the ``repr`` of the objective and the duality gap, and the stats (or the
message of the ``InvalidProblem`` it raises).  Each MILP has a second line,
``<name>.tree <sha256>``, the digest of what its branch-and-bound tree
decides: the status, the ``nodes`` and ``lp_solves`` stats, the bytes of
``x`` and the ``repr`` of the objective (or the message).  A change that
only saves pivots moves a MILP's first line and keeps its tree line.  Two
versions of the solver that print the same lines solve every problem of
the set alike, bit for bit, and one version printing different lines under
two hash seeds depends on state it should not::

    PYTHONPATH=src python tools/lp_fingerprint.py > before.txt
    # change the solver
    PYTHONPATH=src python tools/lp_fingerprint.py > after.txt
    diff before.txt after.txt

The set, all of it drawn from fixed seeds:

* ``mixed_instance`` LPs (``tests/test_lp.py``: every row sense, boxed,
  one-sided and free columns, some infeasible), each solved as it is, with
  about half of its rows lazy, and from a dual feasible start of one
  column, with and without lazy rows;
* ``random_chain`` siting MILPs (``tests/test_chain.py``) and their root
  relaxations, each also rebuilt from its triplet views as the benchmark's
  siting check rebuilds it (``.triplets``, whose line must equal the
  ``.root`` one), random knapsacks, and warm re-solves of chain
  relaxations with binaries fixed, as branch and bound makes them;
* every network LP of the uniform+redispatch baseline year of the
  168-hour ``congested10`` fixture (seed 42, as the golden study), and of
  both dispatch modes of a 48-hour, 60-node synthetic system (the
  ``grid60`` system of the CI's determinism step);
* the network LPs of the hard hours of 240-node systems
  (``tests/test_dispatch.py`` ``HARD_HOURS``), degenerate congested hours
  where pivot rules differ most.  Their products are large enough for a
  threaded BLAS to split, so their lines depend on the BLAS thread count:
  compare runs made with the same ``OPENBLAS_NUM_THREADS``.

The solver's test modules supply the generators, so pytest must be
importable; the package is imported from ``src/`` of this checkout.
"""

import dataclasses
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import h2grid.dispatch  # noqa: E402
from h2grid import (SyntheticSpec, congested_fixture,  # noqa: E402
                    generate_synthetic_system)
from h2grid.dispatch import MODE_NODAL, MODE_UNIFORM_REDISPATCH  # noqa: E402
from h2grid.dispatch import redispatch, uniform_dispatch  # noqa: E402
from h2grid.errors import InfeasibleRedispatch, InvalidProblem  # noqa: E402
from h2grid.lp import (LinearProblem, _Simplex, solve_lp,  # noqa: E402
                       solve_milp)
from problems import build_problem  # noqa: E402
from test_chain import random_chain  # noqa: E402
from test_dispatch import HARD_HOURS, grid  # noqa: E402
from test_lp import dual_feasible_start, knapsack, mixed_instance  # noqa: E402


def outcome(solve, *args):
    """What ``solve(*args)`` returns, or the ``InvalidProblem`` it raises."""
    try:
        return solve(*args)
    except InvalidProblem as exc:
        return exc


def digest(sol):
    """The sha256 of everything in the outcome *sol*."""
    h = hashlib.sha256()
    if isinstance(sol, InvalidProblem):
        h.update(f"InvalidProblem {sol}".encode())
        return h.hexdigest()
    h.update(sol.status.encode())
    for arr in (sol.x, sol.duals, sol.reduced_costs):
        h.update(b"|" if arr is None else b"|" + np.asarray(arr).tobytes())
    h.update(repr((sol.objective, sol.duality_gap,
                   sorted(sol.stats.items()))).encode())
    return h.hexdigest()


def tree_digest(sol):
    """The sha256 of what the branch-and-bound outcome *sol* decides."""
    h = hashlib.sha256()
    if isinstance(sol, InvalidProblem):
        h.update(f"InvalidProblem {sol}".encode())
        return h.hexdigest()
    h.update(sol.status.encode())
    h.update(b"|" if sol.x is None else b"|" + sol.x.tobytes())
    h.update(repr((sol.objective, sol.stats.get("nodes"),
                   sol.stats.get("lp_solves"))).encode())
    return h.hexdigest()


def mixed_lps():
    # the starts draw from a stream of their own, so that how a start is
    # drawn does not move the instances
    rng, starts = np.random.default_rng(2200), np.random.default_rng(2201)
    for k in range(60):
        problem = build_problem(*mixed_instance(rng, k % 4 == 3))
        lazy = np.flatnonzero(rng.random(problem.n_cons) < 0.5)
        yield f"mixed{k}", solve_lp, problem
        yield f"mixed{k}.lazy", solve_lp, dataclasses.replace(
            problem, lazy_rows=lazy)
        started = dual_feasible_start(starts, problem)
        yield f"mixed{k}.start", solve_lp, started
        keep = np.setdiff1d(lazy, started.start[0])
        yield f"mixed{k}.start.lazy", solve_lp, dataclasses.replace(
            started, lazy_rows=keep)


def milps():
    for seed in range(300, 316):
        chain = random_chain(seed, bool(seed % 2), bool(seed // 2 % 2),
                             n_cand=10, n_sink=4)
        yield f"chain{seed}", solve_milp, chain.lp
        yield f"chain{seed}.root", solve_lp, dataclasses.replace(
            chain.lp, binaries=())
        lp = chain.lp
        yield f"chain{seed}.triplets", solve_lp, LinearProblem(
            lp.c, lp.lb, lp.ub, lp.a_rows, lp.a_cols, lp.a_vals, lp.senses,
            lp.rhs)
    rng = np.random.default_rng(31)
    for k in range(40):
        n = int(rng.integers(3, 9))
        values, weights = rng.uniform(1, 10, n), rng.uniform(1, 5, n)
        capacity = float(rng.uniform(0.3, 0.8) * weights.sum())
        yield f"knapsack{k}", solve_milp, knapsack(values, weights, capacity)


def warm_resolves():
    rng = np.random.default_rng(808)
    for seed in range(300, 306):
        chain = random_chain(seed, bool(seed % 2), bool(seed // 2 % 2),
                             n_cand=10, n_sink=4)
        relaxation = dataclasses.replace(chain.lp, binaries=())
        binaries = np.array(chain.lp.binaries)
        simplex = _Simplex(relaxation)
        simplex.solve()
        start = (simplex.basis.copy(), simplex.status.copy())
        for k in range(12):
            fixed = binaries[rng.random(binaries.size)
                             < rng.uniform(0.05, 0.5)]
            lb, ub = relaxation.lb.copy(), relaxation.ub.copy()
            lb[fixed] = ub[fixed] = rng.integers(0, 2, fixed.size)
            yield f"warm{seed}.{k}", simplex.resolve, lb, ub, *start


def posed(run, *args):
    """The LPs that ``run(*args)`` hands to dispatch's solver, in order; a
    solver error or infeasible redispatch ends the run, whose LPs are still
    listed."""
    problems = []
    solve = h2grid.dispatch.solve_lp

    def capture(problem):
        problems.append(problem)
        return solve(problem)

    h2grid.dispatch.solve_lp = capture
    try:
        run(*args)
    except (InvalidProblem, InfeasibleRedispatch):
        pass
    finally:
        h2grid.dispatch.solve_lp = solve
    return problems


def redispatch_hour(system, hour):
    return redispatch(system, hour, uniform_dispatch(system, hour))


def network_lps():
    """Every LP that ``run_year`` solves on the two systems, in order, and
    the LP of each hard hour."""
    fixture = congested_fixture(seed=42, hours=168).system
    grid60 = generate_synthetic_system(SyntheticSpec(
        seed=60, n_nodes=60, n_lines=84, hours=48, congestion=0.85))
    years = [("fixture", fixture, 168, MODE_UNIFORM_REDISPATCH),
             ("grid60.uniform", grid60, 48, MODE_UNIFORM_REDISPATCH),
             ("grid60.nodal", grid60, 48, MODE_NODAL)]
    for label, system, hours, mode in years:
        problems = posed(h2grid.dispatch.run_year, system, hours, mode)
        for k, problem in enumerate(problems):
            yield f"{label}.lp{k}", solve_lp, problem
    for seed, congestion, horizon, hours in HARD_HOURS:
        system = grid(240, seed, congestion, horizon)
        for hour in hours:
            (problem,) = posed(redispatch_hour, system, hour)
            yield (f"grid240.seed{seed}.c{congestion}.{horizon}h.hour{hour}",
                   solve_lp, problem)


def main():
    count = 0
    for source in (mixed_lps, milps, warm_resolves, network_lps):
        for name, solve, *args in source():
            sol = outcome(solve, *args)
            print(name, digest(sol))
            if solve is solve_milp:
                print(f"{name}.tree", tree_digest(sol))
            count += 1
    print(f"{count} problems", file=sys.stderr)


if __name__ == "__main__":
    main()
