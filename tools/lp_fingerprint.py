"""Print one sha256 per solve over a fixed, seeded set of LPs and MILPs.

Each line is ``<name> <sha256>``, the digest of everything the solve
returns: its status, the bytes of ``x``, the duals and the reduced costs,
the ``repr`` of the objective and the duality gap, and the stats (or the
message of the ``InvalidProblem`` it raises).  Two versions of the solver
that print the same lines solve every problem of the set alike, bit for
bit, and one version printing different lines under two hash seeds depends
on state it should not::

    PYTHONPATH=src python tools/lp_fingerprint.py > before.txt
    # change the solver
    PYTHONPATH=src python tools/lp_fingerprint.py > after.txt
    diff before.txt after.txt

The set, all of it drawn from fixed seeds:

* ``mixed_instance`` LPs (``tests/test_lp.py``: every row sense, boxed,
  one-sided and free columns, some infeasible), each solved as it is, with
  about half of its rows lazy, and from a dual feasible start basis of one
  or more columns, with and without lazy rows;
* ``random_chain`` siting MILPs (``tests/test_chain.py``) and their root
  relaxations, random knapsacks, and warm re-solves of chain relaxations
  with binaries fixed, as branch and bound makes them;
* every network LP of the uniform+redispatch baseline year of the
  168-hour ``congested10`` fixture (seed 42, as the golden study), and of
  both dispatch modes of a 48-hour, 60-node synthetic system (the
  ``grid60`` system of the CI's determinism step).

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
from h2grid.errors import InvalidProblem  # noqa: E402
from h2grid.lp import _Simplex, solve_lp, solve_milp  # noqa: E402
from problems import build_problem  # noqa: E402
from test_chain import random_chain  # noqa: E402
from test_lp import dual_feasible_start, knapsack, mixed_instance  # noqa: E402


def digest(solve, *args):
    """The sha256 of everything ``solve(*args)`` returns or raises."""
    h = hashlib.sha256()
    try:
        sol = solve(*args)
    except InvalidProblem as exc:
        h.update(f"InvalidProblem {exc}".encode())
        return h.hexdigest()
    h.update(sol.status.encode())
    for arr in (sol.x, sol.duals, sol.reduced_costs):
        h.update(b"|" if arr is None else b"|" + np.asarray(arr).tobytes())
    h.update(repr((sol.objective, sol.duality_gap,
                   sorted(sol.stats.items()))).encode())
    return h.hexdigest()


def mixed_lps():
    rng = np.random.default_rng(2200)
    for k in range(60):
        problem = build_problem(*mixed_instance(rng, k % 4 == 3))
        lazy = np.flatnonzero(rng.random(problem.n_cons) < 0.5)
        yield f"mixed{k}", solve_lp, problem
        yield f"mixed{k}.lazy", solve_lp, dataclasses.replace(
            problem, lazy_rows=lazy)
        started = dual_feasible_start(rng, problem)
        yield f"mixed{k}.start", solve_lp, started
        keep = np.setdiff1d(lazy, np.array(started.start_basis)[:, 0])
        yield f"mixed{k}.start.lazy", solve_lp, dataclasses.replace(
            started, lazy_rows=keep)


def milps():
    for seed in range(300, 316):
        chain = random_chain(seed, bool(seed % 2), bool(seed // 2 % 2),
                             n_cand=10, n_sink=4)
        yield f"chain{seed}", solve_milp, chain.lp
        yield f"chain{seed}.root", solve_lp, dataclasses.replace(
            chain.lp, binaries=())
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


def network_lps():
    """Every LP that ``run_year`` solves on the two systems, in order."""
    fixture = congested_fixture(seed=42, hours=168).system
    grid60 = generate_synthetic_system(SyntheticSpec(
        seed=60, n_nodes=60, n_lines=84, hours=48, congestion=0.85))
    years = [("fixture", fixture, 168, MODE_UNIFORM_REDISPATCH),
             ("grid60.uniform", grid60, 48, MODE_UNIFORM_REDISPATCH),
             ("grid60.nodal", grid60, 48, MODE_NODAL)]
    solve = h2grid.dispatch.solve_lp
    for label, system, hours, mode in years:
        problems = []

        def capture(problem):
            problems.append(problem)
            return solve(problem)

        h2grid.dispatch.solve_lp = capture
        try:
            h2grid.dispatch.run_year(system, hours, mode)
        finally:
            h2grid.dispatch.solve_lp = solve
        for k, problem in enumerate(problems):
            yield f"{label}.lp{k}", solve_lp, problem


def main():
    count = 0
    for source in (mixed_lps, milps, warm_resolves, network_lps):
        for name, solve, *args in source():
            print(name, digest(solve, *args))
            count += 1
    print(f"{count} problems", file=sys.stderr)


if __name__ == "__main__":
    main()
