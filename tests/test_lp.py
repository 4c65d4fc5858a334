"""Solver tests against enumeration oracles.

The LP oracle enumerates basic points (all n-subsets of active hyperplanes)
of fully bounded random problems, so it is independent of the simplex code
under test.
"""

import copy
import dataclasses
import itertools
import math

import numpy as np
import pytest

import h2grid.dispatch
import h2grid.lp
from h2grid.chain import CARRIER_DEFAULTS, build_chain_problem
from h2grid.dispatch import MODE_UNIFORM_REDISPATCH, run_year
from h2grid.errors import InvalidProblem, ResourceLimit
from h2grid.lp import (EQ, GE, INT_TOL, LE, LinearProblem, _Simplex,
                       scale_matrix, solve_lp, solve_milp)
from h2grid.pipeline import FLAT, NODAL, Scenario, derive_tariffs
from h2grid.synth import congested_fixture
from problems import build_problem
from test_chain import LARGE_CASES, random_chain


def vertex_oracle(c, a, senses, b, lb, ub, tol=1e-7):
    """Best objective over all vertices of a bounded polyhedron.

    Returns None when no feasible vertex exists.  All variable bounds must
    be finite so the feasible set is a polytope and the optimum (if any)
    sits at a vertex.
    """
    n = len(c)
    planes = []
    for i in range(len(b)):
        planes.append((a[i], b[i]))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        planes.append((e, lb[j]))
        planes.append((e, ub[j]))

    eq_rows = [i for i, s in enumerate(senses) if s == EQ]
    best = None
    for combo in itertools.combinations(range(len(planes)), n):
        if any(i not in combo for i in eq_rows):
            continue
        mat = np.array([planes[i][0] for i in combo])
        rhs = np.array([planes[i][1] for i in combo])
        if abs(np.linalg.det(mat)) < 1e-10:
            continue
        x = np.linalg.solve(mat, rhs)
        if np.any(x < lb - tol) or np.any(x > ub + tol):
            continue
        ax = a @ x
        ok = True
        for i, s in enumerate(senses):
            if s == LE and ax[i] > b[i] + tol:
                ok = False
            elif s == GE and ax[i] < b[i] - tol:
                ok = False
            elif s == EQ and abs(ax[i] - b[i]) > tol:
                ok = False
        if not ok:
            continue
        val = float(c @ x)
        if best is None or val < best:
            best = val
    return best


def random_instance(rng, n=5, m=4):
    c = rng.uniform(-5, 5, n)
    a = rng.uniform(-3, 3, (m, n))
    senses = [rng.choice([LE, GE, EQ], p=[0.5, 0.35, 0.15]) for _ in range(m)]
    b = rng.uniform(-4, 8, m)
    lb = rng.uniform(-3, 0, n)
    ub = lb + rng.uniform(0.5, 6, n)
    return c, a, senses, b, lb, ub


class TestRandomLPs:
    def test_matches_vertex_oracle(self):
        rng = np.random.default_rng(2001)
        checked = 0
        for _ in range(120):
            c, a, senses, b, lb, ub = random_instance(rng)
            expected = vertex_oracle(c, a, senses, b, lb, ub)
            sol = solve_lp(build_problem(c, a, senses, b, lb, ub))
            if expected is None:
                assert sol.status == "Infeasible"
            else:
                assert sol.status == "Optimal"
                assert sol.objective == pytest.approx(expected, abs=1e-5)
                checked += 1
        assert checked > 40  # most random instances should be feasible

    def test_weak_and_strong_duality(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            c, a, senses, b, lb, ub = random_instance(rng)
            sol = solve_lp(build_problem(c, a, senses, b, lb, ub))
            if sol.status != "Optimal":
                continue
            # strong duality: gap vanishes at the optimum
            assert abs(sol.duality_gap) < 1e-5 * (1 + abs(sol.objective))
            # dual signs: <= rows price <= 0 is wrong for minimization
            for i, s in enumerate(senses):
                if s == LE:
                    assert sol.duals[i] <= 1e-7
                elif s == GE:
                    assert sol.duals[i] >= -1e-7

    def test_determinism(self):
        rng = np.random.default_rng(99)
        c, a, senses, b, lb, ub = random_instance(rng)
        p = build_problem(c, a, senses, b, lb, ub)
        first = solve_lp(p)
        for _ in range(3):
            again = solve_lp(p)
            assert again.status == first.status
            if first.status == "Optimal":
                assert np.array_equal(again.x, first.x)
                assert again.objective == first.objective


class TestKnownLPs:
    def test_bounded_single_var(self):
        # min -x s.t. x <= 3 on x in [0, 10]
        sol = solve_lp(build_problem([-1.0], [[1.0]], [LE], [3.0], [0.0],
                                     [10.0]))
        assert sol.status == "Optimal"
        assert sol.x[0] == pytest.approx(3.0)
        assert sol.duals[0] == pytest.approx(-1.0)

    def test_merit_order_duals(self):
        # two plants, costs 10 and 50, caps 100 each, demand 120:
        # marginal plant sets the balance dual at 50
        sol = solve_lp(build_problem([10.0, 50.0], [[1.0, 1.0]], [EQ],
                                     [120.0], [0.0, 0.0], [100.0, 100.0]))
        assert sol.objective == pytest.approx(2000.0)
        assert sol.x[0] == pytest.approx(100.0)
        assert sol.duals[0] == pytest.approx(50.0)

    def test_infeasible(self):
        problem = build_problem([0.0], [[1.0]], [GE], [2.0], [0.0], [1.0])
        assert solve_lp(problem).status == "Infeasible"

    def test_unbounded(self):
        problem = build_problem([-1.0], [[1.0]], [GE], [0.0], [0.0], [np.inf])
        assert solve_lp(problem).status == "Unbounded"

    def test_free_variables(self):
        # free variable must be able to go negative
        sol = solve_lp(build_problem([1.0], [[1.0]], [LE], [-5.0], [-np.inf],
                                     [np.inf]))
        assert sol.status == "Unbounded"

        sol = solve_lp(build_problem([-1.0, 2.0], [[1.0, 1.0], [1.0, -1.0]],
                                     [EQ, LE], [-3.0, 1.0], [-np.inf] * 2,
                                     [np.inf] * 2))
        assert sol.status == "Optimal"
        assert sol.x[0] == pytest.approx(-1.0)
        assert sol.x[1] == pytest.approx(-2.0)

    # costs that no basis prices right, as phase 1 proves; then a feasible
    # problem is unbounded, an infeasible one infeasible
    DUAL_INFEASIBLE = {
        # min -z on a zero column z >= 0, next to x >= 2 on x in [0, 1]
        "both infeasible": ("Infeasible", [0.0, -1.0], [[1.0, 0.0]], [GE],
                            [2.0], [0.0, 0.0], [1.0, np.inf]),
        # min 2 y s.t. x - y >= -1 with y <= 4 and no lower bound
        "upper-only column": ("Unbounded", [0.0, 2.0], [[1.0, -1.0]], [GE],
                              [-1.0], [0.0, -np.inf], [1.0, 4.0]),
        # min y s.t. x + y <= 3 with y free
        "free column": ("Unbounded", [0.0, 1.0], [[1.0, 1.0]], [LE], [3.0],
                        [0.0, -np.inf], [1.0, np.inf]),
    }

    @pytest.mark.parametrize("case", DUAL_INFEASIBLE)
    def test_dual_infeasible(self, case):
        status, *instance = self.DUAL_INFEASIBLE[case]
        sol = solve_lp(build_problem(*instance))
        assert sol.status == status
        assert sol.stats["iterations"] == sol.stats["phase1_iterations"]
        assert_highs_status(instance, status)

    @pytest.mark.parametrize("sense, x, objective", [
        (EQ, [2.0, 3.0], 1.0), (LE, [2.0, 0.0], -2.0), (GE, [2.0, 3.0], 1.0)])
    def test_upper_bounded_only_column(self, sense, x, objective):
        # min -x + y s.t. x + y (sense) 5, x <= 2 with no lower bound: the
        # column must never step past its upper bound
        sol = solve_lp(build_problem([-1.0, 1.0], [[1.0, 1.0]], [sense],
                                     [5.0], [-np.inf, 0.0], [2.0, 10.0]))
        assert sol.status == "Optimal"
        assert sol.x == pytest.approx(x)
        assert sol.objective == pytest.approx(objective)

    def test_validation(self):
        with pytest.raises(InvalidProblem):
            LinearProblem(c=np.array([np.nan]), lb=np.zeros(1),
                          ub=np.ones(1), a_rows=np.zeros(0, dtype=int),
                          a_cols=np.zeros(0, dtype=int), a_vals=np.zeros(0),
                          senses=(), rhs=np.zeros(0))

    @pytest.mark.parametrize("sense", ["<", "<==", "", 5])
    def test_unknown_sense_is_named(self, sense):
        # a sense that starts like a known one, or is not a string, is
        # rejected whole; it may be named as the string it is kept as
        with pytest.raises(InvalidProblem) as exc:
            build_problem([1.0], [[1.0], [1.0]], [LE, sense], [1.0, 1.0],
                          [0.0], [1.0])
        assert str(exc.value) in {f"unknown constraint sense {s!r}"
                                  for s in (sense, str(sense))}


def bounded_instance(rng, m, n):
    """Dense, fully bounded random LP, feasible by construction: every row
    holds at an interior point x0 with a random margin on its inequality."""
    c = rng.uniform(-5, 5, n)
    a = rng.uniform(-3, 3, (m, n))
    lb = rng.uniform(-3, 0, n)
    ub = lb + rng.uniform(0.5, 6, n)
    x0 = lb + rng.uniform(0.1, 0.9, n) * (ub - lb)
    senses = [str(s) for s in rng.choice([LE, GE, EQ], m, p=[0.45, 0.4, 0.15])]
    margin = rng.uniform(0, 2, m)
    sign = np.array([{LE: 1.0, GE: -1.0, EQ: 0.0}[s] for s in senses])
    b = a @ x0 + sign * margin
    return c, a, senses, b, lb, ub


def highs(optimize, c, a, senses, b, lb, ub):
    """The same LP solved by scipy's HiGHS."""
    kind = np.array(senses)
    sign = np.where(kind == GE, -1.0, 1.0)[:, None]
    ineq = kind != EQ
    return optimize.linprog(
        c, A_ub=(sign * a)[ineq], b_ub=(sign[:, 0] * b)[ineq],
        A_eq=a[~ineq], b_eq=b[~ineq], bounds=list(zip(lb, ub)),
        method="highs")


def assert_highs_status(instance, status):
    """HiGHS, where scipy is present, gives *instance* the *status*."""
    try:
        from scipy import optimize
    except ImportError:
        return
    ref = highs(optimize, *map(np.asarray, instance))
    assert TestMixedLPsAgainstHighs.STATUS[ref.status] == status


def mixed_instance(rng, infeasible):
    """Random LP with LE/GE/EQ rows and boxed, lower-only, upper-only and
    free columns; feasible at an interior point unless *infeasible*, which
    adds a GE copy of one row whose rhs exceeds the row's LE rhs."""
    m, n = (int(k) for k in rng.integers(3, 13, 2))
    c = rng.uniform(-5, 5, n)
    a = rng.uniform(-3, 3, (m, n)) * (rng.random((m, n)) < 0.7)
    kind = rng.choice(4, n, p=[0.4, 0.2, 0.2, 0.2])  # box, lower, upper, free
    lo = rng.uniform(-3, 0, n)
    hi = lo + rng.uniform(0.5, 6, n)
    lb = np.where(kind <= 1, lo, -np.inf)
    ub = np.where(kind % 2 == 0, hi, np.inf)
    x0 = lo + rng.uniform(0.1, 0.9, n) * (hi - lo)
    senses = [str(s) for s in rng.choice([LE, GE, EQ], m, p=[0.45, 0.4, 0.15])]
    sign = np.array([{LE: 1.0, GE: -1.0, EQ: 0.0}[s] for s in senses])
    b = a @ x0 + sign * rng.uniform(0, 2, m)
    if infeasible:
        i = int(rng.integers(m))
        senses[i] = LE
        a = np.vstack([a, a[i]])
        b = np.append(b, b[i] + rng.uniform(0.5, 2))
        senses.append(GE)
    return c, a, senses, b, lb, ub


class TestMixedLPsAgainstHighs:
    """Status and objective against HiGHS on LPs with every row sense and
    every kind of column bound, including infeasible and unbounded ones.
    Infeasibility is found by the dual simplex of phase 1, on a violated
    row that no column can repair."""

    STATUS = {0: "Optimal", 2: "Infeasible", 3: "Unbounded"}

    def test_matches_highs(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(11)
        seen = set()
        for k in range(60):
            instance = mixed_instance(rng, infeasible=k % 4 == 3)
            sol = solve_lp(build_problem(*instance))
            ref = highs(optimize, *instance)
            assert sol.status == self.STATUS[ref.status]
            if sol.optimal:
                assert sol.objective == pytest.approx(ref.fun, rel=1e-6)
            seen.add(sol.status)
        assert seen == {"Optimal", "Infeasible", "Unbounded"}


class TestDualPhaseOne:
    """Cold solves whose slack start is neither primal nor dual feasible:
    phase 1 solves the auxiliary problem with the dual simplex on the true
    costs, or proves them dual infeasible."""

    def test_matches_highs(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(1414)
        kinds, seen = set(), set()
        for k in range(80):
            instance = mixed_instance(rng, infeasible=k % 3 == 2)
            problem = build_problem(*instance)
            start = _Simplex(problem)
            n, status = problem.n_vars, start._rest()
            wrong = (start.lb < start.ub) & h2grid.lp._improving(status,
                                                                 start.c)
            x = np.select([status == h2grid.lp._AT_LB,
                           status == h2grid.lp._AT_UB], [start.lb, start.ub])
            xb = start.b - start.a[:, :n] @ x[:n]
            if not (wrong.any() and np.any((xb < start.lb[n:] - 1e-7)
                                           | (xb > start.ub[n:] + 1e-7))):
                continue  # the slack start is primal or dual feasible
            c, st = start.c[wrong], status[wrong]
            kinds.update(kind for kind, drawn in (
                ("lower", np.any((st == h2grid.lp._AT_LB) & (c < 0))),
                ("upper", np.any((st == h2grid.lp._AT_UB) & (c > 0))),
                ("free", np.any(st == h2grid.lp._FREE))) if drawn)
            sol = solve_lp(problem)
            ref = highs(optimize, *instance)
            assert sol.status == TestMixedLPsAgainstHighs.STATUS[ref.status]
            if sol.optimal:
                assert sol.objective == pytest.approx(ref.fun, rel=1e-6)
            assert sol.stats["phase1_iterations"] > 0
            assert solve_lp(problem).stats == sol.stats  # counters repeat
            seen.add(sol.status)
        assert kinds == {"lower", "upper", "free"}
        assert "Infeasible" in seen

    def test_large_siting_root(self):
        # the root relaxation of a 120 x 30 siting MILP by volume: 391 rows,
        # 3,840 columns; the primal phase 1 on artificial columns this
        # replaced took 5,472 iterations
        optimize = pytest.importorskip("scipy.optimize")
        lp = dataclasses.replace(random_chain(5, True, False, n_cand=120,
                                              n_sink=30).lp, binaries=())
        sol = solve_lp(lp)
        ref = highs(optimize, lp.c, lp.dense_matrix(), lp.senses, lp.rhs,
                    lp.lb, lp.ub)
        assert sol.optimal and ref.status == 0
        assert sol.objective == pytest.approx(ref.fun, rel=1e-9)
        assert sol.stats["iterations"] <= 600

    @pytest.mark.slow
    def test_paper_scale_siting_root(self):
        # the root relaxation of a 240 x 60 siting MILP by volume; HiGHS's
        # optimum is 433,773,853.41 EUR
        lp = dataclasses.replace(random_chain(5, True, False, n_cand=240,
                                              n_sink=60).lp, binaries=())
        assert (lp.n_cons, lp.n_vars) == (781, 14880)
        sol = solve_lp(lp)
        assert sol.stats["iterations"] == 539
        assert sol.objective == pytest.approx(433_773_853.41, rel=1e-9)


class TestRefactorization:
    """LPs with more than 64 basis changes, so the basis inverse is rebuilt
    from scratch at least once during the solve."""

    SIZE = (40, 60)

    def instances(self, count):
        rng = np.random.default_rng(64)
        return [bounded_instance(rng, *self.SIZE) for _ in range(count)]

    def test_refactored_solves_stay_optimal(self):
        refactored = 0
        for c, a, senses, b, lb, ub in self.instances(12):
            problem = build_problem(c, a, senses, b, lb, ub)
            sol = solve_lp(problem)
            assert sol.status == "Optimal"
            stats = sol.stats
            refactored += stats["refactorizations"] >= 1
            assert 0 < stats["phase1_iterations"] <= stats["iterations"]
            assert solve_lp(problem).stats == stats  # counters repeat
            assert abs(sol.duality_gap) < 1e-9 * (1 + abs(sol.objective))
            ax = a @ sol.x
            assert np.all(sol.x >= lb - 1e-7) and np.all(sol.x <= ub + 1e-7)
            for i, s in enumerate(senses):
                if s == LE:
                    assert ax[i] <= b[i] + 1e-7
                    assert sol.duals[i] <= 1e-7
                elif s == GE:
                    assert ax[i] >= b[i] - 1e-7
                    assert sol.duals[i] >= -1e-7
                else:
                    assert ax[i] == pytest.approx(b[i], abs=1e-7)
        assert refactored > 0

    def test_matches_highs(self):
        optimize = pytest.importorskip("scipy.optimize")
        for instance in self.instances(6):
            sol = solve_lp(build_problem(*instance))
            ref = highs(optimize, *instance)
            assert ref.status == 0
            assert sol.objective == pytest.approx(ref.fun, rel=1e-6)

    def test_singular_basis_is_invalid_problem(self, monkeypatch):
        problem = build_problem(*self.instances(1)[0])

        def singular(matrix):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(InvalidProblem,
                           match=r"singular basis in phase \d at iteration \d+"):
            solve_lp(problem)


class InverseLog(_Simplex):
    """Compares the block-form inverse with ``np.linalg.inv`` of the
    explicit basis matrix after every basis change and every append of
    held-back rows, and records which kinds of unit column the basis held:
    ``"slack"`` and ``"appended"`` (the slack of a row ``_add_rows``
    appended)."""

    def _check(self):
        full = np.linalg.inv(self.a[:, self.basis])
        self.errors.append(float(np.abs(self._invert() - full).max()
                                 / np.abs(full).max()))
        rows = self.basis[self.basis >= self.n_struct] - self.n_struct
        if np.any(rows < self.first_rows):
            self.kinds.add("slack")
        if np.any(rows >= self.first_rows):
            self.kinds.add("appended")

    def _replace(self, *args):
        super()._replace(*args)
        self._check()

    def _add_rows(self, new):
        super()._add_rows(new)
        self._check()


def proportional_rows():
    """min x + 2 y s.t. x + y >= 1, 2 x + 2 y <= 8, x <= 4 on [0, 5]^2: x
    and y have proportional coefficients in rows 0 and 1, and y has none in
    row 2."""
    return build_problem([1.0, 2.0], [[1.0, 1.0], [2.0, 2.0], [1.0, 0.0]],
                         [GE, LE, LE], [1.0, 8.0, 4.0], np.zeros(2),
                         np.full(2, 5.0))


class TestBlockInverse:
    """The basis inverse inverts only the block of the structural basic
    columns; slacks are unit columns."""

    def test_matches_full_inverse(self):
        rng = np.random.default_rng(1212)
        errors, kinds = [], set()
        for k in range(60):
            problem = build_problem(*mixed_instance(rng, k % 4 == 3))
            lazy = np.flatnonzero(rng.random(problem.n_cons) < 0.5)
            simplex = InverseLog(dataclasses.replace(problem, lazy_rows=lazy))
            simplex.errors, simplex.kinds = errors, kinds
            simplex.first_rows = problem.n_cons - lazy.size
            simplex.solve()
        assert kinds == {"slack", "appended"}
        assert len(errors) > 500
        assert max(errors) <= 1e-12

    def test_singular_bases(self):
        # x and y have proportional coefficients in rows 0 and 1
        problem = proportional_rows()
        simplex = _Simplex(problem)
        assert simplex.solve().optimal
        basis = np.array([0, 1, simplex.n_struct + 2])  # x, y and row 2's slack
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(simplex.a[:, basis])
        with pytest.raises(InvalidProblem,
                           match="singular basis in dual at iteration 0"):
            simplex.resolve(problem.lb, problem.ub, basis, simplex.status)


def dense_replace(self, pos, enter, w, hit, phase):
    """``_Simplex._replace`` with the dense rank-one update on every
    pivot."""
    self.status[self.basis[pos]] = hit
    self.status[enter] = h2grid.lp._BASIC
    self.basis[pos] = enter
    row = self.binv[pos] / w[pos]
    self.binv -= w[:, None] * row
    self.binv[pos] = row
    self.updates += 1
    if self.updates >= h2grid.lp._REFACTOR_PERIOD:
        self._refactor(phase)


def fingerprint(sol):
    """Everything a solve returns, to the bit."""
    arrays = (sol.x, sol.duals, sol.reduced_costs)
    return (sol.status, [None if a is None else a.tobytes() for a in arrays],
            repr(sol.objective), repr(sol.duality_gap), sol.stats)


class TestSparseUpdate:
    """The inverse update subtracts the rank-one term from only the rows
    where the entering column is nonzero when fewer than half of them are,
    and takes the dense product otherwise; the results are those of the
    dense product on every pivot, to the bit."""

    def cases(self):
        rng = np.random.default_rng(2121)
        for k in range(60):
            problem = build_problem(*mixed_instance(rng, k % 4 == 3))
            lazy = np.flatnonzero(rng.random(problem.n_cons) < 0.5)
            yield "lp", solve_lp, problem
            yield "lazy", solve_lp, dataclasses.replace(problem,
                                                        lazy_rows=lazy)
        for seed in range(300, 312):
            chain = random_chain(seed, bool(seed % 2), bool(seed // 2 % 2),
                                 n_cand=10, n_sink=4)
            yield "milp", solve_milp, chain.lp
            # one row: every entering column is dense
            values, weights = rng.uniform(1, 10, 8), rng.uniform(1, 5, 8)
            yield "milp", solve_milp, knapsack(values, weights,
                                               0.5 * float(weights.sum()))

    def test_matches_dense_update(self, monkeypatch):
        default = _Simplex._replace
        sparse = {}  # by kind, whether each update took the sparse branch

        def spy(self, pos, enter, w, hit, phase):
            sparse.setdefault(kind, set()).add(2 * np.count_nonzero(w)
                                               < w.size)
            default(self, pos, enter, w, hit, phase)

        for kind, solve, problem in self.cases():
            monkeypatch.setattr(_Simplex, "_replace", spy)
            got = fingerprint(solve(problem))
            monkeypatch.setattr(_Simplex, "_replace", dense_replace)
            assert fingerprint(solve(problem)) == got, kind
        # the comparison covers both branches for each kind of solve
        assert sparse == {kind: {False, True}
                          for kind in ("lp", "lazy", "milp")}


class PoisonedX(_Simplex):
    """Sets every entry of x to NaN before ``_finish``, while
    ``poisoned`` is set."""

    poisoned = True

    def _finish(self, phase, *args, **kwargs):
        if self.poisoned:
            self.x[:] = np.nan
        return super()._finish(phase, *args, **kwargs)


class TestFiniteResult:
    """A solve whose objective or duality gap is not finite raises
    ``InvalidProblem`` naming the phase and the iteration; it is never
    ``Optimal``."""

    def problem(self):
        # two plants, costs 10 and 50, caps 100 each, demand 120
        return build_problem([10.0, 50.0], [[1.0, 1.0]], [EQ], [120.0],
                             [0.0, 0.0], [100.0, 100.0])

    def test_cold_solve(self):
        with pytest.raises(InvalidProblem, match=r"^non-finite objective or "
                           r"duality gap in phase 1 at iteration 0$"):
            PoisonedX(self.problem()).solve()

    def test_warm_resolve(self):
        problem = self.problem()
        simplex = PoisonedX(problem)
        simplex.poisoned = False
        assert simplex.solve().optimal
        simplex.poisoned = True
        with pytest.raises(InvalidProblem, match=r"^non-finite objective or "
                           r"duality gap in dual at iteration 0$"):
            simplex.resolve(problem.lb, problem.ub, simplex.basis.copy(),
                            simplex.status.copy())


class CorruptInverse(_Simplex):
    """Zeroes the basis inverse before each of the first ``corruptions``
    entering columns is taken, so that the column's pivot element no
    longer matches the one the pivot row gave."""

    corruptions = 1

    def _column(self, j):
        if self.corruptions:
            self.corruptions -= 1
            self.binv[:] = 0.0
        return super()._column(j)


class TestPivotElement:
    """``_dual`` takes the pivot element from the pivot row and from the
    entering column; a mismatch rebuilds the inverse once, and a second one
    raises ``InvalidProblem`` before anything divides by the element (a
    division by zero would warn, and pytest's ``filterwarnings`` makes a
    warning an error)."""

    def problem(self):
        rng = np.random.default_rng(7)
        return build_problem(*mixed_instance(rng, False))

    def test_one_corruption_refactors(self):
        problem = self.problem()
        clean = solve_lp(problem)
        assert clean.optimal and clean.stats["iterations"] > 1
        sol = CorruptInverse(problem).solve()
        assert sol.optimal
        assert sol.objective == pytest.approx(clean.objective, rel=1e-12)
        assert (sol.stats["refactorizations"]
                == clean.stats["refactorizations"] + 1)
        assert sol.stats["iterations"] == clean.stats["iterations"]

    def test_persistent_corruption_raises(self):
        simplex = CorruptInverse(self.problem())
        simplex.corruptions = 2  # the column taken again after the rebuild
        with pytest.raises(InvalidProblem, match=r"^unstable pivot element "
                           r"in phase 1 at iteration 1$"):
            simplex.solve()


# what a derived problem may change, each made invalid; every case must
# raise the constructor's message through LinearProblem.derive as well
DERIVED_ERRORS = {
    "rhs NaN": {"rhs": [1.0, np.nan, 4.0]},
    "rhs infinite": {"rhs": [1.0, 8.0, -np.inf]},
    "lb NaN": {"lb": [np.nan, 0.0]},
    "ub NaN": {"ub": [1.0, np.nan]},
    "lb above ub": {"lb": [0.0, 6.0]},
    "binary outside [0, 1]": {"ub": [2.0, 5.0]},
    "lb length": {"lb": [0.0]},
    "ub length": {"ub": [1.0, 5.0, 5.0]},
    "rhs length": {"rhs": [1.0, 8.0]},
    "lazy row negative": {"lazy_rows": [-1]},
    "lazy row past the end": {"lazy_rows": [3]},
    "lazy row duplicated": {"lazy_rows": [1, 1]},
    "lazy row not an integer": {"lazy_rows": [0.5]},
    "start row out of range": {"start": (3, 0)},
    "start column out of range": {"start": (0, 2)},
    "start row lazy": {"lazy_rows": [1], "start": (1, 0)},
    "start not a pair": {"start": [(0, 0)]},
    "start wrong length": {"start": (0, 0, 1)},
    "start not integers": {"start": (True, 0)},
    "start float": {"start": (0.0, 0)},
}


class TestDerive:
    """``LinearProblem.derive`` replaces the bounds, rhs, lazy rows and
    start of a checked problem and checks only those, with the
    constructor's messages."""

    def template(self, binaries=(0,)):
        """proportional_rows, with column 0 binary unless *binaries* is
        empty."""
        return dataclasses.replace(proportional_rows(),
                                   ub=[1.0 if binaries else 5.0, 5.0],
                                   binaries=binaries)

    @pytest.mark.parametrize("change", DERIVED_ERRORS.values(),
                             ids=DERIVED_ERRORS)
    def test_keeps_every_check(self, change):
        template = self.template()
        data = {"lb": template.lb, "ub": template.ub, "rhs": template.rhs,
                "lazy_rows": (), "start": None, **change}
        with pytest.raises(InvalidProblem) as want:
            dataclasses.replace(template, **change)
        with pytest.raises(InvalidProblem) as got:
            template.derive(**data)
        assert str(got.value) == str(want.value)

    def test_matches_constructor(self):
        template = self.template(binaries=())
        data = {"lb": [0.0, 0.0], "ub": [4.0, 5.0], "rhs": [2.0, 8.0, 3.0],
                "lazy_rows": [2, 1], "start": (0, 0)}
        derived = template.derive(**data)
        built = dataclasses.replace(template, **data)
        for f in dataclasses.fields(LinearProblem):
            got, want = getattr(derived, f.name), getattr(built, f.name)
            assert type(got) is type(want), f.name
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        # what a simplex reads of the costs and senses is the template's
        for name in ("_scaled_c", "_slack_lb", "_slack_ub"):
            shared, own = getattr(derived, name), getattr(built, name)
            assert shared is getattr(template, name) and shared is not own
            assert shared.tobytes() == own.tobytes()
        assert fingerprint(solve_lp(derived)) == fingerprint(solve_lp(built))


def scalar_pow2_scale(v):
    if v <= 0 or not np.isfinite(v):
        return 1.0
    return 2.0 ** (-round(np.log2(v)))


def scalar_rest(lo, hi):
    """Starting value and status of one column: the lower bound unless the
    upper one is the only finite bound or both are finite, <= 0 and < 0;
    free columns rest at zero."""
    if np.isfinite(lo) and (lo >= 0 or not np.isfinite(hi) or hi > 0):
        return lo, 0
    if np.isfinite(hi):
        return hi, 1
    return 0.0, 3


BOUND_PAIRS = [(-np.inf, np.inf), (-np.inf, -1.0), (-np.inf, 0.0),
               (-np.inf, 2.0), (-2.0, np.inf), (-2.0, -1.0), (-2.0, 0.0),
               (-2.0, 3.0), (0.0, 0.0), (0.0, 4.0), (0.0, np.inf),
               (1.5, 2.0), (1.5, np.inf), (-0.0, 1.0)]


class TestSetupArrays:
    """The array set-up of the simplex against scalar loops: equilibration,
    slack bounds, the slack start and duality gap must agree to the bit."""

    def test_matches_scalar_loops(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            m, n = (int(k) for k in rng.integers(1, 9, 2))
            a = rng.uniform(-3, 3, (m, n)) * 10.0 ** rng.integers(-6, 7, (m, n))
            a[rng.random((m, n)) < 0.3] = 0.0
            pairs = [BOUND_PAIRS[k] for k in rng.integers(len(BOUND_PAIRS),
                                                          size=n)]
            lb, ub = np.array(pairs).T
            senses = [str(s) for s in rng.choice([LE, GE, EQ], m)]
            b = rng.uniform(-5, 5, m)
            problem = build_problem(rng.uniform(-5, 5, n), a, senses, b, lb, ub)
            simplex = _Simplex(problem)

            dense = problem.dense_matrix()
            row = np.array([scalar_pow2_scale(np.abs(dense[i]).max(initial=0.0))
                            for i in range(m)])
            dense = dense * row[:, None]
            col = np.array([scalar_pow2_scale(np.abs(dense[:, j]).max(initial=0.0))
                            for j in range(n)])
            assert simplex.row_scale.tobytes() == row.tobytes()
            assert simplex.col_scale.tobytes() == col.tobytes()

            slack = {LE: (0.0, np.inf), GE: (-np.inf, 0.0), EQ: (0.0, 0.0)}
            slack_lb, slack_ub = np.array([slack[s] for s in senses]).T
            assert simplex.lb[n:].tobytes() == slack_lb.tobytes()
            assert simplex.ub[n:].tobytes() == slack_ub.tobytes()

            # the slack start: every slack basic at its row's residual, the
            # identity inverse, each boxed column at the bound its cost
            # prefers, and the movable columns that still price wrong
            rest = [scalar_rest(lo, hi)
                    for lo, hi in zip(simplex.lb, simplex.ub)]
            x = [v for v, _ in rest]
            status = [s for _, s in rest]
            wrong = [False] * (n + m)
            for j in range(n):
                c, lo, hi = simplex.c[j], simplex.lb[j], simplex.ub[j]
                off = ((status[j] == 0 and c < -h2grid.lp.OPT_TOL)
                       or (status[j] == 1 and c > h2grid.lp.OPT_TOL)
                       or (status[j] == 3 and abs(c) > h2grid.lp.OPT_TOL))
                if off and np.isfinite(lo) and np.isfinite(hi):
                    x[j], status[j] = (hi, 1) if status[j] == 0 else (lo, 0)
                else:
                    wrong[j] = off and lo < hi
            resid = simplex.b - simplex.a @ np.array(x)
            for i in range(m):
                x[n + i], status[n + i] = resid[i], 2
            d, got = simplex._start()  # a cold start computes no d
            assert d is None and np.array_equal(got, wrong)
            assert simplex.x.tobytes() == np.array(x).tobytes()
            assert np.array_equal(simplex.status, status)
            assert np.array_equal(simplex.basis, np.arange(n, n + m))
            assert np.array_equal(simplex.binv, np.eye(m))

            duals = rng.uniform(-2, 2, m)
            reduced = rng.uniform(-2, 2, n) * (rng.random(n) < 0.7)
            expected = float(duals @ problem.rhs)
            for j in range(n):
                if reduced[j] > 0 and np.isfinite(lb[j]):
                    expected += reduced[j] * lb[j]
                elif reduced[j] < 0 and np.isfinite(ub[j]):
                    expected += reduced[j] * ub[j]
            assert simplex._duality_gap(1.25, duals, reduced) == 1.25 - expected


class TestScaledMatrix:
    """A problem may carry its dense matrix pre-scaled; it must solve as
    the same problem given as triplets does."""

    def test_matches_triplet_problem(self):
        rng = np.random.default_rng(31)
        for k in range(30):
            problem = build_problem(*mixed_instance(rng, k % 4 == 3))
            dense = problem.dense_matrix()
            empty = np.zeros(0)
            given = dataclasses.replace(problem, a_rows=empty, a_cols=empty,
                                        a_vals=empty,
                                        matrix=scale_matrix(dense))
            assert given.dense_matrix().tobytes() == dense.tobytes()
            simplex, reference = _Simplex(given), _Simplex(problem)
            for name in ("row_scale", "col_scale", "a_all", "b_all"):
                assert (getattr(simplex, name).tobytes()
                        == getattr(reference, name).tobytes())
            sol, want = simplex.solve(), reference.solve()
            assert sol.status == want.status
            assert sol.stats == want.stats
            if want.optimal:
                assert sol.x.tobytes() == want.x.tobytes()
                assert sol.duals.tobytes() == want.duals.tobytes()

    def test_dense_matrix_round_trips(self):
        # a ScaledMatrix keeps only the scaled matrix; the scales are powers
        # of two, so unscaling restores every bit, signed zeros included
        rng = np.random.default_rng(4242)
        signed_zeros = 0
        for _ in range(50):
            m, n = (int(k) for k in rng.integers(1, 9, 2))
            spread = 10.0 ** rng.integers(-6, 7, (m, n))  # within a row
            a = (rng.uniform(-3, 3, (m, n)) * spread
                 * 10.0 ** rng.uniform(-150, 150, (m, 1)))
            a[rng.random((m, n)) < 0.2] = 0.0
            a[rng.random((m, n)) < 0.2] = -0.0
            signed_zeros += int(np.signbit(a[a == 0.0]).sum())
            problem = LinearProblem(np.zeros(n), np.zeros(n), np.ones(n),
                                    [], [], [], [LE] * m, np.ones(m),
                                    matrix=scale_matrix(a))
            assert problem.dense_matrix().tobytes() == a.tobytes()
        assert signed_zeros > 0

    def test_validation(self):
        problem = build_problem([1.0], [[1.0]], [LE], [1.0], [0.0], [1.0])
        with pytest.raises(InvalidProblem, match="NaN or infinity"):
            scale_matrix(np.array([[np.inf]]))
        with pytest.raises(InvalidProblem, match="both as triplets"):
            LinearProblem([1.0], [0.0], [1.0], [0], [0], [1.0], [LE], [1.0],
                          matrix=scale_matrix([[1.0]]))
        with pytest.raises(InvalidProblem, match="shape"):
            dataclasses.replace(problem, matrix=scale_matrix([[1.0, 1.0]]))
        matrix = scale_matrix([[3.0]])
        assert matrix.scaled.tolist() == [[0.75]]
        with pytest.raises(ValueError, match="read-only"):
            matrix.scaled[0, 0] = 1.0


class TestIdentity:
    """A problem, a scaled matrix and a solution hold numpy arrays, which
    have no truth value, so they compare and hash by identity."""

    def test_compare_and_hash_by_identity(self):
        problem = build_problem([1.0, 2.0], [[1.0, 1.0]], [GE], [3.0],
                                [0.0, 0.0], [10.0, 10.0])
        sol = solve_lp(problem)
        originals = (problem, problem, problem.matrix, sol)
        copies = [dataclasses.replace(problem),
                  problem.derive(problem.lb, problem.ub, problem.rhs),
                  dataclasses.replace(problem.matrix),
                  dataclasses.replace(sol)]
        for original, copy in zip(originals, copies):
            assert original == original and original != copy
        assert len({problem, problem.matrix, sol, *copies}) == 7
        assert {problem: 1}[problem] == 1


def rebuilt(lp, **fields):
    """*lp* rebuilt through the constructor from its triplet views, as the
    benchmark's siting check rebuilds a root relaxation; the rebuilt
    matrix is the original's, to the bit."""
    again = LinearProblem(lp.c, lp.lb, lp.ub, lp.a_rows, lp.a_cols,
                          lp.a_vals, lp.senses, lp.rhs, **fields)
    assert again.dense_matrix().tobytes() == lp.dense_matrix().tobytes()
    return again


class TestTripletViews:
    """``a_rows``, ``a_cols`` and ``a_vals`` read a problem's matrix back as
    its row-major nonzeros: a siting LP rebuilt from them solves as its root
    relaxation does, and an hour's network LP as the LP itself, bit for
    bit."""

    def assert_root_round_trips(self, lp):
        assert (fingerprint(solve_lp(rebuilt(lp)))
                == fingerprint(solve_lp(dataclasses.replace(lp,
                                                            binaries=()))))

    def test_random_chains(self):
        for seed in range(300, 316):
            self.assert_root_round_trips(random_chain(
                seed, bool(seed % 2), bool(seed // 2 % 2), n_cand=10,
                n_sink=4).lp)

    def test_congested_fixture(self, monkeypatch):
        case = congested_fixture(seed=42, hours=24)
        posed = []

        def capture(problem):
            posed.append(problem)
            return solve_lp(problem)

        monkeypatch.setattr(h2grid.dispatch, "solve_lp", capture)
        baseline = run_year(case.system, 24, MODE_UNIFORM_REDISPATCH)
        assert posed
        for problem in posed:
            again = rebuilt(problem, lazy_rows=problem.lazy_rows,
                            start=problem.start)
            assert (fingerprint(solve_lp(again))
                    == fingerprint(solve_lp(problem)))
        rebuilt(case.system.dispatch_tables.network)
        tariffs = derive_tariffs(baseline, Scenario(NODAL, FLAT, "LH2"),
                                 [n.id for n in case.candidates])
        self.assert_root_round_trips(build_chain_problem(
            case.sinks, case.candidates, tariffs, CARRIER_DEFAULTS["LH2"],
            case.production, case.transport, case.import_spec).lp)


def knapsack_enumeration(values, weights, capacity):
    best = 0.0
    n = len(values)
    for mask in range(1 << n):
        w = sum(weights[j] for j in range(n) if mask >> j & 1)
        if w <= capacity:
            v = sum(values[j] for j in range(n) if mask >> j & 1)
            best = max(best, v)
    return best


def knapsack(values, weights, capacity):
    """max values @ x s.t. weights @ x <= capacity over binary x, as a
    minimization."""
    n = len(values)
    return build_problem(-np.asarray(values, dtype=float), [weights], [LE],
                         [capacity], np.zeros(n), np.ones(n), range(n))


class TestMILP:
    def test_knapsack_small(self):
        # values (5, 4, 3), weights (2, 3, 1), capacity 4:
        # optimum picks items 1 and 3 (value 8)
        values, weights, capacity = [5.0, 4.0, 3.0], [2.0, 3.0, 1.0], 4.0
        assert knapsack_enumeration(values, weights, capacity) == 8.0
        sol = solve_milp(knapsack(values, weights, capacity))
        assert sol.status == "Optimal"
        assert sol.objective == pytest.approx(-8.0)
        assert [round(v) for v in sol.x] == [1, 0, 1]

    def test_random_knapsacks(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(3, 9))
            values = rng.uniform(1, 10, n)
            weights = rng.uniform(1, 5, n)
            capacity = float(rng.uniform(0.3, 0.8) * weights.sum())
            expected = knapsack_enumeration(list(values), list(weights),
                                            capacity)
            sol = solve_milp(knapsack(values, weights, capacity))
            assert sol.status == "Optimal"
            assert -sol.objective == pytest.approx(expected, abs=1e-6)

    def test_facility_toy_subsets(self):
        # 2 facilities, 2 clients; oracle enumerates the 4 open/close
        # patterns with an inner LP over the continuous flows
        rng = np.random.default_rng(17)
        for _ in range(20):
            fixed = rng.uniform(5, 20, 2)
            ship = rng.uniform(1, 6, (2, 2))
            demand = rng.uniform(1, 4, 2)
            cap = float(demand.sum())

            # flow f[i * 2 + j] from facility i to client j
            serve = np.tile(np.eye(2), 2)

            def inner(open_mask):
                sol = solve_lp(build_problem(
                    ship.ravel(), serve, [GE, GE], demand, np.zeros(4),
                    np.repeat(np.where(open_mask, cap, 0.0), 2)))
                if sol.status != "Optimal":
                    return None
                return sol.objective + sum(
                    fixed[i] for i in range(2) if open_mask[i])

            oracle = min(v for v in (inner((a, b)) for a in (0, 1)
                                     for b in (0, 1)) if v is not None)

            # columns y_0, y_1, then the flows; a link row per flow
            link = np.hstack([np.repeat(-cap * np.eye(2), 2, axis=0),
                              np.eye(4)])
            a = np.vstack([np.hstack([np.zeros((2, 2)), serve]), link])
            sol = solve_milp(build_problem(
                np.concatenate([fixed, ship.ravel()]), a, [GE] * 2 + [LE] * 4,
                np.concatenate([demand, np.zeros(4)]), np.zeros(6),
                np.concatenate([np.ones(2), np.full(4, cap)]), (0, 1)))
            assert sol.status == "Optimal"
            assert sol.objective == pytest.approx(oracle, abs=1e-6)

    def test_node_limit(self):
        rng = np.random.default_rng(12)
        values = rng.uniform(1, 10, 14)
        weights = rng.uniform(1, 5, 14)
        capacity = 0.5 * float(weights.sum())
        problem = knapsack(values, weights, capacity)
        optimum = -knapsack_enumeration(list(values), list(weights), capacity)
        nodes = solve_milp(problem).stats["nodes"]
        incumbents = []
        for limit in (1, 2, nodes // 2, nodes - 1):
            with pytest.raises(ResourceLimit) as info:
                solve_milp(problem, node_limit=limit)
            assert info.value.bound <= optimum + 1e-9
            incumbent = info.value.incumbent
            incumbents.append(incumbent is not None)
            if incumbent is not None:
                x = incumbent.x
                assert np.array_equal(x, np.round(x))
                assert weights @ x <= capacity + 1e-9
                assert incumbent.objective == pytest.approx(-values @ x)
                assert incumbent.objective >= optimum - 1e-9
                assert incumbent.stats["nodes"] == limit
        assert incumbents[0] is False and incumbents[-1] is True

    def test_milp_determinism(self):
        rng = np.random.default_rng(55)
        values = rng.uniform(1, 10, 8)
        weights = rng.uniform(1, 5, 8)
        p = knapsack(values, weights, 0.5 * float(weights.sum()))
        first = solve_milp(p)
        for _ in range(3):
            again = solve_milp(p)
            assert np.array_equal(again.x, first.x)
            assert again.objective == first.objective


class TestWarmResolve:
    """Re-solves from an optimal basis after binaries are fixed, as branch
    and bound does, against cold solves of the same bounds."""

    def test_matches_cold_solve(self):
        rng = np.random.default_rng(808)
        seen = set()
        for k in range(4):
            chain = random_chain(300 + k, bool(k % 2), bool(k // 2),
                                 n_cand=10, n_sink=4)
            relaxation = dataclasses.replace(chain.lp, binaries=())
            binaries = np.array(chain.lp.binaries)
            simplex = _Simplex(relaxation)
            assert simplex.solve().optimal
            start = (simplex.basis.copy(), simplex.status.copy())
            for _ in range(12):
                fixed = binaries[rng.random(binaries.size)
                                 < rng.uniform(0.05, 0.5)]
                lb, ub = relaxation.lb.copy(), relaxation.ub.copy()
                lb[fixed] = ub[fixed] = rng.integers(0, 2, fixed.size)
                warm = simplex.resolve(lb, ub, *start)
                cold = solve_lp(dataclasses.replace(relaxation, lb=lb, ub=ub))
                assert warm.status == cold.status
                assert warm.stats["phase1_iterations"] == 0
                seen.add(warm.status)
                if cold.optimal:
                    assert warm.objective == pytest.approx(cold.objective,
                                                           rel=1e-9)
                    assert (abs(warm.duality_gap)
                            <= 1e-9 * max(1.0, abs(warm.objective)))
                    assert np.all(warm.x >= lb - 1e-6)
                    assert np.all(warm.x <= ub + 1e-6)
        assert seen == {"Optimal", "Infeasible"}

    def test_live_basis_keeps_its_inverse(self):
        # a child re-solved from the basis its parent left live, as the
        # dive of branch and bound does
        rng = np.random.default_rng(808)
        seen = set()
        for k in range(4):
            chain = random_chain(300 + k, bool(k % 2), bool(k // 2),
                                 n_cand=10, n_sink=4)
            relaxation = dataclasses.replace(chain.lp, binaries=())
            binaries = np.array(chain.lp.binaries)
            simplex = _Simplex(relaxation)
            assert simplex.solve().optimal
            start = (simplex.basis.copy(), simplex.status.copy())
            for _ in range(12):
                assert simplex.resolve(relaxation.lb, relaxation.ub,
                                       *start).optimal
                fixed = binaries[rng.random(binaries.size)
                                 < rng.uniform(0.05, 0.5)]
                lb, ub = relaxation.lb.copy(), relaxation.ub.copy()
                lb[fixed] = ub[fixed] = rng.integers(0, 2, fixed.size)
                warm = simplex.resolve(lb, ub, simplex.basis.copy(),
                                       simplex.status.copy())
                cold = solve_lp(dataclasses.replace(relaxation, lb=lb, ub=ub))
                assert warm.stats["refactorizations"] == 0
                assert warm.status == cold.status
                seen.add(warm.status)
                if cold.optimal:
                    assert warm.objective == pytest.approx(cold.objective,
                                                           rel=1e-9)
                    assert (abs(warm.duality_gap)
                            <= 1e-9 * max(1.0, abs(warm.objective)))
                    assert np.all(warm.x >= lb - 1e-6)
                    assert np.all(warm.x <= ub + 1e-6)
        assert seen == {"Optimal", "Infeasible"}

    def test_fixing_leaves_no_entering_column(self):
        # min x1 + 2 x2 s.t. x1 + x2 >= 1; fixing both to 0 violates the
        # row, and no column may move to repair it
        simplex = _Simplex(build_problem([1.0, 2.0], [[1.0, 1.0]], [GE],
                                         [1.0], np.zeros(2), np.ones(2)))
        assert simplex.solve().objective == pytest.approx(1.0)
        sol = simplex.resolve(np.zeros(2), np.zeros(2),
                              simplex.basis.copy(), simplex.status.copy())
        assert sol.status == "Infeasible"
        assert sol.stats["dual_iterations"] == 1
        assert sol.stats["phase1_iterations"] == 0

    def test_integer_infeasible_with_feasible_root(self):
        # x1 + x2 = 1.5 holds in the relaxation but at no binary point
        problem = build_problem([1.0, 1.0], [[1.0, 1.0]], [EQ], [1.5],
                                np.zeros(2), np.ones(2), (0, 1))
        assert solve_lp(dataclasses.replace(problem, binaries=())).optimal
        sol = solve_milp(problem)
        assert sol.status == "Infeasible"
        assert sol.stats["nodes"] >= 3  # the root and both of its children


def tree(sol):
    """What a branch-and-bound tree decides, to the bit."""
    return (sol.status, sol.stats["nodes"], sol.stats["lp_solves"],
            None if sol.x is None else sol.x.tobytes(), repr(sol.objective))


class TestObjectiveCutoff:
    """``solve_milp`` stops a child's re-solve once the objective of its
    dual simplex basis, a lower bound on the child's optimum, reaches the
    incumbent plus a relative 1e-9 margin.  The child is pruned as the full
    re-solve would prune it, so every tree stays the same, bit for bit,
    with fewer pivots."""

    @staticmethod
    def milps():
        """The MILPs of ``tools/lp_fingerprint.py``, then ``LARGE_CASES``."""
        for seed in range(300, 316):
            yield random_chain(seed, bool(seed % 2), bool(seed // 2 % 2),
                               n_cand=10, n_sink=4).lp
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(3, 9))
            values, weights = rng.uniform(1, 10, n), rng.uniform(1, 5, n)
            capacity = float(rng.uniform(0.3, 0.8) * weights.sum())
            yield knapsack(values, weights, capacity)
        for case in LARGE_CASES:
            yield random_chain(*case).lp

    @staticmethod
    def drop_cutoff(monkeypatch):
        """Make every re-solve run to its end."""
        default = _Simplex.resolve

        def to_the_end(self, lb, ub, basis, status, cutoff=np.inf):
            return default(self, lb, ub, basis, status)

        monkeypatch.setattr(_Simplex, "resolve", to_the_end)

    def test_same_trees(self, monkeypatch):
        problems = [*self.milps(), random_chain(5, True, False, 120, 30).lp]
        cut = [solve_milp(problem) for problem in problems]
        self.drop_cutoff(monkeypatch)
        for problem, got in zip(problems, cut):
            full = solve_milp(problem)
            assert tree(got) == tree(full)
            assert got.stats["iterations"] <= full.stats["iterations"]
            assert full.stats["cutoffs"] == 0
        assert sum(sol.stats["cutoffs"] for sol in cut) > 0

    def test_cut_off_children_would_be_pruned(self, monkeypatch):
        default_solve, default_resolve = _Simplex.solve, _Simplex.resolve
        best = []  # the best integral node objective so far: the incumbent
        ends = []  # (incumbent, the cut-off re-solve run to its end)

        def seen(self, sol):
            if sol.optimal:
                values = sol.x[list(self.problem.binaries)]
                if np.minimum(values, 1.0 - values).max() <= INT_TOL:
                    best.append(min(best[-1], sol.objective))
            return sol

        def solve(self):
            best[:] = [np.inf]  # a new tree
            return seen(self, default_solve(self))

        def resolve(self, lb, ub, basis, status, cutoff=np.inf):
            before = copy.deepcopy(self, {id(self.problem): self.problem})
            sol = default_resolve(self, lb, ub, basis, status, cutoff)
            if sol.status == "Cutoff":
                ends.append((best[-1], default_resolve(before, lb, ub,
                                                       basis, status)))
            return seen(self, sol)

        monkeypatch.setattr(_Simplex, "solve", solve)
        monkeypatch.setattr(_Simplex, "resolve", resolve)
        for problem in self.milps():
            solve_milp(problem)
        assert {full.status for _, full in ends} == {"Optimal", "Infeasible"}
        for incumbent, full in ends:
            assert (full.status == "Infeasible"
                    or full.objective >= incumbent - 1e-9)

    def test_cutoff_never_leaves_solve_milp(self):
        limited_cutoffs = 0
        for problem in self.milps():
            sol = solve_milp(problem)
            assert sol.status in ("Optimal", "Infeasible")
            nodes = sol.stats["nodes"]
            for limit in (nodes // 2, nodes - 1):
                with pytest.raises(ResourceLimit) as info:
                    solve_milp(problem, node_limit=limit)
                assert math.isfinite(info.value.bound)
                incumbent = info.value.incumbent
                if incumbent is not None:
                    assert incumbent.status == "Optimal"
                    limited_cutoffs += incumbent.stats["cutoffs"]
        assert limited_cutoffs > 0

    @pytest.mark.slow
    def test_per_day_60x15_node_limit(self, monkeypatch):
        # no proof in 400 nodes; the incumbent and the open bound there
        # are those of the tree without the cutoff
        problem = random_chain(5, False, False, 60, 15).lp

        def limited():
            with pytest.raises(ResourceLimit) as info:
                solve_milp(problem, node_limit=400)
            return info.value

        cut = limited()
        self.drop_cutoff(monkeypatch)
        full = limited()
        assert tree(cut.incumbent) == tree(full.incumbent)
        assert repr(cut.bound) == repr(full.bound)
        assert (cut.incumbent.stats["iterations"]
                < full.incumbent.stats["iterations"])


class AppendLog(_Simplex):
    """Records how far the basis inverse is from exact after each append
    of held-back rows."""

    def _add_rows(self, new):
        super()._add_rows(new)
        self.errors.append(float(np.abs(
            self.a[:, self.basis] @ self.binv - np.eye(self.m)).max()))


class TestLazyRows:
    """Rows held back until an optimum violates them, then appended to the
    optimal basis and repaired with the dual simplex."""

    def test_matches_all_rows_active(self):
        rng = np.random.default_rng(1717)
        seen, rounds = set(), []
        for k in range(80):
            problem = build_problem(*mixed_instance(rng, k % 4 == 3))
            lazy = np.flatnonzero(rng.random(problem.n_cons) < 0.7)
            full = solve_lp(problem)
            assert full.stats["rounds"] == 1
            simplex = AppendLog(dataclasses.replace(problem, lazy_rows=lazy))
            simplex.errors = []
            sol = simplex.solve()
            assert sol.status == full.status
            assert max(simplex.errors, default=0.0) < 1e-9
            seen.add(sol.status)
            rounds.append(sol.stats["rounds"])
            if sol.optimal:
                assert abs(sol.objective - full.objective) <= \
                    1e-9 * max(1.0, abs(full.objective))
                assert abs(sol.duality_gap) <= 1e-9 * max(1.0,
                                                          abs(sol.objective))
                assert np.all(sol.duals[simplex.held] == 0.0)
        assert seen == {"Optimal", "Infeasible", "Unbounded"}
        assert max(rounds) >= 3

    def test_unbounded_active_rows(self):
        # min -x - y s.t. x - y = 0 alone is unbounded; the held-back
        # x + y <= 4 bounds it, so every row is activated and solved again
        rows = [[1.0, -1.0], [1.0, 1.0]]
        bounds = (np.zeros(2), np.full(2, np.inf))
        assert solve_lp(build_problem([-1.0, -1.0], rows[:1], [EQ], [0.0],
                                      *bounds)).status == "Unbounded"
        problem = build_problem([-1.0, -1.0], rows, [EQ, LE], [0.0, 4.0],
                                *bounds)
        for lazy in ((1,), (0, 1)):
            sol = solve_lp(dataclasses.replace(problem, lazy_rows=lazy))
            assert sol.status == "Optimal"
            assert sol.x == pytest.approx([2.0, 2.0])
            assert sol.objective == pytest.approx(-4.0)
            assert sol.stats["rounds"] == 2

    def test_infeasible_with_dual_infeasible_active_rows(self):
        # min -x - y s.t. x - y = 0 alone is unbounded; the held-back
        # x + y <= 4 and x + y >= 5 contradict each other, so every row is
        # activated and the problem is infeasible
        instance = ([-1.0, -1.0], [[1.0, -1.0], [1.0, 1.0], [1.0, 1.0]],
                    [EQ, LE, GE], [0.0, 4.0, 5.0], np.zeros(2),
                    np.full(2, np.inf))
        assert_highs_status(instance, "Infeasible")
        for lazy in ((1, 2), (0, 1, 2)):
            sol = solve_lp(dataclasses.replace(build_problem(*instance),
                                               lazy_rows=lazy))
            assert sol.status == "Infeasible"
            assert sol.stats["rounds"] == 2

    def test_infeasible_in_round_two(self):
        # x + y >= 2 holds at the first optimum, which the held-back
        # x + y <= 1 then cuts off; no column can repair it
        problem = build_problem([1.0, 2.0], [[1.0, 1.0], [1.0, 1.0]],
                                [GE, LE], [2.0, 1.0], np.zeros(2),
                                np.full(2, 5.0))
        sol = solve_lp(dataclasses.replace(problem, lazy_rows=(1,)))
        assert sol.status == "Infeasible"
        assert sol.stats["rounds"] == 2
        assert sol.stats["dual_iterations"] == 1  # and no column could enter

    def test_validation(self):
        problem = build_problem([1.0], [[1.0], [1.0]], [LE, GE], [1.0, 0.0],
                                [0.0], [1.0], (0,))
        for lazy in ((2,), (-1,), (1, 1), (0.7,), (True,), ((1,),),
                     (0, True), [np.True_, 0], (np.array(True), 0)):
            with pytest.raises(InvalidProblem):
                dataclasses.replace(problem, lazy_rows=lazy)
        for binaries in ((1,), (-1,), (0, 0), (0.5,), (True,)):
            with pytest.raises(InvalidProblem, match="binary"):
                dataclasses.replace(problem, binaries=binaries)
        with pytest.raises(InvalidProblem, match="lazy rows"):
            solve_milp(dataclasses.replace(problem, lazy_rows=(1,)))
        with pytest.raises(InvalidProblem, match="lazy rows"):
            solve_milp(dataclasses.replace(problem, binaries=(),
                                           lazy_rows=(1,)))


class TestNoActiveRows:
    """Solves whose basis is empty: no rows at all, or every row held back
    until the first optimum violates it."""

    BOUNDS = ([0.0, 0.0], [3.0, 4.0])

    def test_no_rows(self):
        # min x - 2y on the box alone: y at its upper bound
        sol = solve_lp(build_problem([1.0, -2.0], np.zeros((0, 2)), [], [],
                                     *self.BOUNDS))
        assert sol.status == "Optimal"
        assert sol.x.tolist() == [0.0, 4.0]
        assert sol.objective == -8.0
        assert sol.duals.size == 0
        assert sol.duality_gap == 0.0

    def test_every_row_lazy(self):
        # x + y >= -1 never binds; y <= 2 cuts the box optimum off and is
        # added in round two, where it prices y's cost
        problem = build_problem([1.0, -2.0], [[1.0, 1.0], [0.0, 1.0]],
                                [GE, LE], [-1.0, 2.0], *self.BOUNDS)
        sol = solve_lp(dataclasses.replace(problem, lazy_rows=(0, 1)))
        assert sol.status == "Optimal"
        assert sol.x.tolist() == [0.0, 2.0]
        assert sol.objective == -4.0
        assert sol.duals.tolist() == [0.0, -2.0]
        assert sol.stats["rounds"] == 2

    def test_no_rows_unbounded(self):
        sol = solve_lp(build_problem([1.0, -2.0], np.zeros((0, 2)), [], [],
                                     [0.0, 0.0], [3.0, np.inf]))
        assert sol.status == "Unbounded"


def dual_feasible_start(rng, problem):
    """Costs and a one-column start that make *problem* dual feasible at the
    start: a random multiplier y on a random row r that is not lazy (<= 0
    on an LE row, >= 0 on a GE row, so its resting slack prices right), a
    random column j with a nonzero entry in that row, basic there with
    ``c_j = a_rj y``, and every other column priced ``a_j' y`` plus a margin
    whose sign suits the bound it rests at (none for a free column)."""
    a = problem.dense_matrix()
    n = a.shape[1]
    rows = np.setdiff1d(np.arange(a.shape[0]), problem.lazy_rows)
    while True:
        r, j = int(rng.choice(rows)), int(rng.integers(n))
        if a[r, j] != 0.0:
            break
    sign = {LE: -1.0, GE: 1.0, EQ: rng.choice([-1.0, 1.0])}[problem.senses[r]]
    y = np.zeros(a.shape[0])
    y[r] = sign * rng.uniform(0, 3)
    status = np.array([scalar_rest(lo, hi)[1]
                       for lo, hi in zip(problem.lb, problem.ub)])
    margin = np.select([status == 0, status == 1], [1.0, -1.0], 0.0)
    margin[j] = 0.0
    c = a.T @ y + margin * rng.uniform(0, 2, n) * (rng.random(n) < 0.8)
    return dataclasses.replace(problem, c=c, start=(r, j))


def unique_duals(problem, sol):
    """Whether the optimum is primal nondegenerate, so that its duals are
    unique: as many columns strictly inside their bounds as rows that
    bind."""
    inside = ((sol.x > problem.lb + 1e-7) & (sol.x < problem.ub - 1e-7)).sum()
    slack = problem.rhs - problem.dense_matrix() @ sol.x
    return inside == (np.abs(slack) <= 1e-7).sum()


class TestStartBasis:
    """Solves from a given dual feasible basis, with the dual simplex and no
    phase 1, against cold solves of the same LP."""

    def test_matches_cold_solve(self):
        rng = np.random.default_rng(2718)
        seen, unique = set(), 0
        for k in range(80):
            problem = build_problem(*mixed_instance(rng, k % 4 == 3))
            if k % 3 == 0:
                problem = dataclasses.replace(problem, lazy_rows=np.flatnonzero(
                    rng.random(problem.n_cons) < 0.5)[:problem.n_cons - 1])
            problem = dual_feasible_start(rng, problem)
            sol = solve_lp(problem)
            cold = solve_lp(dataclasses.replace(problem, lazy_rows=(),
                                                start=None))
            assert sol.status == cold.status
            assert sol.stats["phase1_iterations"] == 0
            seen.add((sol.status, bool(problem.lazy_rows.size)))
            if sol.optimal:
                assert abs(sol.objective - cold.objective) <= \
                    1e-9 * max(1.0, abs(cold.objective))
                assert abs(sol.duality_gap) <= 1e-9 * max(1.0,
                                                          abs(sol.objective))
                if unique_duals(problem, cold):
                    unique += 1
                    np.testing.assert_allclose(sol.duals, cold.duals,
                                               rtol=1e-7, atol=1e-7)
        assert seen == {(status, lazy) for status in ("Optimal", "Infeasible")
                        for lazy in (False, True)}
        assert unique > 0

    def test_merit_order_start(self):
        # min 10 x1 + 20 x2 + 50 x3, x1 + x2 + x3 = 100, x <= 60 each: the
        # merit order runs x1 at 60 and x2 at 40, the marginal unit; start
        # it basic in the balance row with x1 at its upper bound
        problem = dataclasses.replace(
            build_problem([10.0, 20.0, 50.0], [[1.0, 1.0, 1.0]], [EQ],
                          [100.0], np.zeros(3), np.full(3, 60.0)),
            lb=[-60.0, -40.0, 0.0], ub=[0.0, 20.0, 60.0],
            rhs=[0.0], start=(0, 1))
        sol = solve_lp(problem)
        assert sol.optimal and sol.x == pytest.approx([0.0, 0.0, 0.0])
        assert sol.duals == pytest.approx([20.0])
        assert sol.stats["iterations"] == (sol.stats["phase1_iterations"]
                                           + sol.stats["dual_iterations"])
        assert sol.stats["dual_iterations"] == 0

    def test_invalid_starts(self):
        x, y = 0, 1
        problem = proportional_rows()
        for start in ((0,), (0, x, 1), ((0, x),), 0, "ab", (0.0, x),
                      (0, 1.0), (True, x), (0, True), (0, np.True_),
                      np.array([0, x])):
            with pytest.raises(InvalidProblem, match="^start is not a "
                               r"\(row, column\) pair of integers$"):
                dataclasses.replace(problem, start=start)
        for start, what in (((3, x), "row"), ((-1, x), "row"),
                            ((0, 2), "column"), ((0, -1), "column")):
            with pytest.raises(InvalidProblem,
                               match=f"^start {what} index out of range$"):
                dataclasses.replace(problem, start=start)
        with pytest.raises(InvalidProblem, match="^start row is a lazy row$"):
            dataclasses.replace(problem, lazy_rows=(1,), start=(1, x))
        # y has no coefficient in row 2
        with pytest.raises(InvalidProblem, match="^singular start$"):
            solve_lp(dataclasses.replace(problem, start=(2, y)))
        # y basic in row 0 prices the row at 2, so x at its lower bound
        # has reduced cost 1 - 2 < 0
        with pytest.raises(InvalidProblem,
                           match="^start is not dual feasible at column 0$"):
            solve_lp(dataclasses.replace(problem, start=(0, y)))
        sol = solve_lp(dataclasses.replace(problem, start=(0, x)))
        assert sol.optimal and sol.x == pytest.approx([1.0, 0.0])
        # numpy integers name a start as ints do
        same = dataclasses.replace(problem, start=[np.int64(0), x])
        assert same.start == (0, x) and type(same.start[0]) is int

    def test_milp_rejects_start(self):
        problem = dataclasses.replace(
            build_problem([1.0], [[1.0]], [GE], [0.0], [0.0], [1.0], (0,)),
            start=(0, 0))
        for p in (problem, dataclasses.replace(problem, binaries=())):
            with pytest.raises(InvalidProblem, match="with a start$"):
                solve_milp(p)
