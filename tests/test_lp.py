"""Solver tests against enumeration oracles.

The LP oracle enumerates basic points (all n-subsets of active hyperplanes)
of fully bounded random problems, so it is independent of the simplex code
under test.
"""

import dataclasses
import itertools

import numpy as np
import pytest

import h2grid.lp
from h2grid.errors import InvalidProblem, ResourceLimit
from h2grid.lp import (EQ, GE, LE, LinearProblem, ProblemBuilder, _Simplex,
                       solve_lp, solve_milp)
from test_chain import random_chain


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


def build_problem(c, a, senses, b, lb, ub, binaries=()):
    builder = ProblemBuilder()
    cols = [builder.add_var(cost=c[j], lb=lb[j], ub=ub[j],
                            binary=j in binaries) for j in range(len(c))]
    for i in range(len(b)):
        builder.add_constraint([(cols[j], a[i][j]) for j in range(len(c))],
                               senses[i], b[i])
    return builder.build()


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
        builder = ProblemBuilder()
        x = builder.add_var(cost=-1.0, lb=0.0, ub=10.0)
        builder.add_constraint([(x, 1.0)], LE, 3.0)
        sol = solve_lp(builder.build())
        assert sol.status == "Optimal"
        assert sol.x[0] == pytest.approx(3.0)
        assert sol.duals[0] == pytest.approx(-1.0)

    def test_merit_order_duals(self):
        # two plants, costs 10 and 50, caps 100 each, demand 120:
        # marginal plant sets the balance dual at 50
        builder = ProblemBuilder()
        g1 = builder.add_var(cost=10.0, lb=0.0, ub=100.0)
        g2 = builder.add_var(cost=50.0, lb=0.0, ub=100.0)
        builder.add_constraint([(g1, 1.0), (g2, 1.0)], EQ, 120.0)
        sol = solve_lp(builder.build())
        assert sol.objective == pytest.approx(2000.0)
        assert sol.x[0] == pytest.approx(100.0)
        assert sol.duals[0] == pytest.approx(50.0)

    def test_infeasible(self):
        builder = ProblemBuilder()
        x = builder.add_var(lb=0.0, ub=1.0)
        builder.add_constraint([(x, 1.0)], GE, 2.0)
        assert solve_lp(builder.build()).status == "Infeasible"

    def test_unbounded(self):
        builder = ProblemBuilder()
        x = builder.add_var(cost=-1.0, lb=0.0, ub=np.inf)
        builder.add_constraint([(x, 1.0)], GE, 0.0)
        assert solve_lp(builder.build()).status == "Unbounded"

    def test_free_variables(self):
        # free variable must be able to go negative
        builder = ProblemBuilder()
        x = builder.add_var(cost=1.0, lb=-np.inf, ub=np.inf)
        builder.add_constraint([(x, 1.0)], LE, -5.0)
        sol = solve_lp(builder.build())
        assert sol.status == "Unbounded"

        builder = ProblemBuilder()
        x = builder.add_var(cost=-1.0, lb=-np.inf, ub=np.inf)
        y = builder.add_var(cost=2.0, lb=-np.inf, ub=np.inf)
        builder.add_constraint([(x, 1.0), (y, 1.0)], EQ, -3.0)
        builder.add_constraint([(x, 1.0), (y, -1.0)], LE, 1.0)
        sol = solve_lp(builder.build())
        assert sol.status == "Optimal"
        assert sol.x[0] == pytest.approx(-1.0)
        assert sol.x[1] == pytest.approx(-2.0)

    @pytest.mark.parametrize("sense, x, objective", [
        (EQ, [2.0, 3.0], 1.0), (LE, [2.0, 0.0], -2.0), (GE, [2.0, 3.0], 1.0)])
    def test_upper_bounded_only_column(self, sense, x, objective):
        # min -x + y s.t. x + y (sense) 5, x <= 2 with no lower bound: the
        # column must never step past its upper bound
        builder = ProblemBuilder()
        builder.add_var(cost=-1.0, lb=-np.inf, ub=2.0)
        builder.add_var(cost=1.0, lb=0.0, ub=10.0)
        builder.add_constraint([(0, 1.0), (1, 1.0)], sense, 5.0)
        sol = solve_lp(builder.build())
        assert sol.status == "Optimal"
        assert sol.x == pytest.approx(x)
        assert sol.objective == pytest.approx(objective)

    def test_validation(self):
        with pytest.raises(InvalidProblem):
            LinearProblem(c=np.array([np.nan]), lb=np.zeros(1),
                          ub=np.ones(1), a_rows=np.zeros(0, dtype=int),
                          a_cols=np.zeros(0, dtype=int), a_vals=np.zeros(0),
                          senses=(), rhs=np.zeros(0))


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
    Infeasibility is found by phase 1 over only the rows that started on
    an artificial."""

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
    slack bounds, the slack crash start and duality gap must agree to the
    bit."""

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

            rest = [scalar_rest(lo, hi)
                    for lo, hi in zip(simplex.lb, simplex.ub)]
            x = [v for v, _ in rest]
            status = [s for _, s in rest]
            resid = simplex.b - simplex.a @ np.array(x)
            basis, art_cols, inverse = [], [], []
            for i in range(m):
                if slack_lb[i] <= resid[i] <= slack_ub[i]:
                    basis.append(n + i)
                    x[n + i], status[n + i] = resid[i], 2
                    inverse.append(1.0)
                else:
                    sign = 1.0 if resid[i] >= 0 else -1.0
                    col = np.zeros(m)
                    col[i] = sign
                    basis.append(n + m + len(art_cols))
                    art_cols.append(col)
                    x.append(abs(resid[i]))
                    status.append(2)
                    inverse.append(sign)
            simplex._init_basis()
            assert simplex.art_start == n + m
            assert simplex.x.tobytes() == np.array(x).tobytes()
            assert np.array_equal(simplex.status, status)
            assert np.array_equal(simplex.basis, basis)
            assert np.array_equal(simplex.a[:, n + m:],
                                  np.array(art_cols).reshape(-1, m).T)
            assert np.array_equal(simplex.binv, np.diag(inverse))
            assert np.array_equal(simplex.a[:, simplex.basis] @ simplex.binv,
                                  np.eye(m))

            duals = rng.uniform(-2, 2, m)
            reduced = rng.uniform(-2, 2, n) * (rng.random(n) < 0.7)
            expected = float(duals @ problem.rhs)
            for j in range(n):
                if reduced[j] > 0 and np.isfinite(lb[j]):
                    expected += reduced[j] * lb[j]
                elif reduced[j] < 0 and np.isfinite(ub[j]):
                    expected += reduced[j] * ub[j]
            assert simplex._duality_gap(1.25, duals, reduced) == 1.25 - expected


class ColumnLog(np.ndarray):
    """A coefficient matrix that logs every single column read ``a[:, j]``,
    which is how the simplex fetches its entering column."""

    def __getitem__(self, key):
        if (isinstance(key, tuple) and len(key) == 2
                and isinstance(key[1], (int, np.integer))):
            self.log.append(int(key[1]))
        return super().__getitem__(key)


class PhaseTwoLog(_Simplex):
    """Records the entering column of every phase-2 iteration."""

    def _purge_artificials(self):
        super()._purge_artificials()
        self.entered = []
        self.a = self.a.view(ColumnLog)
        self.a.log = self.entered


class TestCrashStart:
    def test_feasible_slack_start_skips_phase_1(self):
        # at rest (x = y = 0) every slack holds its row's residual, the EQ
        # row's exactly 0
        builder = ProblemBuilder()
        x = builder.add_var(cost=-1.0, lb=0.0, ub=10.0)
        y = builder.add_var(cost=-2.0, lb=0.0, ub=5.0)
        builder.add_constraint([(x, 1.0), (y, -1.0)], EQ, 0.0)
        builder.add_constraint([(x, 1.0), (y, 1.0)], LE, 8.0)
        builder.add_constraint([(x, 1.0), (y, 1.0)], GE, -1.0)
        sol = solve_lp(builder.build())
        assert sol.status == "Optimal"
        assert sol.x == pytest.approx([4.0, 4.0])
        assert sol.stats["phase1_iterations"] == 0
        assert sol.stats["artificials"] == 0
        assert sol.stats["iterations"] > 0

    def test_artificials_never_enter_in_phase_2(self):
        rng = np.random.default_rng(64)
        entered = 0
        for _ in range(20):
            simplex = PhaseTwoLog(build_problem(*random_instance(rng)))
            simplex.solve()
            log = getattr(simplex, "entered", [])
            entered += len(log)
            assert all(j < simplex.art_start for j in log)
        assert entered > 0


def knapsack_enumeration(values, weights, capacity):
    best = 0.0
    n = len(values)
    for mask in range(1 << n):
        w = sum(weights[j] for j in range(n) if mask >> j & 1)
        if w <= capacity:
            v = sum(values[j] for j in range(n) if mask >> j & 1)
            best = max(best, v)
    return best


class TestMILP:
    def test_knapsack_small(self):
        # values (5, 4, 3), weights (2, 3, 1), capacity 4:
        # optimum picks items 1 and 3 (value 8)
        values, weights, capacity = [5.0, 4.0, 3.0], [2.0, 3.0, 1.0], 4.0
        assert knapsack_enumeration(values, weights, capacity) == 8.0
        builder = ProblemBuilder()
        xs = [builder.add_var(cost=-v, binary=True) for v in values]
        builder.add_constraint([(x, w) for x, w in zip(xs, weights)],
                               LE, capacity)
        sol = solve_milp(builder.build())
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
            builder = ProblemBuilder()
            xs = [builder.add_var(cost=-v, binary=True) for v in values]
            builder.add_constraint([(x, w) for x, w in zip(xs, weights)],
                                   LE, capacity)
            sol = solve_milp(builder.build())
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

            def inner(open_mask):
                builder = ProblemBuilder()
                f = [builder.add_var(
                    cost=ship[i][j], lb=0.0,
                    ub=cap if open_mask[i] else 0.0)
                    for i in range(2) for j in range(2)]
                for j in range(2):
                    builder.add_constraint(
                        [(f[i * 2 + j], 1.0) for i in range(2)],
                        GE, demand[j])
                sol = solve_lp(builder.build())
                if sol.status != "Optimal":
                    return None
                return sol.objective + sum(
                    fixed[i] for i in range(2) if open_mask[i])

            oracle = min(v for v in (inner((a, b)) for a in (0, 1)
                                     for b in (0, 1)) if v is not None)

            builder = ProblemBuilder()
            ys = [builder.add_var(cost=fixed[i], binary=True)
                  for i in range(2)]
            fs = [[builder.add_var(cost=ship[i][j], lb=0.0, ub=cap)
                   for j in range(2)] for i in range(2)]
            for j in range(2):
                builder.add_constraint([(fs[i][j], 1.0) for i in range(2)],
                                       GE, demand[j])
            for i in range(2):
                for j in range(2):
                    builder.add_constraint(
                        [(fs[i][j], 1.0), (ys[i], -cap)], LE, 0.0)
            sol = solve_milp(builder.build())
            assert sol.status == "Optimal"
            assert sol.objective == pytest.approx(oracle, abs=1e-6)

    def test_node_limit(self):
        rng = np.random.default_rng(12)
        values = rng.uniform(1, 10, 14)
        weights = rng.uniform(1, 5, 14)
        capacity = 0.5 * float(weights.sum())
        builder = ProblemBuilder()
        xs = [builder.add_var(cost=-v, binary=True) for v in values]
        builder.add_constraint([(x, w) for x, w in zip(xs, weights)],
                               LE, capacity)
        problem = builder.build()
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
        builder = ProblemBuilder()
        xs = [builder.add_var(cost=-v, binary=True) for v in values]
        builder.add_constraint([(x, w) for x, w in zip(xs, weights)],
                               LE, 0.5 * float(weights.sum()))
        p = builder.build()
        first = solve_milp(p)
        for _ in range(3):
            again = solve_milp(p)
            assert np.array_equal(again.x, first.x)
            assert again.objective == first.objective


class TestWarmResolve:
    """Re-solves from an optimal basis after binaries are fixed, as branch
    and bound does, against cold solves of the same bounds."""

    @pytest.mark.parametrize("degenerate_limit", [None, 1])
    def test_matches_cold_solve(self, degenerate_limit, monkeypatch):
        if degenerate_limit is not None:  # lowest-index choices early on
            monkeypatch.setattr(h2grid.lp, "_DEGENERATE_LIMIT",
                                degenerate_limit)
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
                cold = solve_lp(relaxation.with_bounds(lb, ub))
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

    def test_fixing_leaves_no_entering_column(self):
        # min x1 + 2 x2 s.t. x1 + x2 >= 1; fixing both to 0 violates the
        # row, and no column may move to repair it
        builder = ProblemBuilder()
        builder.add_var(cost=1.0, ub=1.0)
        builder.add_var(cost=2.0, ub=1.0)
        builder.add_constraint([(0, 1.0), (1, 1.0)], GE, 1.0)
        simplex = _Simplex(builder.build())
        assert simplex.solve().objective == pytest.approx(1.0)
        sol = simplex.resolve(np.zeros(2), np.zeros(2),
                              simplex.basis.copy(), simplex.status.copy())
        assert sol.status == "Infeasible"
        assert sol.stats["dual_iterations"] == 1
        assert sol.stats["phase1_iterations"] == 0

    def test_integer_infeasible_with_feasible_root(self):
        # x1 + x2 = 1.5 holds in the relaxation but at no binary point
        builder = ProblemBuilder()
        x1 = builder.add_var(cost=1.0, binary=True)
        x2 = builder.add_var(cost=1.0, binary=True)
        builder.add_constraint([(x1, 1.0), (x2, 1.0)], EQ, 1.5)
        problem = builder.build()
        assert solve_lp(dataclasses.replace(problem, binaries=())).optimal
        sol = solve_milp(problem)
        assert sol.status == "Infeasible"
        assert sol.stats["nodes"] >= 3  # the root and both of its children
