"""Self-contained dense LP / mixed-binary solver.

The simplex is a two-phase primal method on the bounded-variable standard
form ``min c'x  s.t.  Ax + s = b,  lb <= (x, s) <= ub``.  Every constraint
row gets a slack column whose bounds encode its sense, so the dual of row i
is simply the i-th simplex multiplier.  Pivoting uses Dantzig's rule with a
lowest-index tie-break and falls back to Bland's rule after a run of
degenerate pivots, which makes every solve deterministic and finite.  The
ratio test lets the entering bound flip win unless a row blocks it by more
than 1e-11, and otherwise takes the lowest basic index among the rows
within 1e-11 of the shortest step.

The start is a slack crash basis (Bixby, "Solving real-world linear
programs", Oper. Res. 2002).  Every column rests at a bound; a row whose
slack bounds hold the residual ``b - A x`` starts with its slack basic, and
only the other rows get a +-1 artificial column.  Phase 1 minimizes the sum
of those artificials and is skipped when there are none.  After it, the
artificials still basic are pivoted out where a structural or slack column
can replace them; any left (redundant rows) stay pinned at zero, and phase 2
prices only the columns before the artificials, so none enters again.

The solver keeps a dense inverse of the basis matrix.  It starts exact (the
first basis is diagonal with entries +-1), takes a rank-one product-form
update per basis change and is recomputed from scratch every
``_REFACTOR_PERIOD`` updates.  Multipliers and the entering column are one
matrix-vector product each, and pricing and the ratio test are array
operations.  ``Solution.stats`` reports all iterations (``iterations``),
those of phase 1 (``phase1_iterations``) and of the dual simplex
(``dual_iterations``), the number of refactorizations and the number of
rows that started on an artificial (``artificials``).

Mixed-binary problems are handled by depth-first branch and bound on the
most fractional binary, with a best-bound re-sort of the open stack every
64 nodes.  One ``_Simplex`` serves a whole tree and solves the root
relaxation once.  A child differs from its parent only in the bounds of
the binaries it fixes, so the parent's optimal basis stays dual feasible:
``_Simplex.resolve`` refactors that basis, puts every nonbasic column at its
new bound and runs a bounded dual simplex (Koberstein, "The dual simplex
method, techniques for a fast and stable implementation", PhD thesis,
2005) until the basis is primal feasible, then ends through the same phase
2 and unscaling as a cold solve.  The dual leaves on the largest bound
violation (lowest basis position on ties) and enters the movable nonbasic
column with the smallest ``|d_j| / |alpha_rj|`` over ``|alpha_rj| > 1e-9``,
ties to the largest ``|alpha_rj|`` and then the lowest index; after a run of
zero-length steps it switches to lowest-index choices.  A violated row
that no column can repair proves the child infeasible.  An open node keeps
only its parent's basis and bound statuses, so a tree's state comes from
that tree alone.  The result's ``stats`` report ``nodes``, ``lp_solves``,
``iterations`` and ``dual_iterations`` summed over the node LPs, and
``max_duality_gap``, the worst ``|gap| / max(1, |objective|)`` among them.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidProblem, ResourceLimit

FEAS_TOL = 1e-7
OPT_TOL = 1e-6
INT_TOL = 1e-6

_DEGENERATE_LIMIT = 40  # consecutive degenerate pivots before Bland's rule
_REFACTOR_PERIOD = 64   # basis updates between fresh inversions of the basis

LE, EQ, GE = "<=", "=", ">="

_AT_LB, _AT_UB, _BASIC, _FREE = 0, 1, 2, 3


@dataclass(frozen=True)
class LinearProblem:
    """A minimization problem in sparse-triplet form.

    Rows are ``sum_j a[k] * x[cols[k]] (sense_i) rhs_i`` for triplets with
    ``rows[k] == i``.  ``binaries`` lists variable indices restricted to
    {0, 1}; their bounds must lie within [0, 1].
    """

    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    a_rows: np.ndarray
    a_cols: np.ndarray
    a_vals: np.ndarray
    senses: tuple
    rhs: np.ndarray
    binaries: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        object.__setattr__(self, "lb", np.asarray(self.lb, dtype=float))
        object.__setattr__(self, "ub", np.asarray(self.ub, dtype=float))
        object.__setattr__(self, "a_rows", np.asarray(self.a_rows, dtype=int))
        object.__setattr__(self, "a_cols", np.asarray(self.a_cols, dtype=int))
        object.__setattr__(self, "a_vals", np.asarray(self.a_vals, dtype=float))
        object.__setattr__(self, "rhs", np.asarray(self.rhs, dtype=float))
        object.__setattr__(self, "senses", tuple(self.senses))
        object.__setattr__(self, "binaries", tuple(sorted(self.binaries)))
        self._validate()

    @property
    def n_vars(self):
        return self.c.size

    @property
    def n_cons(self):
        return self.rhs.size

    def _validate(self):
        n, m = self.n_vars, self.n_cons
        if self.lb.size != n or self.ub.size != n:
            raise InvalidProblem("bound vectors do not match cost vector length")
        if len(self.senses) != m:
            raise InvalidProblem("senses do not match rhs length")
        for s in self.senses:
            if s not in (LE, EQ, GE):
                raise InvalidProblem(f"unknown constraint sense {s!r}")
        if not (self.a_rows.size == self.a_cols.size == self.a_vals.size):
            raise InvalidProblem("triplet arrays have inconsistent lengths")
        if self.a_rows.size and (self.a_rows.min() < 0 or self.a_rows.max() >= m):
            raise InvalidProblem("triplet row index out of range")
        if self.a_cols.size and (self.a_cols.min() < 0 or self.a_cols.max() >= n):
            raise InvalidProblem("triplet column index out of range")
        for arr in (self.c, self.rhs, self.a_vals):
            if arr.size and not np.all(np.isfinite(arr)):
                raise InvalidProblem("NaN or infinity in problem data")
        if np.any(np.isnan(self.lb)) or np.any(np.isnan(self.ub)):
            raise InvalidProblem("NaN in variable bounds")
        if np.any(self.lb > self.ub + 1e-12):
            raise InvalidProblem("lower bound exceeds upper bound")
        for j in self.binaries:
            if j < 0 or j >= n:
                raise InvalidProblem("binary index out of range")
            if self.lb[j] < -1e-12 or self.ub[j] > 1 + 1e-12:
                raise InvalidProblem(f"binary variable {j} has bounds outside [0, 1]")

    def dense_matrix(self):
        a = np.zeros((self.n_cons, self.n_vars))
        np.add.at(a, (self.a_rows, self.a_cols), self.a_vals)
        return a

    def with_bounds(self, lb, ub):
        return LinearProblem(self.c, lb, ub, self.a_rows, self.a_cols,
                             self.a_vals, self.senses, self.rhs, self.binaries)


@dataclass
class Solution:
    status: str  # "Optimal" | "Infeasible" | "Unbounded"
    x: np.ndarray = None
    objective: float = None
    duals: np.ndarray = None          # one per constraint row; pure LPs only
    reduced_costs: np.ndarray = None  # bound multipliers, pure LPs only
    duality_gap: float = None
    stats: dict = field(default_factory=dict)

    @property
    def optimal(self):
        return self.status == "Optimal"


def _pow2_scale(v):
    """Nearest power of two to 1/v, elementwise; exact in binary arithmetic.

    Entries that are zero or not finite get scale 1.
    """
    scale = np.ones(v.shape)
    ok = (v > 0) & np.isfinite(v)
    scale[ok] = np.ldexp(1.0, -np.rint(np.log2(v[ok])).astype(int))
    return scale


class _Simplex:
    """Bounded-variable primal simplex on equality form with slack columns."""

    def __init__(self, problem):
        self.problem = problem
        m, n = problem.n_cons, problem.n_vars
        a = problem.dense_matrix()

        # Row/column equilibration with powers of two so that unscaling is
        # exact.  The chain MILP mixes EUR-millions with per-kg coefficients.
        self.row_scale = np.ones(m)
        self.col_scale = np.ones(n)
        if a.size:
            self.row_scale = _pow2_scale(np.abs(a).max(axis=1))
            a = a * self.row_scale[:, None]
            self.col_scale = _pow2_scale(np.abs(a).max(axis=0))
            a = a * self.col_scale[None, :]

        # Slack columns: sense is encoded in the slack bounds.
        senses = np.array(problem.senses, dtype="U2")
        slack_lb = np.where(senses == GE, -np.inf, 0.0)
        slack_ub = np.where(senses == LE, np.inf, 0.0)

        self.m, self.n_struct = m, n
        self.a = np.hstack([a, np.eye(m)]) if m else a.reshape(0, n)
        self.lb = np.concatenate([problem.lb / self.col_scale, slack_lb])
        self.ub = np.concatenate([problem.ub / self.col_scale, slack_ub])
        self.c = np.concatenate([problem.c * self.col_scale, np.zeros(m)])
        self.b = problem.rhs * self.row_scale
        self.iterations = self.dual_iterations = 0
        self.refactorizations = 0

    # -- state helpers ------------------------------------------------------

    def _init_basis(self):
        """Rest every column at a bound (free ones at zero); crash the slacks.

        A row whose slack bounds hold the residual ``b - A x`` starts with
        its slack basic at that value; every other row gets a +-1 artificial
        column, so the starting basis is diagonal with entries +-1.
        """
        ncols = self.a.shape[1]
        lo, hi = self.lb, self.ub
        lo_fin = np.isfinite(lo)
        # the upper bound wins when it is the only finite one, or when it
        # is <= 0 and the lower bound is < 0
        at_ub = np.isfinite(hi) & (~lo_fin | ((hi <= 0) & (lo < 0)))
        at_lb = lo_fin & ~at_ub
        status = np.where(at_lb, _AT_LB, np.where(at_ub, _AT_UB, _FREE))
        x = np.where(at_lb, lo, np.where(at_ub, hi, 0.0))  # free rests at 0

        resid = self.b - self.a @ x
        slack = np.arange(self.n_struct, ncols)
        fits = (lo[slack] <= resid) & (resid <= hi[slack])
        rows = np.flatnonzero(~fits)
        sign = np.where(resid >= 0, 1.0, -1.0)
        art = np.zeros((self.m, rows.size))
        art[rows, np.arange(rows.size)] = sign[rows]
        self.a = np.hstack([self.a, art])
        self.lb = np.concatenate([self.lb, np.zeros(rows.size)])
        self.ub = np.concatenate([self.ub, np.full(rows.size, np.inf)])
        self.c = np.concatenate([self.c, np.zeros(rows.size)])
        self.art_start = ncols
        self.basis = slack.copy()
        self.basis[rows] = ncols + np.arange(rows.size)
        status[slack[fits]] = _BASIC
        x[slack[fits]] = resid[fits]
        self.status = np.concatenate([status, np.full(rows.size, _BASIC)])
        self.x = np.concatenate([x, np.abs(resid[rows])])
        self.binv = np.diag(np.where(fits, 1.0, sign))  # exact inverse
        self.updates = 0

    def _refactor(self, phase):
        try:
            self.binv = np.linalg.inv(self.a[:, self.basis])
        except np.linalg.LinAlgError as exc:
            raise InvalidProblem(
                f"singular basis in {phase} at iteration {self.iterations}"
            ) from exc
        self.updates = 0
        self.refactorizations += 1

    def _replace(self, pos, enter, w, phase):
        """Make *enter* basic in row *pos*; ``w`` is ``binv @ a[:, enter]``."""
        self.basis[pos] = enter
        row = self.binv[pos] / w[pos]
        self.binv -= np.outer(w, row)
        self.binv[pos] = row
        self.updates += 1
        if self.updates >= _REFACTOR_PERIOD:
            self._refactor(phase)

    # -- core iteration -----------------------------------------------------

    def _count_iteration(self):
        self.iterations += 1
        if self.iterations > 2000 + 200 * (self.m + self.a.shape[1]):
            raise InvalidProblem("simplex iteration limit exceeded")

    def _optimize(self, cost, phase, priced):
        """Run primal simplex for the given cost vector, pricing only the
        first *priced* columns; returns status."""
        degenerate_run = 0
        bland = False
        while True:
            self._count_iteration()

            y = cost[self.basis] @ self.binv
            d = cost[:priced] - self.a[:, :priced].T @ y

            # entering variable: Dantzig's largest |d| with the lowest index
            # on ties, or Bland's lowest eligible index
            st = self.status[:priced]
            eligible = (((st == _AT_LB) & (d < -OPT_TOL))
                        | ((st == _AT_UB) & (d > OPT_TOL))
                        | ((st == _FREE) & (np.abs(d) > OPT_TOL)))
            if not eligible.any():
                return "Optimal"
            if bland:
                enter = int(eligible.argmax())
            else:
                enter = int(np.where(eligible, np.abs(d), 0.0).argmax())
            enter_dir = 1 if d[enter] < 0 else -1

            w = self.binv @ self.a[:, enter]

            # ratio test: entering moves by t >= 0 in direction enter_dir;
            # the bound-to-bound flip wins unless a row blocks it by more
            # than 1e-11, otherwise the lowest basic index among the rows
            # within 1e-11 of the shortest step
            t = self.ub[enter] - self.lb[enter]
            leave_pos = -1
            delta = -enter_dir * w
            xb = self.x[self.basis]
            rising, falling = delta > 1e-9, delta < -1e-9
            room = np.full(self.m, np.inf)
            room[rising] = ((self.ub[self.basis[rising]] - xb[rising])
                            / delta[rising])
            room[falling] = ((xb[falling] - self.lb[self.basis[falling]])
                             / -delta[falling])
            room = np.maximum(room, 0.0)
            shortest = room.min(initial=np.inf)
            if shortest < t - 1e-11:
                near = np.flatnonzero(room < shortest + 1e-11)
                leave_pos = int(near[self.basis[near].argmin()])
                t = room[leave_pos]
                leave_hit = _AT_UB if rising[leave_pos] else _AT_LB

            if not np.isfinite(t):
                return "Unbounded"

            if t < 1e-11:
                degenerate_run += 1
                if degenerate_run >= _DEGENERATE_LIMIT:
                    bland = True
            else:
                degenerate_run = 0

            # apply the step
            self.x[enter] += enter_dir * t
            self.x[self.basis] -= enter_dir * t * w

            if leave_pos < 0:
                # entering flipped from one of its bounds to the other
                self.status[enter] = _AT_UB if enter_dir > 0 else _AT_LB
                self.x[enter] = self.ub[enter] if enter_dir > 0 else self.lb[enter]
            else:
                out = self.basis[leave_pos]
                self.status[out] = leave_hit
                self.x[out] = self.ub[out] if leave_hit == _AT_UB else self.lb[out]
                self.status[enter] = _BASIC
                self._replace(leave_pos, enter, w, phase)

    def _dual(self):
        """Run a bounded dual simplex from a dual feasible basis until the
        basis is primal feasible; returns "Optimal" then, or "Infeasible"
        when a violated row has no entering column."""
        priced = self.art_start
        movable = self.lb[:priced] < self.ub[:priced]
        y = self.c[self.basis] @ self.binv
        d = self.c[:priced] - self.a[:, :priced].T @ y  # updated per pivot
        degenerate_run = 0
        bland = False
        while True:
            xb = self.x[self.basis]
            below = self.lb[self.basis] - xb
            viol = np.maximum(below, xb - self.ub[self.basis])
            bad = viol > FEAS_TOL
            if not bad.any():
                return "Optimal"
            self._count_iteration()
            self.dual_iterations += 1

            # leaving row: the largest violation with the lowest position on
            # ties, or the lowest basic index
            if bland:
                rows = np.flatnonzero(bad)
                r = int(rows[self.basis[rows].argmin()])
            else:
                r = int(viol.argmax())
            rising = below[r] > 0  # x_B[r] rises to its lower bound

            # entering column: column j moves x_B[r] by -alpha_j per unit;
            # sigma > 0 means a column at its lower bound can repair row r
            alpha = self.binv[r] @ self.a[:, :priced]
            sigma = -alpha if rising else alpha
            st = self.status[:priced]
            eligible = movable & (((st == _AT_LB) & (sigma > 1e-9))
                                  | ((st == _AT_UB) & (sigma < -1e-9))
                                  | ((st == _FREE) & (np.abs(sigma) > 1e-9)))
            if not eligible.any():
                return "Infeasible"
            cols = np.flatnonzero(eligible)
            size = np.abs(alpha[cols])
            ratio = np.abs(d[cols]) / size
            step = ratio.min()
            near = ratio <= step + 1e-11
            if bland:
                enter = int(cols[near][0])
            else:
                enter = int(cols[near][size[near].argmax()])

            if step < 1e-11:
                degenerate_run += 1
                if degenerate_run >= _DEGENERATE_LIMIT:
                    bland = True
            else:
                degenerate_run = 0

            # update the reduced costs; a fixed column never enters, so rest
            # it at the bound its new reduced cost prefers and phase 2 has
            # nothing to flip
            d -= d[enter] / alpha[enter] * alpha
            fixed = ~movable & (st != _BASIC)
            st[fixed & (d < 0)] = _AT_UB
            st[fixed & (d > 0)] = _AT_LB

            # move the entering column until x_B[r] sits at its bound
            w = self.binv @ self.a[:, enter]
            out = self.basis[r]
            bound = self.lb[out] if rising else self.ub[out]
            t = (xb[r] - bound) / w[r]
            self.x[enter] += t
            self.x[self.basis] -= t * w
            self.status[out] = _AT_LB if rising else _AT_UB
            self.x[out] = bound
            self.status[enter] = _BASIC
            self._replace(r, enter, w, "dual")

    def _purge_artificials(self):
        """Pivot basic artificials out where possible; fix all to zero."""
        self.lb[self.art_start:] = 0.0
        self.ub[self.art_start:] = 0.0
        structural = self.a[:, : self.art_start]
        for i in np.flatnonzero(self.basis >= self.art_start):
            bi = self.basis[i]
            # row i of binv @ a: the pivot element of every candidate column
            pivots = np.abs(self.binv[i] @ structural) > 1e-9
            pivots &= self.status[: self.art_start] != _BASIC
            if not pivots.any():
                continue  # redundant row, artificial stays basic pinned at zero
            found = int(pivots.argmax())
            self.status[bi] = _AT_LB
            self.x[bi] = 0.0
            self.status[found] = _BASIC
            self._replace(i, found, self.binv @ self.a[:, found], "phase 1")

    # -- driver --------------------------------------------------------------

    def _stats(self):
        return {"iterations": self.iterations,
                "phase1_iterations": self.phase1_iterations,
                "dual_iterations": self.dual_iterations,
                "refactorizations": self.refactorizations,
                "artificials": self.a.shape[1] - self.art_start}

    def solve(self):
        self._init_basis()
        ncols = self.a.shape[1]
        self.phase1_iterations = 0
        if ncols > self.art_start:
            phase1_cost = np.zeros(ncols)
            phase1_cost[self.art_start:] = 1.0
            status = self._optimize(phase1_cost, "phase 1", ncols)
            self.phase1_iterations = self.iterations
            if status != "Optimal":  # phase 1 is bounded below by zero
                raise InvalidProblem("phase 1 terminated abnormally")
            if float(phase1_cost @ self.x) > FEAS_TOL:
                return Solution(status="Infeasible", stats=self._stats())
            self._purge_artificials()
        return self._phase2()

    def resolve(self, lb, ub, basis, status):
        """Re-solve for new structural bounds *lb*, *ub* from an optimal
        ``(basis, status)`` of an earlier solve of this simplex.

        That basis stays dual feasible when only bounds change, so the
        nonbasic columns are put at their new bounds and a bounded dual
        simplex repairs primal feasibility; phase 2 then checks optimality.
        """
        n = self.n_struct
        self.lb[:n] = lb / self.col_scale
        self.ub[:n] = ub / self.col_scale
        self.basis = basis.copy()
        self.status = status.copy()
        self.iterations = self.phase1_iterations = self.dual_iterations = 0
        self.refactorizations = 0
        self._refactor("dual")

        st = self.status
        self.x = np.where(st == _AT_LB, self.lb,
                          np.where(st == _AT_UB, self.ub, 0.0))
        self.x[self.basis] = self.binv @ (self.b - self.a @ self.x)
        if self._dual() == "Infeasible":
            return Solution(status="Infeasible", stats=self._stats())
        return self._phase2()

    def _phase2(self):
        # a nonbasic artificial never enters again
        status = self._optimize(self.c, "phase 2", self.art_start)
        if status == "Unbounded":
            return Solution(status="Unbounded", stats=self._stats())

        # unscale primal, duals and reduced costs
        x = self.x[: self.n_struct] * self.col_scale
        y_scaled = self.c[self.basis] @ self.binv
        duals = y_scaled * self.row_scale
        d_scaled = self.c[: self.n_struct] - self.a[:, : self.n_struct].T @ y_scaled
        reduced = d_scaled / self.col_scale

        objective = float(self.problem.c @ x)
        gap = self._duality_gap(objective, duals, reduced)
        return Solution(status="Optimal", x=x, objective=objective,
                        duals=duals, reduced_costs=reduced, duality_gap=gap,
                        stats=self._stats())

    def _duality_gap(self, objective, duals, reduced):
        p = self.problem
        dual_obj = float(duals @ p.rhs) if p.n_cons else 0.0
        # the bounds of this solve, unscaled exactly (powers of two); slack
        # reduced costs are -duals; only rows whose slack can move a finite
        # amount contribute nothing (slack bounds are 0 or infinite)
        lb = self.lb[: self.n_struct] * self.col_scale
        ub = self.ub[: self.n_struct] * self.col_scale
        at_lb = (reduced > 0) & np.isfinite(lb)
        at_ub = (reduced < 0) & np.isfinite(ub)
        terms = np.zeros(p.n_vars)
        terms[at_lb] = reduced[at_lb] * lb[at_lb]
        terms[at_ub] = reduced[at_ub] * ub[at_ub]
        # accumulate left to right, in the order a scalar loop would
        return objective - float(np.cumsum(np.append(dual_obj, terms))[-1])


class ProblemBuilder:
    """Incremental construction of a LinearProblem."""

    def __init__(self):
        self._cost = []
        self._lb = []
        self._ub = []
        self._binaries = []
        self._rows = []
        self._cols = []
        self._vals = []
        self._senses = []
        self._rhs = []

    def add_var(self, cost=0.0, lb=0.0, ub=np.inf, binary=False):
        j = len(self._cost)
        if binary:
            lb, ub = max(lb, 0.0), min(ub, 1.0)
        self._cost.append(float(cost))
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        if binary:
            self._binaries.append(j)
        return j

    def add_constraint(self, coeffs, sense, rhs):
        """coeffs: iterable of (var index, coefficient)."""
        i = len(self._rhs)
        for j, v in coeffs:
            if v != 0.0:
                self._rows.append(i)
                self._cols.append(j)
                self._vals.append(float(v))
        self._senses.append(sense)
        self._rhs.append(float(rhs))
        return i

    def build(self):
        return LinearProblem(
            np.array(self._cost), np.array(self._lb), np.array(self._ub),
            np.array(self._rows, dtype=int), np.array(self._cols, dtype=int),
            np.array(self._vals), tuple(self._senses), np.array(self._rhs),
            tuple(self._binaries))


def solve_lp(problem):
    """Solve a pure LP; returns primal values, row duals and bound multipliers."""
    if problem.binaries:
        raise InvalidProblem("solve_lp given a problem with binary variables")
    return _Simplex(problem).solve()


def _relaxed(problem):
    return LinearProblem(problem.c, problem.lb, problem.ub, problem.a_rows,
                         problem.a_cols, problem.a_vals, problem.senses,
                         problem.rhs, ())


def solve_milp(problem, node_limit=100000):
    """Branch and bound over the binary variables of *problem*.

    Branching picks the most fractional binary (lowest index on ties);
    the search is depth-first with a best-bound re-sort of the open stack
    every 64 expanded nodes.  One simplex serves the whole tree: the root
    relaxation is solved once, and every child is re-solved warm from its
    parent's optimal basis.  Raises ResourceLimit past *node_limit*.
    """
    if not problem.binaries:
        return solve_lp(problem)
    relaxation = _relaxed(problem)
    binaries = list(problem.binaries)
    simplex = _Simplex(relaxation)
    stats = {"nodes": 0, "lp_solves": 0, "iterations": 0,
             "dual_iterations": 0, "max_duality_gap": 0.0}

    def record(sol):
        stats["lp_solves"] += 1
        stats["iterations"] += sol.stats["iterations"]
        stats["dual_iterations"] += sol.stats["dual_iterations"]
        if sol.optimal:
            gap = abs(sol.duality_gap) / max(1.0, abs(sol.objective))
            stats["max_duality_gap"] = max(stats["max_duality_gap"], gap)
        return sol

    root = record(simplex.solve())
    if root.status != "Optimal":
        return Solution(status=root.status, stats=dict(stats, nodes=1))

    incumbent = None
    incumbent_obj = np.inf
    # each open node: (bound, fixes, parent basis and status) with fixes a
    # tuple of (var, value); the root's entry carries no parent
    stack = [(root.objective, (), None)]

    while stack:
        if stats["nodes"] and stats["nodes"] % 64 == 0:
            # keep the best-bound node on the pop side
            stack.sort(key=lambda item: (-item[0], item[1]))
        bound, fixes, parent = stack.pop()
        if bound >= incumbent_obj - 1e-9:
            continue
        if stats["nodes"] >= node_limit:
            if incumbent is not None:
                incumbent.stats = dict(stats)
            open_bounds = [item[0] for item in stack]
            raise ResourceLimit("branch-and-bound node limit reached",
                                incumbent=incumbent,
                                bound=min([bound] + open_bounds))
        stats["nodes"] += 1

        if parent is None:
            sol = root
        else:
            lb = relaxation.lb.copy()
            ub = relaxation.ub.copy()
            for var, val in fixes:
                lb[var] = ub[var] = float(val)
            sol = record(simplex.resolve(lb, ub, *parent))
        if sol.status != "Optimal" or sol.objective >= incumbent_obj - 1e-9:
            continue

        frac_var, frac_score = -1, INT_TOL
        for j in binaries:
            f = min(sol.x[j], 1.0 - sol.x[j])
            if f > frac_score:
                frac_var, frac_score = j, f
        if frac_var < 0:
            x = sol.x.copy()
            x[binaries] = np.round(x[binaries])
            incumbent = Solution(status="Optimal", x=x,
                                 objective=sol.objective)
            incumbent_obj = sol.objective
            continue

        # explore the rounding of the fractional value first (pushed last);
        # both children start from this node's basis
        first = 1 if sol.x[frac_var] >= 0.5 else 0
        warm = (simplex.basis.copy(), simplex.status.copy())
        stack.append((sol.objective, fixes + ((frac_var, 1 - first),), warm))
        stack.append((sol.objective, fixes + ((frac_var, first),), warm))

    if incumbent is None:
        return Solution(status="Infeasible", stats=stats)
    incumbent.stats = stats
    return incumbent
