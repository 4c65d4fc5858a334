"""Self-contained dense LP / mixed-binary solver.

The simplex works on the bounded-variable standard form ``min c'x  s.t.
Ax + s = b,  lb <= (x, s) <= ub``.  Every constraint row gets a slack column
whose bounds encode its sense, so the dual of row i is simply the i-th
simplex multiplier.  Primal pivoting uses Dantzig's rule with a lowest-index
tie-break and falls back to Bland's rule after a run of degenerate pivots,
which makes every solve deterministic and finite.  The ratio test lets the
entering bound flip win unless a row blocks it by more than 1e-11, and
otherwise takes the lowest basic index among the rows within 1e-11 of the
shortest step.

Every solve starts on a basis that is dual feasible and repairs primal
feasibility with the bounded dual simplex ``_dual`` (Koberstein, "The dual
simplex method, techniques for a fast and stable implementation", PhD
thesis, 2005), then ends with the primal simplex on the true costs (phase
2).  The dual leaves on the largest bound violation (lowest basis position
on ties) and enters the movable nonbasic column with the smallest
``|d_j| / |alpha_rj|`` over ``|alpha_rj| > 1e-9``, ties to the largest
``|alpha_rj|`` and then the lowest index; after a run of zero-length steps
it switches to lowest-index choices.  A violated row that no column can
repair proves the problem infeasible, whatever the costs.

A cold solve starts every active row on its slack, so the basis inverse is
exactly the identity, and every column rests at a bound (free ones at
zero).  Phase 1 is ``_dual`` on the costs with one change: a movable column
whose cost prefers the other bound than the one it rests at, or a free
column with a nonzero cost, gets cost 0 (the cost-modification dual phase 1
of Koberstein & Suhl, Comput. Optim. Appl. 2007).  That start is dual
feasible, and the primal feasible basis phase 1 ends on is where phase 2
starts.

A problem that knows a dual feasible vertex names it in
``LinearProblem.start_basis``: ``(row, column)`` pairs, each column basic in
its row, every other active row on its slack whatever the slack's value, and
every other column resting as in a cold start.  ``_start`` inverts that
basis (below) and ``_dual`` runs on the true costs, with no phase 1.  A
start that is singular or not dual feasible at ``OPT_TOL`` raises
``InvalidProblem``.  The network LP of ``dispatch`` starts this way at the
hour's merit-order vertex.

The solver keeps a dense inverse of the basis matrix.  It takes a rank-one
product-form update per basis change.  Every other inverse comes from
``_invert``: of a start basis, every ``_REFACTOR_PERIOD`` updates, after
``_add_rows`` and on a warm re-solve.  A basic slack is the unit column of
its own row, so ``_invert`` inverts only the block of the structural basic
columns over the rows no basic slack covers and fills in the slacks' rows
by one product (Bixby, "Solving real-world linear programs", Oper. Res.
2002, on exploiting slack structure).  Multipliers and the entering column
are one matrix-vector product each, and pricing and the ratio test are
array operations.
``Solution.stats`` reports all iterations (``iterations``), the dual pivots
of phase 1 (``phase1_iterations``) and of every other dual simplex run
(``dual_iterations``), the number of refactorizations and the number of
rounds (``rounds``, see below).

The constraint matrix is equilibrated by powers of two, rows first and
then columns, so that unscaling is exact; ``scale_matrix`` does this once
per matrix and returns a read-only ``ScaledMatrix``, which stores the
scaled matrix and its scales and not the original.  A problem gives its
rows as triplets, which ``_Simplex`` densifies and scales per solve, or as a
``ScaledMatrix`` in ``LinearProblem.matrix``, which it uses as it is: the
network LP of ``dispatch`` builds its block once per power system and hands
the same value to the LP of every hour.  ``LinearProblem.dense_matrix``
unscales such a matrix, exactly.

``solve_lp`` holds back the rows listed in ``LinearProblem.lazy_rows`` (the
meaning of Gurobi's ``Lazy`` constraint attribute).  One ``_Simplex`` is
built over the whole problem: the dense matrix and its scaling come from
every row, while the basis covers only the active rows.  The active rows are
solved cold; then one product of the scaled matrix with ``x`` checks every
held-back row against its slack bounds at ``FEAS_TOL``.  ``_add_rows``
appends the violated ones with their slacks basic, unit columns of their
own rows, and rebuilds the basis inverse with ``_invert``, whose structural
block the new rows leave as it was.  The new multipliers are zero, so the
basis stays dual feasible, and ``_dual`` and phase 2 finish the round with
no phase 1.
Rounds repeat until no held-back row is violated; iterations are summed
over them, and the iteration limit counts them all.  Rows never added get a
zero dual.  If the active rows are unbounded, every row is activated and
the problem is solved again cold; a round whose dual simplex finds a
violated row no column can repair proves the problem infeasible.

Mixed-binary problems are handled by depth-first branch and bound on the
most fractional binary, with a best-bound re-sort of the open stack every 64
nodes.  One ``_Simplex`` serves a whole tree and solves the root relaxation
once.  A child differs from its parent only in the bounds of the binaries it
fixes, so the parent's optimal basis stays dual feasible:
``_Simplex.resolve`` inverts that basis, puts every nonbasic column at its
new bound and runs ``_dual`` until the basis is primal feasible, then ends
through the same phase 2 and unscaling as a cold solve, or proves the child
infeasible.  An open node keeps only its
parent's basis and bound statuses, so a tree's state comes from that tree
alone.  The child popped right after its parent, the next step of a dive,
finds that basis still live and keeps the live inverse and its count of
updates; every other child refactors.  The result's ``stats`` report
``nodes``, ``lp_solves``, ``iterations`` and ``dual_iterations`` summed over
the node LPs, and ``max_duality_gap``, the worst
``|gap| / max(1, |objective|)`` among them.
"""

from dataclasses import dataclass, field, replace

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
class ScaledMatrix:
    """A dense constraint matrix ``a`` stored only in its power-of-two
    equilibration: ``scaled = row_scale[:, None] * a * col_scale[None, :]``
    exactly, so ``a`` is ``scaled / col_scale / row_scale[:, None]``.

    Built by ``scale_matrix``, which checks that ``a`` is finite; every
    array is read-only, so one value can serve many problems.
    """

    scaled: np.ndarray
    row_scale: np.ndarray
    col_scale: np.ndarray


def _pow2_scale(v):
    """Nearest power of two to 1/v, elementwise; exact in binary arithmetic.

    Entries that are zero or not finite get scale 1.
    """
    scale = np.ones(v.shape)
    ok = (v > 0) & np.isfinite(v)
    scale[ok] = np.ldexp(1.0, -np.rint(np.log2(v[ok])).astype(int))
    return scale


def scale_matrix(a):
    """Equilibrate the dense matrix *a* into a new array: every row by the
    power of two nearest the inverse of its largest magnitude, then every
    column of the result likewise.  The chain MILP mixes EUR-millions with
    per-kg coefficients."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise InvalidProblem("NaN or infinity in problem data")
    row_scale = _pow2_scale(np.abs(a).max(axis=1, initial=0.0))
    scaled = a * row_scale[:, None]
    col_scale = _pow2_scale(np.abs(scaled).max(axis=0, initial=0.0))
    scaled *= col_scale
    for arr in (scaled, row_scale, col_scale):
        arr.flags.writeable = False
    return ScaledMatrix(scaled, row_scale, col_scale)


@dataclass(frozen=True)
class LinearProblem:
    """A minimization problem with its constraint matrix in sparse-triplet
    form or as a dense ``ScaledMatrix``.

    Rows are ``sum_j a[k] * x[cols[k]] (sense_i) rhs_i`` for triplets with
    ``rows[k] == i``, or ``dense_matrix()[i] @ x (sense_i) rhs_i`` when
    ``matrix`` is set, and then the triplets are empty.  ``binaries`` lists
    the variables restricted to {0, 1}; their bounds must lie in [0, 1].
    ``lazy_rows`` lists rows the LP solver may leave out until a solution
    violates them.  ``start_basis`` lists ``(row, column)`` pairs: the LP
    solver starts each column basic in its row and solves with the dual
    simplex (see the module docstring).
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
    lazy_rows: tuple = ()
    start_basis: tuple = ()
    matrix: ScaledMatrix = None

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
        object.__setattr__(self, "lazy_rows", tuple(np.sort(np.asarray(
            self.lazy_rows, dtype=int)).tolist()))
        object.__setattr__(self, "start_basis", tuple(sorted(
            (int(i), int(j)) for i, j in self.start_basis)))
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
        if self.matrix is not None:
            if self.a_rows.size:
                raise InvalidProblem("constraint matrix given both as "
                                     "triplets and as a matrix")
            if self.matrix.scaled.shape != (m, n):
                raise InvalidProblem("constraint matrix shape does not match "
                                     "the problem")
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
        lazy = self.lazy_rows
        if lazy and (lazy[0] < 0 or lazy[-1] >= m):
            raise InvalidProblem("lazy row index out of range")
        if len(set(lazy)) != len(lazy):
            raise InvalidProblem("duplicate lazy row index")
        if self.start_basis:
            rows, cols = zip(*self.start_basis)
            if min(rows) < 0 or max(rows) >= m:
                raise InvalidProblem("start basis row index out of range")
            if min(cols) < 0 or max(cols) >= n:
                raise InvalidProblem("start basis column index out of range")
            if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
                raise InvalidProblem("duplicate start basis row or column")
            if set(rows) & set(lazy):
                raise InvalidProblem("start basis row is a lazy row")

    def dense_matrix(self):
        if self.matrix is not None:
            mat = self.matrix
            return mat.scaled / mat.col_scale / mat.row_scale[:, None]
        a = np.zeros((self.n_cons, self.n_vars))
        np.add.at(a, (self.a_rows, self.a_cols), self.a_vals)
        return a


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


def _improving(status, d):
    """The nonbasic columns whose reduced costs *d* price a move off their
    bound (either way for a free column) beyond ``OPT_TOL``."""
    return (((status == _AT_LB) & (d < -OPT_TOL))
            | ((status == _AT_UB) & (d > OPT_TOL))
            | ((status == _FREE) & (np.abs(d) > OPT_TOL)))


class _Simplex:
    """Bounded-variable dual and primal simplex on equality form with slack
    columns."""

    def __init__(self, problem):
        self.problem = problem
        m, n = problem.n_cons, problem.n_vars
        matrix = problem.matrix
        if matrix is None:
            matrix = scale_matrix(problem.dense_matrix())
        a, self.row_scale, self.col_scale = (matrix.scaled, matrix.row_scale,
                                             matrix.col_scale)

        # Slack columns: sense is encoded in the slack bounds.
        senses = np.array(problem.senses, dtype="U2")
        self.slack_lb = np.where(senses == GE, -np.inf, 0.0)
        self.slack_ub = np.where(senses == LE, np.inf, 0.0)

        # every row, scaled; the basis covers the active rows only, in the
        # order they were added, and the held-back (lazy) rows wait outside
        self.n_struct = n
        self.a_all, self.b_all = a, problem.rhs * self.row_scale
        lazy = np.zeros(m, dtype=bool)
        lazy[list(problem.lazy_rows)] = True
        self.held = np.flatnonzero(lazy)
        self._set_rows(np.flatnonzero(~lazy))
        self.iterations = self.phase1_iterations = self.dual_iterations = 0
        self.refactorizations = 0
        self.rounds = 1

    def _set_rows(self, rows):
        """Make *rows* the active rows, with no basis yet."""
        m, n = rows.size, self.n_struct
        p = self.problem
        self.rows, self.m = rows, m
        self.a = np.hstack([self.a_all[rows], np.eye(m)])
        self.lb = np.concatenate([p.lb / self.col_scale, self.slack_lb[rows]])
        self.ub = np.concatenate([p.ub / self.col_scale, self.slack_ub[rows]])
        self.c = np.concatenate([p.c * self.col_scale, np.zeros(m)])
        self.b = self.b_all[rows]

    # -- state helpers ------------------------------------------------------

    def _rest(self):
        """The status and value of every column resting at a bound (free
        ones at zero)."""
        lo, hi = self.lb, self.ub
        lo_fin = np.isfinite(lo)
        # the upper bound wins when it is the only finite one, or when it
        # is <= 0 and the lower bound is < 0
        at_ub = np.isfinite(hi) & (~lo_fin | ((hi <= 0) & (lo < 0)))
        at_lb = lo_fin & ~at_ub
        status = np.where(at_lb, _AT_LB, np.where(at_ub, _AT_UB, _FREE))
        x = np.where(at_lb, lo, np.where(at_ub, hi, 0.0))  # free rests at 0
        return status, x

    def _start(self):
        """Put every active row on its slack, or on the column
        ``problem.start_basis`` names for it, rest every other column as
        ``_rest`` does, and return the costs ``_dual`` starts from.

        A named start must be nonsingular and dual feasible at ``OPT_TOL``;
        a cold start is the identity basis, and phase 1 gives cost 0 to
        every movable column that is not dual feasible at rest.  A nonbasic
        fixed column rests at the bound its reduced cost prefers.
        """
        status, x = self._rest()
        named = self.problem.start_basis
        self.basis = np.arange(self.n_struct, self.a.shape[1])
        if named:
            rows, cols = np.array(named).T
            # active rows are sorted here
            self.basis[np.searchsorted(self.rows, rows)] = cols
            try:
                self.binv = self._invert()
            except np.linalg.LinAlgError as exc:
                raise InvalidProblem("singular start basis") from exc
        else:
            self.binv = np.eye(self.m)
        self.updates = 0
        status[self.basis] = _BASIC
        x[self.basis] = 0.0
        x[self.basis] = self.binv @ (self.b - self.a @ x)

        d = self.c - self.a.T @ (self.c[self.basis] @ self.binv)
        movable = self.lb < self.ub
        wrong = movable & _improving(status, d)
        cost = self.c
        if wrong.any():
            if named:
                raise InvalidProblem(f"start basis is not dual feasible at "
                                     f"column {int(wrong.argmax())}")
            cost = np.where(wrong, 0.0, self.c)
        fixed = ~movable & (status != _BASIC)
        status[fixed & (d < 0)] = _AT_UB
        status[fixed & (d > 0)] = _AT_LB
        self.status, self.x = status, x
        return cost

    def _invert(self):
        """The inverse of the basis matrix, in block form.

        A basic slack is the unit column ``e_i`` of its row ``i``; with
        ``N`` those rows, ``R`` the others and ``J`` the structural basic
        columns, only ``A_RJ`` is inverted, and the rows of ``B^-1`` are
        ``[A_RJ^-1, 0]`` at the positions of ``J`` and ``[-A_NJ A_RJ^-1,
        e_i]`` at those of the slacks.  ``np.linalg.inv`` raises
        ``LinAlgError`` when ``A_RJ`` is singular.
        """
        m, basis = self.m, self.basis
        slack = basis >= self.n_struct
        pos_s, pos_j = np.flatnonzero(slack), np.flatnonzero(~slack)
        rows_s = basis[pos_s] - self.n_struct
        covered = np.zeros(m, dtype=bool)
        covered[rows_s] = True
        rest = np.flatnonzero(~covered)
        a_j = self.a[:, basis[pos_j]]
        inv = np.linalg.inv(a_j[rest])
        binv = np.zeros((m, m))
        binv[pos_s, rows_s] = 1.0
        binv[pos_j[:, None], rest] = inv
        binv[pos_s[:, None], rest] = -a_j[rows_s] @ inv
        return binv

    def _refactor(self, phase):
        try:
            self.binv = self._invert()
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

    def _optimize(self, cost, phase):
        """Run primal simplex for the given cost vector; returns status."""
        degenerate_run = 0
        bland = False
        while True:
            self._count_iteration()

            y = cost[self.basis] @ self.binv
            d = cost - self.a.T @ y

            # entering variable: Dantzig's largest |d| with the lowest index
            # on ties, or Bland's lowest eligible index
            eligible = _improving(self.status, d)
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

    def _dual(self, cost, phase="dual"):
        """Run a bounded dual simplex for the given cost vector from a dual
        feasible basis until the basis is primal feasible; returns "Optimal"
        then, or "Infeasible" when a violated row has no entering column.
        Its pivots count as phase 1 or as dual iterations by *phase*."""
        movable = self.lb < self.ub
        y = cost[self.basis] @ self.binv
        d = cost - self.a.T @ y  # updated per pivot
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
            if phase == "phase 1":
                self.phase1_iterations += 1
            else:
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
            alpha = self.binv[r] @ self.a
            sigma = -alpha if rising else alpha
            st = self.status
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
            self._replace(r, enter, w, phase)

    # -- driver --------------------------------------------------------------

    def _stats(self):
        return {"iterations": self.iterations,
                "phase1_iterations": self.phase1_iterations,
                "dual_iterations": self.dual_iterations,
                "refactorizations": self.refactorizations,
                "rounds": self.rounds}

    def solve(self):
        cost = self._start()
        phase = "dual" if self.problem.start_basis else "phase 1"
        if self._dual(cost, phase) == "Infeasible":
            return Solution(status="Infeasible", stats=self._stats())
        return self._phase2()

    def resolve(self, lb, ub, basis, status):
        """Re-solve for new structural bounds *lb*, *ub* from an optimal
        ``(basis, status)`` of an earlier solve of this simplex.

        That basis stays dual feasible when only bounds change, so the
        nonbasic columns are put at their new bounds and a bounded dual
        simplex repairs primal feasibility; phase 2 then checks optimality.
        A basis equal to the live one keeps the live inverse and its count
        of updates; any other is refactored.
        """
        n = self.n_struct
        self.lb[:n] = lb / self.col_scale
        self.ub[:n] = ub / self.col_scale
        live = np.array_equal(basis, self.basis)
        self.basis = basis.copy()
        self.status = status.copy()
        self.iterations = self.phase1_iterations = self.dual_iterations = 0
        self.refactorizations = 0
        self.rounds = 1
        if not live:
            self._refactor("dual")

        st = self.status
        self.x = np.where(st == _AT_LB, self.lb,
                          np.where(st == _AT_UB, self.ub, 0.0))
        self.x[self.basis] = self.binv @ (self.b - self.a @ self.x)
        if self._dual(self.c) == "Infeasible":
            return Solution(status="Infeasible", stats=self._stats())
        return self._phase2()

    def _violated(self):
        """The held-back rows whose slack bounds the current x breaks."""
        if not self.held.size:
            return self.held
        slack = self.b_all - self.a_all @ self.x[: self.n_struct]
        bad = ((slack < self.slack_lb - FEAS_TOL)
               | (slack > self.slack_ub + FEAS_TOL))
        return self.held[bad[self.held]]

    def _add_rows(self, new):
        """Append the held-back rows *new* with their slacks basic.

        Each slack is the unit column of its new row, so ``_invert``
        rebuilds the inverse from the same structural block as before; the
        multipliers of the new rows are zero, so the reduced costs, and with
        them dual feasibility, stay.
        """
        k, m, n, ncols = new.size, self.m, self.n_struct, self.a.shape[1]
        a_new = self.a_all[new]
        a = np.zeros((m + k, ncols + k))
        a[:m, :ncols] = self.a
        a[m:, :n] = a_new
        a[m:, ncols:] = np.eye(k)

        slack = self.b_all[new] - a_new @ self.x[:n]
        self.lb = np.concatenate([self.lb, self.slack_lb[new]])
        self.ub = np.concatenate([self.ub, self.slack_ub[new]])
        self.c = np.concatenate([self.c, np.zeros(k)])
        self.x = np.concatenate([self.x, slack])
        self.status = np.concatenate([self.status, np.full(k, _BASIC)])
        self.basis = np.concatenate([self.basis, ncols + np.arange(k)])

        self.a = a
        self.b = np.concatenate([self.b, self.b_all[new]])
        self.rows = np.concatenate([self.rows, new])
        self.held = np.delete(self.held, np.searchsorted(self.held, new))
        self.m += k
        self.rounds += 1
        self.binv = self._invert()
        self.updates = 0

    def _phase2(self):
        """Optimize over the active rows, then add the held-back rows the
        optimum violates and repair the basis with the dual simplex, until
        none is violated."""
        while True:
            status = self._optimize(self.c, "phase 2")
            if status == "Unbounded":
                if not self.held.size:
                    return Solution(status="Unbounded", stats=self._stats())
                # the basis is not dual feasible: start over on every row
                self._set_rows(np.arange(self.problem.n_cons))
                self.held = self.held[:0]
                self.rounds += 1
                return self.solve()
            new = self._violated()
            if not new.size:
                break
            self._add_rows(new)
            if self._dual(self.c) == "Infeasible":
                return Solution(status="Infeasible", stats=self._stats())

        # unscale primal, duals and reduced costs; rows never added price 0
        x = self.x[: self.n_struct] * self.col_scale
        y_scaled = self.c[self.basis] @ self.binv
        duals = np.zeros(self.problem.n_cons)
        duals[self.rows] = y_scaled * self.row_scale[self.rows]
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


def solve_lp(problem):
    """Solve a pure LP; returns primal values, row duals and bound multipliers.

    Rows listed in ``problem.lazy_rows`` are held back until an optimum of
    the other rows violates them (see the module docstring).
    """
    if problem.binaries:
        raise InvalidProblem("solve_lp given a problem with binary variables")
    return _Simplex(problem).solve()


def solve_milp(problem, node_limit=100000):
    """Branch and bound over the binary variables of *problem*.

    Branching picks the most fractional binary (lowest index on ties);
    the search is depth-first with a best-bound re-sort of the open stack
    every 64 expanded nodes.  One simplex serves the whole tree: the root
    relaxation is solved once, and every child is re-solved warm from its
    parent's optimal basis.  Raises ResourceLimit past *node_limit*.
    """
    if problem.lazy_rows:
        raise InvalidProblem("solve_milp given a problem with lazy rows")
    if problem.start_basis:
        raise InvalidProblem("solve_milp given a problem with a start basis")
    if not problem.binaries:
        return solve_lp(problem)
    relaxation = replace(problem, binaries=())
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
