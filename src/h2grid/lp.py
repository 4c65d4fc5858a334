"""Self-contained dense LP / mixed-binary solver.

The simplex works on the bounded-variable standard form ``min c'x  s.t.
Ax + s = b,  lb <= (x, s) <= ub``.  Every constraint row gets a slack column
whose bounds encode its sense, so the dual of row i is simply the i-th
simplex multiplier.  Its one pivot loop is the bounded dual simplex
``_dual`` (Koberstein, "The dual simplex method, techniques for a fast and
stable implementation", PhD thesis, 2005): from a dual feasible basis it
pivots until the basis is primal feasible, and so optimal.  It keeps one
rule at every pivot: it leaves on the largest bound violation (lowest basis
position on ties) and enters the movable nonbasic column with the smallest
``|d_j| / |alpha_rj|`` over ``|alpha_rj| > 1e-9``, ties to the largest
``|alpha_rj|`` and then the lowest index.  The ties make every solve
deterministic, and the iteration limit, which raises ``InvalidProblem``,
makes it finite; it never switches to lowest-index (Bland) choices, whose
pivots can be tiny.  A fixed column
(``lb == ub``) never enters, so it stays at its one value whatever status
it rests with.  A violated row that no column can repair proves the problem
infeasible, whatever the costs.

The loop reads the way a nonbasic column may move from one table indexed
by its status, ``_UP``: +1 at its lower bound, -1 at its upper, 0 when
basic or free.  A column prices as improving when ``-d_j * _UP`` exceeds
``OPT_TOL`` (``_improving``), and can enter when ``sigma_j * _UP`` exceeds
1e-9; a free column, which may move either way, is tested on ``|d_j|`` or
``|sigma_j|`` apart, and only when some column is free.  Each product is by
+-1 or 0, which is exact, so the table gives the three-case test's answer
to the bit.  The leaving row is the first largest violation (``argmax``),
and the loop stops when that largest one is within ``FEAS_TOL``; an empty
basis is primal feasible at once.

The loop keeps its state between pivots and updates only what a pivot
changes: the basic values ``x_B`` and the bounds of the basic columns at
the leaving row (and ``x_B`` by the step along the entering column), and
the entering table ``_UP[status]``, 0 for a fixed column, at the leaving
and the entering column.  ``x_B`` goes back into ``x`` once, when the loop
returns.

A cold solve starts every active row on its slack, so the basis inverse is
exactly the identity and the multipliers are zero: every column prices at
its cost.  Every column rests at a bound (free ones at zero), a boxed one at
the bound its cost prefers.  A column that still prices wrong is pulled
toward an infinite bound, or is free with a nonzero cost; then phase 1
solves the auxiliary problem of Koberstein & Suhl ("Progress in the dual
simplex method for large scale LP problems: practical dual phase 1
algorithms", Comput. Optim. Appl. 2007) with the same ``_dual`` on the true
costs: each finite bound becomes 0 and each infinite one -1 or +1, ``b``
becomes 0, and every nonbasic column starts at the bound its cost prefers.
With the true bounds back and the boxed columns resting by their reduced
costs, its optimal basis prices no column wrong, unless no basis does.  The
problem is then dual infeasible, and so unbounded if it is feasible at all:
``_dual`` on zero costs, from that basis, reports ``Unbounded`` if it
reaches a primal feasible basis and ``Infeasible`` if not.

A problem that knows a dual feasible vertex names it in
``LinearProblem.start``: one ``(row, column)`` pair.  ``_start`` puts every
active row on its slack, as a cold solve does, and then the named column
basic in its row, every other column resting at a bound as ``_rest`` puts
it.  That basis differs from the identity in one column, so its inverse is
the identity with that column filled in closed form, and ``_dual`` runs on
the true costs, with no phase 1, from the reduced costs the start computed.
A start that is singular or not dual feasible at ``OPT_TOL`` raises
``InvalidProblem``.  The network LP of ``dispatch`` starts this way at the
hour's merit-order vertex, its marginal unit basic in the balance row.

The solver keeps a dense inverse of the basis matrix.  It takes a rank-one
product-form update per basis change, ``_replace``.  The update changes only
the rows where the entering column ``w = B^-1 a_q`` is nonzero, so on a
basis of more than ``_DENSE_ROWS`` (27) rows where fewer than half of them
are it updates those rows alone; otherwise it takes the dense product,
which is faster there, and on smaller bases at any share of nonzeros.  The
entries are the same either way.  A siting column has a few nonzeros in
hundreds of rows (Hall & McKinnon, "Hyper-sparsity in the revised simplex
method and how to exploit it", Comput. Optim. Appl. 2005).  Held-back rows
join the live inverse as its border (``_add_rows``, below).  Every other
inverse comes from ``_invert``: every ``_REFACTOR_PERIOD`` updates, on a
warm re-solve and after a pivot element mismatch.  A basic slack is the
unit column of its own row, so ``_invert`` inverts only the block of the
structural basic columns over the rows no basic slack covers and fills in
the slacks' rows by one product (Bixby, "Solving real-world linear
programs", Oper. Res. 2002, on exploiting slack structure).  Multipliers
and the entering column are one matrix-vector product each, and pricing
and the ratio test are array operations.
Each pivot takes its pivot element twice, from the pivot row and from the
entering column; when the two differ by more than a relative 1e-9, or the
column's is zero, the inverse is rebuilt and the column taken again, and a
second mismatch raises ``InvalidProblem("unstable pivot element in <phase>
at iteration <n>")`` before anything divides by it (Koberstein 2005).  A
solve whose objective or duality gap is not finite raises
``InvalidProblem``, naming the phase and the iteration; it is never
``Optimal``.
``Solution.stats`` reports the pivots: all of them (``iterations``), those
of phase 1, the auxiliary problem and a cold solve's first pass
(``phase1_iterations``), and the others (``dual_iterations``); and the
number of refactorizations and of rounds (``rounds``, see below).

The constraint matrix is equilibrated by powers of two, rows first and
then columns, so that unscaling is exact; ``scale_matrix`` does this once
per matrix and returns a read-only ``ScaledMatrix``, which stores the
scaled matrix and its scales and not the original.  It is the one form in
which a problem keeps its matrix, ``LinearProblem.matrix``, and ``_Simplex``
uses it as it is: the constructor densifies and scales triplets once, and
``chain`` and ``dispatch`` hand over a scaled dense block, ``dispatch`` once
per network template.  ``LinearProblem.dense_matrix`` unscales it, exactly.

A family of problems that differ only in their bounds, rhs, lazy rows and
start is built once and derived from: ``LinearProblem.derive`` takes a
checked problem and new values of those five, and checks only them
(``_validate_data``, the part of ``_validate`` about those fields, with the
same messages; none of the checks is dropped).  The derived problem shares
the rest: the costs, senses, matrix and binaries, and the scaled costs and
slack bounds that the constructor sets, read-only, for ``_Simplex``.
``dispatch`` derives the network LP of every hour from one such problem
per network template.

``solve_lp`` holds back the rows listed in ``LinearProblem.lazy_rows`` (the
meaning of Gurobi's ``Lazy`` constraint attribute).  One ``_Simplex`` is
built over the whole problem: the dense matrix and its scaling come from
every row, while the basis covers only the active rows.  The active rows
are solved cold; then one product of the scaled matrix with ``x`` checks
every held-back row against its slack bounds at ``FEAS_TOL``.
``_add_rows`` appends the violated ones with their slacks basic, unit
columns of their own rows.  The new basis is the old one bordered,
``[[B, 0], [A_NB, I]]`` with ``A_NB`` the new rows under the basic
columns, so its inverse is the live one bordered, ``[[B^-1, 0], [-A_NB
B^-1, I]]``: one product and no inversion, and the count of updates since
the last inversion goes on.  The new multipliers
are zero, so the basis stays dual feasible, and the next round of
``_finish`` runs ``_dual`` on the true costs.  Rounds repeat until no
held-back row is violated; iterations are summed over them, and the
iteration limit counts them all.  Rows never added get a zero dual.  If
the costs are dual infeasible over the active rows, every row is activated
and the problem is solved again cold; a round whose dual simplex finds a
violated row no column can repair proves the problem infeasible.

Mixed-binary problems are handled by depth-first branch and bound on the
most fractional binary, with a best-bound re-sort of the open stack every
64 nodes.  One ``_Simplex`` serves a whole tree and solves the root
relaxation once.  A child differs from its parent only in the bounds of the
binaries it fixes, so the parent's optimal basis stays dual feasible:
``_Simplex.resolve`` inverts that basis, puts every nonbasic column at its
new bound and ends through ``_finish`` on the true costs, as a cold solve
does.  An open node keeps only its parent's basis and bound statuses, so a
tree's state comes from that tree alone.  The child popped right after its
parent, the next step of a dive, finds that basis still live and keeps the
live inverse and its count of updates; every other child refactors.
A dual simplex never lowers the objective of its basis, so at every pivot
that objective bounds the child's optimum from below (the objective cutoff
of LP-based branch and bound; Achterberg, "Constraint Integer
Programming", PhD thesis, 2007).  A child's re-solve is given the
incumbent's objective less 1e-9 plus a relative 1e-9 as its cutoff, and
stops with status ``Cutoff`` once its basis reaches it; the child is
pruned, as it would be after its full re-solve, so the trees are those of
re-solves run to their ends.  The relative margin keeps round-off in the
tracked objective from cutting off a child that the full re-solve would
keep.  The result's ``stats`` report ``nodes``, ``lp_solves``,
``iterations`` and ``dual_iterations`` summed over the node LPs,
``cutoffs``, the re-solves the cutoff ended, and ``max_duality_gap``, the
worst ``|gap| / max(1, |objective|)`` among the node LPs solved to
optimality.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidProblem, ResourceLimit

FEAS_TOL = 1e-7
OPT_TOL = 1e-6
INT_TOL = 1e-6

_REFACTOR_PERIOD = 64   # basis updates between fresh inversions of the basis
_DENSE_ROWS = 27        # bases of at most this many rows update densely

LE, EQ, GE = "<=", "=", ">="

_AT_LB, _AT_UB, _BASIC, _FREE = 0, 1, 2, 3
# the direction a column may move off its bound, by status: up at its lower
# bound, down at its upper, none when basic, either way when free (tested
# apart, on |d|)
_UP = np.array([1.0, -1.0, 0.0, 0.0])


@dataclass(frozen=True, eq=False)
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


def _has_bool(values):
    """Whether *values*, an array or a nested sequence, holds a bool."""
    if isinstance(values, np.ndarray):
        return values.dtype == bool
    if isinstance(values, (list, tuple)):
        return any(map(_has_bool, values))
    return isinstance(values, (bool, np.bool_))


def _indices(values, what):
    """*values* as an int array of shape ``(k,)``; ``InvalidProblem`` unless
    every entry is an integer (a bool is not, also next to ints, which
    numpy would turn it into) and the shape fits."""
    array = np.asarray(values)
    if not array.size:
        return np.zeros(0, dtype=int)
    if array.dtype.kind not in "iu" or array.ndim != 1 or _has_bool(values):
        raise InvalidProblem(f"{what} indices are not integers of shape (k,)")
    return array.astype(int)


def _pair(start):
    """*start* as a ``(row, column)`` tuple of ints, or None;
    ``InvalidProblem`` unless it is None or a tuple or list of two
    integers, neither a bool."""
    if start is None:
        return None
    if not (isinstance(start, (tuple, list)) and len(start) == 2
            and all(isinstance(i, (int, np.integer))
                    and not isinstance(i, bool) for i in start)):
        raise InvalidProblem("start is not a (row, column) pair of integers")
    return int(start[0]), int(start[1])


def _data(lb, ub, rhs, lazy_rows, start):
    """The fields that ``LinearProblem.derive`` replaces, as the problem
    keeps them."""
    return {"lb": np.asarray(lb, dtype=float),
            "ub": np.asarray(ub, dtype=float),
            "rhs": np.asarray(rhs, dtype=float),
            "lazy_rows": np.sort(_indices(lazy_rows, "lazy row")),
            "start": _pair(start)}


def _triplet_matrix(rows, cols, vals, shape):
    """The ``ScaledMatrix`` of the sums of the triplets on a zero matrix of
    *shape*; ``InvalidProblem`` unless they are of one length, in range and
    finite."""
    rows, cols = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
    vals = np.asarray(vals, dtype=float)
    if not rows.size == cols.size == vals.size:
        raise InvalidProblem("triplet arrays have inconsistent lengths")
    m, n = shape
    if rows.size and (rows.min() < 0 or rows.max() >= m):
        raise InvalidProblem("triplet row index out of range")
    if cols.size and (cols.min() < 0 or cols.max() >= n):
        raise InvalidProblem("triplet column index out of range")
    a = np.zeros(shape)
    np.add.at(a, (rows, cols), vals)
    return scale_matrix(a)


@dataclass(frozen=True, init=False, eq=False)
class LinearProblem:
    """A minimization problem with its constraint matrix as a dense
    ``ScaledMatrix``.

    Rows are ``dense_matrix()[i] @ x (sense_i) rhs_i``.  The constructor
    takes the matrix as ``matrix``, or as sparse triplets, entry ``k``
    adding ``a_vals[k]`` at ``(a_rows[k], a_cols[k])``, which it checks,
    densifies and scales once (``_triplet_matrix``).  ``binaries`` lists
    the variables restricted to {0, 1}; their bounds must lie in [0, 1].
    ``lazy_rows`` lists rows the LP solver may leave out until a solution
    violates them.  ``start``, when not None, is one ``(row, column)``
    pair: the LP solver starts that column basic in that row, every other
    active row on its slack, and solves with the dual simplex (see the
    module docstring).  ``derive`` gives a problem with new bounds, rhs,
    lazy rows and start and everything else shared.

    ``a_rows``, ``a_cols`` and ``a_vals`` read back the nonzeros of
    ``dense_matrix()`` as triplets, in row-major order, for the benchmark's
    siting check alone, which rebuilds a root relaxation from them; they
    go once it reads ``dense_matrix()``.

    ``senses`` is kept as an array of ``str`` (``LE``, ``EQ`` or ``GE``
    per row) and ``lazy_rows`` as a sorted int array, so that validating a
    problem and deriving its slack bounds take a fixed number of array
    operations however many rows it has.  A problem, a ``ScaledMatrix``
    and a ``Solution`` hold arrays, which have no truth value, so they
    compare and hash by identity.
    """

    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    senses: np.ndarray
    rhs: np.ndarray
    binaries: tuple = ()
    lazy_rows: np.ndarray = ()
    start: tuple = None
    matrix: ScaledMatrix = None

    def __init__(self, c, lb, ub, a_rows=(), a_cols=(), a_vals=(), senses=(),
                 rhs=(), binaries=(), lazy_rows=(), start=None, matrix=None):
        c = np.asarray(c, dtype=float)
        data = _data(lb, ub, rhs, lazy_rows, start)
        if matrix is None:
            matrix = _triplet_matrix(a_rows, a_cols, a_vals,
                                     (data["rhs"].size, c.size))
        elif any(map(np.size, (a_rows, a_cols, a_vals))):
            raise InvalidProblem("constraint matrix given both as triplets "
                                 "and as a matrix")
        # unsized, so that a longer string is kept whole and rejected
        senses = np.asarray(senses, dtype=str)
        self.__dict__.update(
            c=c, senses=senses, matrix=matrix,
            binaries=tuple(np.sort(_indices(binaries, "binary")).tolist()),
            **data)
        self._validate()
        # what a simplex reads of the costs and senses, shared by derive
        private = {"_scaled_c": c * matrix.col_scale,
                   "_slack_lb": np.where(senses == GE, -np.inf, 0.0),
                   "_slack_ub": np.where(senses == LE, np.inf, 0.0)}
        for arr in private.values():
            arr.flags.writeable = False
        self.__dict__.update(private)

    @property
    def n_vars(self):
        return self.c.size

    @property
    def n_cons(self):
        return self.rhs.size

    def _nonzeros(self):
        a = self.dense_matrix()
        rows, cols = a.nonzero()
        return rows, cols, a[rows, cols]

    a_rows = property(lambda self: self._nonzeros()[0])
    a_cols = property(lambda self: self._nonzeros()[1])
    a_vals = property(lambda self: self._nonzeros()[2])

    def derive(self, lb, ub, rhs, lazy_rows=(), start=None):
        """This problem with new bounds, rhs, lazy rows and start.

        The costs, senses, matrix and binaries are this problem's, which
        its constructor checked, so only the new values are checked
        (``_validate_data``, with the constructor's messages).  The new
        problem shares them, and the scaled costs and slack bounds too.
        """
        new = object.__new__(LinearProblem)
        new.__dict__.update(self.__dict__)
        new.__dict__.update(_data(lb, ub, rhs, lazy_rows, start))
        new._validate_data()
        return new

    def _validate(self):
        """Every check: the costs, senses, matrix shape and binaries here,
        then what ``derive`` may change (``_validate_data``)."""
        n, m = self.n_vars, self.n_cons
        senses = self.senses
        if senses.shape != (m,):
            raise InvalidProblem("senses do not match rhs length")
        unknown = (senses != LE) & (senses != EQ) & (senses != GE)
        if unknown.any():
            raise InvalidProblem(f"unknown constraint sense "
                                 f"{str(senses[unknown.argmax()])!r}")
        if self.matrix.scaled.shape != (m, n):
            raise InvalidProblem("constraint matrix shape does not match "
                                 "the problem")
        if not np.isfinite(self.c).all():
            raise InvalidProblem("NaN or infinity in problem data")
        if len(set(self.binaries)) < len(self.binaries):
            raise InvalidProblem("duplicate binary index")
        if self.binaries and (self.binaries[0] < 0 or self.binaries[-1] >= n):
            raise InvalidProblem("binary index out of range")
        self._validate_data()

    def _validate_data(self):
        """The checks of what ``derive`` may change: the bounds, the rhs,
        the lazy rows and the start."""
        n, m = self.n_vars, self.senses.size
        if self.lb.size != n or self.ub.size != n:
            raise InvalidProblem("bound vectors do not match cost vector length")
        if self.rhs.size != m:
            raise InvalidProblem("senses do not match rhs length")
        if not np.isfinite(self.rhs).all():
            raise InvalidProblem("NaN or infinity in problem data")
        # one comparison passes bounds that hold, and fails a NaN one too
        if not (self.lb <= self.ub + 1e-12).all():
            if np.isnan(self.lb).any() or np.isnan(self.ub).any():
                raise InvalidProblem("NaN in variable bounds")
            raise InvalidProblem("lower bound exceeds upper bound")
        for j in self.binaries:
            if self.lb[j] < -1e-12 or self.ub[j] > 1 + 1e-12:
                raise InvalidProblem(f"binary variable {j} has bounds outside [0, 1]")
        lazy = self.lazy_rows
        if lazy.size and (lazy[0] < 0 or lazy[-1] >= m):
            raise InvalidProblem("lazy row index out of range")
        if (lazy[1:] == lazy[:-1]).any():
            raise InvalidProblem("duplicate lazy row index")
        if self.start is not None:
            row, col = self.start
            if not 0 <= row < m:
                raise InvalidProblem("start row index out of range")
            if not 0 <= col < n:
                raise InvalidProblem("start column index out of range")
            at = lazy.searchsorted(row)  # lazy is sorted
            if at < lazy.size and lazy[at] == row:
                raise InvalidProblem("start row is a lazy row")

    def dense_matrix(self):
        """The constraint matrix, unscaled from ``matrix`` exactly."""
        mat = self.matrix
        return mat.scaled / mat.col_scale / mat.row_scale[:, None]


@dataclass(eq=False)
class Solution:
    # "Optimal" | "Infeasible" | "Unbounded", or "Cutoff", which only
    # _Simplex.resolve given a cutoff returns
    status: str
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
    better = -d * _UP[status] > OPT_TOL
    free = status == _FREE
    if free.any():
        better |= free & (np.abs(d) > OPT_TOL)
    return better


def _agree(w_r, alpha_q):
    """Whether the entering column's pivot element *w_r* matches the pivot
    row's *alpha_q*, never 0, to a relative 1e-9; a zero or NaN *w_r* does
    not."""
    return abs(w_r - alpha_q) <= 1e-9 * abs(alpha_q)


class _Simplex:
    """Bounded-variable dual simplex on equality form with slack columns."""

    def __init__(self, problem):
        self.problem = problem
        m, n = problem.n_cons, problem.n_vars
        matrix = problem.matrix
        a, self.row_scale, self.col_scale = (matrix.scaled, matrix.row_scale,
                                             matrix.col_scale)
        # Slack columns: sense is encoded in the slack bounds.
        self.slack_lb, self.slack_ub = problem._slack_lb, problem._slack_ub

        # every row, scaled; the basis covers the active rows only, in the
        # order they were added, and the held-back (lazy) rows wait outside
        self.n_struct = n
        self.a_all, self.b_all = a, problem.rhs * self.row_scale
        lazy = np.zeros(m, dtype=bool)
        lazy[problem.lazy_rows] = True
        self.held = problem.lazy_rows
        # the structural bounds and costs, scaled; only resolve changes the
        # bounds
        self.lb = problem.lb / self.col_scale
        self.ub = problem.ub / self.col_scale
        self.c = problem._scaled_c
        self._set_rows((~lazy).nonzero()[0])
        self.iterations = self.phase1_iterations = self.dual_iterations = 0
        self.refactorizations = 0
        self.rounds = 1

    def _set_rows(self, rows):
        """Make *rows* the active rows, their slacks after the structural
        columns in the same order; the structural bounds and costs stay."""
        m, n = rows.size, self.n_struct
        self.rows, self.m = rows, m
        self.a = np.concatenate([self.a_all[rows], np.eye(m)], axis=1)
        self.lb = np.concatenate([self.lb[:n], self.slack_lb[rows]])
        self.ub = np.concatenate([self.ub[:n], self.slack_ub[rows]])
        self.c = np.concatenate([self.c[:n], np.zeros(m)])
        self.b = self.b_all[rows]

    # -- state helpers ------------------------------------------------------

    def _rest(self, d=None):
        """The status of every column resting at a bound, or free; given
        reduced costs *d*, a boxed column that *d* prices off that bound
        rests at its other one."""
        lo, hi = self.lb, self.ub
        lo_fin, hi_fin = np.isfinite(lo), np.isfinite(hi)
        # the upper bound wins when it is the only finite one, or when it
        # is <= 0 and the lower bound is < 0
        at_ub = hi_fin & (~lo_fin | ((hi <= 0) & (lo < 0)))
        if d is not None:  # -d * _UP > OPT_TOL, as in _improving
            at_ub ^= lo_fin & hi_fin & (np.where(at_ub, d, -d) > OPT_TOL)
        at_lb = lo_fin & ~at_ub
        return np.where(at_lb, _AT_LB, np.where(at_ub, _AT_UB, _FREE))

    def _settle(self, status, d):
        """Take *status* for the nonbasic columns, place x and return the
        movable columns that the reduced costs *d* price off their bounds."""
        status[self.basis] = _BASIC
        self.status = status
        self._place()
        return (self.lb < self.ub) & _improving(status, d)

    def _reduced(self, cost):
        """The reduced costs of *cost* on the current basis."""
        return cost - self.a.T @ (cost[self.basis] @ self.binv)

    def _place(self):
        """Put every nonbasic column at the bound its status names (free
        ones at zero) and solve the active rows for the basic ones."""
        st = self.status
        self.x = np.where(st == _AT_LB, self.lb,
                          np.where(st == _AT_UB, self.ub, 0.0))
        self.x[self.basis] = self.binv @ (self.b - self.a @ self.x)

    def _start(self):
        """Put every active row on its slack, then the column that
        ``problem.start`` names, if any, basic in its row; rest every other
        column as ``_rest`` does and return the reduced costs of a named
        start (None for a cold one) and the movable columns that price
        wrong.

        A cold start is the identity basis, which prices every column at
        its cost, so a boxed column rests at the bound its cost prefers.  A
        named start, column ``q`` in row position ``p``, changes only column
        ``p`` of the inverse: ``1 / a_pq`` at ``p`` and ``-a_iq * (1 /
        a_pq)`` elsewhere.  It must be nonsingular and dual feasible at
        ``OPT_TOL``.
        """
        self.basis = np.arange(self.n_struct, self.a.shape[1])
        self.updates = 0
        self.binv = np.eye(self.m)
        if self.problem.start is None:
            return None, self._settle(self._rest(self.c), self.c)
        row, q = self.problem.start
        p = np.searchsorted(self.rows, row)  # active rows are sorted here
        column = self.a[:, q]
        if column[p] == 0.0:
            raise InvalidProblem("singular start")
        self.basis[p] = q
        inv = 1.0 / column[p]
        self.binv[:, p] = -column * inv
        self.binv[p, p] = inv
        d = self._reduced(self.c)
        wrong = self._settle(self._rest(), d)
        if wrong.any():
            raise InvalidProblem(f"start is not dual feasible at column "
                                 f"{int(wrong.argmax())}")
        return d, wrong

    def _phase_one(self):
        """Make the cold start dual feasible on the true costs through the
        auxiliary problem (see the module docstring); returns the movable
        columns that still price wrong, none unless the costs are dual
        infeasible.  Every column is placed at its true bounds after."""
        lb, ub, b = self.lb, self.ub, self.b
        self.lb = np.where(np.isfinite(lb), 0.0, -1.0)
        self.ub = np.where(np.isfinite(ub), 0.0, 1.0)
        self.b = np.zeros(self.m)
        self._settle(np.where(self.c < 0, _AT_UB, _AT_LB), self.c)
        self._dual(self.c, "phase 1")
        self.lb, self.ub, self.b = lb, ub, b
        d = self._reduced(self.c)
        return self._settle(self._rest(d), d)

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
        pos_s, pos_j = slack.nonzero()[0], (~slack).nonzero()[0]
        rows_s = basis[pos_s] - self.n_struct
        covered = np.zeros(m, dtype=bool)
        covered[rows_s] = True
        rest = (~covered).nonzero()[0]
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

    def _replace(self, pos, enter, w, hit, phase):
        """Rest the column basic in row *pos* with status *hit*, make
        *enter* basic in that row and update the basis inverse (``w`` is
        ``binv @ a[:, enter]``).  A row where ``w`` is zero keeps its
        entries, so on a basis of more than ``_DENSE_ROWS`` rows where fewer
        than half of ``w`` is nonzero only the other rows are updated;
        otherwise the dense product is the faster one."""
        self.status[self.basis[pos]] = hit
        self.status[enter] = _BASIC
        self.basis[pos] = enter
        binv = self.binv
        row = binv[pos] / w[pos]
        nz = w.nonzero()[0]
        if w.size > _DENSE_ROWS and 2 * nz.size < w.size:
            binv[nz] -= w[nz, None] * row
        else:
            binv -= w[:, None] * row
        binv[pos] = row
        self.updates += 1
        if self.updates >= _REFACTOR_PERIOD:
            self._refactor(phase)

    # -- core iteration -----------------------------------------------------

    def _column(self, j):
        """Column *j* in the current basis, ``binv @ a[:, j]``."""
        return self.binv @ self.a[:, j]

    def _dual(self, cost, phase, d=None, cutoff=np.inf):
        """Run a bounded dual simplex for the given cost vector from a dual
        feasible basis until the basis is primal feasible; returns "Optimal"
        then, or "Infeasible" when a violated row has no entering column.
        Its pivots count as phase 1 or as dual iterations by *phase*.  One
        rule holds at every pivot (see the module docstring): deterministic
        by its ties, finite by the iteration limit, which raises
        ``InvalidProblem``.  *d*, when given, are the reduced costs of
        *cost* on the current basis.

        The objective of a dual feasible basis bounds the optimum from
        below, and no pivot lowers it: each raises it by the dual step
        times the leaving row's violation, a product already in true units,
        since the column scales are powers of two.  So the objective is
        ``cost @ x`` once and then tracked per pivot, and once it reaches
        *cutoff* the loop returns "Cutoff".

        The basic values and bounds and each column's entering direction
        are kept between pivots and updated where a pivot changes them;
        the basic values go back into ``x`` when it returns.

        The pivot element is taken twice, from the pivot row (``alpha_q``)
        and from the entering column (``w_r``), and they must agree to a
        relative 1e-9 (Koberstein 2005).  When they do not, the inverse is
        rebuilt and ``w`` taken again; a second mismatch raises
        ``InvalidProblem`` before anything divides by ``w_r``."""
        if not self.m:
            return "Optimal"
        basis, x, lb, ub = self.basis, self.x, self.lb, self.ub
        if d is None:
            d = self._reduced(cost)  # updated per pivot
        objective = cost @ x  # raised per pivot
        xb, lb_b, ub_b = x[basis], lb[basis], ub[basis]
        # the direction each column may enter in: 0 when basic or fixed;
        # no column becomes free here, and a free one may move either way
        movable = lb < ub
        up = np.where(movable, _UP[self.status], 0.0)
        free = movable & (self.status == _FREE)
        any_free = free.any()
        limit = 2000 + 200 * (self.m + self.a.shape[1])
        try:
            while True:
                if objective >= cutoff:
                    return "Cutoff"
                below = lb_b - xb
                viol = np.maximum(below, xb - ub_b)
                # leaving row: the largest violation, the lowest position
                # on ties
                r = int(viol.argmax())
                if not viol[r] > FEAS_TOL:
                    return "Optimal"
                self.iterations += 1
                if self.iterations > limit:
                    raise InvalidProblem("simplex iteration limit exceeded")
                if phase == "phase 1":
                    self.phase1_iterations += 1
                else:
                    self.dual_iterations += 1
                rising = below[r] > 0  # x_B[r] rises to its lower bound

                # entering column: column j moves x_B[r] by -alpha_j per
                # unit; sigma > 0 means a column at its lower bound can
                # repair row r
                alpha = self.binv[r] @ self.a
                sigma = -alpha if rising else alpha
                eligible = sigma * up > 1e-9
                if any_free:
                    eligible |= free & (np.abs(sigma) > 1e-9)
                cols = eligible.nonzero()[0]
                if not cols.size:
                    return "Infeasible"
                size = np.abs(alpha[cols])
                ratio = np.abs(d[cols]) / size
                step = ratio[ratio.argmin()]
                objective += step * viol[r]
                # the smallest ratio, ties to the largest |alpha|, then the
                # lowest index
                near = ratio <= step + 1e-11
                enter = int(cols[near][size[near].argmax()])
                d -= d[enter] / alpha[enter] * alpha

                # move the entering column until x_B[r] sits at its bound,
                # and the column basic there leaves at that bound
                w = self._column(enter)
                if not _agree(w[r], alpha[enter]):
                    self._refactor(phase)
                    w = self._column(enter)
                    if not _agree(w[r], alpha[enter]):
                        raise InvalidProblem(
                            f"unstable pivot element in {phase} at "
                            f"iteration {self.iterations}")
                out = basis[r]
                bound, hit = (lb_b[r], _AT_LB) if rising else (ub_b[r], _AT_UB)
                move = (xb[r] - bound) / w[r]
                xb -= move * w
                xb[r] = x[enter] + move
                x[out] = bound
                lb_b[r], ub_b[r] = lb[enter], ub[enter]
                up[out] = _UP[hit] if movable[out] else 0.0
                up[enter] = 0.0
                free[enter] = False
                self._replace(r, enter, w, hit, phase)
        finally:
            x[basis] = xb

    # -- driver --------------------------------------------------------------

    def _stats(self):
        return {"iterations": self.iterations,
                "phase1_iterations": self.phase1_iterations,
                "dual_iterations": self.dual_iterations,
                "refactorizations": self.refactorizations,
                "rounds": self.rounds}

    def solve(self):
        d, wrong = self._start()
        if wrong.any() and self._phase_one().any():
            if self.held.size:
                # the costs may be dual feasible over every row
                self._set_rows(np.arange(self.problem.n_cons))
                self.held = self.held[:0]
                self.rounds += 1
                return self.solve()
            # dual infeasible: unbounded if feasible, which zero costs decide
            found = self._dual(np.zeros(self.c.size), "phase 1") == "Optimal"
            return Solution(status="Unbounded" if found else "Infeasible",
                            stats=self._stats())
        # a named start is dual feasible, so its pivots are dual iterations
        return self._finish("phase 1" if d is None else "dual", d)

    def resolve(self, lb, ub, basis, status, cutoff=np.inf):
        """Re-solve for new structural bounds *lb*, *ub* from an optimal
        ``(basis, status)`` of an earlier solve of this simplex.

        That basis stays dual feasible when only bounds change, so the
        nonbasic columns are put at their new bounds and a bounded dual
        simplex repairs primal feasibility (``_finish``).  A basis equal to
        the live one keeps the live inverse and its count of updates; any
        other is refactored.  The solve stops with status "Cutoff", and no
        values, once the objective of its basis, a lower bound on its
        optimum, reaches *cutoff*.
        """
        n = self.n_struct
        self.lb[:n] = lb / self.col_scale
        self.ub[:n] = ub / self.col_scale
        live = (basis == self.basis).all()
        self.basis = basis.copy()
        self.status = status.copy()
        self.iterations = self.phase1_iterations = self.dual_iterations = 0
        self.refactorizations = 0
        self.rounds = 1
        if not live:
            self._refactor("dual")
        self._place()
        return self._finish("dual", cutoff=cutoff)

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

        Each slack is the unit column of its new row, so the new basis is
        the old one bordered by the new rows, ``[[B, 0], [A_NB, I]]``, and
        its inverse is the live one bordered likewise, ``[[B^-1, 0],
        [-A_NB B^-1, I]]``: one product, and the count of updates on the
        live inverse goes on.  The multipliers of the new rows are zero, so
        the reduced costs, and with them dual feasibility, stay.
        """
        k, (m, ncols), n = new.size, self.a.shape, self.n_struct
        a = np.zeros((m + k, ncols + k))
        a[:m, :ncols] = self.a
        a[m:, :n] = self.a_all[new]
        a[m:, ncols:] = np.eye(k)
        binv = np.zeros((m + k, m + k))
        binv[:m, :m] = self.binv
        binv[m:, :m] = -(a[m:, self.basis] @ self.binv)
        binv[m:, m:] = np.eye(k)
        slack = self.b_all[new] - a[m:, :n] @ self.x[:n]
        self.a, self.binv, self.m = a, binv, m + k
        self.rows = np.concatenate([self.rows, new])
        self.lb = np.concatenate([self.lb, self.slack_lb[new]])
        self.ub = np.concatenate([self.ub, self.slack_ub[new]])
        self.c = np.concatenate([self.c, np.zeros(k)])
        self.b = np.concatenate([self.b, self.b_all[new]])
        self.x = np.concatenate([self.x, slack])
        self.status = np.concatenate([self.status, np.full(k, _BASIC)])
        self.basis = np.concatenate([self.basis, ncols + np.arange(k)])
        self.held = np.delete(self.held, np.searchsorted(self.held, new))
        self.rounds += 1

    def _finish(self, phase, d=None, cutoff=np.inf):
        """The rounds of a solve from a dual feasible basis: the dual simplex
        makes the basis primal feasible, and so optimal over the active rows,
        and the held-back rows that optimum violates are added for the next
        round; the last round adds none.  *d*, when given, are the reduced
        costs on the current basis, for the first round.  A round that ends
        "Infeasible" or at the *cutoff* ends the solve with that status."""
        while True:
            status = self._dual(self.c, phase, d, cutoff)
            if status != "Optimal":
                return Solution(status=status, stats=self._stats())
            new = self._violated()
            if not new.size:
                break
            self._add_rows(new)
            phase, d = "dual", None

        # unscale primal, duals and reduced costs; rows never added price 0
        x = self.x[: self.n_struct] * self.col_scale
        y_scaled = self.c[self.basis] @ self.binv
        duals = np.zeros(self.problem.n_cons)
        duals[self.rows] = y_scaled * self.row_scale[self.rows]
        d_scaled = self.c[: self.n_struct] - self.a[:, : self.n_struct].T @ y_scaled
        reduced = d_scaled / self.col_scale

        objective = float(self.problem.c @ x)
        gap = self._duality_gap(objective, duals, reduced)
        if not (math.isfinite(objective) and math.isfinite(gap)):
            raise InvalidProblem(f"non-finite objective or duality gap in "
                                 f"{phase} at iteration {self.iterations}")
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
        # the dual objective, then the bound terms, accumulated left to
        # right in place, in the order a scalar loop would
        sums = np.zeros(p.n_vars + 1)
        sums[0] = dual_obj
        np.multiply(reduced, lb, out=sums[1:], where=at_lb)
        np.multiply(reduced, ub, out=sums[1:], where=at_ub)
        return objective - float(np.add.accumulate(sums, out=sums)[-1])


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
    if problem.lazy_rows.size:
        raise InvalidProblem("solve_milp given a problem with lazy rows")
    if problem.start is not None:
        raise InvalidProblem("solve_milp given a problem with a start")
    if not problem.binaries:
        return solve_lp(problem)
    binaries = np.array(problem.binaries)
    simplex = _Simplex(problem)
    stats = {"nodes": 0, "lp_solves": 0, "iterations": 0,
             "dual_iterations": 0, "cutoffs": 0, "max_duality_gap": 0.0}

    def record(sol):
        stats["lp_solves"] += 1
        stats["iterations"] += sol.stats["iterations"]
        stats["dual_iterations"] += sol.stats["dual_iterations"]
        stats["cutoffs"] += sol.status == "Cutoff"
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
            lb = problem.lb.copy()
            ub = problem.ub.copy()
            for var, val in fixes:
                lb[var] = ub[var] = float(val)
            # the relative margin keeps round-off in the tracked bound from
            # cutting off a child that the full re-solve would keep
            cutoff = (incumbent_obj - 1e-9
                      + 1e-9 * max(1.0, abs(incumbent_obj)))
            sol = record(simplex.resolve(lb, ub, *parent, cutoff))
        if sol.status != "Optimal" or sol.objective >= incumbent_obj - 1e-9:
            continue

        # the most fractional binary, the first one on ties
        values = sol.x[binaries]
        frac = np.minimum(values, 1.0 - values)
        k = int(frac.argmax())
        if not frac[k] > INT_TOL:
            x = sol.x.copy()
            x[binaries] = np.round(values)
            incumbent = Solution(status="Optimal", x=x,
                                 objective=sol.objective)
            incumbent_obj = sol.objective
            continue

        # explore the rounding of the fractional value first (pushed last);
        # both children start from this node's basis
        frac_var = int(binaries[k])
        first = 1 if values[k] >= 0.5 else 0
        warm = (simplex.basis.copy(), simplex.status.copy())
        stack.append((sol.objective, fixes + ((frac_var, 1 - first),), warm))
        stack.append((sol.objective, fixes + ((frac_var, first),), warm))

    if incumbent is None:
        return Solution(status="Infeasible", stats=stats)
    incumbent.stats = stats
    return incumbent
