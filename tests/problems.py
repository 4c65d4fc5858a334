"""Problem assembly shared by the solver tests."""

import numpy as np

from h2grid.lp import LinearProblem


def build_problem(c, a, senses, rhs, lb, ub, binaries=()):
    """The LinearProblem with the dense constraint rows *a*, given to it as
    the triplets of their nonzero entries."""
    a = np.asarray(a, dtype=float).reshape(len(rhs), len(c))
    rows, cols = np.nonzero(a)
    return LinearProblem(c, lb, ub, rows, cols, a[rows, cols], senses, rhs,
                         binaries)
