"""Property tests: the pricing rules of the simplex against their explicit
three-case forms, over every status and at the tolerances' edges."""

import numpy as np
import pytest

from h2grid.lp import OPT_TOL, _improving

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

AT_LB, AT_UB, BASIC, FREE = 0, 1, 2, 3
ENTER_TOL = 1e-9  # the dual simplex's smallest usable pivot


def edges(tol):
    """Values at and next to +-tol, signed zeros and finite extremes (the
    solver's costs and matrix are finite)."""
    near = [tol, np.nextafter(tol, 0.0), np.nextafter(tol, 1.0), 1.0, 1e300]
    return st.sampled_from(near + [-v for v in near] + [0.0, -0.0])


def columns(tol):
    return st.lists(st.tuples(st.integers(AT_LB, FREE), edges(tol)),
                    min_size=1, max_size=16)


def three_cases(status, v, tol):
    """Moving up off a lower bound pays for ``v < -tol``, down off an upper
    bound for ``v > tol`` and either way off a free column for ``|v| >
    tol``; a basic column never moves."""
    return (((status == AT_LB) & (v < -tol))
            | ((status == AT_UB) & (v > tol))
            | ((status == FREE) & (np.abs(v) > tol)))


def split(cols):
    status, values = zip(*cols)
    return np.array(status), np.array(values)


@hypothesis.settings(database=None, deadline=None, derandomize=True)
@hypothesis.given(columns(OPT_TOL))
def test_improving_is_the_three_cases(cols):
    status, d = split(cols)
    assert np.array_equal(_improving(status, d),
                          three_cases(status, d, OPT_TOL))


@hypothesis.settings(database=None, deadline=None, derandomize=True)
@hypothesis.given(columns(ENTER_TOL))
def test_entering_table_is_the_three_cases(cols):
    # the dual simplex lets a column enter when it moves the leaving row
    # towards its bound: sigma > 0 at a lower bound, sigma < 0 at an upper
    # bound, either sign when free; the table form multiplies sigma by the
    # column's direction, which is exact for +-1 and 0
    status, sigma = split(cols)
    up = np.array([1.0, -1.0, 0.0, 0.0])
    table = sigma * up[status] > ENTER_TOL
    table |= (status == FREE) & (np.abs(sigma) > ENTER_TOL)
    assert np.array_equal(table, three_cases(status, -sigma, ENTER_TOL))
