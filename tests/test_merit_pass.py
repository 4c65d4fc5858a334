"""Property test: the merit-order dispatch that one array pass fills for a
block of hours against the per-hour scalar loop on ``Generator.capacity_at``
(``test_dispatch.loop_uniform``), bit for bit, whatever order the hours are
visited in."""

import numpy as np
import pytest

from h2grid.dispatch import BALANCE_TOL, MERIT_BLOCK, uniform_dispatch
from h2grid.errors import InfeasibleHour
from h2grid.grid import (DISPATCHABLE, WIND, Generator, Line, Node,
                         PowerSystem, compute_ptdf)
from test_dispatch import loop_uniform

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

COSTS = (0.0, 12.3, 40.7, 73.1)  # few values, so that costs tie
HORIZONS = (1, 7, MERIT_BLOCK, MERIT_BLOCK + 1, 2 * MERIT_BLOCK + 37)
NODES = (Node(0, 0.0, 0.0), Node(1, 100.0, 0.0))
LINES = (Line(0, 0, 1, 50.0, 1.0),)


@st.composite
def systems(draw):
    """A two-node system of up to sixteen generators with tied costs: units
    of zero or positive capacity, and renewables whose profiles hold zero,
    partial, full and negative hours; its demand exceeds capacity in about
    a tenth of the hours and is zero in another tenth."""
    horizon = draw(st.sampled_from(HORIZONS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    generators = []
    for j in range(draw(st.sampled_from((0, 1, 3, 9, 16)))):
        cost = draw(st.sampled_from(COSTS))
        if draw(st.booleans()):
            capacity = draw(st.sampled_from((0.0, 35.0, 80.5)))
            generators.append(Generator(j, j % 2, DISPATCHABLE, cost,
                                        capacity))
        else:
            pick = rng.random(horizon)
            profile = np.where(pick < 0.2, 0.0, np.where(
                pick < 0.3, -1.5, np.where(pick < 0.6, 60.0,
                                           rng.uniform(0, 60.0, horizon))))
            generators.append(Generator(j, j % 2, WIND, cost, 60.0,
                                        profile))
    capacity = np.array([[max(g.capacity_at(t), 0.0) for g in generators]
                         for t in range(horizon)]).reshape(horizon, -1)
    zonal = capacity.sum(axis=1) * rng.uniform(0.3, 1.1, horizon)
    zonal[rng.random(horizon) < 0.1] = 0.0
    share = rng.random(horizon)
    demand = np.stack([share * zonal, (1 - share) * zonal], axis=1)
    return PowerSystem(NODES, LINES, tuple(generators), demand,
                       compute_ptdf(NODES, LINES, slack=0))


def reference(system, hour):
    """The per-hour merit order, or None when the hour's demand exceeds its
    capacity."""
    capacity = np.array([g.capacity_at(hour) for g in system.generators])
    if float(system.demand[hour].sum()) > capacity.sum() + BALANCE_TOL:
        return None
    return loop_uniform(system, hour)


@hypothesis.settings(database=None, deadline=None, derandomize=True,
                     max_examples=80)
@hypothesis.given(systems(), st.data())
def test_block_pass_is_the_per_hour_merit_order(system, data):
    hours = data.draw(st.lists(st.integers(0, system.horizon - 1),
                               min_size=1, max_size=30))
    for hour in hours:
        want = reference(system, hour)
        if want is None:
            with pytest.raises(InfeasibleHour) as info:
                uniform_dispatch(system, hour)
            assert info.value.hour == hour
            continue
        got = uniform_dispatch(system, hour)
        q, price, cost = want
        assert got.generation_mw.tobytes() == q.tobytes()
        assert repr((got.price, got.cost_eur)) == repr((price, cost))


def two_node(generators, zonal_demand):
    demand = np.zeros((len(zonal_demand), 2))
    demand[:, 1] = zonal_demand
    return PowerSystem(NODES, LINES, tuple(generators), demand,
                       compute_ptdf(NODES, LINES, slack=0))


def test_memory_is_one_block():
    horizon = 3 * MERIT_BLOCK + 5
    system = two_node([Generator(0, 0, DISPATCHABLE, 10.0, 100.0),
                       Generator(1, 1, DISPATCHABLE, 10.0, 100.0)],
                      np.linspace(0.0, 190.0, horizon))
    tables = system.dispatch_tables
    for hour in (horizon - 1, 0, MERIT_BLOCK + 3, 5):
        got = uniform_dispatch(system, hour)
        (index, q, price, cost), = tables._merit
        assert index == hour // MERIT_BLOCK
        assert q.shape == (min(MERIT_BLOCK, horizon - index * MERIT_BLOCK),
                           2) == (price.size, 2) == (cost.size, 2)
        # the hour gets a copy: writing to it leaves the block as it was
        got.generation_mw[:] = -1.0
        assert (q >= 0).all()


def test_no_generators():
    system = two_node([], np.zeros(MERIT_BLOCK + 2))
    for hour in (MERIT_BLOCK + 1, 0):
        got = uniform_dispatch(system, hour)
        assert got.generation_mw.shape == (0,)
        assert repr((got.price, got.cost_eur)) == repr((0.0, 0.0))
    with pytest.raises(InfeasibleHour) as info:
        uniform_dispatch(two_node([], [0.0, 1.0]), 1)
    assert info.value.hour == 1
