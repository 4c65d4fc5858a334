"""Hourly electricity market models.

Three per-hour models share one immutable PowerSystem:

* uniform merit-order dispatch for the single-price zone (no grid limits),
* cost-based redispatch restoring line-limit feasibility from the market
  allocation, and
* nodal DC-OPF, whose locational prices follow from the duals of the zonal
  balance and the corridor limits by the PTDF price decomposition.

Redispatch and nodal dispatch solve one PTDF-form LP over generator changes
around the hour's merit-order dispatch (``_network_lp``): redispatch reports
its objective, and nodal dispatch the generation ``merit + x``, its cost and
the same objective as the hour's redispatch cost, so uniform cost +
redispatch cost = nodal cost holds by construction.  Both read nodal prices
off the LP's duals (``_nodal_prices``), so a uniform+redispatch year also
gives the nodal view of its hours, and a study runs one baseline pass for
both markets.  An hour whose corridors the merit order overloads by at most
``FLOW_TOL`` solves no redispatch LP, and its nodal view is the merit price
at every node.  Few corridors bind in an hour, so the LP starts from the
balance row and the corridor directions that the merit-order dispatch
overloads by more than ``FLOW_TOL``; the other corridor rows are lazy rows,
which the solver adds once an optimum violates them (Zhai et al., "Fast
identification of inactive security constraints in SCUC problems", IEEE
Trans. Power Syst. 2010).  A lazy row holds at the merit-order dispatch,
so both models take an overload within ``FLOW_TOL`` as none.  The LP also
starts at the merit-order vertex, with the marginal unit basic in the
balance row; that vertex is dual feasible, so the dual simplex repairs the
overloaded corridors with no phase 1.  Everything the LP starts from comes
from the same hour, so no hour depends on another.

What the models read of the system and not of the hour is built once per
PowerSystem, at its first dispatch, and kept on it
(``PowerSystem.dispatch_tables``, a ``DispatchTables``): the capacity of
every generator in every hour, its sums per hour of demand and capacity,
and the part that only the network and the generators' nodes and
marginal costs determine (``NetworkTables``): the marginal costs,
generator nodes and merit order, and the network LP as a template problem
(``DispatchTables.network``): its costs, its row senses and its dense
``(1 + 2K) x G`` block with the block's power-of-two scaling
(``lp.ScaledMatrix``), checked once, and the slack bounds and scaled costs
the simplex reads, built once.  An hour derives its LP from the template
(``lp.LinearProblem.derive``), which sets and checks only the LP's bounds,
rhs, lazy rows and start.  The hour's overloaded corridor rows are
found once (``_overloaded``), both for ``redispatch``'s skip test and for
the LP's active rows.  The ``NetworkTables`` are keyed by what they are a
function of, the generators' marginal costs and nodes byte for byte (so
0.0 against -0.0, or another dtype, gets tables of its own), and the PTDF
keeps the last one built on it: every system on that PTDF with the same
key reads it, whichever system built it, and its capacity table is its
own.  A study's baseline and feedback systems thus build one network
template.

Hours are independent (no ramping, no storage), so the annual runner is a
plain loop over pure per-hour functions.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleHour, InfeasibleRedispatch, InvalidProblem
from .lp import EQ, GE, LE, LinearProblem, scale_matrix, solve_lp

BALANCE_TOL = 1e-6
FLOW_TOL = 1e-6


@dataclass(frozen=True)
class HourDispatch:
    hour: int
    generation_mw: np.ndarray        # per generator
    price: float                     # uniform price (None for nodal runs)
    nodal_prices: np.ndarray         # per node (None for uniform runs)
    served_mw: float
    cost_eur: float
    # the network LP's objective, the cost of moving from the merit-order
    # dispatch to generation_mw (None for uniform runs)
    redispatch_cost_eur: float = None


@dataclass(frozen=True)
class RedispatchAdjustment:
    hour: int
    delta_mw: np.ndarray             # per generator
    cost_eur: float
    nodal_prices: np.ndarray         # per node, from the LP or the market


@dataclass(frozen=True)
class AnnualDispatchSummary:
    mode: str
    hours: int
    price_series: np.ndarray                 # uniform price per hour
    nodal_price_series: np.ndarray           # (hours, nodes), both modes
    mean_price: float                        # None for nodal runs
    mean_nodal_prices: np.ndarray            # per node, both modes
    congestion_cost_eur: float
    redispatch_cost_series: np.ndarray       # per hour, both modes
    total_energy_mwh: float
    generation_mwh: np.ndarray               # per generator


def _costs(generators):
    return np.array([g.marginal_cost for g in generators])


class NetworkTables:
    """The part of the dispatch tables that the network *ptdf* and the
    generators' marginal *costs* and *nodes* determine, and nothing else.

    ``costs`` and ``nodes`` per generator, ``order`` their ``(cost,
    index)`` merit order, and ``network``, the network LP of
    ``_network_lp`` with the hour's data left at zero: its costs, row
    senses and constraint block with scaling, checked once, from which
    every hour's LP is derived (``LinearProblem.derive``).  Every array is
    read-only.
    """

    def __init__(self, costs, nodes, ptdf):
        self.costs, self.nodes = costs, nodes
        self.order = np.lexsort((np.arange(costs.size), costs))
        sens = ptdf.entries[:, nodes]
        a = np.empty((1 + 2 * sens.shape[0], nodes.size))
        a[0] = 1.0
        a[1::2] = sens
        a[2::2] = sens
        senses = np.array((EQ,) + (LE, GE) * sens.shape[0])
        for arr in (costs, nodes, self.order, senses):
            arr.flags.writeable = False
        zeros = np.zeros(nodes.size)
        # + 0.0 turns -0.0 into 0.0, as a triplet form of the block would
        self.network = LinearProblem(costs, zeros, zeros, senses=senses,
                                     rhs=np.zeros(senses.size),
                                     matrix=scale_matrix(a + 0.0))


class DispatchTables:
    """The hour-independent data of the dispatch models for one system.

    ``costs``, ``nodes``, ``order`` and ``network`` are those of the
    ``NetworkTables`` of the system's generator costs and nodes on its
    PTDF, read from the slot in which the PTDF keeps the last one built on
    it when the key matches, and built into that slot when it does not.
    ``capacity`` is this system's available MW per hour and generator
    (``Generator.capacity_at``), and ``zonal_demand`` and
    ``zonal_capacity`` its sums per hour.  Every array is read-only.
    """

    def __init__(self, system):
        gens = system.generators
        costs = _costs(gens)
        nodes = np.array([g.node for g in gens], dtype=int)
        key = (costs.dtype.str, costs.tobytes(), nodes.tobytes())
        slot = system.ptdf._network
        # one read and one write of the slot: two systems that dispatch at
        # once may both build tables, which are equal for equal keys
        entry = slot[0]
        if entry is None or entry[0] != key:
            entry = (key, NetworkTables(costs, nodes, system.ptdf))
            slot[0] = entry
        net = entry[1]
        self.costs, self.nodes = net.costs, net.nodes
        self.order, self.network = net.order, net.network
        self.capacity = np.empty((system.horizon, len(gens)))
        for j, g in enumerate(gens):
            self.capacity[:, j] = (g.capacity_mw if g.profile is None
                                   else g.profile[:system.horizon])
        # row sums of C-ordered rows, bit for bit the sums of single rows
        self.zonal_demand = np.ascontiguousarray(system.demand).sum(axis=1)
        self.zonal_capacity = self.capacity.sum(axis=1)
        for arr in (self.capacity, self.zonal_demand, self.zonal_capacity):
            arr.flags.writeable = False


def _injections(system, hour, generation):
    inj = -system.demand[hour].astype(float)
    np.add.at(inj, system.dispatch_tables.nodes, generation)
    return inj


def _merit_order(system, hour, demand):
    """Fill the hour's zonal *demand* in order of marginal cost (lowest
    index on ties), as far as capacity goes.

    Returns the generation and the price: the cost of the last unit that
    runs, or of the cheapest unit when none does.
    """
    tables = system.dispatch_tables
    costs, order = tables.costs, tables.order
    caps = np.maximum(tables.capacity[hour], 0.0)
    # demand left before each unit, subtracted unit by unit in merit order
    remaining = np.cumsum(np.concatenate(([demand], -caps[order])))[:-1]
    take = np.minimum(caps[order], np.maximum(remaining, 0.0))
    q = np.zeros(costs.size)
    q[order] = take
    running = (take > 0).nonzero()[0]
    price = (float(costs[order[running[-1] if running.size else 0]])
             if costs.size else 0.0)
    return q, price


def _overloaded(system, base_flows):
    """The corridor rows of the network LP, LE and GE by turns, whose
    direction the corridor flows *base_flows* overload by more than
    ``FLOW_TOL``; a NaN flow overloads both."""
    limit = system.ptdf.merged_capacity
    overloaded = np.empty(2 * limit.size, dtype=bool)
    overloaded[0::2] = ~(base_flows <= limit + FLOW_TOL)
    overloaded[1::2] = ~(base_flows >= -limit - FLOW_TOL)
    return overloaded


def _network_lp(system, hour, q0, base_flows, overloaded):
    """Solve the PTDF-form network LP around the merit-order dispatch *q0*.

    Variables are generator changes x with ``0 <= q0 + x <= capacity`` and
    cost ``c'x``.  Row 0 is the zonal balance ``sum x = 0``; then each
    corridor k gets an LE row and a GE row bounding its flow at ``q0 + x``
    to ``+-limit``: ``PTDF[k, gen_nodes] x`` against ``+-limit - base_flow``,
    where *base_flows* are the corridor flows at *q0*.  The solver starts
    from the corridor rows *overloaded* (``_overloaded``) and adds the
    others only once an optimum violates them (``lazy_rows``).  Those rows
    hold at *q0*: one whose base flow is over its limit by at most
    ``FLOW_TOL`` gets the rhs of a flow at the limit, 0.  The LP is
    ``DispatchTables.network`` with this hour's bounds, rhs, lazy rows and
    start.

    The start is the vertex *q0* itself: every generator rests at ``x = 0``
    and the marginal unit, the running unit last in ``(cost, index)`` order
    or the cheapest unit when none runs, is basic in row 0.  Row 0 then
    prices at the marginal cost and the reduced costs are ``c_j -
    c_marginal``, so the start ``(0, marginal)`` is dual feasible and the
    dual simplex repairs the overloaded corridors.  A system with no
    generators names no start.

    An ``InvalidProblem`` that the LP raises, the iteration limit
    included, has ``hour <hour>: `` put before its message.
    """
    tables = system.dispatch_tables
    limit = system.ptdf.merged_capacity
    held = ~overloaded
    rhs = np.zeros(1 + 2 * limit.size)
    # a held-back row holds at q0: a base flow over its limit by at most
    # FLOW_TOL (_overloaded) counts as at the limit
    rhs[1::2] = limit - np.minimum(base_flows,
                                   np.where(held[0::2], limit, np.inf))
    rhs[2::2] = -limit - np.maximum(base_flows,
                                    np.where(held[1::2], -limit, -np.inf))
    order = tables.order
    running = order[q0[order] > 0]
    units = running if running.size else order[:1]
    try:
        return solve_lp(tables.network.derive(
            -q0, tables.capacity[hour] - q0, rhs,
            lazy_rows=1 + held.nonzero()[0],
            start=(0, units[-1]) if units.size else None))
    except InvalidProblem as exc:
        # prefix the message in place, as run_full_study does the scenario
        message = exc.args[0] if exc.args else ""
        exc.args = (f"hour {hour}: {message}",) + exc.args[1:]
        raise


def _nodal_prices(system, sol):
    """The nodal prices that the network LP's optimum *sol* implies.

    The nodal price is the cost of one more MW of demand at the node.
    Demand there, with the merit-order dispatch held fixed, raises the
    balance rhs by one and, by lowering the base flows, raises the rhs of
    both rows of corridor k by ``PTDF[k, node]``.
    Duals are d(objective)/d(rhs) (LE rows <= 0, GE rows >= 0), so the
    price is ``duals[0] + PTDF.T @ (duals[1::2] + duals[2::2])``: the zonal
    price minus the PTDF-weighted corridor congestion rents.
    """
    duals = sol.duals
    return duals[0] + system.ptdf.entries.T @ (duals[1::2] + duals[2::2])


def _zonal_demand(system, hour):
    """The hour's zonal demand; InfeasibleHour when it exceeds the hour's
    capacity."""
    tables = system.dispatch_tables
    demand = float(tables.zonal_demand[hour])
    capacity = tables.zonal_capacity[hour]
    if demand > capacity + BALANCE_TOL:
        raise InfeasibleHour(
            f"hour {hour}: demand exceeds available capacity",
            hour=hour, deficit_mw=demand - capacity)
    return demand


def uniform_dispatch(system, hour):
    """Merit-order dispatch of the whole zone; price is the marginal unit's
    cost (the dual of the zonal balance constraint)."""
    demand = _zonal_demand(system, hour)
    q, price = _merit_order(system, hour, demand)
    costs = system.dispatch_tables.costs
    # summed left to right, as a scalar loop over the generators would
    cost = float(np.cumsum(q * costs)[-1]) if q.size else 0.0
    return HourDispatch(hour=hour, generation_mw=q, price=price,
                        nodal_prices=None, served_mw=demand, cost_eur=cost)


def redispatch(system, hour, market):
    """Minimum-cost generation adjustment restoring line feasibility.

    *market* is the hour's uniform (merit-order) dispatch.  Deltas sum to
    zero; adjusted outputs stay within [0, capacity]; the hour cost is the
    signed optimal objective (net extra production cost).  The nodal
    prices are those of the LP's duals (``_nodal_prices``), or the market
    price at every node when no corridor is overloaded by more than
    ``FLOW_TOL`` and no LP is solved.
    """
    q0 = market.generation_mw
    base_flows = system.ptdf.flows(_injections(system, hour, q0))
    overloaded = _overloaded(system, base_flows)
    if not overloaded.any():
        return RedispatchAdjustment(
            hour=hour, delta_mw=np.zeros(len(q0)), cost_eur=0.0,
            nodal_prices=np.full(system.n_nodes, market.price))

    sol = _network_lp(system, hour, q0, base_flows, overloaded)
    if sol.status != "Optimal":
        raise InfeasibleRedispatch(
            f"hour {hour}: no feasible redispatch within capacities",
            hour=hour)
    return RedispatchAdjustment(hour=hour, delta_mw=sol.x,
                                cost_eur=float(sol.objective),
                                nodal_prices=_nodal_prices(system, sol))


def nodal_dispatch(system, hour):
    """Network-constrained dispatch: the redispatch LP around the hour's
    merit-order dispatch, whose generation is ``merit + x``, and the nodal
    prices of its duals (``_nodal_prices``).  The LP is solved in every
    hour, overloaded or not.
    """
    demand = _zonal_demand(system, hour)
    merit = _merit_order(system, hour, demand)[0]
    base_flows = system.ptdf.flows(_injections(system, hour, merit))
    sol = _network_lp(system, hour, merit, base_flows,
                      _overloaded(system, base_flows))
    if sol.status != "Optimal":
        raise InfeasibleHour(f"hour {hour}: nodal dispatch infeasible",
                             hour=hour)
    generation = merit + sol.x
    costs = system.dispatch_tables.costs
    return HourDispatch(hour=hour, generation_mw=generation, price=None,
                        nodal_prices=_nodal_prices(system, sol),
                        served_mw=demand,
                        cost_eur=float(costs @ generation),
                        redispatch_cost_eur=float(sol.objective))


MODE_UNIFORM_REDISPATCH = "uniform+redispatch"
MODE_NODAL = "nodal"


def run_year(system, hours, mode):
    """Aggregate per-hour dispatch over *hours* independent hours.

    Both modes fill the nodal price series: a nodal year from
    ``nodal_dispatch``, a uniform+redispatch year from the prices of its
    redispatch hours, so that one uniform+redispatch pass gives both views
    of the hours.  Only a uniform+redispatch year has a uniform price
    series and mean.
    """
    if hours > system.horizon:
        raise InfeasibleHour(
            f"requested {hours} hours but series cover {system.horizon}")
    n_gen = len(system.generators)
    price_series = np.zeros(hours)
    nodal_series = np.zeros((hours, system.n_nodes))
    redispatch_series = np.zeros(hours)
    generation = np.zeros(n_gen)
    total_energy = 0.0

    if mode == MODE_UNIFORM_REDISPATCH:
        for t in range(hours):
            market = uniform_dispatch(system, t)
            adj = redispatch(system, t, market)
            price_series[t] = market.price
            nodal_series[t] = adj.nodal_prices
            redispatch_series[t] = adj.cost_eur
            generation += market.generation_mw + adj.delta_mw
            total_energy += market.served_mw
    elif mode == MODE_NODAL:
        for t in range(hours):
            result = nodal_dispatch(system, t)
            nodal_series[t] = result.nodal_prices
            redispatch_series[t] = result.redispatch_cost_eur
            generation += result.generation_mw
            total_energy += result.served_mw
    else:
        raise ValueError(f"unknown dispatch mode {mode!r}")

    return AnnualDispatchSummary(
        mode=mode,
        hours=hours,
        price_series=price_series if mode == MODE_UNIFORM_REDISPATCH else None,
        nodal_price_series=nodal_series,
        mean_price=(float(price_series.mean())
                    if mode == MODE_UNIFORM_REDISPATCH else None),
        mean_nodal_prices=nodal_series.mean(axis=0),
        congestion_cost_eur=float(redispatch_series.sum()),
        redispatch_cost_series=redispatch_series,
        total_energy_mwh=float(total_energy),
        generation_mwh=generation,
    )
