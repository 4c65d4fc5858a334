"""Transmission network representation and PTDF computation.

Coordinates are planar kilometres; distances are Euclidean.  All objects
are immutable after construction and safe for concurrent reads, but for
one private slot on ``PTDFMatrix`` in which ``dispatch`` keeps the network
LP template it last built on that network.  A generator, system or PTDF
compares and hashes by identity: their numpy fields have no truth value.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .dispatch import DispatchTables
from .errors import EmptyNetwork, InvalidLine, NetworkDisconnected

DISPATCHABLE, SOLAR, WIND = "dispatchable", "solar", "wind"
RENEWABLE_KINDS = (SOLAR, WIND)


@dataclass(frozen=True)
class Node:
    id: int
    x: float
    y: float


@dataclass(frozen=True)
class Line:
    id: int
    from_node: int
    to_node: int
    capacity_mw: float
    reactance_pu: float
    voltage_class: str = "kV380"

    def __post_init__(self):
        if self.from_node == self.to_node:
            raise InvalidLine(f"line {self.id} connects a node to itself")
        if not self.capacity_mw > 0:
            raise InvalidLine(f"line {self.id} has nonpositive capacity")
        if not self.reactance_pu > 0:
            raise InvalidLine(f"line {self.id} has nonpositive reactance")


@dataclass(frozen=True, eq=False)
class Generator:
    """Dispatchable unit (scalar capacity) or renewable (hourly profile).

    For renewables ``profile`` holds available MW per hour and
    ``marginal_cost`` is zero.
    """
    id: int
    node: int
    kind: str
    marginal_cost: float
    capacity_mw: float = 0.0
    profile: np.ndarray = None

    def capacity_at(self, hour):
        if self.profile is not None:
            return float(self.profile[hour])
        return self.capacity_mw


@dataclass(frozen=True, eq=False)
class PowerSystem:
    nodes: tuple
    lines: tuple
    generators: tuple
    demand: np.ndarray  # (hours, n_nodes), MW
    ptdf: "PTDFMatrix" = None

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def horizon(self):
        return self.demand.shape[0]

    @cached_property
    def dispatch_tables(self):
        """What the dispatch models read of this system in every hour,
        built at the first dispatch and kept with the system; its network
        part is shared through the PTDF (``DispatchTables``)."""
        return DispatchTables(self)

    def with_demand(self, demand):
        return replace(self, demand=np.asarray(demand, dtype=float))

    def with_generators(self, generators):
        return replace(self, generators=tuple(generators))


@dataclass(frozen=True, eq=False)
class PTDFMatrix:
    """Line-flow sensitivities to nodal injections; slack column is zero."""
    entries: np.ndarray  # (n_lines, n_nodes)
    slack: int
    line_ids: tuple
    merged_capacity: np.ndarray  # capacity per PTDF row (parallel lines merged)
    # the last (key, dispatch.NetworkTables) built on this network, None
    # until the first dispatch (dispatch.DispatchTables)
    _network: list = field(default_factory=lambda: [None], init=False,
                           repr=False)

    def flows(self, injections):
        return self.entries @ np.asarray(injections, dtype=float)


def merge_parallel_lines(lines):
    """Combine parallel lines: capacities add, reactances combine in parallel."""
    groups = {}
    for ln in lines:
        key = tuple(sorted((ln.from_node, ln.to_node)))
        groups.setdefault(key, []).append(ln)
    merged = []
    for key in sorted(groups):
        group = sorted(groups[key], key=lambda ln: ln.id)
        cap = sum(ln.capacity_mw for ln in group)
        react = 1.0 / sum(1.0 / ln.reactance_pu for ln in group)
        merged.append(Line(group[0].id, key[0], key[1], cap, react,
                           group[0].voltage_class))
    return merged


def _check_connected(n_nodes, lines):
    adjacency = {i: [] for i in range(n_nodes)}
    for ln in lines:
        adjacency[ln.from_node].append(ln.to_node)
        adjacency[ln.to_node].append(ln.from_node)
    seen = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for nb in adjacency[node]:
            if nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    if len(seen) != n_nodes:
        raise NetworkDisconnected(
            f"network has {n_nodes - len(seen)} unreachable node(s)")


def compute_ptdf(nodes, lines, slack):
    """Power transfer distribution factors via the DC approximation.

    Parallel lines are merged first; the returned matrix has one row per
    merged corridor.  Flow prediction is slack-invariant for balanced
    injection vectors.
    """
    n = len(nodes)
    if n == 0:
        raise EmptyNetwork("no nodes")
    for ln in lines:
        if not ln.reactance_pu > 0:
            raise InvalidLine(f"line {ln.id} has nonpositive reactance")
    merged = merge_parallel_lines(lines)
    _check_connected(n, merged)
    if not 0 <= slack < n:
        raise EmptyNetwork(f"slack node {slack} not in network")

    m = len(merged)
    incidence = np.zeros((m, n))
    susceptance = np.zeros(m)
    for k, ln in enumerate(merged):
        incidence[k, ln.from_node] = 1.0
        incidence[k, ln.to_node] = -1.0
        susceptance[k] = 1.0 / ln.reactance_pu

    keep = [i for i in range(n) if i != slack]
    b_line = susceptance[:, None] * incidence          # (m, n)
    b_bus = incidence.T @ b_line                        # (n, n)
    entries = np.zeros((m, n))
    entries[:, keep] = b_line[:, keep] @ np.linalg.inv(b_bus[np.ix_(keep, keep)])
    return PTDFMatrix(entries=entries, slack=slack,
                      line_ids=tuple(ln.id for ln in merged),
                      merged_capacity=np.array([ln.capacity_mw for ln in merged]))


def assign_to_nearest_node(point, nodes):
    """Id of the Euclidean-nearest node; ties break to the lowest id."""
    if not nodes:
        raise EmptyNetwork("cannot assign to an empty node set")
    px, py = float(point[0]), float(point[1])
    best_id, best_d2 = None, np.inf
    for node in sorted(nodes, key=lambda nd: nd.id):
        d2 = (node.x - px) ** 2 + (node.y - py) ** 2
        if d2 < best_d2 - 1e-12:
            best_id, best_d2 = node.id, d2
    return best_id
