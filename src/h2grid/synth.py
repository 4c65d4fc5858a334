"""Synthetic test systems.

Desk-scale stand-ins for a real national dataset: a seeded random generator
produces a connected two-region network with a renewable-heavy, low-demand
region and a demand-heavy region, so that cross-region corridors congest.
Everything is deterministic per seed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .demand import INDUSTRY, ConsumptionLocation
from .errors import InvalidSpec
from .grid import (DISPATCHABLE, Generator, Line, Node, PowerSystem, SOLAR,
                   WIND, compute_ptdf)
from .pipeline import StudyCase


@dataclass(frozen=True)
class SyntheticSpec:
    seed: int = 42
    n_nodes: int = 10
    n_lines: int = 13
    hours: int = 168
    congestion: float = 0.7        # 0 = roomy corridors, 1 = tight
    mean_demand_mw: float = 180.0  # per demand-region node
    renewable_share: float = 0.55  # of total annual energy, approximate


def _profiles(rng, hours):
    """Hourly wind (random-walk) and solar (diurnal) shapes in [0, 1].

    The wind steps are drawn in one call, which takes the same numbers
    from *rng* as one draw per hour; the clipped walk over them stays a
    loop over Python floats."""
    level = rng.uniform(0.3, 0.7)
    levels = []
    for step in rng.normal(0.0, 0.08, size=hours).tolist():
        level = min(max(level + step, 0.02), 1.0)
        levels.append(level)
    wind = np.array(levels, dtype=float)
    hours_of_day = np.arange(hours) % 24
    solar = np.clip(np.sin((hours_of_day - 6.0) / 12.0 * math.pi), 0.0, None)
    solar = solar * rng.uniform(0.6, 1.0, size=hours)
    return wind, solar


def generate_synthetic_system(spec):
    """Connected two-region PowerSystem, deterministic per seed."""
    if spec.n_nodes < 2:
        raise InvalidSpec("need at least 2 nodes")
    if spec.n_lines < spec.n_nodes - 1:
        raise InvalidSpec("need at least n_nodes - 1 lines")
    rng = np.random.default_rng(spec.seed)
    n = spec.n_nodes
    n_north = n // 2

    nodes = []
    for i in range(n):
        if i < n_north:
            nodes.append(Node(i, float(rng.uniform(0, 200)),
                              float(rng.uniform(0, 120))))
        else:
            nodes.append(Node(i, float(rng.uniform(0, 200)),
                              float(rng.uniform(280, 400))))

    # spanning tree within each region, one seed corridor, then extras
    lines = []
    corridor_cap = max(60.0, 600.0 * (1.0 - 0.85 * spec.congestion))
    def add_line(a, bnode, cap):
        lines.append(Line(len(lines), a, bnode, cap,
                          float(rng.uniform(0.5, 1.5))))
    for i in range(1, n_north):
        add_line(i, int(rng.integers(0, i)), 1700.0)
    for i in range(n_north + 1, n):
        add_line(i, int(rng.integers(n_north, i)), 1700.0)
    add_line(0, n_north, corridor_cap)

    while len(lines) < spec.n_lines:
        a = int(rng.integers(0, n))
        bnode = int(rng.integers(0, n))
        if a == bnode:
            continue
        cross = (a < n_north) != (bnode < n_north)
        add_line(a, bnode, corridor_cap if cross else 1700.0)

    demand_total = spec.mean_demand_mw * (n - n_north)
    hourly_shape = 0.85 + 0.15 * np.sin(
        (np.arange(spec.hours) % 24 - 9.0) / 24.0 * 2.0 * math.pi)
    south_weights = rng.uniform(0.5, 1.5, size=n - n_north)
    south_weights /= south_weights.sum()
    north_weights = rng.uniform(0.5, 1.5, size=n_north)
    north_weights /= north_weights.sum()
    demand = hourly_shape[:, None] * np.concatenate([
        0.15 * demand_total * north_weights,
        0.85 * demand_total * south_weights])

    wind_shape, solar_shape = _profiles(rng, spec.hours)
    total_energy = demand.sum()
    renewable_energy = spec.renewable_share * total_energy
    # wind in the north (2/3 of renewable energy), solar in the south
    wind_energy = renewable_energy * 2.0 / 3.0
    solar_energy = renewable_energy / 3.0

    # every generator of a kind shares its kind's one read-only profile
    generators = []
    gid = 0
    wind_nodes = list(range(n_north))
    solar_nodes = list(range(n_north, n))
    wind_scale = wind_energy / max(wind_shape.sum(), 1e-9) / len(wind_nodes)
    solar_scale = solar_energy / max(solar_shape.sum(), 1e-9) / len(solar_nodes)
    for kind, nodes_of_kind, profile in (
            (WIND, wind_nodes, wind_shape * wind_scale),
            (SOLAR, solar_nodes, solar_shape * solar_scale)):
        profile.flags.writeable = False
        for node in nodes_of_kind:
            generators.append(Generator(gid, node, kind, 0.0,
                                        profile=profile))
            gid += 1

    # cheap dispatchable in the north, expensive tiers in the south
    peak = float(demand.sum(axis=1).max())
    generators.append(Generator(gid, 0, DISPATCHABLE, 18.0,
                                capacity_mw=0.5 * peak))
    gid += 1
    south_costs = rng.uniform(55.0, 95.0, size=len(solar_nodes))
    for node, cost in zip(solar_nodes, np.sort(south_costs)):
        generators.append(Generator(gid, node, DISPATCHABLE, float(cost),
                                    capacity_mw=0.6 * peak))
        gid += 1

    ptdf = compute_ptdf(nodes, lines, slack=0)
    return PowerSystem(tuple(nodes), tuple(lines), tuple(generators),
                       demand, ptdf)


# total hydrogen demand of the fixture's three sinks
FIXTURE_H2_KG_DAY = 90_000.0


def fixture_sinks(system, h2_demand_kg_day):
    """The fixture's hydrogen sinks on an already built fixture system:
    three equal industry sinks at the first three nodes of the
    demand-heavy south."""
    south = [node for node in system.nodes
             if node.id >= system.n_nodes // 2]
    share = h2_demand_kg_day / 3.0
    return tuple(
        ConsumptionLocation(id=i, kind=INDUSTRY, hd_kg_per_day=share,
                            node=node.id, x=node.x, y=node.y)
        for i, node in enumerate(south[:3]))


def congested_fixture(seed, hours=168):
    """The shipped 10-node / 168-hour study fixture on network *seed*.

    Hydrogen sinks sit in the demand-heavy south; all grid nodes are
    electrolyzer candidates.  Corridors are tight enough that the baseline
    has nonzero redispatch cost in windy hours.
    """
    spec = SyntheticSpec(seed=seed, n_nodes=10, n_lines=13, hours=hours,
                         congestion=0.85)
    system = generate_synthetic_system(spec)
    return StudyCase(system=system,
                     sinks=fixture_sinks(system, FIXTURE_H2_KG_DAY),
                     candidates=tuple(system.nodes))
