"""Hydrogen supply-chain siting MILP.

Chooses electrolyzer locations and sizes, the optional overseas import
volume, and truck routes from sources to consumption locations, minimizing
total annual end-use cost: production (capital + operating), conversion for
the chosen carrier state (LH2 / GH2 / LOHC), trucking, and fueling stations
for transport-sector sinks.

Conversion and station capital blocks depend only on exogenous totals, so
they enter as constants; everything else is linear in the decision
variables.  A route charged per kg carries its cost on its flow; only a
route charged per day has a binary connection, tied to its flow by a big-M
link.
"""

import math
from dataclasses import dataclass

import numpy as np

from .demand import (DAYS_PER_YEAR, INDUSTRY, LHV_KWH_PER_KG,
                     STATION_CAPACITY_KG_DAY, STATION_DEFAULTS,
                     station_investment_cost)
from .errors import (ChainInfeasible, ConfigError, DivisionDomain,
                     InvalidDepreciation, StructurallyInfeasible)
from .lp import EQ, GE, LE, LinearProblem, scale_matrix, solve_milp

CARRIERS = ("LH2", "GH2", "LOHC")

COMPONENTS = ("PCC", "POC", "CCC", "COC", "TCC", "TOC", "SCC", "SOC")


def annuity_factor(wacc, years):
    """Capital-recovery fraction per year; 1/years at zero interest."""
    if years < 1:
        raise InvalidDepreciation(f"depreciation period {years} < 1 year")
    if wacc < 0:
        raise InvalidDepreciation("negative cost of capital")
    if wacc == 0:
        return 1.0 / years
    growth = (1.0 + wacc) ** years
    return growth * wacc / (growth - 1.0)


@dataclass(frozen=True)
class ConversionStep:
    name: str
    depreciation_years: int
    o_and_m: float
    ec_kwh_per_kg: float
    ngc_kwh_per_kg: float
    loss: float

    def investment(self, daily_kg):
        """Bulk investment cost as a function of total daily throughput."""
        x = max(daily_kg, 0.0)
        if self.name == "compression":
            return 15e3 * x ** 0.6089 * 3.0
        if self.name == "liquefaction":
            return 105e6 * (x / 50_000.0) ** 0.66
        if self.name == "evaporation":
            return 3e3 * x / 1_000.0
        if self.name == "hydrogenation":
            return 40e6 * (x / 300_000.0) ** 0.66
        if self.name == "dehydrogenation":
            return 30e6 * (x / 300_000.0) ** 0.66
        raise ConfigError(f"unknown conversion step {self.name!r}")


# compressor electricity use is pressure dependent; 1.6 kWh/kg matches
# 250 bar trailer filling and can be overridden in configuration
CONVERSION_STEPS = {
    "compression": ConversionStep("compression", 15, 0.04, 1.6, 0.0, 0.005),
    "liquefaction": ConversionStep("liquefaction", 20, 0.04, 6.78, 0.0, 0.0165),
    "evaporation": ConversionStep("evaporation", 10, 0.03, 0.6, 0.0, 0.0),
    "hydrogenation": ConversionStep("hydrogenation", 20, 0.03, 0.37, 0.0, 0.01),
    "dehydrogenation": ConversionStep("dehydrogenation", 20, 0.03, 0.37, 11.7, 0.01),
}


@dataclass(frozen=True)
class CarrierParams:
    state: str
    trailer_capacity_kg: float
    trailer_invest_eur: float
    production_steps: tuple      # conversion at the production site
    consumption_steps: tuple     # conversion at the consumption site
    loading_hours: float = 1.5   # round-trip loading + unloading
    station: object = None

    def __post_init__(self):
        if self.station is None:
            object.__setattr__(self, "station", STATION_DEFAULTS[self.state])


CARRIER_DEFAULTS = {
    "LH2": CarrierParams("LH2", 4_300.0, 860_000.0,
                         (CONVERSION_STEPS["liquefaction"],),
                         (CONVERSION_STEPS["evaporation"],)),
    "GH2": CarrierParams("GH2", 1_100.0, 660_000.0,
                         (CONVERSION_STEPS["compression"],), ()),
    "LOHC": CarrierParams("LOHC", 1_620.0, 150_000.0,
                          (CONVERSION_STEPS["hydrogenation"],),
                          (CONVERSION_STEPS["dehydrogenation"],)),
}


@dataclass(frozen=True)
class ProductionParams:
    ic_eur_per_kw: float = 604.0
    depreciation_years: int = 10
    o_and_m: float = 0.04
    ec_kwh_per_kg: float = 47.6
    ee: float = 0.70
    ed_kwh_per_kg: float = LHV_KWH_PER_KG
    capacity_factor: float = 0.70    # flat operation at 70% of full capacity
    cap_min_mw: float = 10.0
    cap_max_mw: float = 100.0
    wacc: float = 0.08

    @property
    def flh(self):
        return 8760.0 * self.capacity_factor

    def mw_to_kg_per_day(self, mw):
        return mw * 1000.0 * 24.0 / self.ec_kwh_per_kg

    @property
    def cap_min_kg_day(self):
        return self.mw_to_kg_per_day(self.cap_min_mw)

    @property
    def cap_max_kg_day(self):
        return self.mw_to_kg_per_day(self.cap_max_mw)


@dataclass(frozen=True)
class TransportParams:
    truck_invest_eur: float = 174_000.0
    truck_depreciation_years: int = 8
    truck_o_and_m: float = 0.12
    trailer_depreciation_years: int = 12
    trailer_o_and_m: float = 0.02
    fuel_kg_per_km: float = 5.19 / 100.0
    fuel_eur_per_kg: float = 7.91
    toll_eur_per_km: float = 0.15
    wage_eur_per_hour: float = 35.0
    speed_km_per_hour: float = 50.0
    detour_factor: float = 1.3
    # volume-proportional trips on industry routes (physically necessary
    # when a route moves more than one trailer load per day); switch off to
    # charge industry routes one trip per day per open connection
    industry_frequency_by_volume: bool = True


@dataclass(frozen=True)
class ImportSpec:
    node: int
    x: float = 0.0
    y: float = 0.0
    cap_kg_per_day: float = 27.40e6 / LHV_KWH_PER_KG  # 27.40 GWh/day
    cost_eur_per_kg: float = 3.48


@dataclass(frozen=True)
class TariffMap:
    ep_node: dict               # node id -> EUR/kWh, production side
    ep_uniform: float           # EUR/kWh, downstream conversion and stations
    ngp: float = 0.03           # EUR/kWh natural gas


@dataclass(frozen=True)
class ChainProblem:
    lp: object
    candidates: tuple           # grid Nodes hosting electrolyzer candidates
    sinks: tuple                # ConsumptionLocations
    carrier: CarrierParams
    production: ProductionParams
    transport: TransportParams
    tariffs: TariffMap
    import_spec: object
    x_vars: np.ndarray          # column per candidate
    hp_vars: np.ndarray         # column per source: candidates, then import
    ht_vars: np.ndarray         # flow column per route, sources x sinks
    y_vars: np.ndarray          # link column per per-day route, sources x
                                # per-day sinks
    route_vars: np.ndarray      # per route: y if paid per day, else ht
    hp_cost: np.ndarray         # sources x (PCC, POC, COC), EUR/yr per kg/day
    route_cost: np.ndarray      # sources x sinks x (TOC, TCC, truck hours/day)
                                # per unit of the route's activity column
    constants: dict
    total_demand_kg_day: float

    @property
    def sources(self):
        """Source labels: candidate node ids, then 'import' if present."""
        labels = [node.id for node in self.candidates]
        if self.import_spec is not None:
            labels.append("import")
        return labels


@dataclass(frozen=True)
class ChainDesign:
    carrier: str
    x: dict                     # candidate node -> 0/1
    hp_kg_day: dict             # candidate node -> kg/day
    import_node: int
    import_kg_day: float
    flows: dict                 # (source label, sink id) -> kg/day > 0
    truck_hours_per_day: float
    n_trucks: float             # continuous, used in the cost accounting
    n_trucks_rounded: int
    components: dict            # component -> EUR/year
    objective_eur_year: float
    annual_kg: float

    @property
    def total_cost_eur_year(self):
        return sum(self.components.values())


def _distance(node, sink):
    return math.hypot(node.x - sink.x, node.y - sink.y)


def _trip_cost_bundle(dist_km, transport, carrier, wacc):
    """Per-trip occupied hours, operating money, and the annuitized vehicle
    cost per occupied truck-hour-per-day."""
    drive = 2.0 * transport.detour_factor * dist_km / transport.speed_km_per_hour
    hours = drive + carrier.loading_hours
    money = (hours * transport.wage_eur_per_hour
             + 2.0 * transport.detour_factor * dist_km
             * (transport.fuel_kg_per_km * transport.fuel_eur_per_kg
                + transport.toll_eur_per_km))
    vehicle_annual = (
        transport.truck_invest_eur * (1.0 + transport.truck_o_and_m)
        * annuity_factor(wacc, transport.truck_depreciation_years)
        + carrier.trailer_invest_eur * (1.0 + transport.trailer_o_and_m)
        * annuity_factor(wacc, transport.trailer_depreciation_years))
    return hours, money, vehicle_annual


def build_chain_problem(sinks, candidates, tariffs, carrier, production,
                        transport=None, import_spec=None):
    """Assemble the siting MILP for one carrier state and tariff map.

    Columns: ``(x, hp)`` per candidate, the import ``hp``, ``ht`` per
    route, then ``y`` per route paid per day, routes in row-major (source,
    sink) order.  Rows: demand balance, capacity pair per candidate, outflow
    per source, inflow per sink, big-M link per route paid per day.
    """
    transport = transport or TransportParams()
    sinks = tuple(sinks)
    candidates = tuple(candidates)
    total_demand = sum(s.hd_kg_per_day for s in sinks)

    supply_cap = len(candidates) * production.cap_max_kg_day
    if import_spec is not None:
        supply_cap += import_spec.cap_kg_per_day
    if supply_cap + 1e-9 < total_demand:
        raise StructurallyInfeasible(
            f"total supply capacity {supply_cap:.0f} kg/day below demand "
            f"{total_demand:.0f} kg/day")
    for node in candidates:
        if node.id not in tariffs.ep_node:
            raise ConfigError(f"tariff map missing candidate node {node.id}")

    wacc = production.wacc
    af_prod = annuity_factor(wacc, production.depreciation_years)
    n_cand, n_sinks = len(candidates), len(sinks)
    points = candidates + ((import_spec,) if import_spec is not None else ())
    n_src = len(points)
    demand = np.array([s.hd_kg_per_day for s in sinks])
    ep = np.array([tariffs.ep_node[node.id] for node in candidates])

    # HP cost coefficients, EUR/year per kg/day, split by component
    pcc_coeff = (DAYS_PER_YEAR * production.ed_kwh_per_kg
                 * production.ic_eur_per_kw
                 / (production.flh * production.ee)
                 * (1.0 + production.o_and_m) * af_prod)
    coc_downstream = sum(
        (step.ec_kwh_per_kg * tariffs.ep_uniform
         + step.ngc_kwh_per_kg * tariffs.ngp) * (1.0 + step.loss)
        for step in carrier.consumption_steps) * DAYS_PER_YEAR
    coc_production = sum(
        (step.ec_kwh_per_kg * ep + step.ngc_kwh_per_kg * tariffs.ngp)
        * (1.0 + step.loss)
        for step in carrier.production_steps) * DAYS_PER_YEAR
    hp_cost = np.empty((n_src, 3))
    hp_cost[:n_cand, 0] = pcc_coeff
    hp_cost[:n_cand, 1] = production.ec_kwh_per_kg * ep * DAYS_PER_YEAR
    hp_cost[:n_cand, 2] = coc_production + coc_downstream
    if import_spec is not None:
        # imports arrive already converted: no production-side step
        hp_cost[n_cand] = (0.0, import_spec.cost_eur_per_kg * DAYS_PER_YEAR,
                           coc_downstream)

    # route costs per trip, then per kg where trips scale with the volume:
    # every kg implies 1 / trailer capacity trips per day (a product, not a
    # division, which would round differently); routes whose cost rides on
    # the flow need no integer link, which keeps the tree small
    dist = np.array([[_distance(p, sink) for sink in sinks] for p in points])
    hours, money, vehicle = _trip_cost_bundle(
        dist.reshape(n_src, n_sinks), transport, carrier, wacc)
    route_cost = np.stack(
        (money * DAYS_PER_YEAR, hours / 24.0 * vehicle, hours), axis=-1)
    per_day = np.array([s.kind == INDUSTRY for s in sinks], dtype=bool)
    per_day &= not transport.industry_frequency_by_volume
    route_cost[:, ~per_day] *= 1.0 / carrier.trailer_capacity_kg

    x_vars = 2 * np.arange(n_cand)
    first_route = 2 * n_cand + (import_spec is not None)
    hp_vars = np.append(x_vars + 1, np.arange(2 * n_cand, first_route))
    ht_vars = first_route + np.arange(n_src * n_sinks).reshape(
        n_src, n_sinks)
    n_day = int(per_day.sum())
    y_vars = first_route + ht_vars.size + np.arange(
        n_src * n_day).reshape(n_src, n_day)
    route_vars = ht_vars.copy()
    route_vars[:, per_day] = y_vars
    n_vars = first_route + ht_vars.size + y_vars.size

    c = np.zeros(n_vars)
    c[hp_vars] = hp_cost[:, 0] + hp_cost[:, 1] + hp_cost[:, 2]
    c[route_vars] = route_cost[..., 0] + route_cost[..., 1]
    ub = np.ones(n_vars)
    ub[hp_vars[:n_cand]] = production.cap_max_kg_day
    if import_spec is not None:
        ub[hp_vars[n_cand]] = import_spec.cap_kg_per_day
    ub[ht_vars] = demand

    n_rows = 1 + 2 * n_cand + n_src + n_sinks + y_vars.size
    box = 1 + 2 * np.arange(n_cand)[:, None] + (0, 1)  # (GE, LE) pairs
    outflow = 1 + 2 * n_cand + np.arange(n_src)
    inflow = 1 + 2 * n_cand + n_src + np.arange(n_sinks)
    links = y_vars + (n_rows - n_vars)  # y and its link row come last
    a = np.zeros((n_rows, n_vars))
    a[0, hp_vars] = 1.0
    a[box, x_vars[:, None] + 1] = 1.0
    a[box, x_vars[:, None]] = (-production.cap_min_kg_day,
                               -production.cap_max_kg_day)
    a[outflow[:, None], ht_vars] = 1.0
    a[outflow, hp_vars] = -1.0
    a[inflow, ht_vars] = 1.0
    a[links, ht_vars[:, per_day]] = 1.0
    a[links, y_vars] = -np.maximum(demand[per_day], 1.0)
    rhs = np.zeros(n_rows)
    rhs[0] = total_demand
    rhs[inflow] = demand
    # + 0.0 turns -0.0 (a zero minimum capacity) into 0.0, as triplets would
    lp = LinearProblem(
        c, np.zeros(n_vars), ub, matrix=scale_matrix(a + 0.0),
        senses=(EQ,) + (GE, LE) * n_cand + (LE,) * n_src + (GE,) * n_sinks
        + (LE,) * y_vars.size, rhs=rhs,
        binaries=np.append(x_vars, y_vars).tolist())

    constants = _constant_costs(sinks, carrier, tariffs, wacc, total_demand,
                                import_spec)

    return ChainProblem(
        lp=lp, candidates=candidates, sinks=sinks, carrier=carrier,
        production=production, transport=transport, tariffs=tariffs,
        import_spec=import_spec, x_vars=x_vars, hp_vars=hp_vars,
        y_vars=y_vars, ht_vars=ht_vars, route_vars=route_vars,
        hp_cost=hp_cost, route_cost=route_cost, constants=constants,
        total_demand_kg_day=total_demand)


def _constant_costs(sinks, carrier, tariffs, wacc, total_demand, import_spec):
    """Conversion, station capital and station operating blocks; these depend
    only on exogenous volumes."""
    produced_domestically = total_demand
    if import_spec is not None:
        produced_domestically = max(
            total_demand - import_spec.cap_kg_per_day, 0.0)

    ccc = 0.0
    for step in carrier.production_steps:
        ccc += (step.investment(produced_domestically) * (1.0 + step.o_and_m)
                * annuity_factor(wacc, step.depreciation_years))
    for step in carrier.consumption_steps:
        ccc += (step.investment(total_demand) * (1.0 + step.o_and_m)
                * annuity_factor(wacc, step.depreciation_years))

    station_sinks = [s for s in sinks if s.kind != INDUSTRY]
    scc = soc = 0.0
    if station_sinks:
        params = carrier.station
        invest = station_investment_cost(
            STATION_CAPACITY_KG_DAY, len(station_sinks), params)
        scc = (invest * len(station_sinks) * (1.0 + params.o_and_m)
               * annuity_factor(wacc, params.depreciation_years))
        station_kg = sum(s.hd_kg_per_day for s in station_sinks)
        soc = ((params.ec_kwh_per_kg * tariffs.ep_uniform
                + params.ngc_kwh_per_kg * tariffs.ngp)
               * station_kg * DAYS_PER_YEAR)
    return {"CCC": ccc, "SCC": scc, "SOC": soc}


def solve_chain(problem):
    """Solve the MILP and decode it into a verified ChainDesign."""
    sol = solve_milp(problem.lp, node_limit=200_000)
    if sol.status != "Optimal":
        raise ChainInfeasible(f"chain MILP status {sol.status}")
    return decode_design(problem, sol.x, sol.objective)


def _sums_in_order(terms):
    """Column sums of *terms*, added top to bottom from 0.0 as a loop of
    ``+=`` adds them (``np.sum`` pairs terms up)."""
    start = np.zeros((1, terms.shape[1]))
    return np.cumsum(np.vstack((start, terms)), axis=0)[-1].tolist()


def decode_design(problem, values, lp_objective):
    tol = 1e-6 * (1.0 + problem.total_demand_kg_day)
    ids = [node.id for node in problem.candidates]
    source_hp = values[problem.hp_vars]
    source_hp = np.where(np.abs(source_hp) < 1e-9, 0.0, source_hp)
    opened = np.rint(values[problem.x_vars]).astype(int)
    x = dict(zip(ids, opened.tolist()))
    hp = dict(zip(ids, source_hp.tolist()))      # zip stops before import
    import_kg = float(source_hp[len(ids):].sum())

    sources = problem.sources
    flow = values[problem.ht_vars]
    flows = {(sources[pi], problem.sinks[ci].id): float(flow[pi, ci])
             for pi, ci in zip(*np.nonzero(flow > 1e-9))}

    activity = values[problem.route_vars]
    _check_feasibility(problem, opened, source_hp, flow, activity, tol)

    # recompute cost components from the decision values
    pcc, poc, coc = _sums_in_order(problem.hp_cost * source_hp[:, None])
    toc, tcc, truck_hours = _sums_in_order(
        (problem.route_cost * activity[..., None]).reshape(-1, 3))
    components = dict.fromkeys(COMPONENTS, 0.0)
    components.update(problem.constants, PCC=pcc, POC=poc, COC=coc,
                      TOC=toc, TCC=tcc)

    objective = lp_objective + sum(problem.constants.values())
    recomputed = sum(components.values())
    if abs(recomputed - objective) > 1e-6 * (1.0 + abs(objective)):
        raise ChainInfeasible(
            f"cost accounting mismatch: components {recomputed:.6f} vs "
            f"objective {objective:.6f}")

    annual_kg = problem.total_demand_kg_day * DAYS_PER_YEAR
    return ChainDesign(
        carrier=problem.carrier.state, x=x, hp_kg_day=hp,
        import_node=(problem.import_spec.node
                     if problem.import_spec is not None else None),
        import_kg_day=import_kg, flows=flows,
        truck_hours_per_day=truck_hours, n_trucks=truck_hours / 24.0,
        n_trucks_rounded=int(math.ceil(truck_hours / 24.0 - 1e-9)),
        components=components, objective_eur_year=objective,
        annual_kg=annual_kg)


def _check_feasibility(problem, opened, source_hp, flow, activity, tol):
    production = problem.production
    if abs(source_hp.sum() - problem.total_demand_kg_day) > tol:
        raise ChainInfeasible("production does not balance demand")
    hp = source_hp[:len(opened)]
    in_box = ((production.cap_min_kg_day - tol <= hp)
              & (hp <= production.cap_max_kg_day + tol))
    bad = np.flatnonzero(np.where(opened != 0, ~in_box, hp > tol))
    if bad.size:
        node = problem.candidates[bad[0]].id
        if opened[bad[0]]:
            raise ChainInfeasible(f"capacity box violated at {node}")
        raise ChainInfeasible(f"production without siting at {node}")
    over = np.flatnonzero(flow.sum(axis=1) > source_hp + tol)
    if over.size:
        raise ChainInfeasible(
            f"transport exceeds production at {problem.sources[over[0]]}")
    demand = np.array([s.hd_kg_per_day for s in problem.sinks])
    unmet = np.flatnonzero(flow.sum(axis=0) + tol < demand)
    if unmet.size:
        raise ChainInfeasible(
            f"demand unmet at sink {problem.sinks[unmet[0]].id}")
    closed = (problem.route_vars != problem.ht_vars) & (activity < 0.5)
    if np.any(closed & (flow > tol)):
        raise ChainInfeasible("flow on a closed connection")


def end_use_cost(design, served_kg_per_year=None, include_stations=False):
    """Per-kilogram cost breakdown; station blocks only for transport use."""
    served = served_kg_per_year if served_kg_per_year is not None \
        else design.annual_kg
    if served <= 0:
        raise DivisionDomain("served mass must be positive")
    names = COMPONENTS if include_stations \
        else tuple(n for n in COMPONENTS if n not in ("SCC", "SOC"))
    breakdown = {name: design.components[name] / served for name in names}
    breakdown["total"] = sum(breakdown.values())
    return breakdown
