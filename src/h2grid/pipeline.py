"""Three-step study pipeline.

1. run the baseline dispatch without hydrogen in one uniform + redispatch
   pass, which also gives the nodal view of the same hours (its redispatch
   LPs' nodal prices), and derive electricity tariffs from both views,
2. solve the hydrogen chain MILP per scenario on those tariffs,
3. feed the resulting electrolyzer loads back (with proportionally scaled
   renewables) and re-run the uniform + redispatch model to compare
   congestion-management costs.

Electrolyzer operating hours in real-time scenarios are chosen from the
baseline price series; the pipeline is deliberately non-iterative.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .chain import (CARRIER_DEFAULTS, ImportSpec, ProductionParams,
                    TariffMap, TransportParams, build_chain_problem,
                    end_use_cost, solve_chain)
from .dispatch import MODE_NODAL, MODE_UNIFORM_REDISPATCH, run_year
from .errors import (CannotScale, H2GridError, IncompleteBaseline,
                     MissingSeries)
from .grid import RENEWABLE_KINDS, Generator

UNIFORM, NODAL = "uniform", "nodal"
FLAT, REAL_TIME = "flat", "real_time"


@dataclass(frozen=True)
class Scenario:
    spatial: str = UNIFORM          # uniform | nodal
    temporal: str = FLAT            # flat | real_time
    carrier: str = "LH2"

    @property
    def name(self):
        return f"{self.spatial}_{self.temporal}_{self.carrier}"


@dataclass(frozen=True)
class ScenarioResult:
    scenario: Scenario
    tariffs: TariffMap
    design: object
    breakdown: dict                  # EUR/kg end-use cost components
    summary: object                  # post-feedback AnnualDispatchSummary,
                                     # without its nodal view
    added_energy_mwh: float
    demand_mwh: float
    mean_price: float
    congestion_cost_eur: float


@dataclass(frozen=True)
class StudyReport:
    hours: int
    baseline_demand_mwh: float
    baseline_mean_price: float
    baseline_congestion_eur: float
    baseline_uniform: object
    baseline_nodal: object
    results: tuple
    nodal_price_spread: dict = field(default_factory=dict)  # node -> EUR/MWh

    def rows(self):
        """Table rows: (name, demand MWh, mean price, congestion EUR,
        deltas vs baseline in percent)."""
        rows = [("baseline", self.baseline_demand_mwh,
                 self.baseline_mean_price, self.baseline_congestion_eur,
                 0.0, 0.0, 0.0)]
        for r in self.results:
            rows.append((
                r.scenario.name, r.demand_mwh, r.mean_price,
                r.congestion_cost_eur,
                _pct(r.demand_mwh, self.baseline_demand_mwh),
                _pct(r.mean_price, self.baseline_mean_price),
                _pct(r.congestion_cost_eur, self.baseline_congestion_eur)))
        return rows


def _pct(value, base):
    if base == 0:
        return 0.0
    return 100.0 * (value - base) / base


# Prices are ranked after rounding to this many decimals (EUR/MWh), so that
# hours whose prices differ only by solver round-off count as ties.
RANK_DECIMALS = 6


def _cheapest_hours(prices, share=0.7):
    """Indices of the cheapest share of hours; ties (equal to RANK_DECIMALS
    decimals) break by hour."""
    t = len(prices)
    k = max(1, int(round(share * t)))
    order = np.argsort(np.round(prices, RANK_DECIMALS), kind="stable")
    return np.sort(order[:k])


def derive_tariffs(baseline_uniform, baseline_nodal, scenario, node_ids,
                   ngp=0.03, cheap_share=0.7):
    """Per-node production tariffs (EUR/kWh) from the baseline price series.

    Flat tariffs are annual means; real-time tariffs average the cheapest
    *cheap_share* of hours.  The downstream price for conversion and
    stations is always the flat uniform mean.
    """
    if baseline_uniform is None or baseline_uniform.price_series is None:
        raise IncompleteBaseline("uniform baseline price series missing")
    uniform_series = baseline_uniform.price_series
    ep_uniform = float(uniform_series.mean()) / 1000.0

    if scenario.spatial == NODAL:
        if baseline_nodal is None or baseline_nodal.nodal_price_series is None:
            raise IncompleteBaseline("nodal baseline price series missing")
        nodal_series = baseline_nodal.nodal_price_series
        ep_node = {}
        for n in node_ids:
            series = nodal_series[:, n]
            if scenario.temporal == REAL_TIME:
                hours = _cheapest_hours(series, cheap_share)
                ep_node[n] = float(series[hours].mean()) / 1000.0
            else:
                ep_node[n] = float(series.mean()) / 1000.0
    else:
        if scenario.temporal == REAL_TIME:
            hours = _cheapest_hours(uniform_series, cheap_share)
            price = float(uniform_series[hours].mean()) / 1000.0
        else:
            price = ep_uniform
        ep_node = {n: price for n in node_ids}

    return TariffMap(ep_node=ep_node, ep_uniform=ep_uniform, ngp=ngp)


def electrolyzer_loads(design, scenario, system, production,
                       baseline_uniform=None, baseline_nodal=None,
                       cheap_share=0.7):
    """Hourly electric load (MW) per node implied by the chain design.

    Flat mode draws a constant HP * EC / 24 kW; real-time mode concentrates
    the same energy into the cheapest share of hours.  Imports add no
    electric load.
    """
    hours = system.horizon
    loads = np.zeros((hours, system.n_nodes))
    for node_id, hp in design.hp_kg_day.items():
        if hp <= 0:
            continue
        flat_mw = hp * production.ec_kwh_per_kg / 24.0 / 1000.0
        if scenario.temporal == FLAT:
            loads[:, node_id] += flat_mw
        else:
            if scenario.spatial == NODAL:
                if baseline_nodal is None or \
                        baseline_nodal.nodal_price_series is None:
                    raise MissingSeries("nodal price series required for "
                                        "real-time operation")
                series = baseline_nodal.nodal_price_series[:, node_id]
            else:
                if baseline_uniform is None or \
                        baseline_uniform.price_series is None:
                    raise MissingSeries("uniform price series required for "
                                        "real-time operation")
                series = baseline_uniform.price_series
            on = _cheapest_hours(series, cheap_share)
            loads[on, node_id] += flat_mw * hours / len(on)
    return loads


def additionality_scale(system, added_mwh):
    """Scale every renewable profile so added renewable energy matches the
    added electrolyzer demand."""
    if added_mwh < 0:
        raise CannotScale("added demand must be nonnegative")
    if added_mwh == 0:
        return system
    horizon = system.horizon
    renewable_mwh = sum(
        float(g.profile[:horizon].sum()) for g in system.generators
        if g.kind in RENEWABLE_KINDS and g.profile is not None)
    if renewable_mwh <= 0:
        raise CannotScale("no renewable baseline energy to scale")
    factor = (renewable_mwh + added_mwh) / renewable_mwh
    generators = []
    for g in system.generators:
        if g.kind in RENEWABLE_KINDS and g.profile is not None:
            generators.append(Generator(g.id, g.node, g.kind,
                                        g.marginal_cost, g.capacity_mw,
                                        g.profile * factor))
        else:
            generators.append(g)
    return system.with_generators(generators)


@dataclass(frozen=True)
class StudyCase:
    """Everything one full study needs besides the scenario list."""
    system: object
    sinks: tuple
    candidates: tuple                # grid Nodes usable as electrolyzer sites
    hours: int
    production: ProductionParams = ProductionParams()
    transport: TransportParams = TransportParams()
    import_spec: ImportSpec = None
    ngp: float = 0.03
    cheap_share: float = 0.7


def run_scenario(case, scenario, baseline_uniform, baseline_nodal):
    node_ids = [n.id for n in case.candidates]
    tariffs = derive_tariffs(baseline_uniform, baseline_nodal, scenario,
                             node_ids, ngp=case.ngp,
                             cheap_share=case.cheap_share)
    problem = build_chain_problem(
        case.sinks, case.candidates, tariffs,
        CARRIER_DEFAULTS[scenario.carrier], case.production,
        case.transport, case.import_spec)
    design = solve_chain(problem)
    include_stations = any(s.kind != "industry" for s in case.sinks)
    breakdown = end_use_cost(design, include_stations=include_stations)

    loads = electrolyzer_loads(design, scenario, case.system,
                               case.production, baseline_uniform,
                               baseline_nodal, case.cheap_share)
    added_mwh = float(loads.sum())
    scaled = additionality_scale(case.system, added_mwh)
    fed_back = scaled.with_demand(scaled.demand + loads)
    # nothing reads a feedback year's nodal view, an hours x nodes series
    # that the report would otherwise keep once per scenario
    summary = replace(run_year(fed_back, case.hours, MODE_UNIFORM_REDISPATCH),
                      nodal_price_series=None, mean_nodal_prices=None)
    return ScenarioResult(
        scenario=scenario, tariffs=tariffs, design=design,
        breakdown=breakdown, summary=summary, added_energy_mwh=added_mwh,
        demand_mwh=summary.total_energy_mwh,
        mean_price=summary.mean_price,
        congestion_cost_eur=summary.congestion_cost_eur)


def run_full_study(case, scenarios):
    """Baseline, per-scenario chain + feedback, and the comparison report."""
    baseline_uniform = run_year(case.system, case.hours,
                                MODE_UNIFORM_REDISPATCH)
    # the same pass read as a nodal market: its prices are the redispatch
    # LPs' nodal prices, and its generation and costs are those of
    # uniform + redispatch, as a nodal year's would be
    baseline_nodal = replace(baseline_uniform, mode=MODE_NODAL,
                             price_series=None, mean_price=None)

    results = []
    for scenario in scenarios:
        try:
            results.append(run_scenario(case, scenario, baseline_uniform,
                                        baseline_nodal))
        except H2GridError as exc:
            # prefix the message in place, so that the hour, incumbent or
            # bound an error carries survives (add_note needs Python 3.11)
            message = exc.args[0] if exc.args else ""
            exc.args = (f"scenario {scenario.name}: {message}",) + exc.args[1:]
            raise

    spread = {
        n.id: float(baseline_uniform.mean_price
                    - baseline_nodal.mean_nodal_prices[n.id])
        for n in case.candidates}
    return StudyReport(
        hours=case.hours,
        baseline_demand_mwh=baseline_uniform.total_energy_mwh,
        baseline_mean_price=baseline_uniform.mean_price,
        baseline_congestion_eur=baseline_uniform.congestion_cost_eur,
        baseline_uniform=baseline_uniform,
        baseline_nodal=baseline_nodal,
        results=tuple(results),
        nodal_price_spread=spread)
