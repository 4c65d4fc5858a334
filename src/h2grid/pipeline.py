"""Three-step study pipeline.

1. run the baseline dispatch without hydrogen in one uniform + redispatch
   pass, which carries both price signals of the same hours: the uniform
   market price and the nodal view (its redispatch LPs' nodal prices), and
   derive electricity tariffs from the scenario's signal,
2. solve the hydrogen chain MILP per scenario on those tariffs,
3. feed the resulting electrolyzer loads back (with proportionally scaled
   renewables) and re-run the uniform + redispatch model to compare
   congestion-management costs.

One rule, ``_price_signal``, gives both the tariffs and the fed-back loads
the series a site sees (uniform, or its node's column of the nodal view) and
the hours it runs (every hour when flat, the cheapest share of that series
when real-time); the pipeline is deliberately non-iterative.

The report stores each number once, in the dispatch year it comes from:
its rows read the baseline and feedback years' totals, and its nodal
baseline is a view of the uniform + redispatch year.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .chain import (CARRIER_DEFAULTS, ImportSpec, ProductionParams,
                    TariffMap, TransportParams, build_chain_problem,
                    end_use_cost, solve_chain)
from .dispatch import MODE_NODAL, MODE_UNIFORM_REDISPATCH, run_year
from .errors import CannotScale, H2GridError, IncompleteBaseline
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
    summary: object                  # post-feedback AnnualDispatchSummary
                                     # without its nodal view: the home of
                                     # the scenario's totals
    added_energy_mwh: float


def _totals(summary):
    return (summary.total_energy_mwh, summary.mean_price,
            summary.congestion_cost_eur)


@dataclass(frozen=True)
class StudyReport:
    baseline_uniform: object
    results: tuple
    nodal_price_spread: dict = field(default_factory=dict)  # node -> EUR/MWh

    @property
    def baseline_nodal(self):
        """The baseline year read as a nodal market: the redispatch LPs'
        nodal prices, and uniform + redispatch generation and costs, as a
        nodal year's would be."""
        return replace(self.baseline_uniform, mode=MODE_NODAL,
                       price_series=None, mean_price=None)

    def rows(self):
        """Table rows: (name, demand MWh, mean price, congestion EUR,
        deltas vs baseline in percent), read from the dispatch years."""
        base = _totals(self.baseline_uniform)
        rows = [("baseline", *base, 0.0, 0.0, 0.0)]
        for r in self.results:
            totals = _totals(r.summary)
            rows.append((r.scenario.name, *totals, *map(_pct, totals, base)))
        return rows


def _pct(value, base):
    if base == 0:
        return 0.0
    return 100.0 * (value - base) / base


# Prices are ranked after rounding to this many decimals (EUR/MWh), so that
# hours whose prices differ only by solver round-off count as ties.
RANK_DECIMALS = 6


def _cheapest_hours(prices, share):
    """Indices of the cheapest share of hours; ties (equal to RANK_DECIMALS
    decimals) break by hour."""
    t = len(prices)
    k = max(1, int(round(share * t)))
    order = np.argsort(np.round(prices, RANK_DECIMALS), kind="stable")
    return np.sort(order[:k])


# Every hour of the year, as an index of a price series or a load column.
EVERY_HOUR = slice(None)


def _price_signal(baseline, scenario, nodes, cheap_share):
    """``{node: (series, hours)}``: the baseline price series (EUR/MWh) an
    electrolyzer at each of *nodes* sees, and the hours it runs.

    A uniform signal is the market price, one series for every node; a
    nodal one is the node's column of the baseline's nodal view.  A flat
    tariff runs every hour (``EVERY_HOUR``), a real-time one the cheapest
    *cheap_share* of its series, the uniform series ranked once.  A
    baseline without the series raises IncompleteBaseline.
    """
    nodal = scenario.spatial == NODAL
    real_time = scenario.temporal == REAL_TIME
    prices = baseline.nodal_price_series if nodal else baseline.price_series
    if prices is None:
        raise IncompleteBaseline(
            f"{scenario.spatial} baseline price series missing")

    def run_hours(series):
        return _cheapest_hours(series, cheap_share) if real_time \
            else EVERY_HOUR

    if not nodal:
        hours = run_hours(prices)
        return {n: (prices, hours) for n in nodes}
    return {n: (prices[:, n], run_hours(prices[:, n])) for n in nodes}


def derive_tariffs(baseline, scenario, node_ids, ngp, cheap_share):
    """Per-node production tariffs (EUR/kWh) from the baseline year.

    A node's tariff is the mean of the price series its electrolyzer sees
    over the hours it runs (``_price_signal``): the annual mean when flat,
    the cheapest *cheap_share* of hours when real-time.  The downstream
    price for conversion and stations is always the flat uniform mean.
    """
    if baseline.price_series is None:
        raise IncompleteBaseline("uniform baseline price series missing")
    signal = _price_signal(baseline, scenario, node_ids, cheap_share)
    return TariffMap(
        ep_node={n: float(series[hours].mean()) / 1000.0
                 for n, (series, hours) in signal.items()},
        ep_uniform=float(baseline.price_series.mean()) / 1000.0, ngp=ngp)


def electrolyzer_loads(design, scenario, system, production, baseline,
                       cheap_share):
    """Hourly electric load (MW) per node implied by the chain design.

    A site draws HP * EC / 24 kW in the hours ``_price_signal`` runs it:
    around the clock when flat, the same energy concentrated into the
    cheapest share of hours when real-time.  Imports add no electric load.
    """
    horizon = system.horizon
    loads = np.zeros((horizon, system.n_nodes))
    sites = {n: hp for n, hp in design.hp_kg_day.items() if hp > 0}
    signal = _price_signal(baseline, scenario, sites, cheap_share)
    for node_id, hp in sites.items():
        flat_mw = hp * production.ec_kwh_per_kg / 24.0 / 1000.0
        hours = signal[node_id][1]
        loads[hours, node_id] += flat_mw if hours is EVERY_HOUR \
            else flat_mw * horizon / len(hours)
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
    # generators that share a profile array share its scaled copy
    scaled = {}
    generators = []
    for g in system.generators:
        if g.kind in RENEWABLE_KINDS and g.profile is not None:
            if id(g.profile) not in scaled:
                scaled[id(g.profile)] = g.profile * factor
            generators.append(Generator(g.id, g.node, g.kind,
                                        g.marginal_cost, g.capacity_mw,
                                        scaled[id(g.profile)]))
        else:
            generators.append(g)
    return system.with_generators(generators)


@dataclass(frozen=True)
class StudyCase:
    """Everything one full study needs besides the scenario list; the
    study dispatches every hour of the system (``system.horizon``)."""
    system: object
    sinks: tuple
    candidates: tuple                # grid Nodes usable as electrolyzer sites
    production: ProductionParams = ProductionParams()
    transport: TransportParams = TransportParams()
    import_spec: ImportSpec = None
    ngp: float = 0.03
    cheap_share: float = 0.7


def run_scenario(case, scenario, baseline):
    node_ids = [n.id for n in case.candidates]
    tariffs = derive_tariffs(baseline, scenario, node_ids, ngp=case.ngp,
                             cheap_share=case.cheap_share)
    problem = build_chain_problem(
        case.sinks, case.candidates, tariffs,
        CARRIER_DEFAULTS[scenario.carrier], case.production,
        case.transport, case.import_spec)
    design = solve_chain(problem)
    include_stations = any(s.kind != "industry" for s in case.sinks)
    breakdown = end_use_cost(design, include_stations=include_stations)

    loads = electrolyzer_loads(design, scenario, case.system,
                               case.production, baseline, case.cheap_share)
    added_mwh = float(loads.sum())
    scaled = additionality_scale(case.system, added_mwh)
    fed_back = scaled.with_demand(scaled.demand + loads)
    # nothing reads a feedback year's nodal view, an hours x nodes series
    # that the report would otherwise keep once per scenario
    summary = replace(
        run_year(fed_back, fed_back.horizon, MODE_UNIFORM_REDISPATCH),
        nodal_price_series=None)
    return ScenarioResult(
        scenario=scenario, tariffs=tariffs, design=design,
        breakdown=breakdown, summary=summary, added_energy_mwh=added_mwh)


def run_full_study(case, scenarios):
    """Baseline, per-scenario chain + feedback, and the comparison report."""
    baseline = run_year(case.system, case.system.horizon,
                        MODE_UNIFORM_REDISPATCH)
    results = []
    for scenario in scenarios:
        try:
            results.append(run_scenario(case, scenario, baseline))
        except H2GridError as exc:
            # prefix the message in place, so that the hour, incumbent or
            # bound an error carries survives (add_note needs Python 3.11)
            message = exc.args[0] if exc.args else ""
            exc.args = (f"scenario {scenario.name}: {message}",) + exc.args[1:]
            raise

    nodal_means = baseline.nodal_price_series.mean(axis=0)
    spread = {n.id: float(baseline.mean_price - nodal_means[n.id])
              for n in case.candidates}
    return StudyReport(baseline_uniform=baseline, results=tuple(results),
                       nodal_price_spread=spread)
