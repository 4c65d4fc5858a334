"""Scenario pipeline tests: tariff derivation, load feedback, scaling."""

import numpy as np
import pytest

from h2grid import pipeline
from h2grid.chain import ChainDesign, ProductionParams
from h2grid.dispatch import (MODE_NODAL, MODE_UNIFORM_REDISPATCH,
                             AnnualDispatchSummary, run_year)
from h2grid.errors import (CannotScale, IncompleteBaseline, InfeasibleHour,
                           ResourceLimit)
from h2grid.grid import (DISPATCHABLE, Generator, Line, Node, PowerSystem,
                         WIND, compute_ptdf)
from h2grid.pipeline import (FLAT, NODAL, REAL_TIME, Scenario, StudyCase,
                             UNIFORM, additionality_scale, derive_tariffs,
                             electrolyzer_loads, run_full_study)
from h2grid.synth import (SyntheticSpec, congested_fixture,
                          generate_synthetic_system)


class FakeSummary:
    def __init__(self, prices=None, nodal=None):
        self.price_series = None if prices is None else np.asarray(prices,
                                                                   float)
        self.nodal_price_series = None if nodal is None else np.asarray(
            nodal, float)


def make_design(hp_by_node):
    total = sum(hp_by_node.values())
    return ChainDesign(
        carrier="GH2", x={k: int(v > 0) for k, v in hp_by_node.items()},
        hp_kg_day=hp_by_node, import_node=None, import_kg_day=0.0,
        flows={}, truck_hours_per_day=0.0, n_trucks=0.0,
        n_trucks_rounded=0, components={}, objective_eur_year=0.0,
        annual_kg=total * 365.0)


class TestDeriveTariffs:
    # ten hours: seven at 10 EUR/MWh, three at 100 EUR/MWh
    PRICES = [10.0] * 7 + [100.0] * 3

    def test_flat_uniform(self):
        t = derive_tariffs(FakeSummary(self.PRICES),
                           Scenario(spatial=UNIFORM, temporal=FLAT),
                           [0, 1])
        assert t.ep_node[0] == pytest.approx(0.037)  # 37 EUR/MWh in EUR/kWh
        assert t.ep_uniform == pytest.approx(0.037)

    def test_real_time_uniform_takes_cheap_hours(self):
        t = derive_tariffs(FakeSummary(self.PRICES),
                           Scenario(spatial=UNIFORM, temporal=REAL_TIME),
                           [0])
        # cheapest 70% of ten hours is exactly the seven 10 EUR hours
        assert t.ep_node[0] == pytest.approx(0.010)
        assert t.ep_uniform == pytest.approx(0.037)  # downstream stays flat

    def test_nodal_is_per_node(self):
        nodal = np.column_stack([np.full(10, 20.0), self.PRICES])
        t = derive_tariffs(FakeSummary(self.PRICES, nodal),
                           Scenario(spatial=NODAL, temporal=FLAT), [0, 1])
        assert t.ep_node[0] == pytest.approx(0.020)
        assert t.ep_node[1] == pytest.approx(0.037)

    def test_missing_baseline_raises(self):
        with pytest.raises(IncompleteBaseline):
            derive_tariffs(FakeSummary(), Scenario(), [0])
        with pytest.raises(IncompleteBaseline):
            derive_tariffs(FakeSummary(self.PRICES), Scenario(spatial=NODAL),
                           [0])


def tiny_system(hours=10, n=2):
    nodes = [Node(i, float(10 * i), 0.0) for i in range(n)]
    lines = [Line(i, i, i + 1, 400.0, 1.0) for i in range(n - 1)]
    gens = [Generator(0, 0, DISPATCHABLE, 20.0, 500.0),
            Generator(1, 0, WIND, 0.0, profile=np.full(hours, 50.0))]
    demand = np.full((hours, n), 30.0)
    return PowerSystem(tuple(nodes), tuple(lines), tuple(gens), demand,
                       compute_ptdf(nodes, lines, slack=0))


class TestElectrolyzerLoads:
    def test_flat_mw_arithmetic(self):
        # 50,400 kg/day at 47.6 kWh/kg is 99.96 MW around the clock
        system = tiny_system(hours=10)
        loads = electrolyzer_loads(make_design({0: 50_400.0, 1: 0.0}),
                                   Scenario(temporal=FLAT),
                                   system, ProductionParams())
        assert loads.shape == (10, 2)
        assert np.all(loads[:, 0] == pytest.approx(99.96))
        assert np.all(loads[:, 1] == 0.0)

    def test_real_time_concentrates_same_energy(self):
        system = tiny_system(hours=10)
        prices = FakeSummary([10.0] * 7 + [100.0] * 3)
        flat = electrolyzer_loads(make_design({0: 50_400.0}),
                                  Scenario(temporal=FLAT), system,
                                  ProductionParams(), prices)
        rt = electrolyzer_loads(make_design({0: 50_400.0}),
                                Scenario(temporal=REAL_TIME), system,
                                ProductionParams(), prices)
        assert rt.sum() == pytest.approx(flat.sum())
        assert np.count_nonzero(rt[:, 0]) == 7
        assert np.all(rt[7:, 0] == 0.0)

    def test_real_time_hours_ignore_round_off(self):
        # hours 5-8 tie at 40 EUR/MWh; the cheapest seven are hours 0-6
        # whatever last-bit noise a solver leaves on the tied prices
        system = tiny_system(hours=10)
        prices = np.array([10.0] * 5 + [40.0] * 4 + [100.0])
        noisy = prices.copy()
        noisy[[7, 8]] -= 1e-12
        noisy[5] += 1e-12
        design = make_design({0: 50_400.0})
        exact, perturbed = (
            electrolyzer_loads(design, Scenario(temporal=REAL_TIME), system,
                               ProductionParams(), FakeSummary(p))
            for p in (prices, noisy))
        assert np.array_equal(np.flatnonzero(exact[:, 0]), np.arange(7))
        assert np.array_equal(perturbed, exact)

    def test_real_time_needs_series(self):
        system = tiny_system()
        with pytest.raises(IncompleteBaseline):
            electrolyzer_loads(make_design({0: 100.0}),
                               Scenario(temporal=REAL_TIME), system,
                               ProductionParams())


class TestAdditionality:
    def test_scales_renewables_only(self):
        system = tiny_system(hours=10)
        base_wind = 50.0 * 10
        scaled = additionality_scale(system, added_mwh=base_wind)
        wind = [g for g in scaled.generators if g.kind == WIND][0]
        assert np.all(wind.profile == pytest.approx(100.0))
        thermal = [g for g in scaled.generators
                   if g.kind == DISPATCHABLE][0]
        assert thermal.capacity_mw == 500.0

    def test_shared_profiles_stay_shared(self):
        system = generate_synthetic_system(SyntheticSpec(
            seed=7, n_nodes=30, n_lines=40, hours=48))
        renewables = [j for j, g in enumerate(system.generators)
                      if g.profile is not None]
        profiles = {id(system.generators[j].profile) for j in renewables}
        assert len(profiles) < len(renewables)
        energy = sum(float(system.generators[j].profile.sum())
                     for j in renewables)
        factor = (energy + 500.0) / energy
        scaled = additionality_scale(system, 500.0).generators
        assert len({id(scaled[j].profile) for j in renewables}) == len(
            profiles)
        for j in renewables:
            want = system.generators[j].profile * factor
            assert scaled[j].profile.tobytes() == want.tobytes()

    def test_zero_added_is_noop(self):
        system = tiny_system()
        assert additionality_scale(system, 0.0) is system

    def test_negative_raises(self):
        with pytest.raises(CannotScale):
            additionality_scale(tiny_system(), -1.0)

    def test_no_renewables_raises(self):
        system = tiny_system()
        bare = system.with_generators(
            [g for g in system.generators if g.kind == DISPATCHABLE])
        with pytest.raises(CannotScale):
            additionality_scale(bare, 10.0)


class TestFullStudy:
    def test_empty_scenario_list(self):
        case = congested_fixture(seed=20240, hours=12)
        report = run_full_study(case, [])
        assert report.results == ()
        assert report.baseline_demand_mwh > 0
        assert set(report.nodal_price_spread) == {
            n.id for n in case.candidates}

    def test_scenario_row_shape(self):
        case = congested_fixture(seed=20240, hours=12)
        report = run_full_study(
            case, [Scenario(spatial=UNIFORM, temporal=FLAT, carrier="GH2")])
        rows = report.rows()
        assert rows[0][0] == "baseline"
        assert rows[1][0] == "uniform_flat_GH2"
        assert len(rows[1]) == 7
        # hydrogen load increases system demand
        assert rows[1][1] > rows[0][1]
        # the report keeps one nodal series, the baseline's, not one per
        # feedback year
        summary = report.results[0].summary
        assert summary.nodal_price_series is None
        assert summary.mean_nodal_prices is None
        assert summary.price_series.shape == (12,)

    @pytest.mark.parametrize("kind, context", [
        (InfeasibleHour, {"hour": 5, "deficit_mw": 2.0}),
        (ResourceLimit, {"incumbent": "best", "bound": -1.0}),
    ])
    def test_scenario_error_keeps_context(self, monkeypatch, kind, context):
        def fail(*args):
            raise kind("x", **context)

        # the study reads its nodal baseline off the uniform+redispatch
        # year with dataclasses.replace, so the stub returns such a year
        baseline = AnnualDispatchSummary(
            mode=MODE_UNIFORM_REDISPATCH, hours=0, price_series=np.zeros(0),
            nodal_price_series=np.zeros((0, 0)), mean_price=0.0,
            mean_nodal_prices=np.zeros(0), congestion_cost_eur=0.0,
            redispatch_cost_series=np.zeros(0), total_energy_mwh=0.0,
            generation_mwh=np.zeros(0))
        monkeypatch.setattr(pipeline, "run_year", lambda *args: baseline)
        monkeypatch.setattr(pipeline, "run_scenario", fail)
        scenario = Scenario(spatial=UNIFORM, temporal=FLAT, carrier="GH2")
        with pytest.raises(kind) as info:
            run_full_study(congested_fixture(seed=20240, hours=12), [scenario])
        assert str(info.value) == f"scenario {scenario.name}: x"
        for name, value in context.items():
            assert getattr(info.value, name) == value


    def test_dispatched_hours_carry_all_added_energy(self):
        # flat and real-time loads of one production volume put the same
        # energy into the dispatched year, which is every hour of the system
        case = congested_fixture(seed=42, hours=48)
        report = run_full_study(case, [
            Scenario(spatial=UNIFORM, temporal=temporal, carrier="LH2")
            for temporal in (FLAT, REAL_TIME)])
        assert report.hours == case.system.horizon == 48
        for r in report.results:
            want = (sum(r.design.hp_kg_day.values())
                    * case.production.ec_kwh_per_kg / 1000.0 * 48 / 24)
            assert r.added_energy_mwh == pytest.approx(want, rel=1e-12)
            assert r.demand_mwh - report.baseline_demand_mwh == (
                pytest.approx(want, rel=1e-9))


class TestBaselineNodalView:
    """The study's nodal baseline is read off its uniform+redispatch year;
    a nodal year of the same system, one ``nodal_dispatch`` per hour, is
    the independent witness that it is the nodal market's result.

    Except in an hour whose merit order overloads a corridor by more than
    the solver's ``FEAS_TOL`` (1e-7 MW) but no more than ``FLOW_TOL``
    (1e-6 MW): redispatch solves no LP there and the view has the merit
    price at every node, while the nodal year prices the overload with
    full rents (``TestRunYear::test_overload_below_flow_tol``).  The
    systems below reach no such hour, so they are equal bit for bit."""

    FIELDS = ("nodal_price_series", "mean_nodal_prices", "generation_mwh",
              "redispatch_cost_series", "total_energy_mwh")

    def check(self, case):
        """Compare the two views bit for bit; return the year's number of
        hours with a redispatch cost."""
        report = run_full_study(case, [])
        view = report.baseline_nodal
        witness = run_year(case.system, case.system.horizon, MODE_NODAL)
        assert view.mode == MODE_NODAL
        assert view.price_series is None and view.mean_price is None
        for name in self.FIELDS:
            assert np.array_equal(getattr(view, name),
                                  getattr(witness, name)), name
        assert view.congestion_cost_eur == witness.congestion_cost_eur
        return int(np.count_nonzero(view.redispatch_cost_series))

    def test_fixture_week(self):
        assert self.check(congested_fixture(seed=20240, hours=168)) > 0

    def test_random_systems(self):
        rng = np.random.default_rng(19)
        congested = hours = 0
        for _ in range(22):
            n = int(rng.integers(10, 121))
            spec = SyntheticSpec(
                seed=int(rng.integers(0, 10_000)), n_nodes=n,
                n_lines=int(n * rng.uniform(1.1, 1.5)), hours=24,
                congestion=float(rng.uniform(0.2, 0.85)))
            system = generate_synthetic_system(spec)
            congested += self.check(StudyCase(
                system=system, sinks=(), candidates=system.nodes))
            hours += 24
        # 479 of 528 hours have a redispatch cost, 49 have none
        assert 0 < congested < hours

    def test_one_dispatch_year(self, monkeypatch):
        years = []

        def counted(system, hours, mode):
            years.append(mode)
            return run_year(system, hours, mode)

        monkeypatch.setattr(pipeline, "run_year", counted)
        run_full_study(congested_fixture(seed=20240, hours=12), [])
        assert years == [MODE_UNIFORM_REDISPATCH]


class TestOnePriceSignal:
    """A site's tariff is the mean baseline price over exactly the hours
    its fed-back load runs: ``derive_tariffs`` and ``electrolyzer_loads``
    read one price-signal rule."""

    def test_tariff_is_mean_price_of_load_hours(self):
        case = congested_fixture(seed=42, hours=168)
        report = run_full_study(case, [
            Scenario(spatial, temporal, "LH2")
            for spatial in (UNIFORM, NODAL) for temporal in (FLAT, REAL_TIME)])
        baseline = report.baseline_uniform
        checked = {}
        for r in report.results:
            loads = electrolyzer_loads(r.design, r.scenario, case.system,
                                       case.production, baseline,
                                       case.cheap_share)
            for node, hp in r.design.hp_kg_day.items():
                if hp <= 0:
                    continue
                series = (baseline.nodal_price_series[:, node]
                          if r.scenario.spatial == NODAL
                          else baseline.price_series)
                on = np.flatnonzero(loads[:, node] > 0)
                assert r.tariffs.ep_node[node] * 1000 == series[on].mean(), \
                    (r.scenario.name, node)
                checked[r.scenario.name, node] = len(on)
        # nodal tariffs site at the northern nodes 2-3, uniform ones at the
        # southern nodes 5-7; real-time sites run 118 of 168 hours
        assert checked == {
            **{("uniform_flat_LH2", n): 168 for n in (5, 6, 7)},
            **{("uniform_real_time_LH2", n): 118 for n in (5, 6, 7)},
            **{("nodal_flat_LH2", n): 168 for n in (2, 3)},
            **{("nodal_real_time_LH2", n): 118 for n in (2, 3)}}
