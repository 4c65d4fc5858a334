"""Supply chain siting tests.

The branch-and-bound result is checked against an exhaustive oracle that
enumerates every open/closed pattern of the candidate sites and solves the
remaining continuous flow problem as a plain LP.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from h2grid.chain import (CARRIER_DEFAULTS, ImportSpec, ProductionParams,
                          TariffMap, TransportParams, _distance,
                          _trip_cost_bundle, annuity_factor,
                          build_chain_problem, decode_design, end_use_cost,
                          solve_chain)
from h2grid.demand import (DAYS_PER_YEAR, INDUSTRY, STATION_CARS,
                           STATION_TRUCKS, ConsumptionLocation)
from h2grid.errors import (ChainInfeasible, ConfigError, InvalidDepreciation,
                           StructurallyInfeasible)
from h2grid.grid import Node
from h2grid.lp import EQ, GE, LE, solve_lp, solve_milp
from problems import build_problem


class TestAnnuity:
    def test_default_rate(self):
        # 8% over 10 years: 0.08*1.08^10 / (1.08^10 - 1) = 0.149029
        assert annuity_factor(0.08, 10) == pytest.approx(0.149029, abs=1e-6)

    def test_zero_rate(self):
        assert annuity_factor(0.0, 20) == pytest.approx(0.05)

    def test_invalid_years(self):
        with pytest.raises(InvalidDepreciation):
            annuity_factor(0.08, 0)


def flat_tariffs(node_ids, price_eur_kwh=0.05):
    return TariffMap(ep_node={n: price_eur_kwh for n in node_ids},
                     ep_uniform=price_eur_kwh, ngp=0.03)


def industry_sink(sid, kg_day, x, y):
    return ConsumptionLocation(id=sid, kind=INDUSTRY, hd_kg_per_day=kg_day,
                               x=x, y=y)


def subset_oracle(problem):
    """Minimum objective over all open/closed patterns of the sites."""
    n = len(problem.candidates)
    lp = dataclasses.replace(problem.lp, binaries=())
    best = None
    for pattern in itertools.product((0.0, 1.0), repeat=n):
        lb = lp.lb.copy()
        ub = lp.ub.copy()
        for i, v in enumerate(pattern):
            lb[problem.x_vars[i]] = v
            ub[problem.x_vars[i]] = v
        sol = solve_lp(dataclasses.replace(lp, lb=lb, ub=ub))
        if sol.status != "Optimal":
            continue
        if best is None or sol.objective < best - 1e-9:
            best = sol.objective
    return best


class TestChainMILP:
    def test_single_candidate_forced(self):
        nodes = (Node(0, 0.0, 0.0),)
        sinks = (industry_sink(0, 20_000.0, 10.0, 0.0),)
        problem = build_chain_problem(sinks, nodes, flat_tariffs([0]),
                                      CARRIER_DEFAULTS["GH2"],
                                      ProductionParams())
        design = solve_chain(problem)
        assert design.x[0] == 1
        assert design.hp_kg_day[0] == pytest.approx(20_000.0)
        assert design.flows[(0, 0)] == pytest.approx(20_000.0)

    def test_cheap_tariff_wins(self):
        # equal distance, one candidate at half the power price
        nodes = (Node(0, 0.0, 10.0), Node(1, 0.0, -10.0))
        sinks = (industry_sink(0, 30_000.0, 40.0, 0.0),)
        tariffs = TariffMap(ep_node={0: 0.03, 1: 0.06}, ep_uniform=0.06,
                            ngp=0.03)
        design = solve_chain(build_chain_problem(
            sinks, nodes, tariffs, CARRIER_DEFAULTS["GH2"],
            ProductionParams()))
        assert design.x == {0: 1, 1: 0}

    def test_short_haul_wins_at_equal_tariff(self):
        nodes = (Node(0, 0.0, 0.0), Node(1, 500.0, 0.0))
        sinks = (industry_sink(0, 30_000.0, 10.0, 0.0),)
        design = solve_chain(build_chain_problem(
            sinks, nodes, flat_tariffs([0, 1]), CARRIER_DEFAULTS["GH2"],
            ProductionParams()))
        assert design.x == {0: 1, 1: 0}

    def test_import_only(self):
        # production capacity cannot cover demand without the terminal
        nodes = (Node(0, 0.0, 0.0),)
        production = ProductionParams(cap_max_mw=15.0)
        big = production.mw_to_kg_per_day(15.0) + 50_000.0
        sinks = (industry_sink(0, big, 5.0, 0.0),)
        imp = ImportSpec(node=0, x=0.0, y=0.0)
        design = solve_chain(build_chain_problem(
            sinks, nodes, flat_tariffs([0]), CARRIER_DEFAULTS["GH2"],
            production, import_spec=imp))
        assert design.import_kg_day > 0
        assert design.import_kg_day + sum(design.hp_kg_day.values()) == \
            pytest.approx(big)

    def test_supply_shortfall_raises(self):
        nodes = (Node(0, 0.0, 0.0),)
        sinks = (industry_sink(0, 10_000_000.0, 5.0, 0.0),)
        with pytest.raises(StructurallyInfeasible):
            build_chain_problem(sinks, nodes, flat_tariffs([0]),
                                CARRIER_DEFAULTS["GH2"], ProductionParams())

    def test_missing_tariff_raises(self):
        nodes = (Node(0, 0.0, 0.0), Node(1, 1.0, 0.0))
        sinks = (industry_sink(0, 1_000.0, 5.0, 0.0),)
        with pytest.raises(ConfigError):
            build_chain_problem(sinks, nodes, flat_tariffs([0]),
                                CARRIER_DEFAULTS["GH2"], ProductionParams())

    def test_matches_subset_oracle(self):
        rng = np.random.default_rng(4242)
        production = ProductionParams()
        for trial in range(30):
            n_cand = int(rng.integers(2, 6))
            n_sink = int(rng.integers(1, 5))
            nodes = tuple(Node(i, float(rng.uniform(0, 400)),
                               float(rng.uniform(0, 400)))
                          for i in range(n_cand))
            total = float(rng.uniform(0.3, 0.9)) * n_cand \
                * production.cap_max_kg_day
            shares = rng.dirichlet(np.ones(n_sink))
            sinks = tuple(industry_sink(j, float(total * shares[j]),
                                        float(rng.uniform(0, 400)),
                                        float(rng.uniform(0, 400)))
                          for j in range(n_sink))
            tariffs = TariffMap(
                ep_node={i: float(rng.uniform(0.01, 0.09))
                         for i in range(n_cand)},
                ep_uniform=0.05, ngp=0.03)
            carrier = CARRIER_DEFAULTS[
                ("GH2", "LH2", "LOHC")[trial % 3]]
            problem = build_chain_problem(sinks, nodes, tariffs, carrier,
                                          production)
            expected = subset_oracle(problem)
            design = solve_chain(problem)
            lp_part = design.objective_eur_year - sum(
                problem.constants.values())
            assert lp_part == pytest.approx(expected, abs=1e-4)

    def test_solution_postconditions(self):
        # capacity boxes, mass balance and flow conservation on a solved
        # multi-site instance
        rng = np.random.default_rng(9)
        nodes = tuple(Node(i, float(rng.uniform(0, 300)),
                           float(rng.uniform(0, 300))) for i in range(4))
        production = ProductionParams()
        sinks = tuple(industry_sink(j, 45_000.0,
                                    float(rng.uniform(0, 300)),
                                    float(rng.uniform(0, 300)))
                      for j in range(3))
        design = solve_chain(build_chain_problem(
            sinks, nodes, flat_tariffs(range(4)), CARRIER_DEFAULTS["LH2"],
            production))
        total = sum(design.hp_kg_day.values()) + design.import_kg_day
        assert total == pytest.approx(3 * 45_000.0)
        for node_id, open_flag in design.x.items():
            hp = design.hp_kg_day[node_id]
            if open_flag:
                assert production.cap_min_kg_day - 1e-6 <= hp \
                    <= production.cap_max_kg_day + 1e-6
            else:
                assert hp == pytest.approx(0.0, abs=1e-6)
        for sink in sinks:
            inflow = sum(kg for (src, dst), kg in design.flows.items()
                         if dst == sink.id)
            assert inflow == pytest.approx(sink.hd_kg_per_day, rel=1e-6)

    def test_objective_monotone_in_tariff(self):
        nodes = (Node(0, 0.0, 0.0), Node(1, 50.0, 0.0))
        sinks = (industry_sink(0, 40_000.0, 25.0, 0.0),)
        costs = []
        for price in (0.02, 0.05, 0.08):
            design = solve_chain(build_chain_problem(
                sinks, nodes, flat_tariffs([0, 1], price),
                CARRIER_DEFAULTS["GH2"], ProductionParams()))
            costs.append(design.objective_eur_year)
        assert costs[0] < costs[1] < costs[2]

    def test_component_accounting_closes(self):
        nodes = (Node(0, 0.0, 0.0),)
        sinks = (industry_sink(0, 20_000.0, 30.0, 0.0),)
        design = solve_chain(build_chain_problem(
            sinks, nodes, flat_tariffs([0]), CARRIER_DEFAULTS["LOHC"],
            ProductionParams()))
        assert sum(design.components.values()) == pytest.approx(
            design.objective_eur_year, rel=1e-9)


def random_chain(seed, by_volume, with_import, n_cand=20, n_sink=6):
    """A seeded siting instance whose sinks alternate industry and station
    kinds; the carrier cycles with the seed."""
    rng = np.random.default_rng(seed)
    nodes = tuple(Node(i, float(rng.uniform(0, 400)),
                       float(rng.uniform(0, 400))) for i in range(n_cand))
    kinds = (INDUSTRY, STATION_CARS, INDUSTRY, STATION_TRUCKS)
    sinks = []
    for j in range(n_sink):
        kind = kinds[j % 4]
        low, high = (5000.0, 30000.0) if kind == INDUSTRY else (300.0, 1500.0)
        sinks.append(ConsumptionLocation(
            j, kind, float(rng.uniform(low, high)),
            x=float(rng.uniform(0, 400)), y=float(rng.uniform(0, 400))))
    tariffs = TariffMap(ep_node={i: float(rng.uniform(0.02, 0.08))
                                 for i in range(n_cand)},
                        ep_uniform=0.05, ngp=0.03)
    imp = (ImportSpec(node=0, x=float(rng.uniform(0, 400)),
                      y=float(rng.uniform(0, 400))) if with_import else None)
    return build_chain_problem(
        tuple(sinks), nodes, tariffs,
        CARRIER_DEFAULTS[("GH2", "LH2", "LOHC")[seed % 3]],
        ProductionParams(),
        TransportParams(industry_frequency_by_volume=by_volume), imp)


def highs_milp(optimize, lp):
    """The same MILP solved by scipy's HiGHS to a relative gap of 1e-10."""
    kind = np.array(lp.senses)
    integrality = np.zeros(lp.n_vars)
    integrality[list(lp.binaries)] = 1
    return optimize.milp(
        lp.c, integrality=integrality, bounds=optimize.Bounds(lp.lb, lp.ub),
        constraints=optimize.LinearConstraint(
            lp.dense_matrix(), np.where(kind == LE, -np.inf, lp.rhs),
            np.where(kind == GE, np.inf, lp.rhs)),
        options={"mip_rel_gap": 1e-10})


# 20 candidates x 6 sinks, beyond subset enumeration: both
# industry_frequency_by_volume settings, import on and off
LARGE_CASES = [(200 + k, bool(k % 2), bool(k // 2 % 2)) for k in range(8)]


class TestSitingAgainstHighs:
    @pytest.mark.parametrize("seed, by_volume, with_import", LARGE_CASES)
    def test_matches_scipy_milp(self, seed, by_volume, with_import):
        optimize = pytest.importorskip("scipy.optimize")
        problem = random_chain(seed, by_volume, with_import)
        ref = highs_milp(optimize, problem.lp)
        assert ref.status == 0  # HiGHS proved optimality
        design = solve_chain(problem)  # raises unless "Optimal"
        lp_part = design.objective_eur_year - sum(problem.constants.values())
        assert lp_part == pytest.approx(ref.fun, rel=1e-6)
        assert all(kg > 1e-9 for kg in design.flows.values())

    def test_matches_scipy_milp_40x10_per_day(self):
        # 331 x 680 with 240 binaries; 71 of the 331 columns of the root
        # basis are structural, so most of every basis is slack columns
        optimize = pytest.importorskip("scipy.optimize")
        problem = random_chain(5, False, False, n_cand=40, n_sink=10)
        ref = highs_milp(optimize, problem.lp)
        assert ref.status == 0
        design = solve_chain(problem)
        lp_part = design.objective_eur_year - sum(problem.constants.values())
        assert lp_part == pytest.approx(ref.fun, rel=1e-6)

    def test_120x30_by_volume_tree(self):
        # 391 x 3,840 with 120 binaries; HiGHS's optimum is 236,755,459.98
        # EUR.  The entering column has a median of 7 nonzeros in 391 rows
        # over the tree's pivots, so each inverse update touches few rows.
        # 8 children stop their re-solve once their bound reaches the
        # incumbent; without that cutoff the tree takes 683 pivots
        sol = solve_milp(random_chain(5, True, False, 120, 30).lp)
        assert (sol.stats["nodes"], sol.stats["iterations"]) == (27, 539)
        assert sol.objective == pytest.approx(236_755_459.98, rel=1e-9)

    @pytest.mark.parametrize("seed, by_volume, with_import", LARGE_CASES)
    def test_work_counters(self, seed, by_volume, with_import):
        problem = random_chain(seed, by_volume, with_import)
        sol = solve_milp(problem.lp)
        stats = sol.stats
        assert set(stats) == {"nodes", "lp_solves", "iterations",
                              "dual_iterations", "cutoffs",
                              "max_duality_gap"}
        assert stats["lp_solves"] == stats["nodes"]  # the root solved once
        assert 0 < stats["dual_iterations"] < stats["iterations"]
        assert stats["max_duality_gap"] <= 1e-9
        again = solve_milp(problem.lp)  # the tree repeats bit for bit
        assert again.stats == stats
        assert again.x.tobytes() == sol.x.tobytes()


def per_triplet_chain_lp(sinks, candidates, tariffs, carrier, production,
                         transport, import_spec):
    """The siting LP built one variable and one coefficient at a time into
    a dense matrix: flows for every route, then a binary link for each route
    paid per day."""
    wacc = production.wacc
    total_demand = sum(s.hd_kg_per_day for s in sinks)
    pcc = (DAYS_PER_YEAR * production.ed_kwh_per_kg * production.ic_eur_per_kw
           / (production.flh * production.ee) * (1.0 + production.o_and_m)
           * annuity_factor(wacc, production.depreciation_years))
    coc_downstream = sum(
        (step.ec_kwh_per_kg * tariffs.ep_uniform
         + step.ngc_kwh_per_kg * tariffs.ngp) * (1.0 + step.loss)
        for step in carrier.consumption_steps) * DAYS_PER_YEAR
    source_cost = []
    for node in candidates:
        ep = tariffs.ep_node[node.id]
        coc_production = sum(
            (step.ec_kwh_per_kg * ep + step.ngc_kwh_per_kg * tariffs.ngp)
            * (1.0 + step.loss)
            for step in carrier.production_steps) * DAYS_PER_YEAR
        source_cost.append(sum((
            pcc, production.ec_kwh_per_kg * ep * DAYS_PER_YEAR,
            coc_production + coc_downstream)))
    if import_spec is not None:
        source_cost.append(sum((
            0.0, import_spec.cost_eur_per_kg * DAYS_PER_YEAR,
            coc_downstream)))

    cost, lb, ub, binaries = [], [], [], []

    def add_var(c=0.0, upper=np.inf, binary=False):
        cost.append(c)
        lb.append(0.0)
        ub.append(upper)
        if binary:
            binaries.append(len(cost) - 1)
        return len(cost) - 1

    x_vars, hp_vars = [], []
    for c in source_cost[:len(candidates)]:
        x_vars.append(add_var(upper=1.0, binary=True))
        hp_vars.append(add_var(c, production.cap_max_kg_day))
    points = list(candidates)
    if import_spec is not None:
        hp_vars.append(add_var(source_cost[-1], import_spec.cap_kg_per_day))
        points.append(import_spec)
    ht_vars, per_day_cost = {}, {}
    for pi, point in enumerate(points):
        for ci, sink in enumerate(sinks):
            hours, money, vehicle = _trip_cost_bundle(
                _distance(point, sink), transport, carrier, wacc)
            toc = money * DAYS_PER_YEAR
            tcc = hours / 24.0 * vehicle
            per_day = (sink.kind == INDUSTRY
                       and not transport.industry_frequency_by_volume)
            trips_per_kg = 1.0 / carrier.trailer_capacity_kg
            if per_day:
                per_day_cost[(pi, ci)] = toc + tcc
            ht_vars[(pi, ci)] = add_var(
                0.0 if per_day else toc * trips_per_kg + tcc * trips_per_kg,
                sink.hd_kg_per_day)
    y_vars = {route: add_var(c, 1.0, binary=True)
              for route, c in per_day_cost.items()}

    rows, senses, rhs = [], [], []

    def add_row(coeffs, sense, value):
        row = np.zeros(len(cost))
        for j, v in coeffs:
            row[j] += v
        rows.append(row)
        senses.append(sense)
        rhs.append(value)

    add_row([(v, 1.0) for v in hp_vars], EQ, total_demand)
    for x, hp in zip(x_vars, hp_vars):
        add_row([(hp, 1.0), (x, -production.cap_min_kg_day)], GE, 0.0)
        add_row([(hp, 1.0), (x, -production.cap_max_kg_day)], LE, 0.0)
    for pi, hp in enumerate(hp_vars):
        add_row([(ht_vars[(pi, ci)], 1.0) for ci in range(len(sinks))]
                + [(hp, -1.0)], LE, 0.0)
    for ci, sink in enumerate(sinks):
        add_row([(ht_vars[(pi, ci)], 1.0) for pi in range(len(points))],
                GE, sink.hd_kg_per_day)
    for (pi, ci), y in y_vars.items():
        big_m = max(sinks[ci].hd_kg_per_day, 1.0)
        add_row([(ht_vars[(pi, ci)], 1.0), (y, -big_m)], LE, 0.0)
    return build_problem(cost, rows, senses, rhs, lb, ub, binaries)


class TestArrayAssembly:
    """The array-built siting LP equals the per-triplet build exactly."""

    @pytest.mark.parametrize("by_volume", [True, False])
    @pytest.mark.parametrize("with_import", [True, False])
    @pytest.mark.parametrize("cap_min_mw", [0.0, 10.0])
    def test_matches_per_triplet_build(self, by_volume, with_import,
                                       cap_min_mw):
        rng = np.random.default_rng(
            [int(by_volume), int(with_import), int(cap_min_mw)])
        production = ProductionParams(cap_min_mw=cap_min_mw)
        transport = TransportParams(industry_frequency_by_volume=by_volume)
        kinds = (INDUSTRY, STATION_CARS, INDUSTRY, STATION_TRUCKS)
        for trial in range(10):
            n_cand = int(rng.integers(1, 6))
            nodes = tuple(Node(i, float(rng.uniform(0, 400)),
                               float(rng.uniform(0, 400)))
                          for i in range(n_cand))
            shares = rng.dirichlet(np.ones(int(rng.integers(1, 6))))
            demand = (float(rng.uniform(0.2, 0.9)) * n_cand
                      * production.cap_max_kg_day * shares)
            demand[0] = 0.5 if trial % 4 == 0 else demand[0]  # big-M of 1
            sinks = tuple(ConsumptionLocation(
                j, kinds[(trial + j) % 4], float(kg),
                x=float(rng.uniform(0, 400)), y=float(rng.uniform(0, 400)))
                for j, kg in enumerate(demand))
            tariffs = TariffMap(
                ep_node={i: float(rng.uniform(0.01, 0.09))
                         for i in range(n_cand)},
                ep_uniform=float(rng.uniform(0.02, 0.08)),
                ngp=float(rng.uniform(0.01, 0.05)))
            imp = (ImportSpec(node=0, x=float(rng.uniform(0, 400)),
                              y=float(rng.uniform(0, 400)))
                   if with_import else None)
            carrier = CARRIER_DEFAULTS[("GH2", "LH2", "LOHC")[trial % 3]]
            args = (sinks, nodes, tariffs, carrier, production, transport,
                    imp)
            got = build_chain_problem(*args).lp
            want = per_triplet_chain_lp(*args)
            for name in ("c", "lb", "ub", "rhs"):
                assert np.array_equal(getattr(got, name),
                                      getattr(want, name)), name
            assert np.array_equal(got.dense_matrix(), want.dense_matrix())
            assert np.array_equal(got.senses, want.senses)
            assert got.binaries == want.binaries


class TestDecodeChecks:
    """A tampered MILP solution fails the decoder's feasibility checks."""

    @pytest.mark.parametrize("column, change, message", [
        ("hp_vars", 1000.0, "production does not balance demand"),
        ("x_vars", -1.0, "production without siting at 0"),
        ("ht_vars", 1000.0, "transport exceeds production at 0"),
        ("ht_vars", -1000.0, "demand unmet at sink 0"),
        ("y_vars", -1.0, "flow on a closed connection"),
    ])
    def test_tampered_solution(self, column, change, message):
        nodes = (Node(0, 0.0, 0.0), Node(1, 400.0, 0.0))
        sinks = (industry_sink(0, 20_000.0, 10.0, 0.0),
                 industry_sink(1, 8_000.0, 390.0, 0.0))
        problem = build_chain_problem(
            sinks, nodes, flat_tariffs([0, 1]), CARRIER_DEFAULTS["GH2"],
            ProductionParams(),
            TransportParams(industry_frequency_by_volume=False))
        sol = solve_milp(problem.lp)
        assert decode_design(problem, sol.x, sol.objective).x[0] == 1
        values = sol.x.copy()
        values[getattr(problem, column).flat[0]] += change
        with pytest.raises(ChainInfeasible, match=message):
            decode_design(problem, values, sol.objective)


class TestEndUseCost:
    def test_per_kg_breakdown(self):
        nodes = (Node(0, 0.0, 0.0),)
        sinks = (industry_sink(0, 20_000.0, 30.0, 0.0),)
        design = solve_chain(build_chain_problem(
            sinks, nodes, flat_tariffs([0]), CARRIER_DEFAULTS["GH2"],
            ProductionParams()))
        breakdown = end_use_cost(design)
        assert breakdown["total"] == pytest.approx(
            sum(v for k, v in breakdown.items() if k != "total"))
        assert "SCC" not in breakdown  # industry only
        assert breakdown["total"] * design.annual_kg == pytest.approx(
            design.objective_eur_year)

    def test_served_mass_must_be_positive(self):
        nodes = (Node(0, 0.0, 0.0),)
        sinks = (industry_sink(0, 20_000.0, 30.0, 0.0),)
        design = solve_chain(build_chain_problem(
            sinks, nodes, flat_tariffs([0]), CARRIER_DEFAULTS["GH2"],
            ProductionParams()))
        from h2grid.errors import DivisionDomain
        with pytest.raises(DivisionDomain):
            end_use_cost(design, served_kg_per_year=0.0)
