"""End-to-end acceptance checks.

Each test prints one ``criterion N: PASS|FAIL`` line (bypassing pytest's
capture) so a run shows the acceptance status at a glance:

1. industrial demand and station-count reproduction,
2. uniform + redispatch equals nodal dispatch cost on random systems,
3. chain solver matches exhaustive subset enumeration,
4. congestion signs on the congested 10-node fixture,
5. end-use cost orderings across tariff designs,
6. two-node redispatch micro oracle,
7. solver invariants (duality, zero sum, boxes, balances, link big-M),
8. repeated study runs reproduce the golden output tree byte for byte.
"""

import contextlib
import dataclasses
import filecmp
import itertools
import os
import sys
import time

import numpy as np
import pytest
import yaml

from h2grid.chain import (CARRIER_DEFAULTS, ProductionParams, TariffMap,
                          build_chain_problem, solve_chain)
from h2grid.cli import main
from h2grid.demand import (INDUSTRY, TRUCK_STATION_TURNOVER,
                           ConsumptionLocation, IndustrialSite,
                           industrial_site_demand, station_count)
from h2grid.dispatch import (nodal_dispatch, redispatch, uniform_dispatch)
from h2grid.errors import InfeasibleHour
from h2grid.grid import (DISPATCHABLE, Generator, Line, Node, PowerSystem,
                         compute_ptdf)
from h2grid.lp import LE, solve_lp
from h2grid.pipeline import (FLAT, NODAL, REAL_TIME, Scenario, UNIFORM,
                             run_full_study)
from h2grid.synth import (SyntheticSpec, congested_fixture,
                          generate_synthetic_system)
from problems import build_problem

TWH = 1e9  # kWh


@contextlib.contextmanager
def criterion(num, detail):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {detail}", file=sys.__stdout__)
        raise
    print(f"criterion {num}: PASS - {detail}", file=sys.__stdout__)


@pytest.fixture(scope="module")
def fixture_study():
    case = congested_fixture(seed=20240, hours=168)
    scenarios = [Scenario(spatial=s, temporal=t, carrier="LH2")
                 for s in (UNIFORM, NODAL) for t in (FLAT, REAL_TIME)]
    report = run_full_study(case, scenarios)
    return {r.scenario.name: r for r in report.results}, report


def random_systems(n_systems, seed=77):
    rng = np.random.default_rng(seed)
    for _ in range(n_systems):
        n_nodes = int(rng.integers(4, 13))
        spec = SyntheticSpec(
            seed=int(rng.integers(0, 1_000_000)),
            n_nodes=n_nodes,
            n_lines=min(20, n_nodes - 1 + int(rng.integers(1, 6))),
            hours=int(rng.integers(4, 25)),
            congestion=float(rng.uniform(0.2, 0.95)),
            mean_demand_mw=float(rng.uniform(80.0, 260.0)))
        yield spec, generate_synthetic_system(spec)


def random_chain_instance(rng, trial):
    production = ProductionParams()
    n_cand = int(rng.integers(1, 6))
    n_sink = int(rng.integers(1, 5))
    nodes = tuple(Node(i, float(rng.uniform(0, 400)),
                       float(rng.uniform(0, 400))) for i in range(n_cand))
    total = float(rng.uniform(0.3, 0.9)) * n_cand * production.cap_max_kg_day
    shares = rng.dirichlet(np.ones(n_sink))
    sinks = tuple(
        ConsumptionLocation(id=j, kind=INDUSTRY,
                            hd_kg_per_day=float(total * shares[j]),
                            x=float(rng.uniform(0, 400)),
                            y=float(rng.uniform(0, 400)))
        for j in range(n_sink))
    tariffs = TariffMap(
        ep_node={i: float(rng.uniform(0.01, 0.09)) for i in range(n_cand)},
        ep_uniform=0.05, ngp=0.03)
    carrier = CARRIER_DEFAULTS[("GH2", "LH2", "LOHC")[trial % 3]]
    return build_chain_problem(sinks, nodes, tariffs, carrier, production), \
        sinks, production


def subset_oracle(problem):
    lp = dataclasses.replace(problem.lp, binaries=())
    best = None
    for pattern in itertools.product((0.0, 1.0),
                                     repeat=len(problem.candidates)):
        lb, ub = lp.lb.copy(), lp.ub.copy()
        for i, v in enumerate(pattern):
            lb[problem.x_vars[i]] = v
            ub[problem.x_vars[i]] = v
        sol = solve_lp(dataclasses.replace(lp, lb=lb, ub=ub))
        if sol.status == "Optimal" and (best is None or sol.objective < best):
            best = sol.objective
    return best


def two_node_system():
    nodes = [Node(0, 0.0, 0.0), Node(1, 100.0, 0.0)]
    lines = [Line(0, 0, 1, 30.0, 1.0)]
    gens = [Generator(0, 0, DISPATCHABLE, 10.0, 100.0),
            Generator(1, 1, DISPATCHABLE, 50.0, 100.0)]
    demand = np.array([[0.0, 120.0]])
    return PowerSystem(tuple(nodes), tuple(lines), tuple(gens), demand,
                       compute_ptdf(nodes, lines, slack=0))


def check_chain_properties(design, sinks, production):
    """Capacity boxes and mass balances on one solved design."""
    for node_id, open_flag in design.x.items():
        hp = design.hp_kg_day[node_id]
        if open_flag:
            assert production.cap_min_kg_day - 1e-6 <= hp \
                <= production.cap_max_kg_day + 1e-6
        else:
            assert abs(hp) <= 1e-6
    produced = sum(design.hp_kg_day.values()) + design.import_kg_day
    demanded = sum(s.hd_kg_per_day for s in sinks)
    assert produced == pytest.approx(demanded, rel=1e-6)
    for sink in sinks:
        inflow = sum(kg for (_, dst), kg in design.flows.items()
                     if dst == sink.id)
        assert inflow == pytest.approx(sink.hd_kg_per_day, rel=1e-6)


def test_criterion_1_demand_reproduction():
    with criterion(1, "industrial demand totals and truck station count"):
        start = time.time()
        totals = {
            "ammonia": (IndustrialSite("ammonia", "ammonia",
                                       "tons_per_year", 2_955_000.0), 17.49),
            "steel_hourly": (IndustrialSite("dr-steel", "steel",
                                            "kg_per_hour", 7_400.0), 2.1606),
            "steel_annual": (IndustrialSite(
                "big-steel", "steel", "tons_h2_per_year", 200_000.0,
                deduction_kg_per_hour=1_700.0), 6.17),
            "methanol": (IndustrialSite("methanol", "methanol",
                                        "tons_per_year", 1_865_000.0), 11.73),
            "refinery": (IndustrialSite("refinery", "refinery",
                                        "tons_per_year", 87_013_000.0), 4.29),
        }
        for site, expected_twh in totals.values():
            got = industrial_site_demand(site) / TWH
            assert got == pytest.approx(expected_twh, abs=0.01), site.name
        assert station_count(1.0 * TWH, TRUCK_STATION_TURNOVER) == 97
        assert time.time() - start < 1.0


def test_criterion_2_dispatch_equivalence():
    with criterion(2, "uniform + redispatch cost equals nodal cost"):
        start = time.time()
        checked = 0
        for spec, system in random_systems(100):
            for hour in range(spec.hours):
                try:
                    market = uniform_dispatch(system, hour)
                except InfeasibleHour:
                    continue
                adj = redispatch(system, hour, market)
                nodal = nodal_dispatch(system, hour)
                total = market.cost_eur + adj.cost_eur
                scale = max(1.0, abs(nodal.cost_eur))
                assert abs(total - nodal.cost_eur) <= 1e-5 * scale, \
                    (spec.seed, hour)
                checked += 1
        assert checked >= 100
        assert time.time() - start < 120.0


def test_criterion_3_chain_oracle_equivalence():
    with criterion(3, "chain solver matches subset enumeration"):
        start = time.time()
        rng = np.random.default_rng(20_204)
        for trial in range(50):
            problem, _, _ = random_chain_instance(rng, trial)
            expected = subset_oracle(problem)
            design = solve_chain(problem)
            lp_part = design.objective_eur_year - sum(
                problem.constants.values())
            assert lp_part == pytest.approx(expected, abs=1e-4), trial
        assert time.time() - start < 120.0


def test_criterion_4_congestion_signs(fixture_study):
    with criterion(4, "congestion up under uniform-flat, down under "
                      "nodal-flat"):
        results, report = fixture_study
        base = report.baseline_congestion_eur
        assert results["uniform_flat_LH2"].congestion_cost_eur > base
        assert results["nodal_flat_LH2"].congestion_cost_eur < base


def test_criterion_5_end_use_cost_ordering(fixture_study):
    with criterion(5, "real-time beats flat, nodal beats uniform"):
        results, _ = fixture_study
        cost = {name: r.breakdown["total"] for name, r in results.items()}
        slack = 1e-6
        for spatial in (UNIFORM, NODAL):
            assert cost[f"{spatial}_real_time_LH2"] <= \
                cost[f"{spatial}_flat_LH2"] + slack
        for temporal in (FLAT, REAL_TIME):
            assert cost[f"nodal_{temporal}_LH2"] <= \
                cost[f"uniform_{temporal}_LH2"] + slack


def test_criterion_6_redispatch_micro_oracle():
    with criterion(6, "two-node redispatch costs 2800 EUR at the 30 MW "
                      "limit"):
        system = two_node_system()
        market = uniform_dispatch(system, 0)
        adj = redispatch(system, 0, market)
        assert adj.cost_eur == pytest.approx(2800.0, abs=1e-6)
        q = market.generation_mw + adj.delta_mw
        flow = system.ptdf.flows(np.array([q[0], q[1] - 120.0]))[0]
        assert abs(flow) == pytest.approx(30.0, abs=1e-6)


def test_criterion_7_solver_invariants():
    with criterion(7, "duality, zero-sum, boxes, balances, link big-M"):
        # weak and strong duality plus dual sign feasibility on random LPs
        rng = np.random.default_rng(5150)
        for _ in range(30):
            n, m = int(rng.integers(2, 7)), int(rng.integers(1, 5))
            # draws in the order cost, bound per column, then a row's
            # coefficients and its rhs
            c, ub = np.array([(rng.normal(), rng.uniform(1.0, 5.0))
                              for _ in range(n)]).T
            rows = np.array([np.append(rng.normal(size=n),
                                       rng.uniform(0.5, 4.0))
                             for _ in range(m)])
            sol = solve_lp(build_problem(c, rows[:, :n], [LE] * m,
                                         rows[:, n], np.zeros(n), ub))
            assert sol.status == "Optimal"
            assert abs(sol.duality_gap) <= 1e-6 * max(1.0,
                                                      abs(sol.objective))
            assert np.all(sol.duals <= 1e-9)

        # zero-sum redispatch on random congested systems
        for spec, system in random_systems(20, seed=31):
            for hour in range(min(4, spec.hours)):
                try:
                    market = uniform_dispatch(system, hour)
                except InfeasibleHour:
                    continue
                adj = redispatch(system, hour, market)
                assert abs(adj.delta_mw.sum()) <= 1e-6

        # capacity boxes, mass balance and link big-M on chain designs
        rng = np.random.default_rng(808)
        for trial in range(10):
            problem, sinks, production = random_chain_instance(rng, trial)
            check_chain_properties(solve_chain(problem), sinks, production)


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden",
                          "congested10_168h")
GOLDEN_CONFIG = {
    "fixture": "congested10", "hours": 168,
    "scenarios": [{"spatial": s, "temporal": t, "carrier": "LH2"}
                  for s in ("uniform", "nodal")
                  for t in ("flat", "real_time")]}


def test_criterion_8_study_determinism(tmp_path):
    with criterion(8, "repeated study runs match the golden tree byte for "
                      "byte"):
        config = tmp_path / "study.yaml"
        with open(config, "w") as fh:
            yaml.safe_dump(GOLDEN_CONFIG, fh)
        golden = sorted(os.listdir(GOLDEN_DIR))
        for run in ("run_a", "run_b"):
            out = tmp_path / run
            assert main(["study", "--config", str(config),
                         "--out", str(out)]) == 0
            assert sorted(os.listdir(out)) == golden
            for name in golden:
                assert filecmp.cmp(out / name,
                                   os.path.join(GOLDEN_DIR, name),
                                   shallow=False), (run, name)
