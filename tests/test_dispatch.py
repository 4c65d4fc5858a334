"""Dispatch model tests.

The two-node worked instance: cheap 100 MW plant at node 0 (10 EUR/MWh),
expensive 100 MW plant at node 1 (50 EUR/MWh), 120 MW of demand at node 1,
one 30 MW line.  The market sends 100 MW over the line; redispatch must move
70 MW of production from node 0 to node 1, which costs
70 * (50 - 10) = 2800 EUR and leaves the line exactly at its limit.
"""

import dataclasses

import numpy as np
import pytest
import yaml

import h2grid.dispatch
import h2grid.lp
from h2grid.cli import main
from h2grid.dispatch import (FLOW_TOL, MODE_NODAL, MODE_UNIFORM_REDISPATCH,
                             nodal_dispatch, redispatch, run_year,
                             uniform_dispatch)
from h2grid.errors import InfeasibleHour, InvalidProblem
from h2grid.grid import (DISPATCHABLE, Generator, Line, Node, PowerSystem,
                         compute_ptdf)
from h2grid.io import write_system
from h2grid.lp import EQ, GE, LE, solve_lp
from h2grid.synth import SyntheticSpec, generate_synthetic_system
from problems import build_problem
from test_lp import CorruptInverse, fingerprint


def two_node_system(demand_mw=120.0, line_cap=30.0, hours=1):
    nodes = [Node(0, 0.0, 0.0), Node(1, 100.0, 0.0)]
    lines = [Line(0, 0, 1, line_cap, 1.0)]
    gens = [Generator(0, 0, DISPATCHABLE, 10.0, 100.0),
            Generator(1, 1, DISPATCHABLE, 50.0, 100.0)]
    demand = np.zeros((hours, 2))
    demand[:, 1] = demand_mw
    return PowerSystem(tuple(nodes), tuple(lines), tuple(gens), demand,
                       compute_ptdf(nodes, lines, slack=0))


def three_node_system(demand_mw=(100.0,)):
    """A triangle of equal reactances with plants of 10, 20 and 50 EUR/MWh
    at nodes 0, 1 and 2 and the demand at node 2.

    At 100 MW the market sends 66.7 MW over corridor 0-2 (limit 60) and
    33.3 MW over 1-2 (limit 35), so only 0-2 is overloaded.  Relieving 0-2
    alone moves 20 MW to node 1 and loads 1-2 with 40 MW; the optimum
    (85, 10, 5 MW) binds both corridors, with nodal prices 10, 20 and 50.
    """
    nodes = [Node(0, 0.0, 0.0), Node(1, 100.0, 0.0), Node(2, 50.0, 80.0)]
    lines = [Line(0, 0, 1, 100.0, 1.0), Line(1, 0, 2, 60.0, 1.0),
             Line(2, 1, 2, 35.0, 1.0)]
    gens = [Generator(i, i, DISPATCHABLE, cost, 200.0)
            for i, cost in enumerate((10.0, 20.0, 50.0))]
    demand = np.zeros((len(demand_mw), 3))
    demand[:, 2] = demand_mw
    return PowerSystem(tuple(nodes), tuple(lines), tuple(gens), demand,
                       compute_ptdf(nodes, lines, slack=0))


def loop_injections(system, hour, generation):
    injections = -system.demand[hour].astype(float)
    for g, q in zip(system.generators, generation):
        injections[g.node] += q
    return injections


def corridor_flows(system, hour, generation):
    return system.ptdf.flows(loop_injections(system, hour, generation))


def loop_uniform(system, hour):
    """The scalar merit-order loop, as a reference for the array version:
    generation, price and cost."""
    gens = system.generators
    caps = [g.capacity_at(hour) for g in gens]
    order = sorted(range(len(gens)), key=lambda g: (gens[g].marginal_cost, g))
    q = np.zeros(len(gens))
    remaining = float(system.demand[hour].sum())
    price = min(gens[g].marginal_cost for g in order) if order else 0.0
    for g in order:
        if remaining <= 0:
            break
        take = min(caps[g], remaining)
        if take <= 0:
            continue
        q[g] = take
        remaining -= take
        price = gens[g].marginal_cost
    cost = float(sum(q[g] * gens[g].marginal_cost for g in range(len(gens))))
    return q, price, cost


def solve_both(log):
    """A stand-in for dispatch's solve_lp binding that also solves each
    network LP with every row active and logs (problem, lazy, full)."""
    def solve(problem):
        lazy = solve_lp(problem)
        log.append((problem, lazy,
                    solve_lp(dataclasses.replace(problem, lazy_rows=()))))
        return lazy
    return solve


class TestUniformDispatch:
    def test_merit_order(self):
        system = two_node_system()
        result = uniform_dispatch(system, 0)
        assert result.generation_mw[0] == pytest.approx(100.0)
        assert result.generation_mw[1] == pytest.approx(20.0)
        assert result.price == pytest.approx(50.0)
        assert result.cost_eur == pytest.approx(2000.0)

    def test_cheap_plant_only(self):
        system = two_node_system(demand_mw=80.0)
        result = uniform_dispatch(system, 0)
        assert result.price == pytest.approx(10.0)
        assert result.cost_eur == pytest.approx(800.0)

    def test_exact_capacity_boundary(self):
        system = two_node_system(demand_mw=100.0)
        result = uniform_dispatch(system, 0)
        assert result.generation_mw[0] == pytest.approx(100.0)
        assert result.price == pytest.approx(10.0)

    def test_zero_demand(self):
        system = two_node_system(demand_mw=0.0)
        result = uniform_dispatch(system, 0)
        assert result.cost_eur == 0.0
        assert result.price == pytest.approx(10.0)

    def test_excess_demand_raises(self):
        system = two_node_system(demand_mw=250.0)
        with pytest.raises(InfeasibleHour):
            uniform_dispatch(system, 0)

    def test_matches_scalar_loops_to_the_bit(self):
        # renewables share cost 0, so ties break on the generator index
        for seed in range(6):
            system = generate_synthetic_system(SyntheticSpec(
                seed=seed, n_nodes=8, n_lines=10, hours=12))
            for hour in range(12):
                result = uniform_dispatch(system, hour)
                q, price, cost = loop_uniform(system, hour)
                assert result.generation_mw.tobytes() == q.tobytes()
                assert (result.price, result.cost_eur) == (price, cost)
                assert (h2grid.dispatch._injections(system, hour, q).tobytes()
                        == loop_injections(system, hour, q).tobytes())


class TestRedispatch:
    def test_micro_oracle_2800(self):
        system = two_node_system()
        market = uniform_dispatch(system, 0)
        adj = redispatch(system, 0, market)
        assert adj.cost_eur == pytest.approx(2800.0, abs=1e-6)
        assert adj.delta_mw[0] == pytest.approx(-70.0, abs=1e-6)
        assert adj.delta_mw[1] == pytest.approx(70.0, abs=1e-6)
        # post-redispatch flow sits exactly on the 30 MW limit
        q = market.generation_mw + adj.delta_mw
        inj = np.array([q[0], q[1] - 120.0])
        flow = system.ptdf.flows(inj)[0]
        assert abs(flow) == pytest.approx(30.0, abs=1e-6)
        assert adj.nodal_prices == pytest.approx([10.0, 50.0], abs=1e-6)

    def test_zero_sum(self):
        system = two_node_system()
        adj = redispatch(system, 0, uniform_dispatch(system, 0))
        assert adj.delta_mw.sum() == pytest.approx(0.0, abs=1e-7)

    def test_no_congestion_is_free(self):
        system = two_node_system(line_cap=500.0)
        adj = redispatch(system, 0, uniform_dispatch(system, 0))
        assert adj.cost_eur == 0.0
        assert np.all(adj.delta_mw == 0.0)
        # no LP: the market price at every node
        assert adj.nodal_prices.tolist() == [50.0, 50.0]


class TestSolverErrorsNameTheHour:
    """An ``InvalidProblem`` from the network LP of an hour, the iteration
    limit included, names that hour."""

    def test_hour_prefixed(self, monkeypatch):
        def stalled(problem):
            raise InvalidProblem("simplex iteration limit exceeded")

        monkeypatch.setattr(h2grid.dispatch, "solve_lp", stalled)
        system = two_node_system(hours=3)
        for solve in (lambda: redispatch(system, 2,
                                         uniform_dispatch(system, 2)),
                      lambda: nodal_dispatch(system, 2)):
            with pytest.raises(InvalidProblem) as info:
                solve()
            assert str(info.value) == ("hour 2: simplex iteration limit "
                                       "exceeded")

    def test_nan_flow_goes_to_the_lp(self, monkeypatch):
        # a NaN flow is not within its limit, so the hour is not skipped as
        # uncongested, and the LP's check of its rhs names the hour
        monkeypatch.setattr(h2grid.dispatch, "_injections",
                            lambda system, hour, q: np.full(2, np.nan))
        system = two_node_system(line_cap=500.0)
        with pytest.raises(InvalidProblem, match=r"^hour 0: NaN or infinity "
                           r"in problem data$"):
            redispatch(system, 0, uniform_dispatch(system, 0))

    def test_unstable_pivot_element(self, monkeypatch):
        class Persistent(CorruptInverse):
            corruptions = -1  # never runs out

        monkeypatch.setattr(h2grid.lp, "_Simplex", Persistent)
        system = two_node_system(hours=2)
        with pytest.raises(InvalidProblem, match=r"^hour 1: unstable pivot "
                           r"element in dual at iteration 1$"):
            redispatch(system, 1, uniform_dispatch(system, 1))


class TestNodalDispatch:
    def test_two_node_prices(self):
        system = two_node_system()
        result = nodal_dispatch(system, 0)
        assert result.generation_mw[0] == pytest.approx(30.0, abs=1e-6)
        assert result.generation_mw[1] == pytest.approx(90.0, abs=1e-6)
        assert result.nodal_prices[0] == pytest.approx(10.0, abs=1e-6)
        assert result.nodal_prices[1] == pytest.approx(50.0, abs=1e-6)
        assert result.cost_eur == pytest.approx(4800.0, abs=1e-4)

    def test_cost_identity_on_worked_instance(self):
        system = two_node_system()
        market = uniform_dispatch(system, 0)
        adj = redispatch(system, 0, market)
        nodal = nodal_dispatch(system, 0)
        assert market.cost_eur + adj.cost_eur == pytest.approx(
            nodal.cost_eur, rel=1e-9)

    def test_excess_demand_raises_with_deficit(self, tmp_path, capsys):
        # 250 MW of demand against 200 MW of capacity: the merit order
        # would serve 200 MW, so the hour must fail as the uniform one does
        system = two_node_system(demand_mw=250.0)
        with pytest.raises(InfeasibleHour) as info:
            nodal_dispatch(system, 0)
        assert (info.value.hour, info.value.deficit_mw) == (0, 50.0)
        write_system(str(tmp_path), system)
        config = tmp_path / "net.yaml"
        config.write_text(yaml.safe_dump({"hours": 1, "inputs": {
            name: str(tmp_path / f"{name}.csv")
            for name in ("nodes", "lines", "generators", "demand")}}))
        assert main(["dispatch", "--config", str(config), "--mode", "nodal",
                     "--out", str(tmp_path / "o")]) == 3
        assert ("hour 0: demand exceeds available capacity"
                in capsys.readouterr().err)


def injection_form_nodal(system, hour):
    """Reference nodal LP in injection form: generator outputs plus one free
    injection per node, a balance row per node, zero net injection and the
    corridor limits on PTDF @ injection.  Returns (objective, node-balance
    duals); the duals are the nodal prices by definition."""
    ptdf = system.ptdf
    demand = system.demand[hour]
    n = system.n_nodes
    gens = system.generators
    n_gen, n_lines = len(gens), ptdf.entries.shape[0]
    # columns: generator outputs, then injections; rows: node balances, zero
    # net injection, then each corridor's upper and lower limit
    a = np.zeros((n + 1 + 2 * n_lines, n_gen + n))
    for i, g in enumerate(gens):
        a[g.node, i] = 1.0
    a[np.arange(n), n_gen + np.arange(n)] = -1.0
    a[n, n_gen:] = 1.0
    a[n + 1::2, n_gen:] = ptdf.entries
    a[n + 2::2, n_gen:] = ptdf.entries
    limit = ptdf.merged_capacity
    sol = solve_lp(build_problem(
        [g.marginal_cost for g in gens] + [0.0] * n, a,
        [EQ] * (n + 1) + [LE, GE] * n_lines,
        np.concatenate([demand, [0.0],
                        np.stack([limit, -limit], axis=1).ravel()]),
        [0.0] * n_gen + [-np.inf] * n,
        [g.capacity_at(hour) for g in gens] + [np.inf] * n))
    assert sol.optimal
    return sol.objective, sol.duals[:n]


class TestCostEquivalenceProperty:
    def test_random_systems(self):
        # uniform cost + redispatch objective equals the nodal optimum on
        # every hour of every random system, and the nodal prices equal the
        # node-balance duals of the injection-form reference LP
        rng = np.random.default_rng(1234)
        for trial in range(25):
            n = int(rng.integers(3, 9))
            spec = SyntheticSpec(
                seed=int(rng.integers(0, 10_000)), n_nodes=n,
                n_lines=min(n + int(rng.integers(0, 4)), n * (n - 1) // 2),
                hours=4, congestion=float(rng.uniform(0.2, 0.95)),
                mean_demand_mw=float(rng.uniform(50, 300)))
            system = generate_synthetic_system(spec)
            for hour in range(4):
                market = uniform_dispatch(system, hour)
                adj = redispatch(system, hour, market)
                nodal = nodal_dispatch(system, hour)
                assert market.cost_eur + adj.cost_eur == pytest.approx(
                    nodal.cost_eur, rel=1e-5, abs=1e-4)
                ref_cost, ref_prices = injection_form_nodal(system, hour)
                assert nodal.cost_eur == pytest.approx(ref_cost, rel=1e-9,
                                                       abs=1e-6)
                np.testing.assert_allclose(nodal.nodal_prices, ref_prices,
                                           rtol=0.0, atol=1e-9)


def equivalence_systems():
    """The random systems of TestCostEquivalenceProperty, drawn the same
    way."""
    rng = np.random.default_rng(1234)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        spec = SyntheticSpec(
            seed=int(rng.integers(0, 10_000)), n_nodes=n,
            n_lines=min(n + int(rng.integers(0, 4)), n * (n - 1) // 2),
            hours=4, congestion=float(rng.uniform(0.2, 0.95)),
            mean_demand_mw=float(rng.uniform(50, 300)))
        yield generate_synthetic_system(spec)


class TestScaledBlock:
    """The network LP hands the system's pre-scaled dense block to the
    simplex; the same LP given as triplets, which the simplex densifies and
    scales itself, is the reference and must give the same solution."""

    def test_matches_triplet_form(self, monkeypatch):
        pairs = []

        def solve(problem):
            block = problem.dense_matrix()
            rows, cols = np.nonzero(block)
            triplets = dataclasses.replace(
                problem, a_rows=rows, a_cols=cols, a_vals=block[rows, cols],
                matrix=None)
            pairs.append((solve_lp(problem), solve_lp(triplets)))
            return pairs[-1][0]

        monkeypatch.setattr(h2grid.dispatch, "solve_lp", solve)
        for system in equivalence_systems():
            for hour in range(4):
                nodal_dispatch(system, hour)
                redispatch(system, hour, uniform_dispatch(system, hour))
        assert len(pairs) > 100
        for got, want in pairs:
            assert got.status == want.status == "Optimal"
            np.testing.assert_array_equal(got.x, want.x)
            np.testing.assert_array_equal(got.duals, want.duals)
            assert got.objective == want.objective
            assert got.stats == want.stats


class TestDerivedNetworkLP:
    """Each hour's network LP is derived from the system's template
    (``DispatchTables.network``); the same LP given to the full
    ``LinearProblem`` constructor, which checks every field and shares
    nothing with the template, must solve to the same bytes."""

    def test_matches_full_constructor(self, monkeypatch):
        pairs = []

        def solve(problem):
            full = dataclasses.replace(problem)  # through __init__
            assert problem._structure is not None
            assert full._structure is None
            pairs.append((fingerprint(solve_lp(problem)),
                          fingerprint(solve_lp(full))))
            return solve_lp(problem)

        monkeypatch.setattr(h2grid.dispatch, "solve_lp", solve)
        for system in equivalence_systems():
            for hour in range(4):
                nodal_dispatch(system, hour)
                redispatch(system, hour, uniform_dispatch(system, hour))
        assert len(pairs) > 100
        for got, want in pairs:
            assert got == want


def same_summary(got, want):
    """Every field of two AnnualDispatchSummary values, bit for bit."""
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert (a is None) == (b is None), f.name
        if b is not None:
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name


class TestSystemTables:
    """The hour-independent dispatch data is built at a system's first
    dispatch and kept on that system alone: systems of the same shapes, one
    derived from another and one allocated where another was freed must
    each get their own."""

    HOURS = 6
    MODES = (MODE_NODAL, MODE_UNIFORM_REDISPATCH)

    def parts(self):
        """The generators and demand of three systems on one 12-node
        network: a synthetic year, its generators moved one node on and
        repriced, and its demand lowered by a tenth."""
        year = generate_synthetic_system(SyntheticSpec(
            seed=11, n_nodes=12, n_lines=16, hours=self.HOURS,
            congestion=0.9))
        moved = tuple(dataclasses.replace(
            g, node=(g.node + 1) % year.n_nodes,
            marginal_cost=1.5 * g.marginal_cost + 3.0)
            for g in year.generators)
        return year, [(year.generators, year.demand),
                      (moved, year.demand),
                      (year.generators, 0.9 * year.demand)]

    def runs(self, system):
        return [run_year(system, self.HOURS, mode) for mode in self.MODES]

    def test_interleaved_systems_match_fresh_copies(self):
        want = []
        for k in range(3):
            fresh, fresh_parts = self.parts()
            generators, demand = fresh_parts[k]
            want.append(self.runs(fresh.with_generators(generators)
                                  .with_demand(demand)))
        year, parts = self.parts()
        systems = [year, year.with_generators(parts[1][0]),
                   year.with_demand(parts[2][1])]
        assert all("dispatch_tables" not in vars(s) for s in systems)
        got = [[], [], []]
        for mode in self.MODES:
            for k, system in enumerate(systems):
                got[k].append(run_year(system, self.HOURS, mode))
        for k, system in enumerate(systems):
            assert vars(system)["dispatch_tables"] is system.dispatch_tables
            for g, w in zip(got[k], want[k]):
                same_summary(g, w)
        # each system freed before the next is made, which CPython then
        # allocates at the same address: a cache keyed by id() would hand
        # it the tables of the one before
        for k in (0, 1, 2, 1, 0, 2):
            system = PowerSystem(year.nodes, year.lines, *parts[k],
                                 year.ptdf)
            for g, w in zip(self.runs(system), want[k]):
                same_summary(g, w)
            del system

    def test_tables_are_read_only(self):
        system, _ = self.parts()
        nodal_dispatch(system, 0)
        tables = system.dispatch_tables
        network = tables.network
        block, structure = network.matrix, network._structure
        for arr in (block.scaled, block.row_scale, block.col_scale,
                    tables.capacity, tables.costs, tables.nodes,
                    tables.order, network.c, network.senses, structure.c,
                    structure.slack_lb, structure.slack_ub):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1


class TestRunYear:
    def test_aggregation(self):
        system = two_node_system(hours=24)
        summary = run_year(system, 24, MODE_UNIFORM_REDISPATCH)
        assert summary.hours == 24
        assert summary.mean_price == pytest.approx(50.0)
        assert summary.congestion_cost_eur == pytest.approx(24 * 2800.0)
        assert summary.total_energy_mwh == pytest.approx(24 * 120.0)
        assert np.all(summary.redispatch_cost_series
                      == pytest.approx(2800.0))

    def test_nodal_mode(self):
        system = two_node_system(hours=6)
        summary = run_year(system, 6, MODE_NODAL)
        assert summary.nodal_price_series.shape == (6, 2)
        assert summary.mean_nodal_prices[0] == pytest.approx(10.0, abs=1e-6)
        assert summary.mean_nodal_prices[1] == pytest.approx(50.0, abs=1e-6)

    def test_nodal_year_reports_its_redispatch_cost(self):
        # the nodal LP is the redispatch LP, so both modes report the same
        # redispatch series, congestion cost and nodal prices, bit for bit
        congested = 0
        for seed, n_nodes in ((60, 60), (7, 10), (5, 24)):
            system = generate_synthetic_system(SyntheticSpec(
                seed=seed, n_nodes=n_nodes, n_lines=int(1.4 * n_nodes),
                hours=24, congestion=0.85))
            nodal = run_year(system, 24, MODE_NODAL)
            both = run_year(system, 24, MODE_UNIFORM_REDISPATCH)
            assert np.array_equal(nodal.redispatch_cost_series,
                                  both.redispatch_cost_series)
            assert np.array_equal(nodal.nodal_price_series,
                                  both.nodal_price_series)
            zeros = nodal.redispatch_cost_series == 0.0
            assert not np.signbit(nodal.redispatch_cost_series[zeros]).any()
            assert nodal.congestion_cost_eur == both.congestion_cost_eur
            congested += int(np.count_nonzero(nodal.redispatch_cost_series))
        assert 0 < congested < 72  # congested and uncongested hours

    def test_overload_below_flow_tol(self):
        # 30.0000005 MW of demand at node 1 loads the 30 MW line by 5e-7 MW,
        # within FLOW_TOL: redispatch solves no LP, so the uniform+redispatch
        # year's nodal view is the merit price at both nodes.  The nodal LP
        # checks its lazy corridor rows at FEAS_TOL (1e-7), adds the row and
        # moves 5e-7 MW to node 1, which prices that node at 50
        over = 5e-7
        assert 1e-7 < over < FLOW_TOL
        system = two_node_system(demand_mw=30.0 + over)
        both = run_year(system, 1, MODE_UNIFORM_REDISPATCH)
        assert both.nodal_price_series.tolist() == [[10.0, 10.0]]
        assert both.redispatch_cost_series.tolist() == [0.0]
        assert both.generation_mwh.tolist() == [30.0 + over, 0.0]
        nodal = run_year(system, 1, MODE_NODAL)
        assert nodal.nodal_price_series[0] == pytest.approx([10.0, 50.0])
        assert nodal.redispatch_cost_series[0] == pytest.approx(
            over * (50.0 - 10.0))

    def test_identical_hours_identical_results(self):
        system = two_node_system(hours=3)
        summary = run_year(system, 3, MODE_UNIFORM_REDISPATCH)
        assert len(set(summary.price_series.tolist())) == 1


class TestLazyCorridorRows:
    """The network LP starts from the corridors the hour's merit-order
    dispatch overloads and adds the others as an optimum violates them; it
    must give what the LP with every corridor row gives."""

    def test_matches_full_lp_on_random_systems(self, monkeypatch):
        log = []
        monkeypatch.setattr(h2grid.dispatch, "solve_lp", solve_both(log))
        rng = np.random.default_rng(4242)
        rounds, unique = [], 0
        for n in (6, 15, 30):
            for _ in range(3):
                system = generate_synthetic_system(SyntheticSpec(
                    seed=int(rng.integers(0, 10_000)), n_nodes=n,
                    n_lines=n + n // 3, hours=6,
                    congestion=float(rng.uniform(0.6, 0.95))))
                limit = system.ptdf.merged_capacity + FLOW_TOL
                del log[:]
                for hour in range(6):
                    nodal = nodal_dispatch(system, hour)
                    market = uniform_dispatch(system, hour)
                    adj = redispatch(system, hour, market)
                    for gen in (nodal.generation_mw,
                                market.generation_mw + adj.delta_mw):
                        flows = corridor_flows(system, hour, gen)
                        assert np.all(np.abs(flows) <= limit)
                for problem, lazy, full in log:
                    assert lazy.status == full.status == "Optimal"
                    assert abs(lazy.objective - full.objective) <= \
                        1e-9 * max(1.0, abs(full.objective))
                    rounds.append(lazy.stats["rounds"])
                    # the duals are unique at a nondegenerate vertex: as
                    # many generators strictly inside their bounds as rows
                    # that bind
                    x = full.x
                    inside = ((x > problem.lb + 1e-7)
                              & (x < problem.ub - 1e-7)).sum()
                    slack = problem.rhs - problem.dense_matrix() @ x
                    if inside == (np.abs(slack) <= 1e-7).sum():
                        unique += 1
                        ptdf = system.ptdf.entries.T
                        np.testing.assert_allclose(
                            lazy.duals[0] + ptdf @ (lazy.duals[1::2]
                                                    + lazy.duals[2::2]),
                            full.duals[0] + ptdf @ (full.duals[1::2]
                                                    + full.duals[2::2]),
                            rtol=0.0, atol=1e-7)
        assert max(rounds) >= 2 and unique > 0

    def test_seed_misses_a_binding_corridor(self, monkeypatch):
        log = []
        monkeypatch.setattr(h2grid.dispatch, "solve_lp", solve_both(log))
        system = three_node_system()
        result = nodal_dispatch(system, 0)
        (problem, lazy, full), = log
        # of the six corridor rows, only the overloaded direction of 0-2
        # starts active
        assert len(problem.lazy_rows) == 5
        assert lazy.stats["rounds"] == 2
        assert result.generation_mw == pytest.approx([85.0, 10.0, 5.0])
        np.testing.assert_allclose(result.nodal_prices, [10.0, 20.0, 50.0],
                                   rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(lazy.duals, full.duals, rtol=0.0,
                                   atol=1e-9)


class TestBenchmarkCountingRules:
    """The benchmark counts one LP solve per nodal hour and per congested
    hour and one uniform dispatch per uniform+redispatch hour, through
    dispatch's module bindings; the lazy rounds stay inside solve_lp."""

    def test_calls_per_hour(self, monkeypatch):
        system = three_node_system((100.0, 30.0, 95.0, 100.0))
        limit = system.ptdf.merged_capacity + FLOW_TOL
        congested = sum(
            bool(np.any(np.abs(corridor_flows(
                system, t, uniform_dispatch(system, t).generation_mw))
                > limit))
            for t in range(4))
        assert congested == 3

        solutions, uniform_calls = [], []
        real_solve = h2grid.dispatch.solve_lp
        real_uniform = h2grid.dispatch.uniform_dispatch

        def solve(problem):
            solutions.append(real_solve(problem))
            return solutions[-1]

        def uniform(system, hour):
            uniform_calls.append(hour)
            return real_uniform(system, hour)

        monkeypatch.setattr(h2grid.dispatch, "solve_lp", solve)
        monkeypatch.setattr(h2grid.dispatch, "uniform_dispatch", uniform)
        run_year(system, 4, MODE_NODAL)
        assert len(solutions) == 4 and uniform_calls == []
        assert max(s.stats["rounds"] for s in solutions) == 2
        nodal = solutions[:]
        del solutions[:]
        run_year(system, 4, MODE_UNIFORM_REDISPATCH)
        assert uniform_calls == [0, 1, 2, 3]
        assert len(solutions) == congested
        assert max(s.stats["rounds"] for s in solutions) == 2
        # every iteration is a dual simplex pivot
        for s in nodal + solutions:
            assert s.stats["iterations"] == (s.stats["phase1_iterations"]
                                             + s.stats["dual_iterations"])


class TestMeritOrderStart:
    """Every network LP starts at the hour's merit-order vertex and is
    solved by the dual simplex alone: no phase 1, and
    few iterations (a start from zero generation took 41, 76 and 172 per
    nodal LP on these systems)."""

    MAX_MEAN_NODAL_ITERATIONS = 40  # 2.3, 6.3 and 14.3 measured

    def test_no_phase_1_and_few_iterations(self, monkeypatch):
        log = []
        real_solve = h2grid.dispatch.solve_lp

        def solve(problem):
            sol = real_solve(problem)
            log.append(sol.stats)
            return sol

        monkeypatch.setattr(h2grid.dispatch, "solve_lp", solve)
        for seed, n, hours in ((3, 30, 6), (5, 60, 6), (7, 120, 4)):
            system = generate_synthetic_system(SyntheticSpec(
                seed=seed, n_nodes=n, n_lines=int(1.3 * n), hours=hours,
                congestion=0.85))
            nodal, congested = [], []
            for hour in range(hours):
                nodal_dispatch(system, hour)
                nodal.append(log.pop())
                redispatch(system, hour, uniform_dispatch(system, hour))
                congested += log
                del log[:]
            assert congested
            for stats in nodal + congested:
                assert stats["phase1_iterations"] == 0
                # every iteration is a dual simplex pivot
                assert stats["iterations"] == (stats["phase1_iterations"]
                                               + stats["dual_iterations"])
            assert (np.mean([stats["iterations"] for stats in nodal])
                    < self.MAX_MEAN_NODAL_ITERATIONS)
