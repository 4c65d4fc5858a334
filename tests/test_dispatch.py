"""Dispatch model tests.

The two-node worked instance: cheap 100 MW plant at node 0 (10 EUR/MWh),
expensive 100 MW plant at node 1 (50 EUR/MWh), 120 MW of demand at node 1,
one 30 MW line.  The market sends 100 MW over the line; redispatch must move
70 MW of production from node 0 to node 1, which costs
70 * (50 - 10) = 2800 EUR and leaves the line exactly at its limit.
"""

import dataclasses
import math

import numpy as np
import pytest
import yaml

import h2grid.dispatch
import h2grid.lp
import h2grid.pipeline
from h2grid.cli import main
from h2grid.dispatch import (FLOW_TOL, MODE_NODAL, MODE_UNIFORM_REDISPATCH,
                             nodal_dispatch, redispatch, run_year,
                             uniform_dispatch)
from h2grid.errors import InfeasibleHour, InfeasibleRedispatch, InvalidProblem
from h2grid.grid import (DISPATCHABLE, Generator, Line, Node, PowerSystem,
                         compute_ptdf)
from h2grid.io import write_system
from h2grid.lp import EQ, GE, LE, solve_lp
from h2grid.pipeline import (FLAT, NODAL, REAL_TIME, UNIFORM, Scenario,
                             run_full_study)
from h2grid.synth import (SyntheticSpec, congested_fixture,
                          generate_synthetic_system)
from problems import build_problem
import test_lp
from test_lp import CorruptInverse, fingerprint, highs


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
    simplex; the same LP given as triplets, which the constructor densifies
    and scales, is the reference and must give the same solution."""

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
    (``DispatchTables.network``) and shares its scaled costs and slack
    bounds; the same LP given to the full ``LinearProblem`` constructor,
    which checks every field and sets arrays of its own, must solve to the
    same bytes."""

    def test_matches_full_constructor(self, monkeypatch):
        pairs = []

        def solve(problem):
            full = dataclasses.replace(problem)  # through __init__
            network = system.dispatch_tables.network
            for name in ("_scaled_c", "_slack_lb", "_slack_ub"):
                assert getattr(problem, name) is getattr(network, name)
                assert getattr(full, name) is not getattr(network, name)
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
    dispatch and kept on that system, whose network part only systems
    derived with the same generator nodes and costs share
    (``TestSharedNetworkTables``): systems of the same shapes, one derived
    from another and one allocated where another was freed must each get
    tables of their own data."""

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
        block = network.matrix
        for arr in (block.scaled, block.row_scale, block.col_scale,
                    tables.capacity, tables.costs, tables.nodes,
                    tables.order, network.c, network.senses,
                    network._scaled_c, network._slack_lb, network._slack_ub):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1


class TestSharedNetworkTables:
    """Systems on one PTDF whose generators have the same nodes and
    marginal costs, byte for byte, share one ``NetworkTables``, built by
    whichever of them dispatches first: its network LP template and merit
    order are the same objects, and the results are those of a fresh
    system with tables of its own.  Any other change of the generators
    gets a template of its own."""

    HOURS = 6
    MODES = (MODE_NODAL, MODE_UNIFORM_REDISPATCH)

    def year(self):
        return generate_synthetic_system(SyntheticSpec(
            seed=11, n_nodes=12, n_lines=16, hours=self.HOURS,
            congestion=0.9))

    def check_matches_fresh(self, system):
        # a copy of the PTDF has a template slot of its own
        fresh = PowerSystem(system.nodes, system.lines, system.generators,
                            system.demand, dataclasses.replace(system.ptdf))
        for mode in self.MODES:
            same_summary(run_year(system, self.HOURS, mode),
                         run_year(fresh, self.HOURS, mode))
        assert fresh.dispatch_tables.network is not (
            system.dispatch_tables.network)

    def test_equal_generators_share_one_template(self):
        year = self.year()
        rescaled = tuple(
            g if g.profile is None
            else dataclasses.replace(g, profile=1.5 * g.profile)
            for g in year.generators)
        others = [year.with_demand(0.9 * year.demand),
                  year.with_generators(rescaled),
                  year.with_generators(list(year.generators))
                  .with_demand(1.05 * year.demand),
                  dataclasses.replace(year, demand=0.9 * year.demand),
                  PowerSystem(year.nodes, year.lines, rescaled,
                              1.1 * year.demand, year.ptdf)]
        # another system dispatches first and builds the shared part
        for system in others:
            self.check_matches_fresh(system)
        network = year.dispatch_tables.network
        for system in others:
            tables = system.dispatch_tables
            assert tables.network is network
            assert tables.order is year.dispatch_tables.order
            assert tables.capacity is not year.dispatch_tables.capacity
        assert not np.array_equal(others[1].dispatch_tables.capacity,
                                  year.dispatch_tables.capacity)

    def test_changed_generators_get_their_own(self):
        year = self.year()
        gens = year.generators
        free = next(j for j, g in enumerate(gens) if g.marginal_cost == 0.0)

        def at(j, **changes):
            return (gens[:j] + (dataclasses.replace(gens[j], **changes),)
                    + gens[j + 1:])

        variants = {
            "moved": year.with_generators(
                at(0, node=(gens[0].node + 1) % year.n_nodes)),
            "repriced": year.with_generators(
                at(0, marginal_cost=gens[0].marginal_cost + 1.0)),
            "negative zero": year.with_generators(at(free,
                                                     marginal_cost=-0.0)),
            "one more": year.with_generators(gens + gens[:1]),
        }
        nodal_dispatch(year, 0)
        for name, system in variants.items():
            assert system.dispatch_tables.network is not (
                year.dispatch_tables.network), name
            self.check_matches_fresh(system)

    def test_cost_dtype_and_nan(self):
        system = two_node_system(hours=self.HOURS)
        gens = system.generators
        ints = system.with_generators(
            dataclasses.replace(g, marginal_cost=int(g.marginal_cost))
            for g in gens)
        nan = system.with_generators(
            (dataclasses.replace(gens[0], marginal_cost=np.nan),) + gens[1:])
        nodal_dispatch(system, 0)
        assert ints.dispatch_tables.costs.dtype.kind == "i"
        assert ints.dispatch_tables.network is not (
            system.dispatch_tables.network)
        self.check_matches_fresh(ints)
        for _ in range(2):
            with pytest.raises(InvalidProblem, match="NaN"):
                nodal_dispatch(nan, 0)

    def test_a_study_builds_one_template(self, monkeypatch):
        built, systems = [], []

        class Counted(h2grid.dispatch.NetworkTables):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        def recorded(system, hours, mode):
            systems.append(system)
            return run_year(system, hours, mode)

        monkeypatch.setattr(h2grid.dispatch, "NetworkTables", Counted)
        monkeypatch.setattr(h2grid.pipeline, "run_year", recorded)
        case = congested_fixture(seed=20240, hours=12)
        run_full_study(case, [Scenario(spatial=s, temporal=t, carrier="LH2")
                              for s in (UNIFORM, NODAL)
                              for t in (FLAT, REAL_TIME)])
        assert len(built) == 1
        assert len(systems) == 5 and systems[0] is case.system
        network = case.system.dispatch_tables.network
        for system in systems[1:]:
            assert system.dispatch_tables.network is network
            assert not np.array_equal(system.dispatch_tables.capacity,
                                      case.system.dispatch_tables.capacity)


class TestZonalSums:
    """Each hour's zonal demand and capacity are summed once per system,
    as row sums of a C-ordered copy, which equal the per-hour sums bit for
    bit; the row sums of an F-ordered array do not."""

    def systems(self):
        year = generate_synthetic_system(SyntheticSpec(
            seed=7, n_nodes=30, n_lines=40, hours=8760))
        return [congested_fixture(seed=20240, hours=168).system, year,
                year.with_demand(np.asfortranarray(1.01 * year.demand))]

    def test_match_the_per_hour_sums(self):
        systems = self.systems()
        f_ordered = systems[-1].demand
        assert not f_ordered.flags.c_contiguous
        assert not np.array_equal(
            f_ordered.sum(axis=1), [row.sum() for row in f_ordered])
        for system in systems:
            tables = system.dispatch_tables
            hours = range(system.horizon)
            assert tables.zonal_demand.tobytes() == np.array(
                [system.demand[t].sum() for t in hours]).tobytes()
            assert tables.zonal_capacity.tobytes() == np.array(
                [tables.capacity[t].sum() for t in hours]).tobytes()

    @pytest.mark.parametrize("mode", (MODE_NODAL, MODE_UNIFORM_REDISPATCH))
    def test_infeasible_hour_keeps_its_deficit(self, mode):
        year = self.systems()[1]
        demand = year.demand.copy()
        demand[3] *= 3.0 * year.dispatch_tables.zonal_capacity[3] / (
            year.dispatch_tables.zonal_demand[3])
        system = year.with_demand(np.asfortranarray(demand))
        with pytest.raises(InfeasibleHour) as info:
            run_year(system, 24, mode)
        want = (float(system.demand[3].sum())
                - system.dispatch_tables.capacity[3].sum())
        assert str(info.value) == "hour 3: demand exceeds available capacity"
        assert info.value.hour == 3
        assert type(info.value.deficit_mw) is type(want)
        assert info.value.deficit_mw == want > 0


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
        # holds the line's row back with the rhs of a flow at its limit, so
        # the row holds at the merit order, which it leaves as it is: both
        # modes see no overload, though the solver checks that row at the
        # tighter FEAS_TOL (1e-7)
        over = 5e-7
        assert 1e-7 < over < FLOW_TOL
        system = two_node_system(demand_mw=30.0 + over)
        both = run_year(system, 1, MODE_UNIFORM_REDISPATCH)
        assert both.nodal_price_series.tolist() == [[10.0, 10.0]]
        assert both.redispatch_cost_series.tolist() == [0.0]
        assert both.generation_mwh.tolist() == [30.0 + over, 0.0]
        nodal = run_year(system, 1, MODE_NODAL)
        assert nodal.nodal_price_series.tolist() == [[10.0, 10.0]]
        assert nodal.redispatch_cost_series.tolist() == [0.0]
        assert nodal.generation_mwh.tolist() == [30.0 + over, 0.0]

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

    def test_no_generators_name_no_start(self, monkeypatch):
        log = capture(monkeypatch)
        system = dataclasses.replace(two_node_system(demand_mw=0.0),
                                     generators=())
        result = nodal_dispatch(system, 0)
        (problem, sol), = log
        assert problem.start is None and sol.optimal
        assert result.nodal_prices.tolist() == [0.0, 0.0]
        assert result.cost_eur == result.redispatch_cost_eur == 0.0


# Congested hours of 240-node, 312-line synthetic systems, as (seed,
# congestion, horizon in hours, hours), whose degenerate network LPs a
# switch to lowest-index pivots stalled into NaN, false infeasibility, a
# wrong optimum or an unstable pivot element.  HiGHS's optima, in EUR, in
# order: 316,143.05, 170,459.19 and 92,668.01; 8,673.75, 21,672.21 and 0;
# 1,613.12 and 5.9026; 0; and 120,159.85.
HARD_HOURS = [(2, 0.85, 100, (7, 8, 9)), (2, 0.7, 100, (9, 11, 12)),
              (4, 0.85, 100, (83, 84)), (4, 0.7, 100, (84,)),
              (2, 0.7, 1000, (8,))]


def grid(n_nodes, seed, congestion, hours=24):
    """The synthetic system of *n_nodes* nodes and 1.3 times as many lines."""
    return generate_synthetic_system(SyntheticSpec(
        seed=seed, n_nodes=n_nodes, n_lines=int(1.3 * n_nodes), hours=hours,
        congestion=congestion))


def capture(monkeypatch):
    """Log every network LP that dispatch solves, with its solution, in the
    list this returns."""
    log = []

    def solve(problem):
        log.append((problem, solve_lp(problem)))
        return log[-1][1]

    monkeypatch.setattr(h2grid.dispatch, "solve_lp", solve)
    return log


def assert_highs(optimize, problem, sol, rel):
    """*sol* has the status HiGHS gives *problem*, every row active, and
    its objective to *rel* relative (to at least 1 EUR)."""
    ref = highs(optimize, problem.c, problem.dense_matrix(), problem.senses,
                problem.rhs, problem.lb, problem.ub)
    assert sol.status == test_lp.TestMixedLPsAgainstHighs.STATUS[ref.status]
    if sol.optimal:
        assert abs(sol.objective - ref.fun) <= rel * max(1.0, abs(ref.fun))


class TestHardHours:
    """Degenerate congested hours solved to HiGHS's optimum, with no
    RuntimeWarning (pytest makes them errors)."""

    @pytest.mark.parametrize("seed, congestion, horizon, hours", HARD_HOURS)
    def test_matches_highs(self, seed, congestion, horizon, hours,
                           monkeypatch):
        optimize = pytest.importorskip("scipy.optimize")
        system = grid(240, seed, congestion, horizon)
        log = capture(monkeypatch)
        for hour in hours:
            cost = redispatch(system, hour,
                              uniform_dispatch(system, hour)).cost_eur
            (problem, sol), = log
            del log[:]
            assert math.isfinite(cost) and cost == sol.objective
            assert_highs(optimize, problem, sol, 1e-9)


@pytest.mark.slow
class TestCongestedScan:
    """Every congested hour of 24-h synthetic systems, seeds 1-8, against
    HiGHS."""

    def scan(self, monkeypatch, system):
        """The network LP of every congested hour of *system*, with its
        solution; an hour whose LP is infeasible raises nothing here."""
        log = capture(monkeypatch)
        for hour in range(system.horizon):
            try:
                redispatch(system, hour, uniform_dispatch(system, hour))
            except InfeasibleRedispatch:
                pass
        return log

    @pytest.mark.parametrize("n_nodes", [120, 240])
    @pytest.mark.parametrize("congestion", [0.7, 0.85])
    def test_every_hour_matches_highs(self, n_nodes, congestion,
                                      monkeypatch):
        optimize = pytest.importorskip("scipy.optimize")
        congested = 0
        for seed in range(1, 9):
            for problem, sol in self.scan(
                    monkeypatch, grid(n_nodes, seed, congestion)):
                assert_highs(optimize, problem, sol, 1e-7)
                congested += 1
        assert congested

    @pytest.mark.parametrize("congestion", [0.7, 0.85])
    def test_480_nodes(self, congestion, monkeypatch):
        # dense HiGHS takes over a second on a 480-node LP, so it checks
        # the three hours of each system that took the most pivots
        optimize = pytest.importorskip("scipy.optimize")
        for seed in range(1, 9):
            log = self.scan(monkeypatch, grid(480, seed, congestion))
            assert log
            for problem, sol in log:
                assert sol.optimal and np.isfinite(sol.x).all()
                assert np.isfinite(sol.duals).all()
            log.sort(key=lambda item: -item[1].stats["iterations"])
            for problem, sol in log[:3]:
                assert_highs(optimize, problem, sol, 1e-7)

    def test_first_day_of_a_1000_hour_system(self, monkeypatch):
        # hour 8 of this system once hit the iteration limit; HiGHS's
        # optimum is 120,159.85 EUR
        optimize = pytest.importorskip("scipy.optimize")
        system = grid(240, 2, 0.7, hours=1000)
        log = capture(monkeypatch)
        for hour in range(24):
            redispatch(system, hour, uniform_dispatch(system, hour))
        assert len(log) > 1
        for problem, sol in log:
            assert_highs(optimize, problem, sol, 1e-7)
        assert any(abs(sol.objective - 120_159.85) < 0.005 for _, sol in log)
