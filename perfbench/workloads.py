"""The benchmark's three workloads, driven through h2grid's public API.

Each workload splits one measured repetition ("unit") into three steps:

* ``prepare(state, index)`` draws the unit's inputs from the run seed
  (untimed).  Every unit of a run gets the same inputs, so the units are
  repetitions of one deterministic computation and can be compared lap by
  lap; the index only names the unit's scratch files,
* ``execute(args)`` is the timed call into the package,
* ``check(args, result)`` verifies the result against the paper's
  identities and returns ``(attempted, failed, digest)``: counts of checked
  operations and a digest of the unit's deterministic outputs.  Checks call
  the package too, so they run with the tracer removed.

``setup(seed)`` is the set-up that ``setup_s`` measures: input generation or
config load, after the import.
"""

import hashlib
import os
import shutil
import sys

import numpy as np
import yaml

import h2grid.chain
import h2grid.cli
import h2grid.config
import h2grid.dispatch
import h2grid.lp
import h2grid.synth
from h2grid import (CARRIER_DEFAULTS, INDUSTRY, STATION_CARS, STATION_TRUCKS,
                    ConsumptionLocation, Generator, ImportSpec,
                    LinearProblem, ProductionParams, SyntheticSpec, TariffMap,
                    TransportParams, generate_synthetic_system)
from h2grid.dispatch import MODE_NODAL, MODE_UNIFORM_REDISPATCH

REL_TOL = 1e-6
DUALITY_TOL = 1e-6   # |gap| / max(1, |objective|), as in criterion 7


def _rel_close(a, b, tol=REL_TOL):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _gen_cost(system, summary):
    costs = np.array([g.marginal_cost for g in system.generators])
    return float(summary.generation_mwh @ costs)


def _year_ok(summary, hours):
    """One dispatch year: right horizon, every reported number finite."""
    series = (summary.nodal_price_series if summary.mode == MODE_NODAL
              else summary.price_series)
    return (summary.hours == hours and series.shape[0] == hours
            and bool(np.all(np.isfinite(series)))
            and bool(np.all(np.isfinite(summary.generation_mwh)))
            and np.isfinite(summary.congestion_cost_eur)
            and summary.total_energy_mwh > 0)


def _design_ok(design):
    return (np.isfinite(design.objective_eur_year)
            and _rel_close(design.total_cost_eur_year,
                           design.objective_eur_year))


def _digest(*values):
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


class Ops:
    """Tally of checked operations; a failed check is counted, not raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


class FixtureStudy:
    """``h2grid study`` through ``cli.main`` on the congested10 fixture.

    The fixture and its seed are fixed, so the amount of work is the same
    for every run seed (123 LP solves, 9,885 simplex iterations at the
    time the benchmark was defined).  HOURS is 24 and not the full week of
    the fixture so that a run repeats the unit often enough for lap floors
    (see ``run.lap_floor``): the 168-hour study took 6-10 s per unit.  The
    run seed permutes the order of
    the four scenarios in the config; since scenarios are independent, the
    report must not depend on that order, and the digest of the output
    tree is insensitive to row order only.
    """

    name = "fixture_study"
    FIXTURE_SEED = 20240
    HOURS = 24
    SCENARIOS = tuple({"spatial": s, "temporal": t, "carrier": "LH2"}
                      for s in ("uniform", "nodal")
                      for t in ("flat", "real_time"))
    OPS_PER_UNIT = 14   # exit code, 6 years, identity, 4 designs, rows, tree
    same_output = True  # every unit must write the same canonical tree

    def __init__(self, workdir):
        self.workdir = workdir
        self._report = None
        self._system = None
        self.bytes_written = 0

    def _capture(self, fn):
        def capture(*args, **kwargs):
            self._report = fn(*args, **kwargs)
            return self._report
        capture.__wrapped__ = fn
        return capture

    def setup(self, seed):
        # cli.main returns only an exit code; keep the StudyReport it builds
        # so the baseline identity can be checked without re-solving.
        if not hasattr(h2grid.cli.run_full_study, "__wrapped__"):
            h2grid.cli.run_full_study = self._capture(
                h2grid.cli.run_full_study)
        os.makedirs(self.workdir, exist_ok=True)
        path = self._write_config("base", list(self.SCENARIOS))
        h2grid.config.load_config(path)
        return {"seed": seed}

    def _write_config(self, tag, scenarios):
        path = os.path.join(self.workdir, f"study_{tag}.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump({"fixture": "congested10", "hours": self.HOURS,
                            "seed": self.FIXTURE_SEED,
                            "scenarios": scenarios}, fh)
        return path

    def prepare(self, state, index):
        order = np.random.default_rng(state["seed"]).permutation(
            len(self.SCENARIOS))
        config = self._write_config(
            str(index), [self.SCENARIOS[k] for k in order])
        out = os.path.join(self.workdir, f"out_{index}")
        shutil.rmtree(out, ignore_errors=True)
        self._report = None
        return {"config": config, "out": out}

    def execute(self, args):
        return h2grid.cli.main(["study", "--config", args["config"],
                                "--out", args["out"]])

    def check(self, args, rc):
        ops = Ops()
        report = self._report
        ops.check(rc == 0 and report is not None, f"study exit code {rc}")
        if report is None:
            ops.attempted += self.OPS_PER_UNIT - 1
            ops.failed += self.OPS_PER_UNIT - 1
            return ops.attempted, ops.failed, None
        uniform, nodal = report.baseline_uniform, report.baseline_nodal
        for summary in [uniform, nodal] + [r.summary for r in report.results]:
            ops.check(_year_ok(summary, self.HOURS),
                      f"{summary.mode} year not finite or wrong horizon")
        if self._system is None:
            self._system = h2grid.synth.congested_fixture(
                hours=self.HOURS, seed=self.FIXTURE_SEED).system
        u_cost = _gen_cost(self._system, uniform)
        n_cost = _gen_cost(self._system, nodal)
        ops.check(_rel_close(u_cost, n_cost),
                  f"uniform+redispatch {u_cost!r} != nodal {n_cost!r}")
        for r in report.results:
            ops.check(_design_ok(r.design), f"design {r.scenario.name}")
        ops.check(all(np.isfinite(v) for row in report.rows()
                      for v in row[1:]), "report row not finite")
        digest = self._tree_digest(args["out"])
        ops.check(digest is not None, "output tree incomplete")
        shutil.rmtree(args["out"], ignore_errors=True)
        return ops.attempted, ops.failed, digest

    def _tree_digest(self, out):
        """Digest of the output tree; report rows sorted, config echo left
        out (both follow the permuted scenario order)."""
        try:
            names = sorted(os.listdir(out))
        except OSError:
            return None
        if "report.csv" not in names or len(names) != 10:
            return None
        h = hashlib.sha256()
        self.bytes_written = 0
        for name in names:
            with open(os.path.join(out, name), "rb") as fh:
                data = fh.read()
            self.bytes_written += len(data)
            if name == "effective_config.yaml":
                continue
            if name == "report.csv":
                lines = data.splitlines()
                data = b"\n".join(lines[:1] + sorted(lines[1:]))
            h.update(name.encode() + b"\0" + data + b"\0")
        return h.hexdigest()[:16]


class Grid60Year:
    """``run_year`` in both modes on a fixed sample of hours of a 60-node
    year.

    The network is one seeded SyntheticSpec year (8760 h, network seed 60)
    and a unit runs the uniform+redispatch and the nodal model on HOURS
    hours of it, drawn once from the network seed.  The work is therefore
    the same for every run seed; the run seed permutes the order of the
    hours.  Hours are independent in the dispatch model
    (no ramping, no storage), so every order must give the same per-hour
    results, and the check compares them in hour order.  Drawing a fresh
    sample per seed moved the unit time by up to 40 % (uncongested hours
    skip the redispatch LP).  The two hours drawn (1525 and 2840) are one
    congested and one uncongested hour, so both paths run, in a unit short
    enough (three LP solves) to be repeated ten times or more in a run.
    """

    name = "grid60_year"
    NETWORK_SEED = 60
    NODES, LINES, YEAR = 60, 84, 8760
    HOURS = 2
    OPS_PER_UNIT = 3    # two dispatch years and the cost identity
    same_output = True  # every order of the hours gives the same results

    def __init__(self, workdir):
        self.workdir = workdir

    def setup(self, seed):
        spec = SyntheticSpec(seed=self.NETWORK_SEED, n_nodes=self.NODES,
                             n_lines=self.LINES, hours=self.YEAR)
        hours = np.random.default_rng(self.NETWORK_SEED).choice(
            self.YEAR, self.HOURS, replace=False)
        return {"seed": seed, "system": generate_synthetic_system(spec),
                "hours": np.sort(hours)}

    def prepare(self, state, index):
        hours = np.random.default_rng(state["seed"]).permutation(
            state["hours"])
        year = state["system"]
        generators = [
            g if g.profile is None else
            Generator(g.id, g.node, g.kind, g.marginal_cost, g.capacity_mw,
                      g.profile[hours])
            for g in year.generators]
        system = year.with_generators(generators).with_demand(
            year.demand[hours])
        return {"system": system, "hours": hours}

    def execute(self, args):
        system = args["system"]
        return (h2grid.dispatch.run_year(system, self.HOURS,
                                         MODE_UNIFORM_REDISPATCH),
                h2grid.dispatch.run_year(system, self.HOURS, MODE_NODAL))

    def check(self, args, result):
        ops = Ops()
        if result is None:
            return self.OPS_PER_UNIT, self.OPS_PER_UNIT, None
        uniform, nodal = result
        ops.check(_year_ok(uniform, self.HOURS), "uniform+redispatch year")
        ops.check(_year_ok(nodal, self.HOURS), "nodal year")
        u_cost = _gen_cost(args["system"], uniform)
        n_cost = _gen_cost(args["system"], nodal)
        ops.check(_rel_close(u_cost, n_cost),
                  f"uniform+redispatch {u_cost!r} != nodal {n_cost!r}")
        order = np.argsort(args["hours"])
        return ops.attempted, ops.failed, _digest(
            uniform.price_series[order].tolist(),
            uniform.redispatch_cost_series[order].tolist(),
            nodal.nodal_price_series[order].tolist())


class SitingBnb:
    """``build_chain_problem`` + ``solve_chain`` for LH2, GH2 and LOHC.

    One fixed siting instance: 10 candidate nodes of a seeded synthetic
    network, three industry sinks on binary routes
    (``industry_frequency_by_volume=False``), three station sinks, and an
    import terminal, all from the instance seed.  The run seed permutes
    the order in which the carriers are solved; the carriers' problems are
    independent, so every order must give the same designs.  Branch and
    bound takes 11 nodes per carrier on this instance; a fresh instance per
    seed swung between 1 and 71.
    """

    name = "siting_bnb"
    INSTANCE_SEED = 5
    CANDIDATES, SINKS = 10, 6
    CARRIERS = ("LH2", "GH2", "LOHC")
    OPS_PER_UNIT = 3    # one checked design per carrier
    same_output = True  # every order of the carriers gives the same designs

    def __init__(self, workdir):
        self.workdir = workdir

    def setup(self, seed):
        rng = np.random.default_rng(self.INSTANCE_SEED)
        network = generate_synthetic_system(SyntheticSpec(
            seed=self.INSTANCE_SEED, n_nodes=self.CANDIDATES,
            n_lines=self.CANDIDATES + 3, hours=24))
        candidates = network.nodes[:self.CANDIDATES]
        base = {n.id: float(rng.uniform(0.03, 0.07)) for n in candidates}
        sinks = []
        for i in range(self.SINKS):
            if i % 2 == 0:
                kind, low, high, y_low = INDUSTRY, 5000.0, 20000.0, 250.0
            else:
                kind = STATION_CARS if i % 4 == 1 else STATION_TRUCKS
                low, high, y_low = 300.0, 1500.0, 150.0
            sinks.append(ConsumptionLocation(
                i, kind, float(rng.uniform(low, high)),
                x=float(rng.uniform(0, 200)),
                y=float(rng.uniform(y_low, 400))))
        return {"seed": seed, "candidates": candidates,
                "tariffs": TariffMap(ep_node=base, ep_uniform=float(
                    np.mean(list(base.values())))),
                "sinks": tuple(sinks),
                "import": ImportSpec(node=candidates[-1].id, x=100.0,
                                     y=420.0),
                "transport": TransportParams(
                    industry_frequency_by_volume=False)}

    def prepare(self, state, index):
        order = np.random.default_rng(state["seed"]).permutation(
            len(self.CARRIERS))
        return dict(state, carriers=[self.CARRIERS[k] for k in order])

    def execute(self, args):
        designs = []
        for carrier in args["carriers"]:
            problem = h2grid.chain.build_chain_problem(
                args["sinks"], args["candidates"], args["tariffs"],
                CARRIER_DEFAULTS[carrier], ProductionParams(),
                args["transport"], args["import"])
            designs.append((problem, h2grid.chain.solve_chain(problem)))
        return designs

    def check(self, args, result):
        ops = Ops()
        if result is None:
            return self.OPS_PER_UNIT, self.OPS_PER_UNIT, None
        objectives = {}
        for problem, design in result:
            lp = problem.lp
            root = h2grid.lp.solve_lp(LinearProblem(
                lp.c, lp.lb, lp.ub, lp.a_rows, lp.a_cols, lp.a_vals,
                lp.senses, lp.rhs))
            ok = root.optimal and _design_ok(design)
            if ok:
                bound = root.objective + sum(problem.constants.values())
                ok = (design.objective_eur_year
                      >= bound - REL_TOL * max(1.0, abs(bound)))
            ops.check(ok, f"{design.carrier}: objective below root "
                          f"relaxation or cost accounting open")
            objectives[design.carrier] = round(design.objective_eur_year, 2)
        return ops.attempted, ops.failed, _digest(sorted(objectives.items()))


WORKLOADS = {w.name: w for w in (FixtureStudy, Grid60Year, SitingBnb)}
