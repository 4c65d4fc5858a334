"""Command line interface.

Subcommands:
  synth     generate a synthetic network and write its CSV inputs
  dispatch  run the dispatch model and write price / redispatch outputs
  demand    build the hydrogen consumption set from site and station inputs
  chain     solve the supply chain siting problem on given tariffs
  study     run the full three-step study and write the comparison report

Exit codes: 0 success, 2 configuration error, 3 model infeasibility.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import config as cfgmod
from . import io as iomod
from .chain import (CARRIER_DEFAULTS, TariffMap, build_chain_problem,
                    solve_chain)
from .demand import (CAR_STATION_TURNOVER, TRUCK_STATION_TURNOVER,
                     build_consumption_set, plan_stations)
from .dispatch import MODE_NODAL, MODE_UNIFORM_REDISPATCH, run_year
from .errors import (ChainInfeasible, ConfigError, H2GridError,
                     InfeasibleHour, InfeasibleRedispatch, IoError,
                     StructurallyInfeasible)
from .pipeline import Scenario, StudyCase, run_full_study
from .synth import (SyntheticSpec, congested_fixture, fixture_sinks,
                    generate_synthetic_system)

_INFEASIBLE = (InfeasibleHour, InfeasibleRedispatch, StructurallyInfeasible,
               ChainInfeasible)

# keys only chain and study read: the other commands echo them at their
# defaults and reject any other value, which they would echo unread (chain
# reads only some of them, see _unread_by_chain)
_STUDY_KEYS = ("scenarios", "production", "transport", "imports", "ngp",
               "cheap_share")
# keys only the commands that build sinks read (demand, chain and study):
# synth and dispatch treat them as the other commands treat _STUDY_KEYS
_SINK_KEYS = ("h2_demand_kg_day", "inputs.consumption",
              "inputs.industrial_sites", "inputs.station_candidates",
              "stations.cars_twh", "stations.trucks_twh")


def _unread_by_chain(cfg):
    """The study keys chain echoes but never reads: it solves the first
    scenario's carrier alone."""
    if not cfg.scenarios:
        raise ConfigError("scenarios: chain needs one scenario")
    first, default = cfg.scenarios[0], Scenario()
    unread = ["cheap_share"] if (cfg.cheap_share
                                 != cfgmod.StudyConfig.cheap_share) else []
    unread += [f"scenarios[0].{name}" for name in ("spatial", "temporal")
               if getattr(first, name) != getattr(default, name)]
    return unread + [f"scenarios[{i}]" for i in range(1, len(cfg.scenarios))]


def _load(args):
    cfg = cfgmod.load_config(args.config)
    if args.command == "chain":
        unread = _unread_by_chain(cfg)
    elif args.command != "study":
        keys = _STUDY_KEYS + (_SINK_KEYS if args.command != "demand" else ())
        defaults = cfgmod.StudyConfig()
        unread = [key for key in keys if cfgmod.lookup(cfg, key)
                  != cfgmod.lookup(defaults, key)]
    else:
        unread = []
    if unread:
        raise ConfigError(f"{unread[0]}: not used by {args.command}")
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.hours is not None:
        cfg = dataclasses.replace(cfg, hours=args.hours)
    cfgmod.check_ranges(cfg)
    cfgmod.reject_ignored(cfg)
    return cfg


def _out_dir(args):
    """Create ``--out`` once the run has something to write, so that a
    run that fails leaves no directory behind."""
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _build_system(cfg):
    paths = cfg.inputs
    if cfg.fixture == "congested10":
        return congested_fixture(hours=cfg.hours, seed=cfg.seed).system
    if cfg.synthetic is not None:
        return generate_synthetic_system(SyntheticSpec(
            seed=cfg.seed, hours=cfg.hours,
            **dataclasses.asdict(cfg.synthetic)))
    required = (paths.nodes, paths.lines, paths.generators, paths.demand)
    if any(p is None for p in required):
        raise ConfigError("inputs: nodes, lines, generators and demand "
                          "paths are all required without a synthetic or "
                          "fixture block")
    return iomod.read_system(paths.nodes, paths.lines, paths.generators,
                             paths.demand, cfg.hours)


def _check_import_node(cfg, system):
    if cfg.imports is not None and cfg.imports.node not in {
            n.id for n in system.nodes}:
        raise ConfigError(f"imports.node: {cfg.imports.node} is not a node "
                          f"of the network")


def _build_sinks(cfg, system):
    if cfg.inputs.consumption:
        return iomod.read_consumption(cfg.inputs.consumption,
                                      system.n_nodes)
    if cfg.fixture == "congested10" and not (cfg.inputs.industrial_sites
                                             or cfg.inputs.station_candidates):
        return fixture_sinks(system, cfg.h2_demand_kg_day)
    sites = (iomod.read_industrial_sites(cfg.inputs.industrial_sites)
             if cfg.inputs.industrial_sites else ())
    plan = []
    if cfg.inputs.station_candidates and (cfg.stations.cars_twh > 0
                                          or cfg.stations.trucks_twh > 0):
        cands = iomod.read_station_candidates(cfg.inputs.station_candidates)
        if cfg.stations.cars_twh > 0:
            plan += plan_stations(cfg.stations.cars_twh * 1e9,
                                  CAR_STATION_TURNOVER, cands,
                                  "station_cars")
        if cfg.stations.trucks_twh > 0:
            plan += plan_stations(cfg.stations.trucks_twh * 1e9,
                                  TRUCK_STATION_TURNOVER, cands,
                                  "station_trucks")
    return build_consumption_set(sites, plan, system.nodes)


def cmd_synth(args):
    cfg = _load(args)
    system = _build_system(cfg)
    out = _out_dir(args)
    iomod.write_system(out, system)
    cfgmod.dump_config(cfg, os.path.join(out, "effective_config.yaml"))
    print(f"wrote {system.n_nodes} nodes, {len(system.lines)} lines, "
          f"{len(system.generators)} generators to {out}")
    return 0


def cmd_dispatch(args):
    cfg = _load(args)
    system = _build_system(cfg)
    mode = MODE_NODAL if args.mode == "nodal" else MODE_UNIFORM_REDISPATCH
    summary = run_year(system, cfg.hours, mode)
    out = _out_dir(args)
    iomod.write_dispatch_outputs(out, summary)
    cfgmod.dump_config(cfg, os.path.join(out, "effective_config.yaml"))
    print(f"{mode}: {cfg.hours} hours, congestion cost "
          f"{summary.congestion_cost_eur:.6g} EUR")
    return 0


def cmd_demand(args):
    cfg = _load(args)
    system = _build_system(cfg)
    sinks = _build_sinks(cfg, system)
    out = _out_dir(args)
    iomod.write_consumption(os.path.join(out, "consumption.csv"), sinks)
    cfgmod.dump_config(cfg, os.path.join(out, "effective_config.yaml"))
    total = sum(s.hd_kg_per_day for s in sinks)
    print(f"{len(sinks)} consumption locations, {total:.6g} kg/day")
    return 0


def cmd_chain(args):
    cfg = _load(args)
    system = _build_system(cfg)
    _check_import_node(cfg, system)
    sinks = _build_sinks(cfg, system)
    scenario = cfg.scenarios[0]
    price = args.flat_price / 1000.0
    tariffs = TariffMap(ep_node={n.id: price for n in system.nodes},
                        ep_uniform=price, ngp=cfg.ngp)
    problem = build_chain_problem(
        sinks, system.nodes, tariffs, CARRIER_DEFAULTS[scenario.carrier],
        cfg.production, cfg.transport, cfg.imports)
    design = solve_chain(problem)
    out = _out_dir(args)
    iomod.write_chain_outputs(out, design)
    cfgmod.dump_config(cfg, os.path.join(out, "effective_config.yaml"))
    print(f"carrier {scenario.carrier}: {design.annual_kg:.6g} kg/year at "
          f"{design.objective_eur_year:.6g} EUR/year")
    return 0


def cmd_study(args):
    cfg = _load(args)
    system = _build_system(cfg)
    _check_import_node(cfg, system)
    sinks = _build_sinks(cfg, system)
    if sum(s.hd_kg_per_day for s in sinks) <= 0:
        raise ConfigError(f"study: no hydrogen demand to site; sinks come "
                          f"from {', '.join(_SINK_KEYS)}")
    case = StudyCase(system=system, sinks=sinks,
                     candidates=tuple(system.nodes),
                     production=cfg.production, transport=cfg.transport,
                     import_spec=cfg.imports, ngp=cfg.ngp,
                     cheap_share=cfg.cheap_share)
    report = run_full_study(case, cfg.scenarios)
    out = _out_dir(args)
    iomod.write_report(out, report)
    cfgmod.dump_config(cfg, os.path.join(out, "effective_config.yaml"))
    for row in report.rows():
        print("  ".join(str(np.round(v, 4)) if isinstance(v, float) else
                        str(v) for v in row))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="h2grid",
        description="electricity dispatch and hydrogen supply chain studies")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "synth": cmd_synth,
        "dispatch": cmd_dispatch,
        "demand": cmd_demand,
        "chain": cmd_chain,
        "study": cmd_study,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--hours", type=int, default=None)
        if name == "dispatch":
            p.add_argument("--mode", default="uniform",
                           choices=["uniform", "nodal"])
        if name == "chain":
            p.add_argument("--flat-price", type=float, default=50.0,
                           help="flat electricity tariff, EUR/MWh")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, IoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _INFEASIBLE as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except H2GridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
