"""h2grid benchmark: one workload per run, checked, metrics as JSON.

Single run (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload fixture_study --seed 1 \\
        --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
with only the lap clock of ``tracer.py`` installed.  ``--trace 1`` runs one
untraced unit, then the same unit under the span recorder of ``tracer.py``,
and reports the per-layer metrics; the spans go to
``.perfbench/trace-<workload>-<seed>.json``.

Steadiness mode runs every workload (or the one named) N times untraced and
N times traced, each in a fresh process with seeds --seed, --seed + 1, ...,
and prints the median and quartiles of each end-to-end metric, flagging any
deterministic counter that differs between runs:

    python3 perfbench/run.py --repeat 5 [--workload grid60_year]
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass

# One BLAS thread: the dense basis solves must not compete with the
# interpreter for the machine's cores.  Set before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 8     # at least, per run
PROBE_BATCHES = 4    # batches of probes spread over the run
MIN_UNITS = 2
CHILD_TIMEOUT_S = 600


def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _import_package():
    """Import h2grid from this checkout's src/ only."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import h2grid
    if not os.path.realpath(h2grid.__file__).startswith(
            os.path.realpath(src) + os.sep):
        raise ImportError(f"h2grid imported from {h2grid.__file__}, "
                          f"not from {src}")


def lap_floor(repetitions):
    """Sum over lap positions of the fastest time at that position.

    The repetitions (units or set-ups) of a run repeat one deterministic
    computation, so their laps line up.  Other tenants of the host slow this
    process's core down for stretches of milliseconds to minutes; they only
    ever add time to a lap, and the fastest repetition of each lap filters
    out the stretches shorter than the run.  None if the repetitions were
    cut into different numbers of laps.
    """
    if len({len(laps) for laps in repetitions}) != 1:
        return None
    return sum(min(lap) for lap in zip(*repetitions))


def _probe_laps(stdout, stderr):
    """One set-up probe's laps: every module's own import time, as
    ``-X importtime`` reports it, then the set-up."""
    from probe import START

    lines = stderr.splitlines()
    laps = []
    for line in lines[lines.index(START) + 1:]:
        if line.startswith("import time:") and "|" in line:
            own = line.split(":", 1)[1].split("|")[0].strip()
            if own.isdigit():
                laps.append(int(own) * 1e-6)
    return laps + [float(stdout.strip().splitlines()[-1])]


class SetupProbes:
    """Import plus set-up, each time in a fresh interpreter.  The probes run
    in batches before, between and after the run's units, one batch per
    1/PROBE_BATCHES of the run, so that a slow stretch of the host does not
    cover all of them; ``setup_s`` is their lap floor, with a lap per
    imported module."""

    def __init__(self, name, seed, workdir):
        self.cmd = [sys.executable, "-X", "importtime",
                    os.path.join(HERE, "probe.py"), name, str(seed), workdir]
        self.laps = []

    def run(self, count):
        for _ in range(count):
            proc = subprocess.run(self.cmd, capture_output=True, text=True,
                                  check=True, timeout=120)
            self.laps.append(_probe_laps(proc.stdout, proc.stderr))


@dataclass
class Unit:
    wall: float       # seconds in execute()
    attempted: int
    failed: int
    digest: str       # deterministic outputs of the unit, None on failure
    span: int = None  # index of the traced unit's root span
    laps: list = None  # execute() cut at the lap clock's marks


def _run_unit(wl, state, index, tracer=None, clock=None):
    """Prepare, execute (timed, and traced or cut into laps if a tracer or
    a lap clock is given) and check one unit."""
    from h2grid import H2GridError
    import numpy as np

    args = wl.prepare(state, index)
    root = len(tracer.spans) if tracer is not None else None
    patch = tracer or clock
    if clock is not None:
        del clock.marks[:]
    if patch is not None:
        patch.install()
    try:
        with tracer.span("unit") if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                result = wl.execute(args)
            except (H2GridError, np.linalg.LinAlgError) as exc:
                # a failed unit is counted through its checks, never dropped
                print(f"unit {index}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                result = None
            end = time.perf_counter()
    finally:
        if patch is not None:
            patch.uninstall()
    marks = [start] + (clock.marks if clock is not None else []) + [end]
    laps = [b - a for a, b in zip(marks, marks[1:])]
    return Unit(end - start, *wl.check(args, result), span=root, laps=laps)


def _tracer_checks(tracer, ops):
    """Span counts against the work they must equal, and strong duality of
    every optimal LP the run solved."""
    from workloads import DUALITY_TOL

    spans = tracer.spans
    count = Counter(s.name for s in spans)
    hours = {"nodal": 0, "other": 0}
    for s in spans:
        if s.name == "dispatch.run_year":
            hours["nodal" if s.attrs.get("mode") == "nodal" else "other"] += \
                s.attrs.get("hours", 0)
    nodal = count["dispatch.nodal"]
    redispatch = count["dispatch.redispatch"]
    ops.check(nodal == hours["nodal"],
              f"{nodal} nodal spans for {hours['nodal']} nodal hours")
    ops.check(redispatch == count["dispatch.uniform"] == hours["other"],
              f"{redispatch} redispatch spans for {hours['other']} hours")
    solves = [i for i, s in enumerate(spans) if s.name == "lp.solve"]
    parents = [spans[i].parent for i in solves]
    names = [spans[p].name if p >= 0 else None for p in parents]
    congested = len({p for p, name in zip(parents, names)
                     if name == "dispatch.redispatch"})
    milp = names.count("lp.milp")
    ops.check(len(solves) == hours["nodal"] + congested + milp,
              f"{len(solves)} LP solves != {hours['nodal']} nodal hours + "
              f"{congested} congested hours + {milp} B&B solves")
    for i in solves:
        attrs = spans[i].attrs
        if attrs.get("status") == "Optimal":
            ops.check(attrs.get("gap_rel", float("inf")) <= DUALITY_TOL,
                      f"duality gap {attrs.get('gap_rel')} at span {i}")


def _metric_block(names, values):
    block = {}
    for item in names:
        value, unit = values[item["name"]]
        if unit != item["unit"]:
            raise ValueError(f"{item['name']}: unit {unit} vs "
                             f"{item['unit']} in BENCHMARK.json")
        block[item["name"]] = {"value": value, "unit": unit}
    return block


def single_run(args, spec):
    try:
        _import_package()
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the package: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.trace:
            return _traced(args, spec, workloads, workdir)
        return _untraced(args, spec, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _untraced(args, spec, workloads, workdir):
    from tracer import LapClock

    probes = SetupProbes(args.workload, args.seed,
                         os.path.join(workdir, "probe"))
    batch = -(-SETUP_PROBES // PROBE_BATCHES)
    probes.run(batch)
    wl = workloads.WORKLOADS[args.workload](workdir)
    state = wl.setup(args.seed)
    clock = LapClock()
    units = []
    start = time.perf_counter()
    next_batch = args.seconds / PROBE_BATCHES
    # start a unit only if the fastest one so far would end within --seconds
    while len(units) < MIN_UNITS or (
            time.perf_counter() - start + min(u.wall for u in units)
            <= args.seconds):
        units.append(_run_unit(wl, state, len(units), clock=clock))
        if time.perf_counter() - start >= next_batch:
            probes.run(batch)
            next_batch += args.seconds / PROBE_BATCHES
        u = units[-1]
        print(f"unit {len(units) - 1}: {u.wall:.4f} s, {len(u.laps)} laps, "
              f"{u.attempted} checks, {u.failed} failed, digest {u.digest}")
    probes.run(max(batch, SETUP_PROBES - len(probes.laps)))
    setup_s = lap_floor(probes.laps)
    if setup_s is None:
        print("set-up probes imported different modules: setup_s is the "
              "fastest probe", file=sys.stderr)
        setup_s = min(sum(laps) for laps in probes.laps)
    ops = workloads.Ops()
    ops.attempted = sum(u.attempted for u in units)
    ops.failed = sum(u.failed for u in units)
    if getattr(wl, "same_output", False):
        for u in units[1:]:
            ops.check(u.digest == units[0].digest,
                      f"output digest {u.digest} != {units[0].digest}")
    walls = [u.wall for u in units]
    wall_s = lap_floor([u.laps for u in units])
    if wall_s is None:
        print("units cut into different numbers of laps: wall_s is the "
              "fastest unit", file=sys.stderr)
        wall_s = min(walls)
    values = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "ops_ok_share": (1.0 - ops.failed / ops.attempted, "ratio"),
    }
    print(f"{args.workload}: {len(units)} units of "
          f"{', '.join(f'{w:.4f}' for w in walls)} s, median "
          f"{statistics.median(walls):.4f} s")
    print(f"ops_failed_share {ops.failed / ops.attempted!r} "
          f"({ops.failed} of {ops.attempted})")
    for name, (value, unit) in values.items():
        print(f"{name} {value!r} {unit}")
    print("counters " + json.dumps({"unit0_digest": units[0].digest}))
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed,
                      "metrics": _metric_block(spec["end_to_end"], values)}))
    return 0


def _traced(args, spec, workloads, workdir):
    from tracer import Tracer, layer_metrics

    wl = workloads.WORKLOADS[args.workload](workdir)
    state = wl.setup(args.seed)
    plain = _run_unit(wl, state, 0)

    tracer = Tracer()
    tracer.install()
    with tracer.span("setup"):
        state = wl.setup(args.seed)
    tracer.uninstall()
    traced = _run_unit(wl, state, 0, tracer)

    ops = workloads.Ops()
    ops.attempted = plain.attempted + traced.attempted
    ops.failed = plain.failed + traced.failed
    ops.check(plain.digest == traced.digest,
              f"traced digest {traced.digest} != untraced {plain.digest}")
    _tracer_checks(tracer, ops)
    values = layer_metrics(tracer.spans, traced.span)
    values["trace.overhead_s"] = (traced.wall - plain.wall, "s")
    values["io.bytes_written"] = (getattr(wl, "bytes_written", 0), "bytes")

    path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
    tracer.dump(path)
    print(f"{args.workload}: untraced {plain.wall:.4f} s, traced "
          f"{traced.wall:.4f} s, {len(tracer.spans)} spans in {path}")
    for name in sorted(values):
        value, unit = values[name]
        print(f"{name} {value!r} {unit}")
    counters = {name: value for name, (value, unit) in values.items()
                if unit in ("count", "bytes")}
    counters["unit0_digest"] = traced.digest
    print("counters " + json.dumps(counters, sort_keys=True))
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed,
                      "metrics": _metric_block(spec["per_layer"], values)}))
    return 0


def _child(name, seed, seconds, trace):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    counters = {}
    for line in lines:
        if line.startswith("counters "):
            counters = json.loads(line[len("counters "):])
    return json.loads(lines[-1]), counters


def repeat_runs(args, spec):
    names = ([args.workload] if args.workload
             else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    healthy = True
    for name in names:
        results = {0: [], 1: []}
        for trace in (0, 1):
            for k in range(args.repeat):
                results[trace].append(
                    _child(name, args.seed + k, args.seconds, trace))
        runs = len(results[0])
        print(f"\n{name}: {runs} untraced + {runs} traced runs, seeds "
              f"{args.seed}-{args.seed + runs - 1}, {args.seconds} s each")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r, _ in results[0]]
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if runs > 1
                         else (median, median, median))
            spread = (q3 - q1) / median if median else 0.0
            note = "" if spread <= bound / 3 else "  <-- spread over bound/3"
            print(f"  {metric:14s} median {median:.6g}  q1 {q1:.6g}  "
                  f"q3 {q3:.6g}  iqr/median {spread:.4f} "
                  f"(bound {bound}){note}")
        for trace in (0, 1):
            for key in sorted({k for _, c in results[trace] for k in c}):
                seen = [c.get(key) for _, c in results[trace]]
                if len(set(map(json.dumps, seen))) > 1:
                    healthy = False
                    print(f"  COUNTER DIFFERS: {key}: {seen}")
        for r, _ in results[0] + results[1]:
            if not r["correct"]:
                healthy = False
                print(f"  INCORRECT RUN: {r['failed']} of {r['attempted']} "
                      f"checks failed")
    return 0 if healthy else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (BENCHMARK.json "
                             "run_seconds by default)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: runs per workload and mode")
    args = parser.parse_args(argv)
    try:
        spec = _load_spec()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.repeat:
        return repeat_runs(args, spec)
    if not args.workload:
        parser.error("--workload is required without --repeat")
    return single_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
