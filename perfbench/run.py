"""rcgame benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload {large,sweep,certify} --seed N \
        --seconds S --trace {0,1}

Set-up (imports, input generation, graph6 writing) is timed several times,
each in a fresh interpreter. Then whole passes over the workload's inputs
run back to back, one input after another in this single process, until
the pass times add up to ``--seconds``, to the nearest whole pass (at least
one pass). Every pass is checked by the workload's correctness gate.
Set-ups and passes are timed twice over: by wall clock, and calibrated to a
reference machine speed (see ``calibration.py``); the metrics are medians
of calibrated times.

With ``--trace 0`` the result carries the end-to-end metrics: median
calibrated pass time ``wall_cal_s``, this process's peak RSS, and
``setup_s``; the median wall time is printed beside them. With
``--trace 1`` untraced and traced passes alternate; the result carries the
per-layer metrics of the traced passes (medians) and the tracing overhead.
The last line of standard output is the JSON result; the lines before it
repeat every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

import calibration
import tracing
import workloads

SETUP_SAMPLES = 9
OUT_DIR = ".perfbench_out"     # scratch inputs, spans and counters; git-ignored
MAX_REASONS = 10               # gate messages printed per pass


def metric_units(root: str, trace: int) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced input sets with their own recorded digests (for tests)")
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print it; used for the set-up samples")
    return p.parse_args(argv)


def timed_setup(args, root: str, workdir: str):
    """Returns ((wall s, calibrated s), workload)."""
    with calibration.SpeedProbe() as probe:
        pkg = workloads.load_package(root)
        workload = workloads.WORKLOADS[args.workload](pkg, args.seed, workdir, args.smoke)
    return (probe.wall, probe.calibrated), workload


def setup_sample(args) -> tuple[float, float]:
    """One set-up in a fresh interpreter, so imports are paid again."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()}")
    wall, cal = proc.stdout.strip().splitlines()[-1].split()
    return float(wall), float(cal)


def one_pass(workload, tracer):
    """Run one pass; returns (wall s, calibrated s, output)."""
    gc.collect()
    if tracer is None:
        with calibration.SpeedProbe() as probe:
            output = workload.run(None)
    else:
        with tracer.patched(workload.pkg), calibration.SpeedProbe() as probe:
            output = workload.run(tracer)
    return probe.wall, probe.calibrated, output


def compare_counters(root: str, key: str, traced: list[dict]) -> int:
    """Count counters that differ between this run's traced passes or from
    an earlier run of the same workload, seed and package source."""
    first = traced[0]
    differing = {k for counters in traced[1:] for k in first if counters[k] != first[k]}
    path = os.path.join(root, OUT_DIR, "counters.json")
    try:
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
    except (OSError, ValueError):
        stored = {}
    earlier = stored.setdefault(key, first)
    differing |= {k for k in first if earlier.get(k) != first[k]}
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    for k in sorted(differing):
        print(f"counter mismatch: {k} differs between runs ({key})", file=sys.stderr)
    return len(differing)


def write_spans(root: str, args, spans: list[list]) -> None:
    path = os.path.join(root, OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, input_id, parent, start, end) in enumerate(spans):
            fh.write(json.dumps({"span": i, "name": name, "input": input_id,
                                 "parent": parent, "start": start, "end": end}) + "\n")


def measure(args, root: str, workload):
    """Closed loop of whole passes; with tracing, passes alternate
    untraced / traced so both see the same machine state."""
    walls, cals, traced_cals, layers, counters = [], [], [], [], []
    attempted = failed = 0
    spans = []
    busy = 0.0    # pass time only; the gate's checks do not use up --seconds
    i = 0
    while True:
        tracer = tracing.Tracer() if args.trace and i % 2 == 1 else None
        wall, cal, output = one_pass(workload, tracer)
        failures = workload.check(output)
        attempted += workload.inputs
        failed += len(failures)
        for gid, why in list(failures.items())[:MAX_REASONS]:
            print(f"gate: pass {i}: {gid}: {why}", file=sys.stderr)
        if tracer is None:
            walls.append(wall)
            cals.append(cal)
        else:
            traced_cals.append(cal)
            layers.append(tracing.layer_metrics(tracer.spans, tracer.counters))
            counters.append(dict(tracer.counters))
            spans = tracer.spans
        busy += wall
        i += 1
        # stop at the pass boundary nearest to --seconds
        if busy + busy / i / 2 >= args.seconds and (not args.trace or i >= 2):
            break
    return walls, cals, traced_cals, layers, counters, spans, attempted, failed


def report(args, root: str, inputs: int, setup_times, measured) -> dict:
    walls, cals, traced_cals, layers, counters, spans, attempted, failed = measured
    wall_s = statistics.median(walls)
    wall_cal_s = statistics.median(cals)
    lines = [f"workload={args.workload} seed={args.seed} inputs_per_pass={inputs} "
             f"passes={len(walls)} traced_passes={len(traced_cals)}",
             f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} inputs failed)",
             f"wall_s = {wall_s:.6g} s (median pass wall time, not calibrated)"]
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(cal for _, cal in setup_times),
            "wall_cal_s": wall_cal_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        lines.append("setup samples (s, wall/calibrated): "
                     + " ".join(f"{wall:.4f}/{cal:.4f}" for wall, cal in setup_times))
        lines.append(f"pass walls (s): {' '.join(f'{t:.4f}' for t in walls)}")
        lines.append(f"pass calibrated (s): {' '.join(f'{t:.4f}' for t in cals)}")
    else:
        # counters are exact (compared below), times are medians
        metrics = {k: layers[0][k] if k in tracing.COUNTERS
                   else statistics.median(m[k] for m in layers) for k in layers[0]}
        traced_cal = statistics.median(traced_cals)
        metrics["run.wall_s"] = wall_s
        metrics["trace.wall_cal_s"] = traced_cal
        metrics["trace.overhead_s"] = traced_cal - wall_cal_s
        key = (f"{args.workload}|seed={args.seed}|smoke={int(args.smoke)}"
               f"|src={workloads.source_digest(root)[:16]}")
        metrics["trace.counter_mismatches"] = compare_counters(root, key, counters)
        write_spans(root, args, spans)
        lines.append(f"untraced wall_cal_s = {wall_cal_s:.6g} s over {len(walls)} passes")
    units = metric_units(root, args.trace)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(units)}")
    for name, value in metrics.items():
        lines.append(f"{name} = {value:.6g} {units[name]}")
    for line in lines:
        print(line)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    try:
        os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, OUT_DIR))
    except OSError as exc:
        print(f"error: cannot create the work directory: {exc}", file=sys.stderr)
        return 2
    try:
        setup, workload = timed_setup(args, root, workdir)
        if args.setup_only:
            print(*map(repr, setup))
            return 0
        setup_times = [setup] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
        result = report(args, root, workload.inputs, setup_times,
                        measure(args, root, workload))
    except workloads.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
