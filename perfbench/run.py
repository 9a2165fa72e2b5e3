"""loceret benchmark: one workload per run, or all four with --workload all.

    python3 perfbench/run.py --workload sim-fibre --seed 1 --seconds 12 --trace 0

With --trace 0 the run measures the end-to-end metrics with tracing off;
with --trace 1 it measures the per-layer metrics from a traced run, the
tracing overhead and the layer microbenchmarks, and writes the trace to
.perfbench/.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_RUNS = 7

END_TO_END = {"ops_per_s": "1/s", "degraded_read_p50_us": "us",
              "degraded_read_p75_us": "us", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)   # one set-up, timed by the parent
    return parser.parse_args(argv)


def _import_package():
    """Import loceret from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "loceret")):
        raise ImportError("no loceret package in the checkout")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import loceret   # noqa: F401  (fails fast when the package is broken)


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    idx = max(0, min(len(sorted_values) - 1, int(len(sorted_values) * p + 0.5) - 1))
    return sorted_values[idx]


def timed_setups(workload: str, seed: int, clock) -> list[float]:
    """Process start to ready, in fresh interpreters: import, build_code and
    every coordinate's plan.  Each child is waited for before the next.

    This process and its children share one CPU meanwhile, so that the
    clock's ticks here calibrate against the core the children run on."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-child",
           "--workload", workload, "--seed", str(seed)]
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    times = []
    try:
        for _ in range(SETUP_RUNS):
            t0 = clock.now()
            with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as child:
                line = child.stdout.readline()
                elapsed = clock.now() - t0
                child.stdout.read()
            if child.returncode != 0 or line != b"ready\n":
                raise RuntimeError(f"set-up child failed with code {child.returncode}")
            times.append(elapsed)
    finally:
        os.sched_setaffinity(0, allowed)
    return times


def git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, "r", encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), "r", encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def provenance(args, samples: dict) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "git_sha": git_sha(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "samples": samples}


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def end_to_end(args, wl, tally):
    setup_times = timed_setups(args.workload, args.seed, wl.clock)
    setup = wl.setup()
    result = wl.run(setup, args.seconds, tally)
    wl.extra_checks(setup, tally)
    lat = result["latencies"].sorted()
    metrics = {
        "ops_per_s": statistics.median(result["rates"]),
        "degraded_read_p50_us": percentile(lat, 0.50) * 1e6,
        "degraded_read_p75_us": percentile(lat, 0.75) * 1e6,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"ops_per_s": len(result["rates"]), "ops": result["ops"],
               "degraded_read_p50_us": len(lat), "degraded_read_p75_us": len(lat),
               "setup_s": len(setup_times)}
    lines = [f"  {wl.headline:<22} = ops_per_s "
             f"({result['ops']} {wl.op_unit}s in {len(result['rates'])} samples)",
             f"  {'degraded_read_p90_us':<22} {percentile(lat, 0.90) * 1e6:.6g} us",
             f"  {'degraded_read_p99_us':<22} {percentile(lat, 0.99) * 1e6:.6g} us "
             f"(n={len(lat)}; p90 and p99 are printed, not gated: they follow "
             f"the machine's jitter)"]
    if hasattr(wl, "user_bytes_per_op"):
        write = metrics["ops_per_s"] * wl.user_bytes_per_op / 1e6
        lines.append(f"  {'write_MBps':<22} {write:.6f} MB/s")
    if wl.name == "analyze-rs":
        lines.append(f"  {'analyze_s':<22} {1 / metrics['ops_per_s']:.4f} s per pair")
    return ({k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
            samples, lines)


def per_layer(args, wl, tally):
    import micro
    from tracer import PLAN_BUILDERS, Tracer
    tracers = {"setup": Tracer("setup"), "prefix": Tracer("prefix"),
               "main": Tracer("main"), "reads": Tracer("reads")}
    with tracers["setup"]:
        setup = wl.setup()
    result = wl.run(setup, args.seconds, tally, trace_main=tracers["main"],
                    trace_reads=tracers["reads"])
    untraced_s, traced_s = wl.extra_checks(setup, tally, traced=tracers["prefix"])
    main = tracers["main"]
    ops = result["ops"]
    layer_self = main.layer_self_s()
    busy = sum(layer_self.values())

    def count(name, among=tracers.values()):
        return sum(t.count(name) for t in among)

    repairs = count("localrepair.repair", (main, tracers["reads"]))
    planning = (tracers["setup"], main)   # the read path's own cache excluded
    lookups = count("localrepair.PlanCache.get_or_build", planning)
    values = {
        "galois.mul_calls_per_op": count("galois.Field.mul", (main,)) / ops,
        "galois.add_calls_per_op": count("galois.Field.add", (main,)) / ops,
        "galois.field_build_ms": tracers["setup"].total_s("galois.Field.__init__") * 1e3,
        "descriptor.build_code_ms": tracers["setup"].total_s("descriptor.build_code") * 1e3,
        "codeops.t_locality_share": main.total_s("codeops.t_locality") / busy,
        "codeops.min_distance_share": main.total_s("codeops.min_distance") / busy,
        "codeops.ghw_share": main.total_s("codeops.ghw") / busy,
        "codeops.is_edr_set_calls_per_op": count("codeops.is_edr_set", (main,)) / ops,
        "codeops.rank_calls_per_op": count("codeops._rank_cols", (main,)) / ops,
        "rscodes.encode_calls_per_op": count("rscodes.encode", (main,)) / ops,
        "localrepair.repair_calls_per_op": count("localrepair.repair", (main,)) / ops,
        "localrepair.plan_builds": sum(count(name) for name in PLAN_BUILDERS),
        "localrepair.plan_cache_hit_ratio":
            1 - count("localrepair.PlanCache.miss", planning) / lookups,
        "localrepair.detected_share":
            count("localrepair.repair.detected", (main, tracers["reads"])) / repairs
            if repairs else 0.0,
        "storagesim.cpu_per_wall": main.cpu / main.wall,
        "trace.overhead_ratio": (traced_s - untraced_s) / untraced_s,
        "trace.spans": sum(len(t.spans) for t in tracers.values()),
    }
    for layer, seconds in layer_self.items():
        values[f"{layer}.self_share"] = seconds / busy
    values.update(micro.run(args.seed, wl.clock.now))

    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{wl.name}-{args.seed}.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({name: t.to_dict() for name, t in tracers.items()}, fh)
    spec = _benchmark_spec()["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    samples = {"ops": ops, "prefix_s": [untraced_s, traced_s]}
    lines = [f"  trace written to {os.path.relpath(trace_path, ROOT)}"]
    return metrics, samples, lines


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_one(args) -> int:
    from refclock import RefClock
    from workloads import WORKLOADS, AnalyzeRs, Tally
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        with RefClock() as clock:
            wall0, cal0 = time.perf_counter(), clock.now()
            wl = WORKLOADS[args.workload](args.seed, clock)
            if isinstance(wl, AnalyzeRs):
                wl.workdir = workdir
            tally = Tally()
            measure = per_layer if args.trace else end_to_end
            metrics, samples, lines = measure(args, wl, tally)
            speed = (clock.now() - cal0) / (time.perf_counter() - wall0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines.append(f"  times are calibrated (perfbench/refclock.py): {speed:.4f} "
                 f"calibrated s per wall s over this run, {clock.ticks} ticks")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    for name, metric in metrics.items():
        n = samples.get(name, "")
        print(f"  {name:<34} {metric['value']:.6g} {metric['unit']}"
              + (f"  (n={n})" if n != "" else ""))
    for line in lines:
        print(line)
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'failed_frac':<34} {frac:.6g}  ({tally.failed} of {tally.attempted})")
    for note in tally.notes:
        print(f"  FAILED: {note}")
    print("provenance " + json.dumps(provenance(args, samples), sort_keys=True))
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    from workloads import WORKLOADS
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} failed with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        _import_package()
    except ImportError as exc:
        print(f"cannot import loceret from {os.path.join(ROOT, 'src')}: {exc}",
              file=sys.stderr)
        return 2
    if args.setup_child:
        from workloads import WORKLOADS
        WORKLOADS[args.workload](args.seed).setup()
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
