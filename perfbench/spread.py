"""Run-to-run spread of the end-to-end metrics: runs one workload (or all)
once per seed, one run at a time, and reports each metric's median and
quartile spread (Q3 - Q1) / median, as statistics.quantiles(values, n=4)
gives the quartiles.

    python3 perfbench/spread.py --workload sim-fibre --seeds 1-10 [--out FILE]

Use it to check that the benchmark is steady (every spread well inside the
metric's bound in BENCHMARK.json) and to record a baseline for comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_from(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", help="write the runs and the summary here as JSON")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
             else [args.workload])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for name in names:
        runs = []
        for seed in seeds_from(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            ok &= proc.returncode == 0 and result["correct"]
            provenance = [json.loads(line.split(" ", 1)[1]) for line in lines
                          if line.startswith("provenance ")]
            runs.append({"seed": seed, **result, "provenance": provenance[0]})
            print(f"{name} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        summary = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary[metric] = {"median": med, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / med, "bound": bound}
            print(f"  {name:<12} {metric:<22} median {med:<12.6g} "
                  f"spread {(q3 - q1) / med:.4f} (bound {bound})")
        report["workloads"][name] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
