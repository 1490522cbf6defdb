#!/usr/bin/env python3
"""Run workloads over several seeds and summarize each metric's spread.

Usage (from the root of the checkout):

    python3 benchmarks/repeat.py --seeds 1 2 3 [--workloads census ...]
        [--seconds S] [--trace 0|1] [--out FILE]

Each run is ``benchmarks/run.py`` in a fresh interpreter, one at a time.
With one seed this is the single command that runs every workload,
checks every output and prints each metric by name with its unit.  With
more, it prints per metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, against the
metric's bound from BENCHMARK.json.  ``--out`` writes the runs and the
summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    return dict(json.loads(lines[-1]), info=json.loads(lines[-2])["info"])


def spread(values: list[float]) -> dict:
    """Median, quartiles and the inter-quartile distance as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    report = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
              "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        units = {name: m["unit"] for name, m in runs[0]["metrics"].items()}
        summary = {name: dict(spread([r["metrics"][name]["value"] for r in runs]),
                              unit=units[name]) for name in units}
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "crashes": [r["info"]["crashes"] for r in runs],
            "environment": {k: runs[0]["info"][k] for k in ("python", "implementation", "nproc")},
            "metrics": summary,
            "runs": [{"seed": r["info"]["seed"],
                      "metrics": {k: v["value"] for k, v in r["metrics"].items()}} for r in runs],
        }
        w = report["workloads"][workload]
        print(f"{workload}: correct={w['correct']} attempted={w['attempted']} "
              f"failed={w['failed']} ({w['failed'] / w['attempted']:.4%} of attempted)")
        for name, s in summary.items():
            line = f"  {name:<40} {s['median']:>14.6g} {s['unit']:<12}"
            if "spread" in s:
                line += f" q1={s['q1']:.6g} q3={s['q3']:.6g} spread={s['spread']:.4f}"
                bound = bounds.get(name)
                if bound is not None and name != "setup_s":
                    verdict = "OK" if s["spread"] < bound / 3 else "WIDE"
                    line += f" (bound/3={bound / 3:.4f} {verdict})"
            print(line)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
