#!/usr/bin/env python3
"""Run one benchmark workload against the engine in this checkout.

Usage (from the root of the checkout):

    python3 benchmarks/run.py --workload census|documents|long_twists \\
        --seed N --seconds S --trace 0|1

The engine is imported from ``src/`` next to this directory, never from an
installed copy; without it the script exits with code 2 and prints no
result.  Inputs come from the seed alone.  One caller runs operations in
a closed loop, batch after batch, for about S seconds of wall time; every
output is checked against an expected outcome computed without the
engine.

``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the
per-layer ones (see README.md).  The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``.  The line
before it is ``{"info": ...}``: the interpreter, ``nproc``, the line
count of each engine module and the counts behind the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_PROBES = 7           # measured cold starts per run; one more warms the bytecode cache
PROBE_TIMEOUT_S = 60
MAX_SPANS = 800_000        # about 30 MB of span columns


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    k = math.ceil(q * len(sorted_values)) - 1
    return sorted_values[max(0, min(len(sorted_values) - 1, k))]


def sloc() -> dict[str, int]:
    """Lines that are neither blank nor comments, per engine module and in total."""
    counts = dict.fromkeys(metrics.SLOC_MODULES, 0)
    total = 0
    for path in sorted((SRC / "tritangle").glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        n = sum(1 for line in lines if line.strip() and not line.strip().startswith("#"))
        name = path.stem.strip("_")
        if name in counts:
            counts[name] = n
        total += n
    out = {f"{name}.sloc": n for name, n in counts.items()}
    out["tritangle.sloc"] = total
    return out


def measure_setup(workload: str, payload: dict) -> list[dict]:
    """Cold starts in fresh interpreters, one after another; the first is discarded."""
    cmd = [sys.executable, "-I", str(BENCH_DIR / "setup_probe.py"), str(SRC), workload,
           json.dumps(payload)]
    samples = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        sample = json.loads(done.stdout.splitlines()[-1])
        if Path(sample["file"]).resolve().parent.parent != SRC.resolve():
            raise RuntimeError(f"set-up probe imported the engine from {sample['file']}")
        samples.append(sample)
    return samples[1:]


def scaled_median(samples: list[dict], key: str) -> float:
    """Median over set-up probes of one duration, in nominal seconds."""
    return statistics.median(s[key] * s["scale"] for s in samples)


def run_batches(w, seconds: float, totals, tracer=None) -> list[tuple[bool, object]]:
    """(traced, batch) pairs until the wall-clock budget is spent.

    Each batch is checked after it ran and its outputs are then dropped.
    With a tracer, every second batch runs traced, and the loop also stops
    once the tracer holds its maximum number of spans.
    """
    w.run(w.batch(-1))  # warm-up batch, neither timed nor counted
    done_batches = []
    deadline = time.monotonic() + seconds
    index = 0
    while True:
        inputs = w.batch(index)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
            try:
                batch = w.run(inputs, tracer.op_wrapper)
            finally:
                tracer.uninstall()
        else:
            batch = w.run(inputs)
        totals.merge(w.check(inputs, batch))
        batch.outputs = None
        done_batches.append((traced, batch))
        index += 1
        done = time.monotonic() >= deadline or (tracer is not None and tracer.full)
        if done and (tracer is None or index >= 2):
            return done_batches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("census", "documents", "long_twists"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tritangle" / "__init__.py").is_file():
        print(f"error: no engine sources at {SRC / 'tritangle'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tritangle
    if Path(tritangle.__file__).resolve().parent.parent != SRC.resolve():
        print(f"error: imported the engine from {tritangle.__file__}", file=sys.stderr)
        return 2

    w = workloads.WORKLOADS[args.workload](workloads.Engine(), args.seed)
    probes = measure_setup(args.workload, w.probe())
    totals = workloads.Checked()
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "implementation": platform.python_implementation(), "nproc": os.cpu_count(),
            "setup_probes": len(probes)}

    if args.trace:
        tracer = tracing.Tracer(MAX_SPANS)
        done = run_batches(w, args.seconds, totals, tracer)
        traced = [b for t, b in done if t]
        plain = [b for t, b in done if not t]
        traced_ops = sum(b.ops for b in traced)
        values = tracer.summary(traced_ops, statistics.median(b.scale for b in traced))
        values["import.tritangle_ms"] = scaled_median(probes, "import_tritangle_s") * 1e3
        values["import.cli_ms"] = scaled_median(probes, "import_cli_s") * 1e3
        values["trace.overhead_share"] = 1 - (statistics.median(b.rate for b in traced)
                                              / statistics.median(b.rate for b in plain))
        values.update(sloc())
        spans_dir = OUT_DIR / f"{args.workload}-seed{args.seed}"
        tracer.write(spans_dir, {"workload": args.workload, "seed": args.seed,
                                 "traced_ops": traced_ops})
        info.update(traced_batches=len(traced), plain_batches=len(plain),
                    traced_ops=traced_ops, spans=tracer.spans,
                    spans_dir=str(spans_dir.relative_to(ROOT)))
        units = metrics.PER_LAYER
    else:
        done = run_batches(w, args.seconds, totals)
        batches = [b for _, b in done]
        latencies = w.latencies(batches)
        values = {
            "setup_s": scaled_median(probes, "setup_s"),
            "ops_per_s": statistics.median(b.rate for b in batches),
            "latency_ms.p50": percentile(latencies, 0.50) / 1e6,
            "latency_ms.p99": percentile(latencies, 0.99) / 1e6,
            "ok_share": (totals.attempted - totals.failed) / totals.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        info.update(batches=len(batches), latency_samples=len(latencies),
                    unscaled_ops_per_s=statistics.median(b.ops / b.raw_seconds for b in batches),
                    unscaled_setup_s=statistics.median(p["setup_s"] for p in probes))
        units = metrics.END_TO_END
    scales = sorted(b.scale for _, b in done)
    info.update(scale={"median": statistics.median(scales), "min": scales[0],
                       "max": scales[-1], "probes": statistics.median(p["scale"] for p in probes)},
                attempted=totals.attempted, failed=totals.failed, wrong=totals.wrong,
                crashes=totals.crashes, sloc=sloc())

    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": totals.wrong == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
