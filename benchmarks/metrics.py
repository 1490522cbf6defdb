"""Names and units of the metrics ``run.py`` prints.

BENCHMARK.json at the root of the checkout lists the same names; the
benchmark's tests check that the two agree.
"""

import oracle
import tracing

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.p99": "ms",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}

SLOC_MODULES = ("annuli", "catalog", "census", "cli", "errors", "frac", "init", "jsonio",
                "main", "rect", "tangle", "verdict")


def _per_layer() -> dict[str, str]:
    units = {}
    for name in tracing.SPAN_NAMES[1:]:
        units[f"{name}.calls"] = "calls/op"
        units[f"{name}.self_us"] = "us/op"
    units.update({
        "frac.cf_eval.entries": "entries/op",
        "frac.fractions_built": "objects/op",
        "tangle.resolve.repeat_share": "share",
        "verdict.branches_hit": "count",
        "jsonio.loads_decomposition.bytes": "B/op",
        "jsonio.rejected_share": "share",
        "import.tritangle_ms": "ms",
        "import.cli_ms": "ms",
        "trace.op_us": "us/op",
        "trace.residual_us": "us/op",
        "trace.overhead_share": "share",
    })
    for status in oracle.STATUSES:
        units[f"verdict.status.{status}"] = "verdicts/op"
    for label in oracle.BRANCHES:
        units[tracing.branch_metric(label)] = "verdicts/op"
    for name in SLOC_MODULES + ("tritangle",):
        units[f"{name}.sloc"] = "lines"
    return units


PER_LAYER = _per_layer()
