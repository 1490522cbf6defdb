"""Tests of the benchmark itself: generators, oracle, metric names and runs.

Run from the root of the checkout:

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import generators
import metrics
import oracle
import workloads

BENCH_DIR = Path(workloads.__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def engine():
    return workloads.Engine()


@pytest.fixture(scope="module")
def catalog(engine):
    return workloads.catalog_documents(engine)


# ---------------------------------------------------------------------------
# Generators


def test_documents_batch_is_deterministic(catalog):
    first = generators.documents_batch(3, 2, catalog)
    again = generators.documents_batch(3, 2, catalog)
    other = generators.documents_batch(4, 2, catalog)
    assert [(c.text, c.label) for c in first] == [(c.text, c.label) for c in again]
    assert [c.text for c in first] != [c.text for c in other]


def test_long_batch_and_census_pass_are_deterministic():
    assert generators.long_batch(3, 1) == generators.long_batch(3, 1)
    assert generators.long_batch(3, 1) != generators.long_batch(4, 1)
    assert generators.census_pass(3, 1, 20) == generators.census_pass(3, 1, 20)


def test_documents_batch_has_the_fixed_mix(catalog):
    labels = Counter(case.label for case in generators.documents_batch(7, 0, catalog))
    assert sum(labels.values()) == generators.BATCH_DOCS
    assert labels["hostile"] == generators.HOSTILE_PER_BATCH
    assert labels["malformed"] == generators.MALFORMED_PER_BATCH
    assert labels["catalog"] == labels["mirror"] == generators.CATALOG_PER_BATCH // 2
    assert all(labels[target] > 0 for target in generators.TARGETS)


def test_generated_documents_land_in_their_target_class(catalog):
    for case in generators.documents_batch(8, 0, catalog):
        if case.label in generators.TARGETS:
            verdict = case.verdict
            assert case.label in (verdict["status"], verdict.get("branch")), case.text


def test_long_vectors_are_canonical_expansions():
    for case in generators.long_batch(5, 0):
        for vector, (p, q) in zip(case.vectors, case.values):
            assert generators.LONG_MIN <= len(vector) <= generators.LONG_MAX
            assert oracle.fold(vector) == Fraction(p, q)
            assert oracle.expand(Fraction(p, q)) == vector


# ---------------------------------------------------------------------------
# The oracle against the engine


def _one(w, case, out) -> bool:
    return w.check([case], workloads.Batch(1, 0, [0], [out], 0)).failed == 0


def test_oracle_agrees_with_engine_on_documents_except_hostile(engine):
    w = workloads.Documents(engine, seed=5)
    cases = w.batch(0)
    batch = w.run(cases)
    failing = [case.label for case, out in zip(cases, batch.outputs) if not _one(w, case, out)]
    assert set(failing) <= {"hostile"}


def test_oracle_agrees_with_engine_on_long_twists(engine):
    w = workloads.LongTwists(engine, seed=5)
    inputs = w.batch(0)
    assert w.check(inputs, w.run(inputs)).failed == 0


@pytest.mark.parametrize("kind", generators.CENSUS_KINDS)
def test_oracle_census_matches_engine(engine, kind):
    census = engine.census
    assert oracle.census_csv(kind, 31) == census.census_csv(census.run_census(kind, 31))


def test_oracle_reproduces_the_stored_catalog_verdicts(catalog):
    for doc, stored in catalog:
        assert oracle.expect(doc) == stored
        assert oracle.expect(generators.mirror(doc)) == stored


# ---------------------------------------------------------------------------
# BENCHMARK.json and runs


def test_benchmark_json_lists_the_printed_metrics():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "9",
           "--seconds", "0.1", "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_prints_every_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    hostile_share = generators.HOSTILE_PER_BATCH / generators.BATCH_DOCS
    allowed = hostile_share if workload == "documents" else 0
    assert result["failed"] <= result["attempted"] * allowed
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        layers = sum(v for k, v in values.items() if k.endswith(".self_us"))
        accounted = layers + values["trace.residual_us"]
        assert accounted == pytest.approx(values["trace.op_us"], rel=1e-6)
    else:
        assert all(v > 0 for v in values.values())


def test_run_fails_without_engine_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("census", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
