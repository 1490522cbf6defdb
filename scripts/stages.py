#!/usr/bin/env python3
"""Print the documents path's cost by stage, in µs per document.

Over the documents of ``capture.py`` (the benchmark's ``documents`` workload, seeds 201 and
777), the ones ``loads_decomposition`` accepts are run through each stage in turn, the refused
ones through ``refused``, and each stage's best of ``REPEAT`` timed passes is printed as one
``<stage>: <µs>`` line:

- ``decode``: the C decoder alone (``json.loads``), for scale;
- ``loads_decomposition``: decode, repeated-field check and schema walk;
- ``refused``: ``loads_decomposition`` over the documents it refuses instead (malformed or
  hostile), up to its ``DocumentError``;
- ``classify``: the verdict of each decomposition;
- ``dumps_decomposition``: each decomposition's document text;
- ``summary``: each verdict's ``Verdict.summary()`` and ``str(annulus_count)``, as
  ``tritangle classify --json`` and the benchmark's ``verdict_json`` call them.

A last line, ``engine_calls: <n>``, gives the Python calls made in the engine's own modules per
accepted document over the four engine stages, counted once with ``sys.setprofile`` outside the
timed passes.

Like ``capture.py`` it needs only the standard library and runs under any supported Python,
also with ``-S``::

    python -S scripts/stages.py
"""

from __future__ import annotations

import json
import os
import sys
import time

# capture.py puts this checkout's src and benchmarks first on sys.path, and its documents are
# the ones timed here
from capture import BATCHES, SEEDS, DocumentError, generators, jsonio, verdict, workloads

REPEAT = 7


def documents() -> tuple[list[str], list, list[str]]:
    """The accepted documents' texts and decompositions, and the refused documents' texts."""
    texts, decompositions, refused = [], [], []
    catalog = workloads.catalog_documents(workloads.Engine())
    for seed in SEEDS:
        for index in BATCHES:
            for case in generators.documents_batch(seed, index, catalog):
                if case.verdict is None:  # the generator's own oracle expects a DocumentError
                    refused.append(case.text)
                else:
                    texts.append(case.text)
                    decompositions.append(jsonio.loads_decomposition(case.text))
    return texts, decompositions, refused


def best_us(stage, inputs: list) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter_ns()
        for item in inputs:
            stage(item)
        best = min(best, time.perf_counter_ns() - start)
    return best / len(inputs) / 1000


def refuse(text: str) -> None:
    try:
        jsonio.loads_decomposition(text)
    except DocumentError:
        pass


def summarize(v) -> tuple:
    # a verdict's summary and count, as classify --json and verdict_json write them
    return v.summary(), str(v.annulus_count) if v.annulus_count is not None else None


def engine_calls(texts: list[str]) -> float:
    """The Python calls made in the engine's modules per document, over the engine stages."""
    engine, calls = os.path.dirname(jsonio.__file__) + os.sep, 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(engine):
            calls += 1

    sys.setprofile(count)
    try:
        for text in texts:
            decomposition = jsonio.loads_decomposition(text)
            summarize(verdict.classify(decomposition))
            jsonio.dumps_decomposition(decomposition)
    finally:
        sys.setprofile(None)
    return calls / len(texts)


def main() -> int:
    texts, decompositions, refused = documents()
    verdicts = [verdict.classify(d) for d in decompositions]
    for name, stage, inputs in (("decode", json.loads, texts),
                                ("loads_decomposition", jsonio.loads_decomposition, texts),
                                ("refused", refuse, refused),
                                ("classify", verdict.classify, decompositions),
                                ("dumps_decomposition", jsonio.dumps_decomposition,
                                 decompositions),
                                ("summary", summarize, verdicts)):
        print(f"{name}: {best_us(stage, inputs):.2f}")
    print(f"engine_calls: {engine_calls(texts):.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
