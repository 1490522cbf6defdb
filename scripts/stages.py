#!/usr/bin/env python3
"""Print the documents path's cost by stage, in µs per accepted document.

Over the documents of ``capture.py`` (the benchmark's ``documents`` workload, seeds 201 and
777), the ones ``loads_decomposition`` accepts are run through each stage in turn, and each
stage's best of ``REPEAT`` timed passes is printed as one ``<stage>: <µs>`` line:

- ``decode``: the C decoder alone (``json.loads``), for scale;
- ``loads_decomposition``: decode, repeated-field check and schema walk;
- ``classify``: the verdict of each decomposition;
- ``dumps_decomposition``: each decomposition's document text.

Like ``capture.py`` it needs only the standard library and runs under any supported Python,
also with ``-S``::

    python -S scripts/stages.py
"""

from __future__ import annotations

import json
import sys
import time

# capture.py puts this checkout's src and benchmarks first on sys.path, and its documents are
# the ones timed here
from capture import BATCHES, SEEDS, generators, jsonio, verdict, workloads

REPEAT = 7


def accepted_documents() -> tuple[list[str], list]:
    texts, decompositions = [], []
    documents = workloads.catalog_documents(workloads.Engine())
    for seed in SEEDS:
        for index in BATCHES:
            for case in generators.documents_batch(seed, index, documents):
                if case.verdict is not None:  # the generator's own oracle accepts it
                    texts.append(case.text)
                    decompositions.append(jsonio.loads_decomposition(case.text))
    return texts, decompositions


def best_us(stage, inputs: list) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter_ns()
        for item in inputs:
            stage(item)
        best = min(best, time.perf_counter_ns() - start)
    return best / len(inputs) / 1000


def main() -> int:
    texts, decompositions = accepted_documents()
    for name, stage, inputs in (("decode", json.loads, texts),
                                ("loads_decomposition", jsonio.loads_decomposition, texts),
                                ("classify", verdict.classify, decompositions),
                                ("dumps_decomposition", jsonio.dumps_decomposition,
                                 decompositions)):
        print(f"{name}: {best_us(stage, inputs):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
