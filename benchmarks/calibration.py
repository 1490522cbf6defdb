"""Machine-speed calibration for timings taken on a shared host.

On a host shared with other tenants the interpreter's speed drifts: the
same pure-Python work can take 1.5 times longer in one second than in
the next.  The benchmark therefore times a fixed reference work
interleaved with the timed operations (every few operations, or around
each census table and each set-up probe) and scales the operations'
times by ``NOMINAL_S / reference``, the ratio of the reference's nominal
duration to its measured one.  A reported time is thus the time the
operation would take on a machine where the reference work takes
``NOMINAL_S``.  The reference work calls no engine code, so a change to
the engine moves the scaled timings exactly as it moves the raw ones.
Runs also report the unscaled figures.

This module imports nothing but ``time.perf_counter``, so the set-up
probe can load it without importing any module the engine needs.
"""

from time import perf_counter

# Median duration of ``reference_work`` on an idle 2-vCPU x86-64 host with
# CPython 3.11.
NOMINAL_S = 1.2e-3
REPEATS = 7


def reference_work() -> int:
    """Fixed interpreter-bound work: tuples, dicts, hashing and a big-integer gcd."""
    table = {}
    acc = 0
    big = 3 ** 120
    for i in range(1200):
        key = (i, i % 7, i * 31)
        table[key] = acc
        a, b = big + i, 1000003 * i + 1
        while b:
            a, b = b, a % b
        acc = (acc + a + len(key) + (hash(key) & 0xFF)) % 1_000_000_007
    return acc


def reference_once() -> float:
    """Duration of one call of the reference work, in seconds."""
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


def reference_s() -> float:
    """Median duration of the reference work over ``REPEATS`` calls."""
    times = sorted(reference_once() for _ in range(REPEATS))
    return times[REPEATS // 2]


def scale(reference: float) -> float:
    """Factor that turns a time measured while the reference work took
    ``reference`` seconds into nominal time."""
    return NOMINAL_S / reference
