"""The reference kernel, the normalization of raw times, and percentiles.

Raw time on a shared two-core machine drifts by tens of percent within a
minute, so every end-to-end time is divided by the mean time of a fixed
reference kernel measured in the same process before, during and after the
timed work, then scaled by ``NOMINAL_REF_S``. The kernel is pure Python in
the style of the program's own exact kernels (dicts keyed by int tuples,
``Fraction`` arithmetic), imports nothing from gjms6, and runs with the
garbage collector paused, so a change that grows the program's heap cannot
slow the yardstick.
"""
from __future__ import annotations

import gc
import math
import time
from fractions import Fraction

# Nominal time of one reference repetition. A normalized time reads as the
# seconds the work would take on a machine where one repetition takes this.
NOMINAL_REF_S = 0.020

# A percentile is reported only when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _operand(k: int) -> dict:
    return {(i % 3, (i * k) % 4, (i + k) % 5): Fraction(i - 7, i + k + 1) for i in range(14)}


def _kernel_work() -> int:
    terms = 0
    for _ in range(4):
        a, b = _operand(1), _operand(2)
        for _ in range(6):
            p = _mul(a, b)
            terms += len(p)
            a = dict(list(p.items())[:14])
    return terms


# Number of terms the kernel produces; checked on every run.
KERNEL_TERMS = 2064


def reference_kernel() -> float:
    """Raw seconds of one repetition of the reference kernel, GC paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        terms = _kernel_work()
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if terms != KERNEL_TERMS:
        raise RuntimeError("reference kernel produced a different result")
    return elapsed


def normalize(raw_s: float, ref_s: float, nominal_s: float = NOMINAL_REF_S) -> float:
    """Raw seconds measured while one reference repetition took ``ref_s``,
    expressed at the nominal reference speed."""
    if raw_s < 0 or ref_s <= 0:
        raise ValueError("need raw_s >= 0 and ref_s > 0")
    return raw_s * nominal_s / ref_s


def median(values) -> float:
    v = sorted(values)
    if not v:
        raise ValueError("median of no values")
    m = len(v) // 2
    return v[m] if len(v) % 2 else 0.5 * (v[m - 1] + v[m])


def min_samples_for(q: float) -> int:
    """Fewest samples for which the q-quantile has MIN_SAMPLES_BEYOND samples
    above it: 20 for the median, 100 for p90."""
    if not 0 < q < 1:
        raise ValueError("quantile must lie in (0, 1)")
    return math.ceil(MIN_SAMPLES_BEYOND / (1.0 - q) - 1e-9)


def percentile(values, q: float) -> float | None:
    """Nearest-rank q-quantile, or None when fewer than min_samples_for(q)
    samples were gathered."""
    v = sorted(values)
    if len(v) < min_samples_for(q):
        return None
    return v[math.ceil(q * len(v)) - 1]
