"""Arithmetic shared by ``run.py`` and its repetitions.

Pure functions and one span recorder; nothing here imports gpdtools, so
``run.py`` can use it before it has checked that the library is present.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: A tail percentile is only trustworthy with this many samples beyond it.
MIN_BEYOND = 10
#: Seconds one calibration chunk takes at the reference speed (a 2-vCPU
#: Intel Xeon, Python 3.11.7).  Reported times are scaled to that speed.
CALIBRATION_REF_S = 0.006


def speed_factor(calibration) -> float:
    """Factor that scales times measured in one process to the reference
    speed: reference chunk time over the process's median chunk time.

    A shared host changes speed by tens of per cent from minute to minute,
    for this pure-Python work and the library alike; scaling by a fixed
    workload timed in the same process removes that drift and keeps the
    code's own cost.
    """
    return CALIBRATION_REF_S / statistics.median(calibration)


def percentile(values, q: int) -> float:
    """The q-th percentile (1 <= q <= 99) by linear interpolation."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    if len(data) == 1:
        return data[0]
    return statistics.quantiles(data, n=100, method="inclusive")[q - 1]


def tail(values, q: int = 99) -> tuple[float, int, bool]:
    """The q-th percentile, the number of samples strictly above it, and
    whether that number reaches :data:`MIN_BEYOND`."""
    value = percentile(values, q)
    beyond = sum(1 for v in values if v > value)
    return value, beyond, beyond >= MIN_BEYOND


def scaled(latencies, marks, calibration) -> list[float]:
    """Latencies scaled to the reference speed by the calibrations around
    each one: ``marks[i]`` indexes the last calibration before op ``i``,
    and the next one follows it."""
    return [
        t * CALIBRATION_REF_S * 2 / (calibration[m] + calibration[m + 1])
        for t, m in zip(latencies, marks)
    ]


def span_speed_factors(spans, chunk_times) -> dict[int, float]:
    """The speed factor of every span: reference chunk time over the mean
    of the calibrations just before and just after its midpoint.
    ``chunk_times`` maps each calibration span's id to its chunk time."""
    marks = sorted(((s[2] + s[3]) / 2, chunk_times[s[0]]) for s in spans if s[0] in chunk_times)
    times = [t for t, _ in marks]
    factors = {}
    for span in spans:
        i = bisect.bisect(times, (span[2] + span[3]) / 2)
        around = [chunk for _, chunk in marks[max(i - 1, 0) : i + 1]]
        factors[span[0]] = CALIBRATION_REF_S * len(around) / sum(around) if around else 1.0
    return factors


def median_per_op(runs) -> list[float]:
    """Each operation's median latency over repetitions of the same inputs.

    On a shared host an operation's outlying times are preemption by other
    tenants, different operations in each repetition; the median over
    fresh processes keeps each input's own cost.
    """
    runs = list(runs)
    if len({len(r) for r in runs}) != 1:
        raise ValueError("repetitions ran different numbers of operations")
    return [statistics.median(times) for times in zip(*runs)]


def tally(op_errors, set_errors) -> tuple[int, int]:
    """``(attempted, failed)`` from per-operation error messages (``None``
    for a correct operation) and whole-set check failures.

    Every operation is one attempt; every whole-set check is one more
    attempt, failed when it reported a message.
    """
    op_errors = list(op_errors)
    set_errors = list(set_errors)
    attempted = len(op_errors) + len(set_errors)
    failed = sum(1 for e in op_errors if e is not None)
    failed += sum(1 for e in set_errors if e is not None)
    return attempted, failed


# ---------------------------------------------------------------------------
# Spans.
# ---------------------------------------------------------------------------


class Tracer:
    """Records one span per call into the library, kept in memory.

    A span is ``(id, name, start, end, parent, op)``; ``parent`` is the id
    of the enclosing span (or ``None``) and ``op`` groups every span that
    belongs to one input table, spec or command.  Results of calls whose
    name starts with one of ``keep_results`` are kept by span id.
    """

    def __init__(self, keep_results: tuple[str, ...] = ()):
        self.spans: list[tuple[int, str, float, float, int | None, int | None]] = []
        self.results: dict[int, object] = {}
        self._keep = keep_results
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, op: int | None = None):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((span_id, name, 0.0, 0.0, parent, op))
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args)
            if name.startswith(self._keep):
                self.results[span_id] = result
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent, op)

    def to_dicts(self) -> list[dict]:
        keys = ("id", "name", "start", "end", "parent", "op")
        return [dict(zip(keys, span)) for span in self.spans]


def direct(name: str, fn, *args, op: int | None = None):
    """The untraced counterpart of :meth:`Tracer.call`."""
    return fn(*args)


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it covered by its children.

    Children of one parent may overlap (worker pools); their union is
    subtracted, never their sum.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for span_id, _, start, end, _, _ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[span_id] = (end - start) - covered
    return result


def busy_by_name(spans, factors=None) -> dict[str, float]:
    """Summed self time per span name, each span scaled by its factor."""
    own = self_times(spans)
    busy: dict[str, float] = {}
    for span in spans:
        scaled_own = own[span[0]] * (factors[span[0]] if factors else 1.0)
        busy[span[1]] = busy.get(span[1], 0.0) + scaled_own
    return busy


def calls_by_name(spans) -> dict[str, int]:
    counts: dict[str, int] = {}
    for span in spans:
        counts[span[1]] = counts.get(span[1], 0) + 1
    return counts
