"""One repetition of a workload, always in a fresh interpreter.

``run.py`` starts this script once per repetition so that no
``lru_cache`` in the library survives from one repetition to the next, as
for a user running the CLI.  Modes:

- ``timed``: set up, run every operation once in a closed loop, check the
  outputs and read the library's cache counters;
- ``traced``: the same operations with a span around every library call,
  then one cold pass of each kernel over the workload's tables; prints
  per-layer metrics and writes the spans to ``perfbench/out/``.

Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import stats  # noqa: E402
import gpdtools  # noqa: E402  (from src/, on PYTHONPATH)
import workloads  # noqa: E402


#: Calibrate again after this much operation time.
CALIBRATE_EVERY_S = 0.2


def calibration_chunk() -> int:
    """Fixed pure-Python work shaped like the library's row compositions."""
    rows = tuple(tuple((x * 7 + y) % 13 for y in range(13)) for x in range(13))
    hits = 0
    for _ in range(30):
        for rx in rows:
            for y, ry in enumerate(rows):
                if rows[rx[y]] == tuple(map(rx.__getitem__, ry)):
                    hits += 1
    return hits


def _chunk_time() -> float:
    times = []
    for _ in range(3):
        t = time.perf_counter()
        calibration_chunk()
        times.append(time.perf_counter() - t)
    return sorted(times)[1]


def calibrate(call=stats.direct) -> float:
    """Seconds for one calibration chunk now: the median of three.  Traced
    runs record it as a ``bench.calibrate`` span, to scale the spans near it."""
    return call("bench.calibrate", _chunk_time)


def replay(ops, call, key, tracer=None, root: str = "bench.op", first_id: int = 0):
    """Run each op once and check its result at once, so results are not
    kept alive (they would inflate memory and garbage-collection time).

    Returns per-op error messages (``None`` when correct), per-op keys for
    the whole-set checks, per-op latencies scaled to the reference speed,
    and the calibration timings, taken before, between (outside the op
    timings) and after the ops.  An exception raised by an op is its result.
    """
    clock = time.perf_counter
    errors, keys, latencies, marks = [], [], [], []
    calibration = [calibrate(call)]
    since = 0.0
    for i, op in enumerate(ops, start=first_id):
        t = clock()
        try:
            if tracer is None:
                result = op.run(call, op.arg, i)
            else:
                result = tracer.call(root, op.run, call, op.arg, i, op=i)
        except Exception as exc:  # a failed operation is counted, not fatal
            result = exc
        latencies.append(clock() - t)
        marks.append(len(calibration) - 1)
        errors.append(checked(op.check, result))
        keys.append(workloads.raised(result) or key(result))
        since += latencies[-1]
        if since >= CALIBRATE_EVERY_S:
            calibration.append(calibrate(call))
            since = 0.0
    calibration.append(calibrate(call))
    return errors, keys, stats.scaled(latencies, marks, calibration), calibration


def checked(check, result) -> str | None:
    try:
        return check(result)
    except Exception as exc:  # a malformed output is a failed check
        return f"check raised {type(exc).__name__}: {exc}"


def digest(keys) -> str:
    h = hashlib.sha256()
    for k in keys:
        h.update(repr(k).encode())
    return h.hexdigest()


#: The library's public ``lru_cache``s.
CACHED = {
    "inverse_table": gpdtools.inverse_table,
    "automorphisms": gpdtools.automorphisms,
    "involutive_automorphisms": gpdtools.involutive_automorphisms,
    "involutions": gpdtools.involutions,
}


def cache_counts() -> dict:
    return {name: fn.cache_info()._asdict() for name, fn in CACHED.items()}


def clear_caches():
    """Empty the library's caches, as in a fresh process."""
    for fn in CACHED.values():
        fn.cache_clear()


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024


# ---------------------------------------------------------------------------
# Kernel passes (traced runs only).
# ---------------------------------------------------------------------------


def kernel_passes(tracer, inputs) -> dict:
    """Call each kernel once per input table, every pass starting with the
    library's caches empty; returns the outcome counts."""
    from gpdtools import (
        VARIETIES,
        Groupoid,
        NotInverse,
        automorphisms,
        e_fixed_involutive_automorphisms,
        identity_mapping,
        inverse_table,
        involutive_automorphisms,
        is_completely_inverse,
        is_homomorphism,
        is_right_bol,
        satisfies_variety,
        shifted_associativity,
        strongly_regular_witness,
    )

    def all_varieties(g):
        return [satisfies_variety(g, tag) for tag in VARIETIES]

    def inverse_or_none(g):
        try:
            return inverse_table(g)
        except NotInverse:
            return None

    call = tracer.call
    counts = {}

    def each(name, fn, arg_lists):
        clear_caches()
        calibrate(call)
        return [call(name, fn, *args) for args in arg_lists]

    tables = [(g,) for g, _ in inputs]
    each("groupoid.Groupoid", Groupoid, [(g.rows,) for g, _ in inputs])
    each("groupoid.is_associative", Groupoid.is_associative, tables)
    each("groupoid.satisfies_variety", all_varieties, tables)
    counts["inverse_unique"] = sum(
        r is not None for r in each("inverses.inverse_table", inverse_or_none, tables)
    )
    each("inverses.is_completely_inverse", is_completely_inverse, tables)
    each("inverses.strongly_regular_witness", strongly_regular_witness, tables)
    counts["right_bol_true"] = sum(each("inverses.is_right_bol", is_right_bol, tables))
    counts["automorphisms"] = sum(
        map(len, each("mappings.automorphisms", automorphisms, tables))
    )
    clear_caches()
    counts["involutive"] = sum(len(involutive_automorphisms(g)) for g, _ in inputs)
    clear_caches()
    candidates = [(g, f) for g, _ in inputs for f in e_fixed_involutive_automorphisms(g)]
    counts["shift_pass"] = sum(
        each("mappings.shifted_associativity", shifted_associativity, candidates)
    )
    each(
        "mappings.is_homomorphism",
        is_homomorphism,
        [(a or identity_mapping(g.order), g, g) for g, a in inputs],
    )
    clear_caches()
    return counts


def layer_metrics(tracer, counts: dict, nproc: int) -> tuple[dict, dict]:
    """Per-layer metrics from the spans, plus the bases of every ratio."""
    spans = tracer.spans
    chunk_times = {i: r for i, r in tracer.results.items() if spans[i][1] == "bench.calibrate"}
    factor = stats.span_speed_factors(spans, chunk_times)
    busy = stats.busy_by_name(spans, factor)
    calls = stats.calls_by_name(spans)
    out = {name: 0.0 for name in metrics.PER_LAYER}
    for name in metrics.BUSY_SPANS:
        out[f"{name}.busy_s"] = busy.get(name, 0.0)
    for name in metrics.CALL_SPANS:
        out[f"{name}.calls"] = calls.get(name, 0)

    n_inv = calls.get("inverses.inverse_table", 0)
    n_bol = calls.get("inverses.is_right_bol", 0)
    n_shift = calls.get("mappings.shifted_associativity", 0)
    ratio = metrics.ratio
    out["inverses.inverse_table.unique_ratio"] = ratio(counts["inverse_unique"], n_inv)
    out["inverses.is_right_bol.true_ratio"] = ratio(counts["right_bol_true"], n_bol)
    out["mappings.automorphisms.found"] = counts["automorphisms"]
    out["mappings.involutive_yield"] = ratio(counts["involutive"], counts["automorphisms"])
    out["mappings.shifted_associativity.pass_ratio"] = ratio(counts["shift_pass"], n_shift)

    own = stats.self_times(spans)
    shadow_ids = {s[0] for s in spans if s[1] == "bench.shadow"}
    cli_main = shadowed = 0.0
    serial = parallel = 0.0
    for span in spans:
        span_id, name, start, end, parent, _ = span
        scaled = (end - start) * factor[span_id]
        if name == "determination.decide":
            verdict = tracer.results.get(span_id)
            key = "pos_busy_s" if getattr(verdict, "determined", False) else "neg_busy_s"
            out[f"determination.decide.{key}"] += own[span_id] * factor[span_id]
            out["determination.decide.positives"] += key == "pos_busy_s"
        elif name.startswith("enumeration.suite."):
            report = tracer.results.get(span_id)
            if report is not None:
                out[f"{name}.checks"] = sum(report.counts.values())
        elif name == "enumeration.run_sweep.serial":
            serial += scaled
        elif name == "enumeration.run_sweep.parallel":
            parallel += scaled
        if name.startswith("cli.main."):
            cli_main += scaled
        elif parent in shadow_ids:
            shadowed += scaled
    out["cli.self_s"] = cli_main - shadowed
    out["enumeration.parallel_eff"] = metrics.ratio(serial, nproc * parallel)
    bases = {
        "inverse_table": f"{counts['inverse_unique']}/{n_inv} unique",
        "is_right_bol": f"{counts['right_bol_true']}/{n_bol} true",
        "involutive_yield": f"{counts['involutive']}/{counts['automorphisms']}",
        "shifted_associativity": f"{counts['shift_pass']}/{n_shift} pass",
        "parallel_eff": (
            f"serial {serial:.3f} s / ({nproc} x parallel {parallel:.3f} s)"
        ),
    }
    return out, bases


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "traced"), required=True)
    args = parser.parse_args(argv)

    source = Path(gpdtools.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"gpdtools imported from {source}, not from this checkout", file=sys.stderr)
        return 2
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    os.chdir(work)
    try:
        result = run(args.workload, args.seed, args.mode)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work)
    print(json.dumps(result))
    return 0


def run(workload: str, seed: int, mode: str) -> dict:
    tracer = None
    call = stats.direct
    if mode == "traced":
        tracer = stats.Tracer(
            keep_results=("bench.calibrate", "determination.decide", "enumeration.suite.")
        )
        call = tracer.call
    state = workloads.WORKLOADS[workload](seed, call)
    ready = time.perf_counter()
    errors, keys, latencies, calibration = replay(state.ops, call, state.key, tracer)
    if mode == "timed":
        set_errors = [check(keys) for check in state.set_checks]
        attempted, failed = stats.tally(errors, set_errors)
        return {
            "ready": ready,
            "latencies": latencies,
            "calibration": calibration,
            "attempted": attempted,
            "failed": failed,
            "errors": [e for e in errors + set_errors if e][:5],
            "digest": digest(keys),
            "cache": cache_counts(),
            "rss_mb": peak_rss_mb(),
        }

    shadows = [workloads.Op(op.shadow, op.arg, workloads.raised) for op in state.ops if op.shadow]
    clear_caches()  # the replay just decided these very tables
    more = replay(shadows, call, lambda r: None, tracer, root="bench.shadow")
    extra = replay(state.trace_ops, call, state.key, tracer, first_id=len(state.ops))
    counts = kernel_passes(tracer, state.kernel_inputs())
    calibrate(call)
    errors += more[0] + extra[0]
    set_errors = [check(keys + extra[1]) for check in state.set_checks]
    attempted, failed = stats.tally(errors, set_errors)
    layers, bases = layer_metrics(tracer, counts, workloads.nproc())
    spans_path = OUT / f"spans-{workload}-{seed}.json"
    spans_path.write_text(json.dumps(tracer.to_dicts()))
    return {
        "ready": ready,
        "replay_wall": sum(latencies),
        "calibration": calibration,
        "attempted": attempted,
        "failed": failed,
        "errors": [e for e in errors + set_errors if e][:5],
        "layers": layers,
        "bases": bases,
        "spans": str(spans_path.relative_to(ROOT)),
        "span_count": len(tracer.spans),
        "rss_mb": peak_rss_mb(),
    }


if __name__ == "__main__":
    sys.exit(main())
