"""Run one gpdtools benchmark workload and print its metrics.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Each repetition is a fresh interpreter
(``rep.py``) started one after another from this process, so the loop is
closed with a single caller; repetitions continue until ``--seconds`` have
passed.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` one
untimed-reference repetition plus one traced repetition and the per-layer
metrics.  The last line of standard output is the JSON result; the same
result, with provenance, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import stats  # noqa: E402

#: Timed repetitions per run at least, so medians outvote outliers; each
#: one also times a set-up, so ``setup_s`` is a median of as many.
MIN_REPS = 3
REP_TIMEOUT_S = 150


class RepFailed(Exception):
    pass


def spawn(workload: str, seed: int, mode: str) -> dict:
    """Run one repetition in a fresh interpreter and return its result,
    with ``setup_s`` measured from just before the process started."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.perf_counter()
    # A process group of its own, so a timeout also stops sweep workers.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), "--workload", workload,
         "--seed", str(seed), "--mode", mode],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepFailed(f"{mode} repetition timed out after {REP_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RepFailed(f"{mode} repetition exited {proc.returncode}:\n{stderr[-2000:]}")
    result = json.loads(stdout.splitlines()[-1])
    # perf_counter is CLOCK_MONOTONIC on Linux, shared by both processes;
    # the first calibration follows set-up directly.
    speed = stats.speed_factor(result["calibration"][:1])
    result["setup_s"] = (result["ready"] - started) * speed
    return result


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def timed(workload: str, seed: int, seconds: float):
    reps = []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        reps.append(spawn(workload, seed, "timed"))
    setups = [r["setup_s"] for r in reps]

    latencies = stats.median_per_op(r["latencies"] for r in reps)
    walls = [sum(r["latencies"]) for r in reps]
    p99, beyond, p99_valid = stats.tail(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["rss_mb"] for r in reps),
        "wall_s": statistics.median(walls),
        "ops_per_s": len(latencies) / statistics.median(walls),
        "p50_ms": statistics.median(latencies) * 1e3,
        "p99_ms": p99 * 1e3,
    }
    digests = {r["digest"] for r in reps}
    attempted = sum(r["attempted"] for r in reps) + 1
    failed = sum(r["failed"] for r in reps) + (len(digests) != 1)
    notes = [
        f"repetitions {len(reps)}, each a fresh process with its own set-up",
        "times scaled to the reference speed; speed factors by repetition "
        + ", ".join(f"{stats.speed_factor(r['calibration']):.3f}" for r in reps),
        f"operations {len(latencies)} per repetition; p50/p99 over each one's median time",
        f"p99_ms has {beyond} operations beyond it: "
        + ("valid" if p99_valid else f"INVALID, fewer than {stats.MIN_BEYOND}"),
        "outputs identical across processes: " + ("yes" if len(digests) == 1 else "NO"),
    ]
    errors = [e for r in reps for e in r["errors"]]
    return values, metrics.END_TO_END, attempted, failed, notes, errors


def traced(workload: str, seed: int):
    reference = spawn(workload, seed, "timed")
    trace = spawn(workload, seed, "traced")
    values = dict(trace["layers"])
    reference_wall = sum(reference["latencies"])
    values["trace.overhead_s"] = trace["replay_wall"] - reference_wall
    cache = reference["cache"]
    for name, key in (
        ("inverse_table", "inverses.inverse_table.cache_hit_ratio"),
        ("automorphisms", "mappings.automorphisms.cache_hit_ratio"),
    ):
        info = cache[name]
        values[key] = metrics.ratio(info["hits"], info["hits"] + info["misses"])
    attempted = reference["attempted"] + trace["attempted"]
    failed = reference["failed"] + trace["failed"]
    notes = [f"{name}: {base}" for name, base in trace["bases"].items()]
    notes += [
        f"cache {name}: {info['hits']} hits / {info['misses']} misses (untraced repetition)"
        for name, info in cache.items()
    ]
    notes.append(
        f"trace overhead: traced replay {trace['replay_wall']:.3f} s"
        f" - untraced {reference_wall:.3f} s (both scaled)"
    )
    notes.append(f"{trace['span_count']} spans written to {trace['spans']}")
    errors = reference["errors"] + trace["errors"]
    return values, metrics.PER_LAYER, attempted, failed, notes, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one gpdtools benchmark workload.")
    parser.add_argument("--workload", required=True, help="a name from BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gpdtools" / "__init__.py").is_file():
        print(f"no gpdtools sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        if args.trace:
            values, units, attempted, failed, notes, errors = traced(args.workload, args.seed)
        else:
            values, units, attempted, failed, notes, errors = timed(
                args.workload, args.seed, args.seconds
            )
    except RepFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    info = provenance(args.seed)
    print(f"workload {args.workload}, trace {args.trace}")
    for key, value in info.items():
        print(f"  {key}: {value}")
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    print(f"  error_rate = {failed / attempted:.6g} ({failed} of {attempted} attempted)")
    for line in notes + [f"error: {e}" for e in errors]:
        print(f"  {line}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, trace=args.trace, provenance=info, notes=notes)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
