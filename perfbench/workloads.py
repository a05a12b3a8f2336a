"""The benchmark's workloads: inputs made from a seed, one timed operation
per input, and the known answer each operation is checked against.

Every call into the library goes through a ``call(name, fn, *args, op=)``
hook: :func:`stats.direct` in timed repetitions, :meth:`stats.Tracer.call`
in the traced one, so both run the same code.  Span names are
``<module>.<public function>``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from gpdtools import (
    Groupoid,
    SweepConfig,
    build_determined,
    build_strong_slg,
    cli,
    decide,
    decompose,
    enumerate_groupoids,
    enumerate_specs,
    parse_cspec,
    parse_groupoid,
    parse_mapping,
    random_groupoids,
    run_sweep,
    serialize_cspec,
    serialize_groupoid,
    serialize_mapping,
    validate_spec,
)
import checks
from metrics import SUITE_NAMES

#: Tables of order <= 3 that decide positive (acceptance test C6's count).
DETERMINED_UP_TO_3 = 32
SAMPLES_ORDER4 = 2_000
POSITIVES = 300
ROUNDTRIP_SPECS = 4_000
#: Ladder rungs, run smallest first.  Five per family, so the median
#: rung is the middle one.
ZN_TWIST = (16, 32, 40, 48, 64)
LZ_BAND = (5, 6, 7, 8, 9)
CHAINS = ((2, 4, 8), (4, 8, 16), (6, 12, 24), (8, 16, 32), (2, 4, 8, 16, 32))
#: test_c9_determinism's sweep config, except the seed.
SWEEP = dict(
    max_exhaustive_order=3,
    sample_order=4,
    sample_count=10_000,
    max_semilattice_order=2,
    max_group_order=3,
)


@dataclass
class Op:
    """One closed-loop operation: ``run(call, arg, op)`` is timed;
    ``check(result)`` returns an error message or ``None``."""

    run: Callable
    arg: object
    check: Callable
    #: Traced runs only: the parse and library calls the CLI makes, called
    #: directly on the same input so the CLI's own share can be isolated.
    shadow: Callable | None = None


@dataclass
class State:
    ops: list[Op]
    #: Whole-set checks over the per-op keys, each returning a message or
    #: ``None``.
    set_checks: list[Callable] = field(default_factory=list)
    #: ``(Groupoid, alpha or None)`` pairs for the traced kernel passes.
    kernel_inputs: Callable = lambda: []
    #: Extra operations a traced run makes after the replay.
    trace_ops: list[Op] = field(default_factory=list)
    #: A small summary of one op's result.  Whole-set checks read the keys,
    #: and the keys must be identical across fresh processes.
    key: Callable = lambda result: None


def _listed(gen, *args):
    return list(gen(*args))


def _stratified(specs, count: int, seed: int):
    """``count`` specs in family order, one drawn at random from each of
    ``count`` equal strata of the family sorted by table order and block
    count, so every seed draws the same mix of sizes."""
    rng = random.Random(seed)
    by_size = sorted(
        range(len(specs)),
        key=lambda i: (sum(g.order for g in specs[i].groups), len(specs[i].groups), i),
    )
    edges = [len(specs) * k // count for k in range(count + 1)]
    picked = sorted(by_size[rng.randrange(lo, hi)] for lo, hi in zip(edges, edges[1:]))
    return [specs[i] for i in picked]


def raised(result) -> str | None:
    """The message of an exception that an op returned as its result."""
    if isinstance(result, BaseException):
        return f"{type(result).__name__}: {result}"
    return None


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------


def _decide(call, g, op):
    return call("determination.decide", decide, g, op=op)


def _report_error(g, report, must_be_positive: bool) -> str | None:
    err = raised(report)
    if err:
        return err
    if not report.determined:
        return "built table decided negative" if must_be_positive else None
    w = report.witness
    return checks.witness_error(g.rows, w.star.rows, w.alpha)


def setup_decide(seed: int, call) -> State:
    exhaustive = []
    for n in (1, 2, 3):
        exhaustive += call("enumeration.enumerate_groupoids", _listed, enumerate_groupoids, n)
    samples = call(
        "enumeration.random_groupoids", _listed, random_groupoids, 4, SAMPLES_ORDER4, seed
    )
    specs = call("enumeration.enumerate_specs", _listed, enumerate_specs, 3, 4)
    built = [
        call("clifford.build_determined", build_determined, spec)
        for spec in _stratified(specs, POSITIVES, seed)
    ]
    ops = [
        Op(_decide, g, lambda r, g=g: _report_error(g, r, False))
        for g in exhaustive + samples
    ]
    ops += [Op(_decide, g, lambda r, g=g: _report_error(g, r, True)) for g, _ in built]
    n_exh = len(exhaustive)

    def exhaustive_count(keys):
        found = sum(1 for k in keys[:n_exh] if k is True)
        if found != DETERMINED_UP_TO_3:
            return f"{found} order<=3 tables determined, expected {DETERMINED_UP_TO_3}"
        return None

    return State(
        ops=ops,
        set_checks=[exhaustive_count],
        kernel_inputs=lambda: [(g, None) for g in exhaustive + samples] + built,
        key=lambda report: report.determined,
    )


# ---------------------------------------------------------------------------
# roundtrip
# ---------------------------------------------------------------------------


def _roundtrip(call, spec, op):
    problems = call("clifford.validate_spec", validate_spec, spec, op=op)
    strong = call("clifford.build_strong_slg", build_strong_slg, spec, op=op)
    table, alpha = call("clifford.build_determined", build_determined, spec, op=op)
    back = call("clifford.decompose", decompose, table, alpha, op=op)
    text = call("clifford.serialize_cspec", serialize_cspec, back, op=op)
    parsed = call("clifford.parse_cspec", parse_cspec, text, op=op)
    return problems, strong, table, alpha, back, text, parsed


def _roundtrip_error(spec, result) -> str | None:
    err = raised(result)
    if err:
        return err
    problems, strong, table, alpha, back, _, parsed = result
    if problems:
        return f"valid spec rejected: {problems[0]}"
    if back != spec:
        return "decompose did not return the spec"
    if parsed != spec:
        return "parse(serialize(spec)) differs from the spec"
    return checks.witness_error(table.rows, strong.rows, alpha)


def setup_roundtrip(seed: int, call) -> State:
    specs = call("enumeration.enumerate_specs", _listed, enumerate_specs, 3, 4)
    drawn = _stratified(specs, ROUNDTRIP_SPECS, seed)
    return State(
        ops=[Op(_roundtrip, s, lambda r, s=s: _roundtrip_error(s, r)) for s in drawn],
        kernel_inputs=lambda: [build_determined(s) for s in drawn],
        key=lambda result: result[5],
    )


# ---------------------------------------------------------------------------
# ladder families, driven through the CLI entry point
# ---------------------------------------------------------------------------


def _commands(call, steps, op):
    """CLI commands in order, through ``cli.main`` with output captured."""
    results = []
    for argv in steps:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = call(f"cli.main.{argv[0]}", cli.main, list(argv), op=op)
        results.append((code, out.getvalue(), err.getvalue()))
    return results


def _shadow_decide(call, argv, op):
    g = call("groupoid.parse_groupoid", parse_groupoid, Path(argv[1]).read_text(), op=op)
    call("determination.decide", decide, g, op=op)


def _shadow_decompose(call, argv, op):
    g = call("groupoid.parse_groupoid", parse_groupoid, Path(argv[1]).read_text(), op=op)
    alpha = call("mappings.parse_mapping", parse_mapping, Path(argv[2]).read_text(), op=op)
    spec = call("clifford.decompose", decompose, g, alpha, op=op)
    call("clifford.serialize_cspec", serialize_cspec, spec, op=op)


def _shadow_build(call, argv, op):
    spec = call("clifford.parse_cspec", parse_cspec, Path(argv[1]).read_text(), op=op)
    g, alpha = call("clifford.build_determined", build_determined, spec, op=op)
    call("groupoid.serialize_groupoid", serialize_groupoid, g, op=op)
    call("mappings.serialize_mapping", serialize_mapping, alpha, op=op)


_SHADOWS = {
    "decide": _shadow_decide,
    "decompose": _shadow_decompose,
    "build": _shadow_build,
}


def _shadow_commands(call, steps, op):
    for argv in steps:
        _SHADOWS[argv[0]](call, argv, op)


def _decide_cli_error(rows, result, positive: bool) -> str | None:
    code, out, stderr = result
    if code != (0 if positive else 1):
        return f"decide exited {code}: {stderr.strip()[:200]}"
    report = json.loads(out)
    if report["determined"] != positive:
        return "decide verdict differs from the construction"
    if not positive:
        return None
    w = report["witness"]
    return checks.witness_error(rows, w["star"], w["alpha"])


def _file_error(result, expected: dict[str, str]) -> str | None:
    code, _, stderr = result
    if code != 0:
        return f"exited {code}: {stderr.strip()[:200]}"
    for path, text in expected.items():
        if Path(path).read_text() != text:
            return f"{path} differs from the expected bytes"
    return None


def _ladder(rungs, inputs) -> State:
    """One operation per rung, smallest first; ``rungs`` holds each rung's
    CLI commands and one check per command."""

    def rung(steps, step_checks) -> Op:
        def check(results):
            return raised(results) or next(
                (msg for r, c in zip(results, step_checks) if (msg := c(r))), None
            )

        return Op(_commands, tuple(steps), check, _shadow_commands)

    return State(
        ops=[rung(steps, step_checks) for steps, step_checks in rungs],
        kernel_inputs=lambda: [(Groupoid(rows), alpha) for rows, alpha in inputs],
        key=lambda results: [
            (code, hashlib.sha256(out.encode()).hexdigest()) for code, out, _ in results
        ],
    )


def _decide_ladder(rung_rows, alpha_of, positive: bool) -> State:
    rungs, inputs = [], []
    for n, rows in rung_rows.items():
        Path(f"t{n}.gpd").write_text(checks.gpd_text(rows))
        rungs.append((
            [("decide", f"t{n}.gpd", "--format", "json")],
            [lambda r, rows=rows: _decide_cli_error(rows, r, positive)],
        ))
        inputs.append((rows, alpha_of(n)))
    return _ladder(rungs, inputs)


def setup_zn_twist(seed: int, call) -> State:
    rows = {n: checks.zn_twist(n) for n in ZN_TWIST}
    return _decide_ladder(rows, checks.negation, True)


def setup_lz_band(seed: int, call) -> State:
    rows = {n: checks.left_zero_band(n) for n in LZ_BAND}
    return _decide_ladder(rows, lambda n: None, False)


def setup_clifford(seed: int, call) -> State:
    rungs, inputs = [], []
    for orders in CHAINS:
        rows, alpha, cspec = checks.cyclic_chain(orders)
        name = "c" + "_".join(map(str, orders))
        gpd, mp = checks.gpd_text(rows), checks.map_text(alpha)
        Path(f"{name}.gpd").write_text(gpd)
        Path(f"{name}.map").write_text(mp)
        steps = [
            ("decide", f"{name}.gpd", "--format", "json"),
            ("decompose", f"{name}.gpd", f"{name}.map", "--out", f"{name}.dec"),
            ("build", f"{name}.dec.cspec", "--out", f"{name}.re"),
        ]
        step_checks = [
            lambda r, rows=rows: _decide_cli_error(rows, r, True),
            lambda r, name=name, cspec=cspec: _file_error(r, {f"{name}.dec.cspec": cspec}),
            lambda r, name=name, gpd=gpd, mp=mp: _file_error(
                r, {f"{name}.re.gpd": gpd, f"{name}.re.map": mp}
            ),
        ]
        rungs.append((steps, step_checks))
        inputs.append((rows, alpha))
    return _ladder(rungs, inputs)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _sweep(call, arg, op):
    config, jobs = arg
    kind = "serial" if jobs == 1 else "parallel"
    return call(f"enumeration.run_sweep.{kind}", run_sweep, config, jobs, op=op)


def _suite(call, arg, op):
    config, name = arg
    return call(f"enumeration.suite.{name}", run_sweep, config, 1, op=op)


def _sweep_error(report) -> str | None:
    err = raised(report)
    if err:
        return err
    if not report.passed or report.counterexamples:
        return f"sweep found {len(report.counterexamples)} counterexamples"
    return None


def setup_sweep(seed: int, call) -> State:
    config = SweepConfig(seed=seed, **SWEEP)

    def same_report(keys):
        # Traced runs append the whole sweep at jobs=nproc and at jobs=1.
        whole = keys[len(SUITE_NAMES):]
        return None if len(set(whole)) <= 1 else "canonical reports differ between job counts"

    def kernel_inputs():
        tables = []
        for n in range(1, SWEEP["max_exhaustive_order"] + 1):
            tables += enumerate_groupoids(n)
        tables += random_groupoids(SWEEP["sample_order"], SWEEP["sample_count"], seed)
        return [(g, None) for g in tables]

    return State(
        ops=[
            Op(_suite, (replace(config, suites=(name,)), name), _sweep_error)
            for name in SUITE_NAMES
        ],
        set_checks=[same_report],
        kernel_inputs=kernel_inputs,
        trace_ops=[
            Op(_sweep, (config, nproc()), _sweep_error),
            Op(_sweep, (config, 1), _sweep_error),
        ],
        key=lambda report: hashlib.sha256(report.to_json().encode()).hexdigest(),
    )


WORKLOADS = {
    "decide": setup_decide,
    "roundtrip": setup_roundtrip,
    "ladder_zntwist": setup_zn_twist,
    "ladder_lzband": setup_lz_band,
    "ladder_clifford": setup_clifford,
    "sweep": setup_sweep,
}
