"""Command-line front end.

Subcommands: ``check`` (structural predicates of a table and optionally a
mapping), ``decide`` (is the table a twisted semilattice of groups, with
witness), ``build`` (construction data -> table + mapping), ``decompose``
(table + mapping -> construction data), ``sweep`` (property sweep), and
``examples`` (write the bundled fixtures to disk).

Exit codes: 0 success (for ``decide``: determined; for ``sweep``: no
counterexamples), 1 negative outcome (not determined / not decomposable /
counterexamples found), 2 malformed input or bad arguments, 3 internal
consistency alarm, 141 standard output closed by its reader before the
report was written.  Each command returns its verdict (0 or 1) and raises
on failure; :func:`main` alone maps the errors to exit codes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .clifford import decompose, build_determined, parse_cspec, serialize_cspec
from .determination import _report_json, decide, is_semilattice_of_groups
from .enumeration import SweepConfig, run_sweep
from .errors import (
    GpdError,
    LimitsTooLarge,
    MalformedInput,
    InvalidSpec,
    NotDetermined,
)
from .fixtures import FIXTURES
from .groupoid import (
    VARIETIES,
    Groupoid,
    parse_groupoid,
    satisfies_variety,
    serialize_groupoid,
)
from .inverses import _Facts
from .mappings import (
    Mapping,
    absorption_law,
    in_lt,
    in_rt,
    involutive_automorphisms,
    is_homomorphism,
    is_involution,
    parse_mapping,
    serialize_mapping,
    shifted_associativity,
)

_INPUT_ERRORS = (
    MalformedInput,
    InvalidSpec,
    LimitsTooLarge,
    OSError,
    ValueError,
)


def _write_outputs(files: dict[str, str]) -> None:
    """Write each text to its path, then print the paths."""
    for path, text in files.items():
        Path(path).write_text(text)
    print("\n".join(files))


def _render_text(data, prefix: str = "") -> list[str]:
    """Flatten a report into sorted ``path: value`` lines."""
    lines: list[str] = []
    if isinstance(data, dict) and data:
        for key in sorted(data):
            path = f"{prefix}.{key}" if prefix else str(key)
            lines.extend(_render_text(data[key], path))
    else:
        lines.append(f"{prefix}: {json.dumps(data, sort_keys=True)}")
    return lines


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(_report_json(report))
    else:
        print("\n".join(_render_text(report)))


def _load(table: str, mapping: str | None) -> tuple[Groupoid, Mapping | None]:
    """Read a ``.gpd`` table and, when a path is given, a ``.map`` of its order."""
    g = parse_groupoid(Path(table).read_text())
    if mapping is None:
        return g, None
    f = parse_mapping(Path(mapping).read_text())
    if len(f) != g.order:
        raise ValueError(f"mapping size {len(f)} does not match table order {g.order}")
    return g, f


def _check_report(g: Groupoid, mapping) -> dict:
    associative = g.is_associative()
    identities = {t: satisfies_variety(g, t) for t in VARIETIES}
    facts = _Facts(g)
    report: dict = {
        "schema": "check_report@1",
        "groupoid": {
            "order": g.order,
            "associative": associative,
            "idempotents": sorted(facts.idempotents),
            "band": associative and identities["B"],
            "idempotents_form_semilattice": facts.e_semilattice,
            "inverse": facts.inv is not None,
            "completely_inverse": facts.completely_inverse,
            "right_bol": facts.right_bol,
            "strongly_regular": facts.strongly_regular,
            "semilattice_of_groups": is_semilattice_of_groups(g),
            "identity_classes": identities,
            "semigroup_classes": {t: associative and identities[t] for t in VARIETIES},
            "involutive_automorphisms": [
                list(f) for f in involutive_automorphisms(g)
            ],
        },
        "mapping": None,
    }
    if mapping is not None:
        f = mapping
        endo = is_homomorphism(f, g, g)
        invol = is_involution(f)
        shifted = shifted_associativity(g, f)
        report["mapping"] = {
            "images": list(f),
            "involution": invol,
            "endomorphism": endo,
            "automorphism": endo and len(set(f)) == g.order,
            "involutive_automorphism": endo and invol,
            "idempotent_fixed": all(f[e] == e for e in facts.idempotents),
            "left_translation": in_lt(g, f),
            "right_translation": in_rt(g, f),
            "absorption": absorption_law(g, f),
            "shifted_associativity": shifted,
            "shift_both_forms": shifted and associative,
        }
    return report


def cmd_check(args) -> int:
    g, mapping = _load(args.table, args.mapping)
    _emit(_check_report(g, mapping), args.format)
    return 0


def cmd_decide(args) -> int:
    g, _ = _load(args.table, None)
    report = decide(g)
    _emit(report.to_dict(), args.format)
    return 0 if report.determined else 1


def cmd_build(args) -> int:
    g, alpha = build_determined(parse_cspec(Path(args.spec).read_text()))
    table_text = serialize_groupoid(g)
    mapping_text = serialize_mapping(alpha)
    if args.out:
        _write_outputs({f"{args.out}.gpd": table_text, f"{args.out}.map": mapping_text})
    else:
        sys.stdout.write("# table\n" + table_text)
        sys.stdout.write("# mapping\n" + mapping_text)
    return 0


def cmd_decompose(args) -> int:
    g, alpha = _load(args.table, args.mapping)
    if alpha is None:
        report = decide(g)
        if not report.determined:
            raise NotDetermined("no witness mapping exists")
        alpha = report.witness.alpha
    text = serialize_cspec(decompose(g, alpha))
    if args.out:
        _write_outputs({f"{args.out}.cspec": text})
    else:
        print(text, end="")
    return 0


def cmd_sweep(args) -> int:
    suites = tuple(s for s in (args.suites or "").split(",") if s)
    if args.suites is not None and not suites:
        raise ValueError(f"--suites {args.suites!r} names no suite")
    config = SweepConfig(
        max_exhaustive_order=args.max_order,
        sample_order=args.sample_order,
        sample_count=args.samples,
        seed=args.seed,
        max_semilattice_order=args.max_semilattice_order,
        max_group_order=args.max_group_order,
        suites=suites,
    )
    report = run_sweep(config, jobs=args.jobs)
    if args.out:
        _write_outputs({args.out: report.to_json()})
    else:
        _emit(report.to_dict(), args.format)
    return 0 if report.passed else 1


def cmd_examples(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, (table, mapping, spec) in sorted(FIXTURES.items()):
        files[str(out / f"{name}.gpd")] = serialize_groupoid(table)
        files[str(out / f"{name}.map")] = serialize_mapping(mapping)
        if spec is not None:
            files[str(out / f"{name}.cspec")] = serialize_cspec(spec)
    _write_outputs(files)
    return 0


def _parser() -> argparse.ArgumentParser:
    """The command-line parser: every subcommand with all its arguments."""
    parser = argparse.ArgumentParser(
        prog="gpdtools",
        description=(
            "Verify, decide, construct, and sweep finite one-operation "
            "tables determined by twisted semilattices of groups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = {
        "choices": ("text", "json"), "default": "text",
        "help": "report format (default text)",
    }

    p = sub.add_parser("check", help="print structural predicates of a table")
    p.add_argument("table", help="path to a .gpd file")
    p.add_argument("mapping", nargs="?", help="optional path to a .map file")
    p.add_argument("--format", **fmt)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decide", help="decide whether a table is determined")
    p.add_argument("table", help="path to a .gpd file")
    p.add_argument("--format", **fmt)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("build", help="build table + mapping from a .cspec")
    p.add_argument("spec", help="path to a .cspec file")
    p.add_argument("--out", help="output prefix (writes PREFIX.gpd and PREFIX.map)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("decompose", help="decompose a determined table into a .cspec")
    p.add_argument("table", help="path to a .gpd file")
    p.add_argument(
        "mapping", nargs="?",
        help="optional path to a .map file (default: the decision witness)",
    )
    p.add_argument("--out", help="output prefix (writes PREFIX.cspec)")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("sweep", help="run property suites over the instance space")
    config = SweepConfig()
    p.add_argument("--max-order", type=int, default=config.max_exhaustive_order,
                   help="largest exhaustively enumerated order"
                   " (default %(default)s)")
    p.add_argument("--sample-order", type=int, default=config.sample_order,
                   help="order of randomly sampled tables (default %(default)s)")
    p.add_argument("--samples", type=int, default=config.sample_count,
                   help="number of sampled tables (default %(default)s)")
    p.add_argument("--seed", type=int, default=config.seed,
                   help="sample stream seed (default %(default)s)")
    p.add_argument("--jobs", type=int, default=1,
                   help="chunk count, run on at most one process per CPU (default 1)")
    p.add_argument("--suites", help="comma-separated suite names (default: all)")
    p.add_argument("--max-semilattice-order", type=int,
                   default=config.max_semilattice_order,
                   help="construction family: largest semilattice"
                   " (default %(default)s)")
    p.add_argument("--max-group-order", type=int, default=config.max_group_order,
                   help="construction family: largest block group"
                   " (default %(default)s)")
    p.add_argument("--out", help="write the JSON report to this path")
    p.add_argument("--format", **fmt)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("examples", help="write the bundled fixtures to a directory")
    p.add_argument("--out", default=".", help="target directory (default: .)")
    p.set_defaults(func=cmd_examples)
    return parser


#: Built once per process; every call of :func:`main` parses with it.
_PARSER = _parser()


def main(argv=None) -> int:
    """Run one command line (default ``sys.argv[1:]``); return its exit code."""
    args = _PARSER.parse_args(argv)
    try:
        code = args.func(args)
        # Flush here so that a closed pipe is met inside this block.
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # an OSError, so it must come first
        # The reader left early (``| head``): send the rest of the output to
        # the null device, so the flush at exit does not raise again, and
        # exit as a process stopped by SIGPIPE would (128 + 13).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotDetermined as exc:
        print(f"not determined: {exc}", file=sys.stderr)
        return 1
    except GpdError as exc:  # any other domain error is an internal fault
        print(f"alarm: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
