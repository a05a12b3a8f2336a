"""End-to-end command-line behavior, driven through ``main(argv)``."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gpdtools
import gpdtools.enumeration as enumeration
from gpdtools import cli, decide
from gpdtools.cli import main
from gpdtools.determination import _report_json
from gpdtools.errors import NotDetermined, TheoremViolation
from gpdtools.fixtures import FIXTURES
from gpdtools.groupoid import Groupoid

from .test_clifford import NON_TRANSITIVE_CSPEC
from .test_inverses import _cyclic_chain_cspec, _negation_twist

# ---------------------------------------------------------------------------
# Helpers.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def examples_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("examples")
    assert main(["examples", "--out", str(out)]) == 0
    return out


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# examples
# ---------------------------------------------------------------------------


def test_examples_writes_all_fixtures(tmp_path, capsys):
    code, out, err = _run(capsys, ["examples", "--out", str(tmp_path)])
    assert code == 0 and err == ""
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "band3.gpd",
        "band3.map",
        "flip2.gpd",
        "flip2.map",
        "z3twist.cspec",
        "z3twist.gpd",
        "z3twist.map",
    ]
    printed = out.splitlines()
    assert len(printed) == 7
    assert all(line.startswith(str(tmp_path)) for line in printed)
    assert (tmp_path / "band3.gpd").read_text() == "3\n0 1 1\n0 1 1\n0 1 2\n"
    assert (tmp_path / "z3twist.map").read_text() == "3\n0 2 1\n"


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_table_json(examples_dir, capsys):
    code, out, _ = _run(
        capsys, ["check", str(examples_dir / "band3.gpd"), "--format", "json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "check_report@1"
    g = report["groupoid"]
    assert g["order"] == 3
    assert g["associative"] is True
    assert g["band"] is True
    assert g["idempotents"] == [0, 1, 2]
    assert g["idempotents_form_semilattice"] is False
    assert g["semilattice_of_groups"] is False
    assert g["involutive_automorphisms"] == [[0, 1, 2]]
    assert g["identity_classes"]["B"] is True
    assert g["semigroup_classes"]["B"] is True
    assert report["mapping"] is None


def test_check_with_mapping(examples_dir, capsys):
    code, out, _ = _run(
        capsys,
        [
            "check",
            str(examples_dir / "band3.gpd"),
            str(examples_dir / "band3.map"),
            "--format",
            "json",
        ],
    )
    assert code == 0
    m = json.loads(out)["mapping"]
    assert m["images"] == [1, 0, 2]
    assert m["involution"] is True
    assert m["endomorphism"] is False
    assert m["automorphism"] is False
    assert m["idempotent_fixed"] is False


def test_check_text_format_is_key_sorted(examples_dir, capsys):
    code, out, _ = _run(capsys, ["check", str(examples_dir / "z3twist.gpd")])
    assert code == 0
    lines = out.splitlines()
    assert lines == sorted(lines)
    assert "groupoid.completely_inverse: true" in lines
    assert "groupoid.associative: false" in lines
    assert "groupoid.idempotents: [0]" in lines
    assert "mapping: null" in lines


def test_check_exit_codes_verdict_free(examples_dir, capsys):
    # A negative mathematical verdict is still a successful check.
    code, out, _ = _run(
        capsys, ["check", str(examples_dir / "flip2.gpd"), "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["groupoid"]["associative"] is False


def test_check_malformed_table(tmp_path, capsys):
    bad = tmp_path / "bad.gpd"
    bad.write_text("3\n0 1 1\n0 1 1\n")
    code, out, err = _run(capsys, ["check", str(bad)])
    assert code == 2 and out == ""
    assert err.startswith("error:")
    assert "line 4" in err


def test_check_mapping_size_mismatch(examples_dir, capsys):
    code, _, err = _run(
        capsys,
        ["check", str(examples_dir / "band3.gpd"), str(examples_dir / "flip2.map")],
    )
    assert code == 2
    assert "mapping size 2 does not match table order 3" in err


def test_check_reports_are_pinned(examples_dir, capsys):
    # sha256 of every bundled fixture's check report, with and without its
    # mapping, in both formats: the report must stay byte-identical when the
    # way its keys are computed changes.
    pins = {
        ("band3", False, "json"): "de6a9fa1b22b4d19f4d62845a41072c9be81a6fbf9b14fefb0552496386fa1d1",
        ("band3", False, "text"): "070dc4da8ab2e8751be9d26f510a00ace04205d563a50c7eb949b0cb080ab06b",
        ("band3", True, "json"): "b2fed69a76c3b3e8b7af269d2cc53117dc18c7f9c79ba9cf7a2448a708653cab",
        ("band3", True, "text"): "1199745f2dbd800940f2b9a6933d37c6bca06b306433969328377cc5dd829333",
        ("flip2", False, "json"): "8f066cd948d624ad4ffde420f71ffa48ec0644f1bad8fb67621210d8ef7f7bc1",
        ("flip2", False, "text"): "ebe8c01b4aa8ffd4247127451b8a024e2c867e750ab262b15c4a79335a5d687b",
        ("flip2", True, "json"): "4aae93caa827427b0e0c5bb279b8bec4a1d187629bb96bb2db41ef38a05c65b9",
        ("flip2", True, "text"): "2c9e52e95a2726ed0f81702e2485cb384a665c2eeaa146ebacad00c516978599",
        ("z3twist", False, "json"): "cc1c2816193ebf2f7247245a9bb574ee12823fe4882f7f6bc5644715b6fa629c",
        ("z3twist", False, "text"): "2d3f186964874d143276ddb8e32737ff4401153811891bec68ddff12daabb4ce",
        ("z3twist", True, "json"): "ce425e6440af71da0d1c8ed2b9161ec098000b1b31473092e28717a2c8a7d8f3",
        ("z3twist", True, "text"): "8767dfbf4f56cdeec793038407fb0b727bc64cc616fdc897157031b7c0da31c5",
    }
    for (name, with_map, fmt), digest in pins.items():
        argv = ["check", str(examples_dir / f"{name}.gpd")]
        if with_map:
            argv.append(str(examples_dir / f"{name}.map"))
        code, out, _ = _run(capsys, argv + ["--format", fmt])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (name, with_map, fmt)


def test_check_tests_associativity_twice(examples_dir, capsys, monkeypatch):
    # Once for the report's associativity-derived keys and once inside
    # is_semilattice_of_groups.
    calls = []
    original = Groupoid.is_associative

    def counted(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(Groupoid, "is_associative", counted)
    code, _, _ = _run(
        capsys,
        ["check", str(examples_dir / "band3.gpd"), str(examples_dir / "band3.map")],
    )
    assert code == 0
    assert len(calls) == 2


def test_check_missing_file(tmp_path, capsys):
    code, _, err = _run(capsys, ["check", str(tmp_path / "absent.gpd")])
    assert code == 2 and err.startswith("error:")


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------


def test_decide_positive(examples_dir, capsys):
    code, out, _ = _run(
        capsys, ["decide", str(examples_dir / "z3twist.gpd"), "--format", "json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "decision_report@1"
    assert report["determined"] is True
    assert report["witness"]["alpha"] == [0, 2, 1]
    assert report["witness"]["star"] == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


def test_decide_negative(examples_dir, capsys):
    code, out, _ = _run(
        capsys, ["decide", str(examples_dir / "band3.gpd"), "--format", "json"]
    )
    assert code == 1
    report = json.loads(out)
    assert report["determined"] is False
    assert report["witness"] is None


@pytest.mark.parametrize("command", ["decide", "decompose"])
def test_decision_alarm_exits_3(examples_dir, capsys, monkeypatch, command):
    def alarm(g):
        raise TheoremViolation("forced")

    monkeypatch.setattr(cli, "decide", alarm)
    code, out, err = _run(capsys, [command, str(examples_dir / "z3twist.gpd")])
    assert code == 3 and out == ""
    assert err == "alarm: forced\n"


@pytest.mark.parametrize(
    "command, name, error, expected",
    [
        ("check", "is_semilattice_of_groups", ValueError, (2, "error: forced\n")),
        ("decide", "decide", ValueError, (2, "error: forced\n")),
        ("decompose", "decompose", NotDetermined, (1, "not determined: forced\n")),
    ],
    ids=["check", "decide", "decompose"],
)
def test_library_errors_map_to_exit_codes(
    examples_dir, capsys, monkeypatch, command, name, error, expected
):
    # An error raised inside the library run, not only while loading the
    # input, gets the same exit code and message from `main`.
    def fail(*args):
        raise error("forced")

    monkeypatch.setattr(cli, name, fail)
    code, out, err = _run(capsys, [command, str(examples_dir / "z3twist.gpd")])
    assert (code, err) == expected and out == ""


def test_decide_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.gpd"
    bad.write_text("2\n0 5\n0 0\n")
    code, _, err = _run(capsys, ["decide", str(bad)])
    assert code == 2 and err.startswith("error:")


# ---------------------------------------------------------------------------
# build / decompose
# ---------------------------------------------------------------------------


def test_build_to_files(examples_dir, tmp_path, capsys):
    prefix = tmp_path / "rebuilt"
    code, out, _ = _run(
        capsys,
        ["build", str(examples_dir / "z3twist.cspec"), "--out", str(prefix)],
    )
    assert code == 0
    assert out.splitlines() == [f"{prefix}.gpd", f"{prefix}.map"]
    assert (
        tmp_path / "rebuilt.gpd"
    ).read_text() == (examples_dir / "z3twist.gpd").read_text()
    assert (
        tmp_path / "rebuilt.map"
    ).read_text() == (examples_dir / "z3twist.map").read_text()


def test_build_to_stdout(examples_dir, capsys):
    code, out, _ = _run(capsys, ["build", str(examples_dir / "z3twist.cspec")])
    assert code == 0
    assert out == (
        "# table\n"
        + (examples_dir / "z3twist.gpd").read_text()
        + "# mapping\n"
        + (examples_dir / "z3twist.map").read_text()
    )


def test_build_invalid_spec(tmp_path, capsys):
    bad = tmp_path / "bad.cspec"
    bad.write_text("semilattice 1\n0\ngroup 0 2\n0 1\n1 1\nalpha 0\n0 1\n")
    code, _, err = _run(capsys, ["build", str(bad)])
    assert code == 2 and err.startswith("error:")


def test_meet_that_is_not_a_semilattice(tmp_path, capsys):
    spec = tmp_path / "bad.cspec"
    spec.write_text(NON_TRANSITIVE_CSPEC)
    code, out, err = _run(capsys, ["build", str(spec)])
    assert code == 2 and out == ""
    assert err == "error: meet not associative at (0,0,2)\n"
    # Its idempotents multiply like the same kind of meet table.
    table, mapping = tmp_path / "t.gpd", tmp_path / "t.map"
    table.write_text("3\n0 0 1\n0 1 1\n0 0 2\n")
    mapping.write_text("3\n0 1 2\n")
    code, out, err = _run(capsys, ["decompose", str(table), str(mapping)])
    assert code == 1 and out == ""
    assert err.startswith("not determined: recovered data is invalid: ")


def test_decompose_with_mapping(examples_dir, tmp_path, capsys):
    prefix = tmp_path / "dec"
    code, out, _ = _run(
        capsys,
        [
            "decompose",
            str(examples_dir / "z3twist.gpd"),
            str(examples_dir / "z3twist.map"),
            "--out",
            str(prefix),
        ],
    )
    assert code == 0
    assert out.splitlines() == [f"{prefix}.cspec"]
    assert (
        tmp_path / "dec.cspec"
    ).read_text() == (examples_dir / "z3twist.cspec").read_text()


def test_decompose_mapping_size_mismatch(examples_dir, capsys):
    paths = [str(examples_dir / "band3.gpd"), str(examples_dir / "flip2.map")]
    _, _, check_err = _run(capsys, ["check", *paths])
    code, out, err = _run(capsys, ["decompose", *paths])
    assert code == 2 and out == ""
    assert err == check_err == "error: mapping size 2 does not match table order 3\n"


def test_decompose_uses_decision_witness(examples_dir, capsys):
    code, out, _ = _run(capsys, ["decompose", str(examples_dir / "z3twist.gpd")])
    assert code == 0
    assert out == (examples_dir / "z3twist.cspec").read_text()


def test_decompose_not_determined(examples_dir, capsys):
    code, out, err = _run(capsys, ["decompose", str(examples_dir / "band3.gpd")])
    assert code == 1 and out == ""
    assert err.startswith("not determined")
    # With a mapping the decomposition itself rejects the table.
    paths = [str(examples_dir / "band3.gpd"), str(examples_dir / "band3.map")]
    code, out, err = _run(capsys, ["decompose", *paths])
    assert code == 1 and out == ""
    assert err.startswith("not determined: ")


def test_build_decompose_build_round_trip(examples_dir, tmp_path, capsys):
    spec0 = examples_dir / "z3twist.cspec"
    p1 = tmp_path / "one"
    assert main(["build", str(spec0), "--out", str(p1)]) == 0
    p2 = tmp_path / "two"
    assert main(["decompose", f"{p1}.gpd", f"{p1}.map", "--out", str(p2)]) == 0
    assert (tmp_path / "two.cspec").read_text() == spec0.read_text()
    p3 = tmp_path / "three"
    assert main(["build", f"{p2}.cspec", "--out", str(p3)]) == 0
    capsys.readouterr()
    assert (tmp_path / "three.gpd").read_text() == (tmp_path / "one.gpd").read_text()
    assert (tmp_path / "three.map").read_text() == (tmp_path / "one.map").read_text()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_TINY_SWEEP = [
    "sweep",
    "--max-order",
    "2",
    "--samples",
    "25",
    "--seed",
    "3",
    "--max-semilattice-order",
    "1",
    "--max-group-order",
    "2",
]


def test_sweep_passes(capsys):
    code, out, _ = _run(capsys, _TINY_SWEEP + ["--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "sweep_report@4"
    assert report["passed"] is True
    assert report["counterexamples"] == []
    assert report["config"]["sample_count"] == 25


def test_each_sweep_flag_lands_in_its_config_field(capsys):
    # Every int flag set to a value other than its default, on the goldens
    # suite alone (the fixtures): the report's config holds those values.
    flags = {
        "--max-order": ("max_exhaustive_order", 1),
        "--sample-order": ("sample_order", 2),
        "--samples": ("sample_count", 3),
        "--seed": ("seed", 5),
        "--max-semilattice-order": ("max_semilattice_order", 2),
        "--max-group-order": ("max_group_order", 3),
    }
    argv = ["sweep", "--suites", "goldens", "--format", "json"]
    for flag, (_, value) in flags.items():
        argv += [flag, str(value)]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    config = json.loads(out)["config"]
    expected = dict(flags.values())
    assert {name: config[name] for name in expected} == expected
    default = enumeration.SweepConfig()
    assert all(getattr(default, name) != v for name, v in expected.items())
    assert set(config) == {*expected, "rng", "suites"}


def test_sweep_text_prints_an_empty_map(capsys):
    # A sweep that reads no instance tallies nothing; the text form keeps
    # the key, as the JSON form does.
    argv = ["sweep", "--max-order", "0", "--samples", "0", "--suites", "square_classes"]
    code, out, _ = _run(capsys, argv + ["--format", "text"])
    assert code == 0
    assert "counts: {}" in out.splitlines()
    code, out, _ = _run(capsys, argv + ["--format", "json"])
    assert code == 0 and json.loads(out)["counts"] == {}


def test_bare_sweep_runs_the_default_config(capsys, monkeypatch):
    # The CLI reads its defaults from SweepConfig, so the two cannot drift.
    ran = []

    def fake_run_sweep(config, jobs):
        ran.append((config, jobs))
        return enumeration.SweepReport(config, {}, (), 0.0)

    monkeypatch.setattr(cli, "run_sweep", fake_run_sweep)
    code, _, _ = _run(capsys, ["sweep"])
    assert code == 0
    assert ran == [(enumeration.SweepConfig(), 1)]


def test_sweep_report_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = _run(capsys, _TINY_SWEEP + ["--out", str(target)])
    assert code == 0
    assert out.strip() == str(target)
    text = target.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["passed"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "{examples}/z3twist.cspec"],
        ["decompose", "{examples}/z3twist.gpd"],
        _TINY_SWEEP,
        ["examples"],
    ],
    ids=["build", "decompose", "sweep", "examples"],
)
def test_unwritable_out_is_input_error(examples_dir, tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out"
    if argv == ["examples"]:
        # `examples` makes missing directories; a file in the way stops it.
        target.parent.write_text("")
    argv = [arg.format(examples=examples_dir) for arg in argv]
    code, out, err = _run(capsys, argv + ["--out", str(target)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(target) in err


def test_sweep_unknown_suite(capsys):
    code, _, err = _run(capsys, _TINY_SWEEP + ["--suites", "nonsense"])
    assert code == 2 and err.startswith("error:")
    assert "nonsense" in err


@pytest.mark.parametrize("names", ["", ",", ",,"])
def test_sweep_empty_suite_list(capsys, names):
    # An empty list is a mistake, not a request for every suite.
    code, out, err = _run(capsys, _TINY_SWEEP + ["--suites", names])
    assert code == 2 and err.startswith("error:")
    assert out == ""


def test_sweep_duplicate_suites(capsys):
    code, _, err = _run(capsys, _TINY_SWEEP + ["--suites", "goldens,goldens"])
    assert code == 2 and err.startswith("error:")
    assert "duplicate suites: goldens" in err


def test_sweep_bad_jobs(capsys):
    code, _, err = _run(capsys, _TINY_SWEEP + ["--jobs", "0"])
    assert code == 2 and err.startswith("error:")


def test_sweep_negative_samples(capsys):
    code, out, err = _run(capsys, ["sweep", "--samples", "-5"])
    assert code == 2 and err.startswith("error:")
    assert out == ""


def test_sweep_order_above_the_cap_is_refused(capsys):
    code, out, err = _run(capsys, ["sweep", "--max-order", "4", "--samples", "0"])
    assert (code, out) == (2, "")
    assert err == "error: exhaustive enumeration is capped at order 3\n"
    # A family limit passes the same guard, which names its kind below 1.
    argv = ["sweep", "--max-semilattice-order", "0", "--samples", "0"]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: semilattice order must be at least 1\n"


def test_sweep_has_no_override_of_the_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--allow-large", "--suites", "goldens", "--samples", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --allow-large" in capsys.readouterr().err


def test_closed_stdout_exits_quietly():
    # `gpdtools sweep ... | head -3`: the reader closes the pipe before the
    # report is written.  Run as `python -m gpdtools` from this source tree,
    # with the read end closed before the process starts.
    src = str(Path(gpdtools.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gpdtools", "sweep", "--suites", "goldens",
             "--samples", "0", "--max-order", "1"],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == 141
    assert proc.stderr == b""  # no traceback and no message


# ---------------------------------------------------------------------------
# the parser and the report writer
# ---------------------------------------------------------------------------


_ARGV_CORPUS = [
    *([name, "-h"] for name in
      ("check", "decide", "build", "decompose", "sweep", "examples")),
    [],
    ["-h"],
    ["nope", "t.gpd"],
    ["--format", "json"],
    ["--", "decide", "t.gpd"],
    ["decide", "--", "t.gpd"],
    ["check", "t.gpd"],
    ["check", "t.gpd", "t.map", "--format", "json"],
    ["check", "decide"],
    ["decide", "t.gpd"],
    ["decide", "--format", "json", "t.gpd"],
    ["build", "s.cspec", "--out", "p"],
    ["decompose", "t.gpd"],
    ["decompose", "t.gpd", "t.map", "--out", "p"],
    ["sweep"],
    ["sweep", "--jobs", "2", "--suites", "goldens", "--allow-large", "--seed", "7"],
    ["sweep", "--max-ord", "2"],
    ["examples"],
    ["examples", "--out", "d"],
    ["check"],
    ["decide"],
    ["build"],
    ["decompose", "--out", "p"],
    ["decide", "t.gpd", "--format", "xml"],
    ["decide", "t.gpd", "--out", "p"],
    ["check", "a", "b", "c"],
    ["sweep", "--jobs", "two"],
    ["sweep", "decide"],
    ["examples", "extra"],
    # Lines that leave arguments over, or misspell an option or a command.
    ["decide", "t.gpd", "extra"],
    ["decide", "check"],
    ["decide", "--bogus", "t.gpd"],
    ["decide", "t.gpd", "--bogus"],
    ["decide", "t.gpd", "-x"],
    ["decide", "t.gpd", "--"],
    ["decide", "--", "t.gpd", "extra"],
    ["decide", "--form", "json", "t.gpd"],
    ["check", "t.gpd", "--form=json"],
    ["sweep", "--jobs=2"],
    ["sweep", "--seed", "-1"],
    ["decide", "t.gpd", "--format", "json", "--format", "text"],
    ["decide", "t.gpd", "-h"],
    ["decide", "t.gpd", "--he"],
    ["-h", "decide"],
    ["dec", "t.gpd"],
    ["Decide", "t.gpd"],
    ["examples", "--out"],
    ["sweep", "--jobs", "2", "extra"],
]


def _parse(parse, argv, capsys):
    try:
        outcome = vars(parse(argv))
    except SystemExit as exc:
        outcome = exc.code
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


@pytest.mark.parametrize("argv", _ARGV_CORPUS, ids=" ".join)
def test_parser_for_the_invoked_command_matches_the_full_parser(argv, capsys):
    # `main` parses every line with the one parser built at import.  A line
    # parses to the same namespace, or exits with the same code and the
    # same help or error text, on its first and second pass through that
    # parser and through a freshly built one: no state leaks between calls.
    first = _parse(cli._PARSER.parse_args, argv, capsys)
    second = _parse(cli._PARSER.parse_args, argv, capsys)
    fresh = _parse(cli._parser().parse_args, argv, capsys)
    assert first == second == fresh


def test_help_follows_the_terminal_width_at_each_call(capsys, monkeypatch):
    # The shared parser is built once, but each help text is wrapped to
    # the width of the terminal when it is printed.
    helps = {}
    for columns in ("60", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, err = _parse(cli._PARSER.parse_args, ["sweep", "-h"], capsys)
        assert (code, err) == (0, "")
        helps[columns] = out
    narrow, wide = helps["60"].splitlines(), helps["200"].splitlines()
    assert len(narrow) > len(wide)
    assert max(map(len, wide)) > 60
    assert helps["60"].split() == helps["200"].split()


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "{examples}/band3.gpd"],
        ["check", "{examples}/z3twist.gpd", "{examples}/z3twist.map",
         "--format", "json"],
        ["decide", "{examples}/flip2.gpd"],
        ["decide", "--format", "json", "{examples}/z3twist.gpd"],
        ["build", "{examples}/z3twist.cspec"],
        ["build", "{examples}/z3twist.cspec", "--out", "{tmp}/built"],
        ["decompose", "{examples}/z3twist.gpd"],
        ["decompose", "{examples}/z3twist.gpd", "{examples}/z3twist.map",
         "--out", "{tmp}/d"],
        ["sweep", "--suites", "goldens", "--samples", "0", "--max-order", "1"],
        [*_TINY_SWEEP, "--jobs", "1", "--out", "{tmp}/report.json"],
        ["examples", "--out", "{tmp}/fixtures"],
    ],
    ids=" ".join,
)
def test_a_valid_line_builds_one_parser(
    argv, examples_dir, tmp_path, capsys, monkeypatch
):
    # Every subcommand's valid lines are parsed by the one parser of the
    # process, built at import: `main` makes no `ArgumentParser` of its own.
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    argv = [arg.format(examples=examples_dir, tmp=tmp_path) for arg in argv]
    code, _, err = _run(capsys, argv)
    assert code in (0, 1) and err == ""  # a verdict, not an argument error
    assert built == []


_EDGE_VALUES = [
    {},
    [],
    (),
    {"a": {}, "b": [], "c": [[], {}, ()], "d": {"e": {}}},
    (1, 2, 3),
    [[0, 1], [1, 0]],
    ((0,),),
    [True, False],
    [1, True, 0, False],
    [None, None],
    None,
    True,
    -5,
    10**30,
    [-1, 0, 10**20, -(10**20)],
    [1.0, 2, 0.5],
    {"x": 1e300, "y": -2.5e-10, "z": float("inf"), "w": float("nan")},
    "é \"quoted\" \\ \n\t  \U0001f600",
    {"b": 1, "a": 2, "B": 3, "é": 4, "a\"b": [None], "": 0},
    {"k": (True, None, "s", 1.5, [2, [3, []]])},
    [255, 256],
    [0, -1],
    [1, True],
    [True, 1],
    {"k": -1},
    {"k": 256},
]


def test_report_json_matches_the_standard_encoder(monkeypatch):
    # The one report writer gives the bytes of the standard encoder on
    # every report the package writes and on values no report has yet.
    reports = [
        decide(g).to_dict() for n in (1, 2) for g in gpdtools.enumerate_groupoids(n)
    ]
    # Rows past order 40 and a chain whose witness mixes five block orders.
    chain, _ = gpdtools.build_determined(
        gpdtools.parse_cspec(_cyclic_chain_cspec((2, 4, 8, 16, 32)))
    )
    reports += [decide(_negation_twist(64)).to_dict(), decide(chain).to_dict()]
    for table, mapping, _ in FIXTURES.values():
        reports.append(decide(table).to_dict())
        reports.append(cli._check_report(table, None))
        reports.append(cli._check_report(table, mapping))
    # A sweep whose twist battery fails twice on every instance, once with
    # a string detail.
    verdicts = {"holds": True, "fails": False, "why": "é \"quoted\"", "skip": None}
    monkeypatch.setattr(enumeration, "check_twisted_slg", lambda *args: verdicts)
    config = gpdtools.SweepConfig(
        max_exhaustive_order=2, sample_count=0, max_semilattice_order=2,
        max_group_order=2, suites=("goldens", "slg_conclusions"),
    )
    reports.append(gpdtools.run_sweep(config).to_dict())
    assert len(reports[-1]["counterexamples"]) > 10
    assert len(reports) == 1 + 16 + 2 + 3 * len(FIXTURES) + 1
    for value in reports + _EDGE_VALUES:
        assert _report_json(value) == json.dumps(value, indent=2, sort_keys=True)
