"""Command line behaviour: formats, exit codes, guard handling."""

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import altcurves
from altcurves import cli, dualgraph, enumerators
from altcurves.cli import CONFIG_COLUMNS, REPORT_COLUMNS, main
from altcurves.enumerators import EnumerationResult
from altcurves.errors import EulerInconsistencyError, PdSyntaxError

from conftest import FIXTURE_DIR, fixture_path, relabel, two_bridge_pd

TREFOIL = str(fixture_path("k3_1"))
BORROMEAN = str(fixture_path("borromean"))
GRANNY = str(fixture_path("granny"))


def test_version(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--version"])
    assert exit_.value.code == 0
    assert "altcurves" in capsys.readouterr().out


def test_validate_ok_text(capsys):
    assert main(["validate", TREFOIL]) == 0
    out = capsys.readouterr().out
    assert "ok (n=3, faces=5)" in out


def test_validate_failure_text(capsys):
    assert main(["validate", GRANNY, TREFOIL]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "2-edge cut" in out


def test_validate_json(capsys):
    assert main(["validate", "--format", "json", GRANNY]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["type"] == "validation"
    assert record["schema_version"] == 1
    assert record["ok"] is False
    assert record["alternating"] is True
    assert record["prime"] is False
    assert record["failures"]


def test_validate_unreadable_file(capsys):
    assert main(["validate", "/no/such/file.pd"]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.pd"
    bad.write_text("X 1 2 3\n")
    assert main(["validate", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    bad.write_text('{"crossings": 5}\n')
    assert main(["validate", str(bad)]) == 2
    assert '"crossings" list' in capsys.readouterr().err


def test_validate_non_sphere_diagram(tmp_path, capsys):
    bad = tmp_path / "bad.pd"
    bad.write_text("X 1 2 1 2\n")
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: component [1] has v-e+f")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_enumerate_text(capsys):
    assert main(["enumerate", TREFOIL]) == 0
    out = capsys.readouterr().out
    assert "total=3 (pppp=3, psps_pair=0, other=0)" in out
    assert out.count("[pppp]") == 3


def test_enumerate_csv(capsys):
    assert main(["enumerate", "--format", "csv", TREFOIL]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(CONFIG_COLUMNS)
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "pppp"
    assert first[5] == "2"  # chi
    assert first[6] == "6"  # tubings


def test_enumerate_json(capsys):
    assert main(["enumerate", "--format", "json", BORROMEAN]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["type"] for r in records] == ["configuration"] * 9 + ["summary"]
    summary = records[-1]
    assert summary["counts"] == {"pppp": 6, "psps_pair": 3, "other": 0, "total": 9}
    assert summary["crossings"] == 6
    assert isinstance(summary["visited"], int)
    pairs = [r for r in records if r.get("family") == "psps_pair"]
    assert len(pairs) == 3
    assert all(r["tubings"] == 4 for r in pairs)
    assert all(r["words_minus"] for r in pairs)


def test_enumerate_out_file(tmp_path, capsys):
    out = tmp_path / "configs.csv"
    assert main(["enumerate", "--format", "csv", "--out", str(out), TREFOIL]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().startswith(",".join(CONFIG_COLUMNS))


# each record command, the paths it reads and every --format it accepts
RECORD_COMMANDS = [
    ("validate", [GRANNY, TREFOIL], ("text", "json")),
    ("enumerate", [BORROMEAN], ("text", "json", "csv")),
    ("bounds", [TREFOIL], ("text", "json")),
    ("report", [GRANNY, TREFOIL], ("text", "json", "csv")),
]


@pytest.mark.parametrize("argv", [
    [command, "--format", fmt, *paths]
    for command, paths, formats in RECORD_COMMANDS for fmt in formats
], ids=lambda argv: f"{argv[0]}-{argv[2]}")
def test_out_writes_what_stdout_gets(argv, tmp_path, capsys):
    code = main(argv)
    stdout = capsys.readouterr().out
    assert stdout
    out = tmp_path / "records"
    assert main([*argv, "--out", str(out)]) == code
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == stdout.encode("utf-8")
    assert main([*argv, "--out", "-"]) == code
    assert capsys.readouterr().out == stdout


def test_enumerate_guard_flag(capsys):
    assert main(["enumerate", "--genus", "9", "--guard-cap", "2000", TREFOIL]) == 3
    assert "guard tripped" in capsys.readouterr().err
    # k4_1 at genus 3 visits 520 partial walks and selections in all
    figure8 = str(fixture_path("k4_1"))
    assert main(["enumerate", "--genus", "3", "--guard-cap", "519", figure8]) == 3
    assert "guard tripped: 520 partial walks and selections visited (cap 519)" in capsys.readouterr().err
    assert main(["enumerate", "--genus", "3", "--guard-cap", "520", figure8]) == 0
    assert "total=4 (pppp=0, psps_pair=0, other=4)" in capsys.readouterr().out
    # a cap below 1 is a bad argument, rejected before any search
    for cap in ("0", "-5", "many"):
        with pytest.raises(SystemExit) as exit_:
            main(["enumerate", "--genus", "3", "--guard-cap", cap, TREFOIL])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "--guard-cap: expected a positive integer" in err
        assert "guard tripped" not in err


def test_deep_genus_trips_the_guard_without_a_traceback():
    # at genus 600 a walk of punctures alone may reach 1200 letters
    # (p + t <= 2g), past Python's recursion limit, so the walk must
    # not recurse once per letter; 1500 visits take the first walk there
    src = str(Path(altcurves.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-m", "altcurves.cli", "enumerate", str(fixture_path("hopf")),
         "--genus", "600", "--guard-cap", "1500"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 3
    assert "guard tripped: 1501 partial walks" in run.stderr
    assert "Traceback" not in run.stderr


# A reordering of one crossing's labels that is not a cyclic rotation takes
# a validated diagram off the sphere.  Its four corner faces differ, so each
# passes the crossing once, and cut there they are four paths, path i from
# slot i + 1 back to slot i.  The new cyclic order `succ` joins path i to
# path succ(i) - 1: a 4-cycle times a 4-cycle, so an even permutation, and
# not the identity, so it has 2 cycles.  The graph is unchanged and the four
# faces become 2: v - e + f falls from 2 to 0.
OFF_SPHERE = [p for p in permutations(range(4))
              if p not in {tuple((k + i) % 4 for i in range(4)) for k in range(4)}]


def _malformed(text: str, kind: str, rng: random.Random) -> str:
    """PD text broken one way: a row cut short, a label repeated or missing,
    or one crossing's labels taken off the sphere."""
    rows = [line.split()[1:] for line in text.splitlines() if line.startswith("X")]
    row = rng.choice(rows)
    labels = sorted({x for r in rows for x in r}, key=int)
    i = rng.randrange(4)
    if kind == "truncated":
        del row[i:]
    elif kind == "repeated":
        row[i] = rng.choice([x for x in labels if x != row[i]])
    elif kind == "missing":
        row[i] = str(int(labels[-1]) + 1)
    else:
        row[:] = [row[k] for k in rng.choice(OFF_SPHERE)]
    return "".join("X " + " ".join(r) + "\n" for r in rows)


def _enumerate(argv):
    """`main(["enumerate", *argv])`'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["enumerate", *argv])
    return rc, out.getvalue(), err.getvalue()


# the documented exit code of each kind of bad input
BAD_INPUT_EXITS = {"truncated": 2, "repeated": 2, "missing": 2, "off-sphere": 2,
                   "genus 1": 2, "genus 0": 2, "genus 300": 3}


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(BAD_INPUT_EXITS)),
       terms=st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(lambda t: sum(t) >= 2),
       seed=st.integers(0, 2**32 - 1), cap=st.integers(1, 500),
       fmt=st.sampled_from(["text", "json", "csv"]))
def test_bad_input_to_enumerate_exits_with_its_code(kind, terms, seed, cap, fmt):
    # malformed PD text on a drawn 2-bridge diagram, or an extreme genus on
    # hopf under a small guard cap: each ends in its documented exit code
    # and one error line, and no exception escapes `main`
    rng = random.Random(seed)
    argv = ["--guard-cap", str(cap), "--format", fmt]
    if kind.startswith("genus"):
        rc, out, err = _enumerate(argv + ["--genus", kind.split()[1], str(fixture_path("hopf"))])
    else:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bad.pd"
            path.write_text(_malformed(relabel(two_bridge_pd(terms), rng), kind, rng),
                            encoding="utf-8")
            rc, out, err = _enumerate(argv + [str(path)])
    assert rc == BAD_INPUT_EXITS[kind]
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("target,error,argv", [
    ("euler_crosscheck", EulerInconsistencyError("complex does not close up"),
     ["enumerate", TREFOIL]),
], ids=["euler"])
def test_internal_faults_exit_4(target, error, argv, monkeypatch, capsys):
    def raiser(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, target, raiser)
    assert main(argv) == 4
    assert f"error: internal fault: {error}" in capsys.readouterr().err


def test_report_jobs_below_one_rejected(capsys):
    for jobs in ("0", "-3", "many"):
        with pytest.raises(SystemExit) as exit_:
            main(["report", "--jobs", jobs, TREFOIL])
        assert exit_.value.code == 2
        assert "--jobs: expected a positive integer" in capsys.readouterr().err


# Every option string of every subcommand.  A new knob must be added here.
CLI_SURFACE = {
    "": ["--help", "--version", "-h"],
    "validate": ["--format", "--help", "--out", "-h"],
    "enumerate": ["--format", "--genus", "--guard-cap", "--help", "--out", "-h"],
    "bounds": ["--format", "--help", "--out", "-h"],
    "report": ["--format", "--help", "--jobs", "--out", "--render", "-h"],
    "render": ["--config", "--help", "--out", "-h"],
}


def test_cli_surface_is_pinned():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    parsers = {"": parser, **sub.choices}
    surface = {name: sorted(s for a in p._actions for s in a.option_strings)
               for name, p in parsers.items()}
    assert surface == CLI_SURFACE


def test_enumerate_genus3(capsys):
    # the trefoil's only selections of genus-3 cost are pairs of saddle-free
    # words, two spheres each, so it has no connected genus-3 surface
    assert main(["enumerate", "--genus", "3", TREFOIL]) == 0
    assert "total=0 (pppp=0, psps_pair=0, other=0)" in capsys.readouterr().out


# Connected genus-3 configurations of each fixture, as the three-way
# reference in test_enumerators derives them.
GENUS3_COUNTS = {
    "borromean": 19, "hopf": 0, "k3_1": 0, "k4_1": 4, "k5_1": 0, "k5_2": 4,
    "k6_1": 6, "k6_2": 10, "k6_3": 12, "k7_1": 0, "k7_2": 8, "k7_3": 12,
    "k7_4": 16, "k7_5": 16, "k7_6": 18, "k7_7": 17,
}


def test_genus3_corpus_runs_within_40_thousand_visits(capsys):
    # A speed regression test that counts work, not time: the slowest
    # fixture, k7_1, visits 27,552 partial walks and selections.
    assert sorted(GENUS3_COUNTS) == sorted(p.stem for p in FIXTURE_DIR.glob("*.pd"))
    for name, count in GENUS3_COUNTS.items():
        argv = ["enumerate", "--genus", "3", "--guard-cap", "40000", "--format", "json",
                str(fixture_path(name))]
        assert main(argv) == 0, name
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["counts"]["total"] == count, name


def test_bounds_text(capsys):
    assert main(["bounds", TREFOIL]) == 0
    out = capsys.readouterr().out
    assert "pppp" in out and "VIOLATED" not in out
    assert "<= 30" in out
    assert "<= 54" in out


def test_bounds_json(capsys):
    assert main(["bounds", "--format", "json", BORROMEAN]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["type"] == "bounds"
    assert record["all_ok"] is True
    assert record["counts"]["surfaces"] == 6 * 6 + 3 * 4
    assert record["bounds"]["surfaces"] == 12 * 6**3


def test_report_directory_text(capsys):
    assert main(["report", str(FIXTURE_DIR)]) == 0
    out = capsys.readouterr().out
    assert "16 diagrams, all_ok=True" in out
    assert "INVALID" not in out


def test_report_invalid_member(capsys):
    assert main(["report", GRANNY, TREFOIL]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out
    assert "bounds_ok=True" in out


def test_report_validates_each_diagram_once(monkeypatch, capsys):
    calls = []
    real = cli.validate

    def counting_validate(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(cli, "validate", counting_validate)
    monkeypatch.setattr(dualgraph, "validate", counting_validate)
    assert main(["report", GRANNY, TREFOIL]) == 1
    out = capsys.readouterr().out
    assert "INVALID (prime: arcs" in out
    assert len(calls) == 2


def test_over_cap_count_is_reported_not_raised(monkeypatch, capsys):
    # the trefoil has n = 3, so 55 configurations exceed the 2n^3 = 54 cap
    real = enumerators.enumerate_pppp

    def over_cap(g):
        configs = real(g).configurations[:1] * 55
        return EnumerationResult(configs, {}, visited=0)

    monkeypatch.setattr(enumerators, "enumerate_pppp", over_cap)
    assert main(["bounds", TREFOIL]) == 1
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()[1:]}
    assert lines["configurations"].endswith("VIOLATED")
    assert "55 <= 54" in lines["configurations"]
    assert main(["report", TREFOIL]) == 1
    out = capsys.readouterr().out
    assert "configurations=55" in out
    assert "bounds_ok=False" in out


def test_report_empty_directory(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 2
    assert "no .pd diagrams found" in capsys.readouterr().err


def test_report_malformed_member(tmp_path, capsys):
    bad = tmp_path / "bad.pd"
    bad.write_text("X 1 2 3\n")
    assert main(["report", str(bad), TREFOIL]) == 2
    out, err = capsys.readouterr()
    assert str(bad) in err
    # the readable file keeps its row, and is still drawn
    assert f"{TREFOIL}: n=3 configurations=3" in out
    assert f"{bad}: ERROR (expected 'X a b c d', got 'X 1 2 3')" in out
    assert main(["report", "--render", str(tmp_path / "svg"), str(bad), TREFOIL]) == 2
    capsys.readouterr()
    assert [p.name for p in (tmp_path / "svg").glob("*.svg")] == ["k3_1.svg"]


def test_report_csv_and_parallel_determinism(tmp_path, capsys):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert main(["report", "--format", "csv", "--out", str(serial),
                 str(FIXTURE_DIR)]) == 0
    assert main(["report", "--format", "csv", "--out", str(parallel),
                 "--jobs", "8", str(FIXTURE_DIR)]) == 0
    capsys.readouterr()
    assert serial.read_bytes() == parallel.read_bytes()
    lines = serial.read_text().splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert len(lines) == 17


def test_report_json_summary_last(capsys):
    assert main(["report", "--format", "json", TREFOIL, BORROMEAN]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["type"] for r in records] == ["report-row", "report-row", "report-summary"]
    assert records[-1] == {
        "type": "report-summary", "schema_version": 1,
        "diagrams": 2, "all_ok": True,
    }


def test_report_render_directory(tmp_path, capsys):
    out_dir = tmp_path / "svg"
    assert main(["report", "--render", str(out_dir), TREFOIL, BORROMEAN]) == 0
    capsys.readouterr()
    made = sorted(p.name for p in out_dir.glob("*.svg"))
    assert made == ["borromean.svg", "k3_1.svg"]
    assert out_dir.joinpath("k3_1.svg").read_text().startswith("<svg")
    # invalid diagrams are reported but not drawn
    invalid_dir = tmp_path / "svg-invalid"
    assert main(["report", "--render", str(invalid_dir),
                 str(FIXTURE_DIR / "invalid"), TREFOIL]) == 1
    assert "INVALID" in capsys.readouterr().out
    assert [p.name for p in invalid_dir.glob("*.svg")] == ["k3_1.svg"]


def test_report_render_parses_each_diagram_once(tmp_path, monkeypatch, capsys):
    calls = []
    real_parse = cli.parse_pd

    def counting_parse(text):
        calls.append(text)
        return real_parse(text)

    monkeypatch.setattr(cli, "parse_pd", counting_parse)
    assert main(["report", "--render", str(tmp_path), TREFOIL, BORROMEAN]) == 0
    assert len(calls) == 2
    out = capsys.readouterr().out
    monkeypatch.undo()
    # the same rows and drawings as the report and the render command give
    assert main(["report", TREFOIL, BORROMEAN]) == 0
    assert capsys.readouterr().out == out
    for path in (TREFOIL, BORROMEAN):
        assert main(["render", path]) == 0
        assert (tmp_path / f"{Path(path).stem}.svg").read_text() == capsys.readouterr().out


def test_render_plain(capsys):
    assert main(["render", TREFOIL]) == 0
    out = capsys.readouterr().out
    assert out.startswith("<svg")
    assert 'class="arc"' in out
    assert 'class="curve"' not in out


def test_render_with_configuration(tmp_path, capsys):
    out = tmp_path / "k3.svg"
    assert main(["render", "--config", "0", "--out", str(out), TREFOIL]) == 0
    text = out.read_text()
    assert 'class="curve"' in text


def test_render_config_out_of_range(capsys):
    assert main(["render", "--config", "99", TREFOIL]) == 2
    assert "out of range" in capsys.readouterr().err


def test_render_config_out_of_range_is_a_bad_argument_not_bad_pd():
    args = cli._build_parser().parse_args(["render", "--config", "99", TREFOIL])
    with pytest.raises(ValueError, match="out of range") as error:
        cli.cmd_render(args)
    assert not isinstance(error.value, PdSyntaxError)
