"""Byte-for-byte CLI output on the fixture corpus, against tests/golden/.

Each case runs one CLI command in-process and compares its stdout, with the
fixture directory written as "fixtures", to the file of the same name in
tests/golden/; exit codes are kept in tests/golden/exit_codes.json.  The
golden files record accepted output: regenerate them only for a deliberate
output change, from the repository root, with

    PYTHONPATH=src:tests python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from altcurves import cli
from altcurves.cli import main

from conftest import FIXTURE_DIR, INVALID_NAMES, VALID_NAMES, fixture_path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN_DIR / "exit_codes.json"
# golden file suffix -> the CLI's --format value
_FORMATS = {"json": "json", "csv": "csv", "txt": "text"}


def _cases() -> dict[str, list[str]]:
    every = [str(fixture_path(name)) for name in VALID_NAMES + INVALID_NAMES]
    corpus = [str(FIXTURE_DIR), str(FIXTURE_DIR / "invalid")]
    cases = {}
    # two readable diagrams and an unreadable file: rows, then an error record
    mixed = [str(fixture_path("k3_1")), str(fixture_path("k4_1")),
             str(FIXTURE_DIR / "unreadable")]
    for fmt in ("json", "csv", "txt"):
        cases[f"report.{fmt}"] = ["report", "--format", _FORMATS[fmt], *corpus]
        cases[f"report-unreadable.{fmt}"] = ["report", "--format", _FORMATS[fmt], *mixed]
    for fmt in ("json", "txt"):
        cases[f"validate.{fmt}"] = ["validate", "--format", _FORMATS[fmt], *every]
        for name in ("borromean", "k3_1"):
            cases[f"bounds-{name}.{fmt}"] = [
                "bounds", "--format", _FORMATS[fmt], str(fixture_path(name)),
            ]
    # the text and CSV writers on a diagram with both genus-2 families
    for fmt in ("csv", "txt"):
        cases[f"enumerate-borromean.{fmt}"] = [
            "enumerate", "--genus", "2", "--format", _FORMATS[fmt],
            str(fixture_path("borromean")),
        ]
    for name in VALID_NAMES:
        cases[f"enumerate-{name}.json"] = [
            "enumerate", "--genus", "2", "--format", "json", str(fixture_path(name)),
        ]
    for name in ("hopf", "k3_1", "k4_1"):
        cases[f"genus3-{name}.json"] = [
            "enumerate", "--genus", "3", "--format", "json", str(fixture_path(name)),
        ]
    return cases


def run_case(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue().replace(str(FIXTURE_DIR), "fixtures")


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    code, out = run_case(CASES[name])
    assert out == (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert code == json.loads(EXIT_CODES.read_text(encoding="utf-8"))[name]


def test_golden_dir_has_no_strays():
    on_disk = {p.name for p in GOLDEN_DIR.iterdir()} - {EXIT_CODES.name}
    assert on_disk == set(CASES)


def test_reused_parser_keeps_no_state():
    # one parser serves every `main` call in a process, so no call may leave
    # its options, or a rejected command line, behind for the next
    assert cli._build_parser() is cli._build_parser()
    trefoil = str(fixture_path("k3_1"))
    assert run_case(["enumerate", "--genus", "3", "--format", "json", trefoil])[0] == 0
    assert run_case(["enumerate", trefoil]) == (0, (
        "[pppp] chi=2 complexity=6 tubings=6 :: P1 P3 P6 P4\n"
        "[pppp] chi=2 complexity=6 tubings=6 :: P1 P4 P2 P5\n"
        "[pppp] chi=2 complexity=6 tubings=6 :: P2 P5 P3 P6\n"
        "fixtures/k3_1.pd: n=3 genus=2 total=3 (pppp=3, psps_pair=0, other=0)\n"
    ))
    with pytest.raises(SystemExit) as exit_, contextlib.redirect_stderr(io.StringIO()):
        main(["report", "--jobs", "0", trefoil])
    assert exit_.value.code == 2
    code, out = run_case(CASES["report.json"])
    assert out == (GOLDEN_DIR / "report.json").read_text(encoding="utf-8")
    assert code == json.loads(EXIT_CODES.read_text(encoding="utf-8"))["report.json"]


def _write_golden() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out = run_case(argv)
        (GOLDEN_DIR / name).write_text(out, encoding="utf-8")
    EXIT_CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")


if __name__ == "__main__":
    _write_golden()
