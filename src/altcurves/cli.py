"""Command line interface.

Subcommands: validate (diagram hygiene), enumerate (the curve configurations
of one genus: the two genus-2 families, or above genus 2 the general search,
which the genus alone shapes), bounds (counts against their polynomial
caps), report (a corpus at a time, optionally in parallel and with rendered
SVGs), render (one diagram to SVG).
Every command hands its rows to one writer, `_write`, which emits them as
JSON lines, CSV or text, as `--format` asks, to `--out` or to stdout.
`report` gives each file that cannot be read an error record in path order
with the rows: a "report-error" with `path` and `error` in JSON, a row with
the message in `failures` in CSV, `PATH: ERROR (message)` in text.

Exit codes: 0 success, 1 domain failure (invalid diagram, violated bound),
2 input problem (unreadable file, parse error, bad arguments; `report`
exits 2 once its other rows are out), 3 guard abort (`enumerate` only:
the general search exceeded its cap on visited partial walks and word
selections), 4 internal fault (an emitted configuration whose Euler
characteristic breaks its genus identity: a defect of the program, not of
the input).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import __version__
from .bounds import compare
from .diagram import Diagram, build_diagram, parse_pd, validate
from .dualgraph import build_dual
from .enumerators import (
    DEFAULT_GUARD_CAP,
    classify_family,
    enumerate_general,
    enumerate_genus2,
)
from .errors import (
    EulerInconsistencyError,
    GuardAbort,
    PdStructureError,
    PdSyntaxError,
    PlanarityError,
    PreconditionError,
)
from .euler import euler_crosscheck
from .render import render_diagram
from .tubing import configuration_tubing_count
from .words import serialize_word

SCHEMA_VERSION = 1

CONFIG_COLUMNS = (
    "family", "complexity", "punctures", "saddles", "curves",
    "chi", "tubings", "words_plus", "words_minus",
)
REPORT_COLUMNS = (
    "path", "n", "valid", "failures", "pppp", "psps_pair", "other",
    "configurations", "surfaces", "bounds_ok",
)


def _load(path: str) -> Diagram:
    with open(path, encoding="utf-8") as f:
        return build_diagram(parse_pd(f.read()))


def _write(args, rows, lines, kind=None, columns=None, summary=None) -> None:
    """Write one command's records in `args.format` to `args.out` (stdout if absent or "-").

    json: a line per row, typed `kind` unless the row names its own type,
    then `summary`, which names its own type, when given; csv: a `columns`
    header, then a line per row; text: `lines`, each ending in a newline,
    read only here.
    """
    if args.format == "json":
        records = [{"type": kind, **row} for row in rows] + ([summary] if summary else [])
        text = "".join(json.dumps({"schema_version": SCHEMA_VERSION, **record},
                                  sort_keys=True) + "\n" for record in records)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = "".join(lines)
    if args.out in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")


def _config_row(cfg) -> dict:
    # `words_minus` is the plus words (`Configuration`), so one string serves both
    words = " | ".join(serialize_word(w) for w in cfg.words_plus)
    return {
        "family": classify_family(cfg),
        "complexity": cfg.complexity,
        "punctures": cfg.p,
        "saddles": cfg.s,
        "curves": cfg.c,
        "chi": euler_crosscheck(cfg),
        "tubings": configuration_tubing_count(cfg),
        "words_plus": words,
        "words_minus": words,
    }


# ----------------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------------


def cmd_validate(args) -> int:
    rows = []
    for path in args.paths:
        d = _load(path)
        report = validate(d)
        rows.append({"path": path, "crossings": d.n, "faces": d.face_count, "ok": report.ok,
                     "alternating": report.alternating, "reduced": report.reduced,
                     "prime": report.prime, "connected": report.connected,
                     "failures": list(report.failures)})

    def lines():
        for row in rows:
            if row["ok"]:
                yield f"{row['path']}: ok (n={row['crossings']}, faces={row['faces']})\n"
            else:
                yield f"{row['path']}: FAIL ({'; '.join(row['failures'])})\n"

    _write(args, rows, lines(), kind="validation")
    return 0 if all(row["ok"] for row in rows) else 1


# ----------------------------------------------------------------------------
# enumerate
# ----------------------------------------------------------------------------


def cmd_enumerate(args) -> int:
    d = _load(args.path)
    dual = build_dual(d)
    if args.genus == 2:
        result = enumerate_genus2(dual)
    else:
        result = enumerate_general(dual, args.genus, guard_cap=args.guard_cap)
    rows = [_config_row(cfg) for cfg in result.configurations]
    c = result.counts

    def lines():
        for row in rows:
            yield (f"[{row['family']}] chi={row['chi']} complexity={row['complexity']} "
                   f"tubings={row['tubings']} :: {row['words_plus']}\n")
        yield (f"{args.path}: n={d.n} genus={args.genus} total={c['total']} "
               f"(pppp={c['pppp']}, psps_pair={c['psps_pair']}, other={c['other']})\n")

    _write(args, rows, lines(), kind="configuration", columns=CONFIG_COLUMNS, summary={
        "type": "summary",
        "path": args.path,
        "crossings": d.n,
        "genus": args.genus,
        "counts": c,
        "diagnostics": {str(k): v for k, v in sorted(result.diagnostics.items())},
        "visited": result.visited,
    })
    return 0


# ----------------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------------


def cmd_bounds(args) -> int:
    d = _load(args.path)
    report = compare(d.n, enumerate_genus2(build_dual(d)))

    def lines():
        yield f"{args.path}: n={d.n}\n"
        for key, count in report.counts.items():
            flag = "ok" if report.ok[key] else "VIOLATED"
            yield f"  {key:<14} {count:>8} <= {report.bounds[key]:<8} {flag}\n"

    _write(args, [{
        "path": args.path,
        "crossings": d.n,
        "counts": report.counts,
        "bounds": report.bounds,
        "ok": report.ok,
        "all_ok": report.all_ok,
    }], lines(), kind="bounds")
    return 0 if report.all_ok else 1


# ----------------------------------------------------------------------------
# report
# ----------------------------------------------------------------------------


def _collect_paths(raw_paths) -> list[str]:
    files: set[str] = set()
    for raw in raw_paths:
        p = Path(raw)
        files.update(map(str, p.glob("*.pd")) if p.is_dir() else [raw])
    return sorted(files)


def _report_row(path: str) -> tuple[dict, Diagram]:
    """A diagram's report row, and the diagram, parsed once for the row and its render."""
    d = _load(path)
    row = dict.fromkeys(REPORT_COLUMNS, "")
    row.update(path=path, n=d.n, valid=True)
    try:
        # build_dual validates the diagram and raises only for an invalid
        # one, with the report attached, so each row validates once
        result = enumerate_genus2(build_dual(d))
    except PreconditionError as e:
        row.update(valid=False, failures="; ".join(e.report.failures))
        return row, d
    c, breport = result.counts, compare(d.n, result)
    row.update(pppp=c["pppp"], psps_pair=c["psps_pair"], other=c["other"],
               configurations=c["total"], surfaces=breport.counts["surfaces"],
               bounds_ok=breport.all_ok)
    return row, d


def cmd_report(args) -> int:
    files = _collect_paths(args.paths)
    if not files:
        print("error: no .pd diagrams found", file=sys.stderr)
        return 2

    def safe_row(path: str):
        # (row, diagram), or ({"path", "error"}, None) for a file that cannot be read
        try:
            return _report_row(path)
        except (OSError, PdSyntaxError, PdStructureError, PlanarityError) as e:
            return {"path": path, "error": str(e)}, None

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(safe_row, files))
    else:
        outcomes = [safe_row(path) for path in files]

    errors = [row for row, d in outcomes if d is None]
    for error in errors:
        print(f"error: {error['path']}: {error['error']}", file=sys.stderr)

    if args.render is not None:
        render_dir = Path(args.render)
        render_dir.mkdir(parents=True, exist_ok=True)
        for row, d in outcomes:
            if d is not None and row["valid"]:
                stem = Path(row["path"]).stem
                svg = render_diagram(d, title=stem)
                (render_dir / f"{stem}.svg").write_text(svg, encoding="utf-8")

    domain_ok = not errors and all(row["valid"] and row["bounds_ok"] is True
                                   for row, _ in outcomes)

    def record(row: dict, d: Diagram | None) -> dict:
        # an unreadable file's record: in CSV a row with the message in
        # `failures`, in JSON a "report-error" record
        if d is not None:
            return row
        if args.format == "csv":
            return {**dict.fromkeys(REPORT_COLUMNS, ""), "path": row["path"],
                    "failures": row["error"]}
        return {"type": "report-error", **row}

    rows = [record(row, d) for row, d in outcomes]

    def lines():
        for row, d in outcomes:
            if d is None:
                yield f"{row['path']}: ERROR ({row['error']})\n"
            elif row["valid"]:
                yield (f"{row['path']}: n={row['n']} configurations={row['configurations']} "
                       f"(pppp={row['pppp']}, psps_pair={row['psps_pair']}, "
                       f"other={row['other']}) surfaces={row['surfaces']} "
                       f"bounds_ok={row['bounds_ok']}\n")
            else:
                yield f"{row['path']}: INVALID ({row['failures']})\n"
        yield f"{len(rows)} diagrams, all_ok={domain_ok}\n"

    _write(args, rows, lines(), kind="report-row", columns=REPORT_COLUMNS, summary={
        "type": "report-summary", "diagrams": len(rows), "all_ok": domain_ok,
    })
    return 2 if errors else 0 if domain_ok else 1


# ----------------------------------------------------------------------------
# render
# ----------------------------------------------------------------------------


def cmd_render(args) -> int:
    d = _load(args.path)
    cfg = None
    if args.config is not None:
        result = enumerate_genus2(build_dual(d))
        if not 0 <= args.config < len(result.configurations):
            raise ValueError(
                f"configuration index {args.config} out of range "
                f"(diagram has {len(result.configurations)})"
            )
        cfg = result.configurations[args.config]
    _write(args, (), [render_diagram(d, cfg, title=Path(args.path).stem)])
    return 0


# ----------------------------------------------------------------------------
# parser and dispatch
# ----------------------------------------------------------------------------


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        value = 0  # reported below, like any other value under 1
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {raw!r}")
    return value


def _add_output(parser: argparse.ArgumentParser, *formats: str) -> None:
    """--out, and --format with text (the default) and `formats`; text only if none."""
    if formats:
        parser.add_argument("--format", choices=("text", *formats), default="text")
    else:
        parser.set_defaults(format="text")
    parser.add_argument("--out", default=None)


# built once, at the first `main` call: `parse_args` keeps no state between calls
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altcurves",
        description="Curve configurations in alternating link diagram complements.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check diagrams are reduced prime alternating")
    p_val.add_argument("paths", nargs="+", metavar="FILE.pd")
    _add_output(p_val, "json")
    p_val.set_defaults(func=cmd_validate)

    p_enum = sub.add_parser("enumerate", help="enumerate curve configurations")
    p_enum.add_argument("path", metavar="FILE.pd")
    p_enum.add_argument("--genus", type=int, default=2)
    p_enum.add_argument("--guard-cap", type=_positive_int, default=DEFAULT_GUARD_CAP,
                        help="partial walks and word selections the general search "
                             "(genus above 2) may visit before it aborts with exit "
                             "code 3 (default %(default)s)")
    _add_output(p_enum, "json", "csv")
    p_enum.set_defaults(func=cmd_enumerate)

    p_bounds = sub.add_parser("bounds", help="compare genus-2 counts to their caps")
    p_bounds.add_argument("path", metavar="FILE.pd")
    _add_output(p_bounds, "json")
    p_bounds.set_defaults(func=cmd_bounds)

    p_rep = sub.add_parser("report", help="summarize a corpus of diagrams")
    p_rep.add_argument("paths", nargs="+", metavar="PATH")
    p_rep.add_argument("--jobs", type=_positive_int, default=1)
    p_rep.add_argument("--render", default=None, metavar="DIR",
                       help="also write one SVG per valid diagram")
    _add_output(p_rep, "json", "csv")
    p_rep.set_defaults(func=cmd_report)

    p_ren = sub.add_parser("render", help="render one diagram to SVG")
    p_ren.add_argument("path", metavar="FILE.pd")
    p_ren.add_argument("--config", type=int, default=None,
                       help="overlay this genus-2 configuration (by index)")
    _add_output(p_ren)
    p_ren.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except GuardAbort as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except EulerInconsistencyError as e:
        print(f"error: internal fault: {e}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as e:  # the input's: unreadable, unparsable, out of range
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
