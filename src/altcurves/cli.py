"""Command line interface.

Subcommands: validate (diagram hygiene), enumerate (curve configurations),
bounds (counts against their polynomial caps), report (a corpus at a time,
optionally in parallel and with rendered SVGs), render (one diagram to SVG).

Exit codes: 0 success, 1 domain failure (invalid diagram, violated bound),
2 input problem (unreadable file, parse error, bad arguments), 3 guard abort
(`enumerate` only: the general search exceeded its visited-walk cap), 4
internal fault (an emitted configuration whose Euler characteristic breaks
its genus identity, or an exhaustive run outside its supported scale: a
defect of the program, not of the input).
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
    budgets,
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
    TractabilityError,
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


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


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


def _csv_text(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(columns), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


# ----------------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------------


def cmd_validate(args) -> int:
    all_ok = True
    pieces = []
    for path in args.paths:
        d = _load(path)
        report = validate(d)
        all_ok = all_ok and report.ok
        if args.format == "json":
            pieces.append(_json_line({
                "type": "validation",
                "schema_version": SCHEMA_VERSION,
                "path": path,
                "crossings": d.n,
                "faces": len(d.faces),
                "ok": report.ok,
                "alternating": report.alternating,
                "reduced": report.reduced,
                "prime": report.prime,
                "connected": report.connected,
                "failures": list(report.failures),
            }))
        else:
            if report.ok:
                pieces.append(f"{path}: ok (n={d.n}, faces={len(d.faces)})\n")
            else:
                why = "; ".join(report.failures)
                pieces.append(f"{path}: FAIL ({why})\n")
    _emit("".join(pieces), args.out)
    return 0 if all_ok else 1


# ----------------------------------------------------------------------------
# enumerate
# ----------------------------------------------------------------------------


def _parse_patterns(raw: str | None):
    if raw is None:
        return None
    patterns = []
    for token in raw.split(","):
        token = token.strip().upper()
        if not token or set(token) - {"P", "S"}:
            raise PdSyntaxError(f"patterns are words over P and S, got {token!r}")
        patterns.append(token)
    return tuple(patterns)


def cmd_enumerate(args) -> int:
    d = _load(args.path)
    patterns = _parse_patterns(args.patterns)
    dual = build_dual(d)
    if args.genus == 2 and not patterns:
        result = enumerate_genus2(dual)
    else:
        result = enumerate_general(dual, budgets(args.genus), patterns=patterns,
                                   guard_cap=args.guard_cap)
    rows = [_config_row(cfg) for cfg in result.configurations]
    summary = {
        "type": "summary",
        "schema_version": SCHEMA_VERSION,
        "path": args.path,
        "crossings": d.n,
        "genus": args.genus,
        "counts": result.counts,
        "diagnostics": {str(k): v for k, v in sorted(result.diagnostics.items())},
        "visited": result.visited,
    }
    if args.format == "json":
        pieces = [_json_line({"type": "configuration", "schema_version": SCHEMA_VERSION, **row})
                  for row in rows]
        pieces.append(_json_line(summary))
        _emit("".join(pieces), args.out)
    elif args.format == "csv":
        _emit(_csv_text(CONFIG_COLUMNS, rows), args.out)
    else:
        pieces = []
        for row in rows:
            pieces.append(
                f"[{row['family']}] chi={row['chi']} complexity={row['complexity']} "
                f"tubings={row['tubings']} :: {row['words_plus']}\n"
            )
        c = result.counts
        pieces.append(
            f"{args.path}: n={d.n} genus={args.genus} total={c['total']} "
            f"(pppp={c['pppp']}, psps_pair={c['psps_pair']}, other={c['other']})\n"
        )
        _emit("".join(pieces), args.out)
    return 0


# ----------------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------------


def cmd_bounds(args) -> int:
    d = _load(args.path)
    result = enumerate_genus2(build_dual(d))
    report = compare(d.n, result)
    if args.format == "json":
        _emit(_json_line({
            "type": "bounds",
            "schema_version": SCHEMA_VERSION,
            "path": args.path,
            "crossings": d.n,
            "counts": report.counts,
            "bounds": report.bounds,
            "ok": report.ok,
            "all_ok": report.all_ok,
        }), args.out)
    else:
        pieces = [f"{args.path}: n={d.n}\n"]
        for key in report.counts:
            flag = "ok" if report.ok[key] else "VIOLATED"
            pieces.append(
                f"  {key:<14} {report.counts[key]:>8} <= {report.bounds[key]:<8} {flag}\n"
            )
        _emit("".join(pieces), args.out)
    return 0 if report.all_ok else 1


# ----------------------------------------------------------------------------
# report
# ----------------------------------------------------------------------------


def _collect_paths(raw_paths) -> list[str]:
    files: list[str] = []
    for raw in raw_paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(str(q) for q in sorted(p.glob("*.pd")))
        else:
            files.append(raw)
    return sorted(dict.fromkeys(files))


def _report_row(path: str) -> dict:
    d = _load(path)
    row = {
        "path": path,
        "n": d.n,
        "valid": True,
        "failures": "",
        "pppp": "",
        "psps_pair": "",
        "other": "",
        "configurations": "",
        "surfaces": "",
        "bounds_ok": "",
    }
    try:
        # build_dual validates the diagram and raises only for an invalid
        # one, with the report attached, so each row validates once
        result = enumerate_genus2(build_dual(d))
    except PreconditionError as e:
        row.update(valid=False, failures="; ".join(e.report.failures))
        return row
    breport = compare(d.n, result)
    row.update({
        "pppp": result.counts["pppp"],
        "psps_pair": result.counts["psps_pair"],
        "other": result.counts["other"],
        "configurations": result.counts["total"],
        "surfaces": breport.counts["surfaces"],
        "bounds_ok": breport.all_ok,
    })
    return row


def cmd_report(args) -> int:
    files = _collect_paths(args.paths)
    if not files:
        print("error: no .pd diagrams found", file=sys.stderr)
        return 2

    def safe_row(path: str):
        try:
            return _report_row(path)
        except (OSError, PdSyntaxError, PdStructureError, PlanarityError) as e:
            return (path, str(e))

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(safe_row, files))
    else:
        outcomes = [safe_row(path) for path in files]

    rows = []
    for outcome in outcomes:
        if isinstance(outcome, tuple):
            path, message = outcome
            print(f"error: {path}: {message}", file=sys.stderr)
            return 2
        rows.append(outcome)

    if args.render is not None:
        render_dir = Path(args.render)
        render_dir.mkdir(parents=True, exist_ok=True)
        for row in rows:
            if not row["valid"]:
                continue
            d = _load(row["path"])
            svg = render_diagram(d, title=Path(row["path"]).stem)
            (render_dir / (Path(row["path"]).stem + ".svg")).write_text(
                svg, encoding="utf-8")

    domain_ok = all(row["valid"] and row["bounds_ok"] is True for row in rows)
    if args.format == "json":
        pieces = [_json_line({"type": "report-row", "schema_version": SCHEMA_VERSION, **row})
                  for row in rows]
        pieces.append(_json_line({
            "type": "report-summary",
            "schema_version": SCHEMA_VERSION,
            "diagrams": len(rows),
            "all_ok": domain_ok,
        }))
        _emit("".join(pieces), args.out)
    elif args.format == "csv":
        _emit(_csv_text(REPORT_COLUMNS, rows), args.out)
    else:
        pieces = []
        for row in rows:
            if row["valid"]:
                pieces.append(
                    f"{row['path']}: n={row['n']} configurations={row['configurations']} "
                    f"(pppp={row['pppp']}, psps_pair={row['psps_pair']}, "
                    f"other={row['other']}) surfaces={row['surfaces']} "
                    f"bounds_ok={row['bounds_ok']}\n"
                )
            else:
                pieces.append(f"{row['path']}: INVALID ({row['failures']})\n")
        pieces.append(f"{len(rows)} diagrams, all_ok={domain_ok}\n")
        _emit("".join(pieces), args.out)
    return 0 if domain_ok else 1


# ----------------------------------------------------------------------------
# render
# ----------------------------------------------------------------------------


def cmd_render(args) -> int:
    d = _load(args.path)
    cfg = None
    if args.config is not None:
        result = enumerate_genus2(build_dual(d))
        if not 0 <= args.config < len(result.configurations):
            raise PdSyntaxError(
                f"configuration index {args.config} out of range "
                f"(diagram has {len(result.configurations)})"
            )
        cfg = result.configurations[args.config]
    _emit(render_diagram(d, cfg, title=Path(args.path).stem), args.out)
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
    p_val.add_argument("--format", choices=("text", "json"), default="text")
    p_val.add_argument("--out", default=None)
    p_val.set_defaults(func=cmd_validate)

    p_enum = sub.add_parser("enumerate", help="enumerate curve configurations")
    p_enum.add_argument("path", metavar="FILE.pd")
    p_enum.add_argument("--genus", type=int, default=2)
    p_enum.add_argument("--patterns", default=None,
                        help="comma-separated P/S skeletons, e.g. PPPP,PSPS")
    p_enum.add_argument("--guard-cap", type=_positive_int, default=DEFAULT_GUARD_CAP,
                        help="partial walks the general search (genus above 2, "
                             "or --patterns) may visit before it aborts with "
                             "exit code 3 (default %(default)s)")
    p_enum.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_enum.add_argument("--out", default=None)
    p_enum.set_defaults(func=cmd_enumerate)

    p_bounds = sub.add_parser("bounds", help="compare genus-2 counts to their caps")
    p_bounds.add_argument("path", metavar="FILE.pd")
    p_bounds.add_argument("--format", choices=("text", "json"), default="text")
    p_bounds.add_argument("--out", default=None)
    p_bounds.set_defaults(func=cmd_bounds)

    p_rep = sub.add_parser("report", help="summarize a corpus of diagrams")
    p_rep.add_argument("paths", nargs="+", metavar="PATH")
    p_rep.add_argument("--jobs", type=_positive_int, default=1)
    p_rep.add_argument("--render", default=None, metavar="DIR",
                       help="also write one SVG per valid diagram")
    p_rep.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(func=cmd_report)

    p_ren = sub.add_parser("render", help="render one diagram to SVG")
    p_ren.add_argument("path", metavar="FILE.pd")
    p_ren.add_argument("--config", type=int, default=None,
                       help="overlay this genus-2 configuration (by index)")
    p_ren.add_argument("--out", default=None)
    p_ren.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PdSyntaxError, PdStructureError, PlanarityError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except PreconditionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except GuardAbort as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (EulerInconsistencyError, TractabilityError) as e:
        print(f"error: internal fault: {e}", file=sys.stderr)
        return 4
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
