"""Seeded inputs, commands and output checks for the benchmark workloads.

Each workload is a closed loop with one client: its commands run one after
another through ``altcurves.cli.main``, the next starting when the previous
one returns.  altcurves only ever receives the generated ``.pd`` files.

Diagrams come from ``scripts/gen_fixtures.py`` (``cf_tree`` and
``pd_from_tree``), so the benchmark draws continued fractions and never builds
PD codes of its own.  The seed also shuffles the crossing order and the arc
labels of every diagram; counts and costs do not depend on the labelling, so
seeds change the inputs without changing how much work they are.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

from gen_fixtures import cf_tree, pd_from_tree

# (2,n) torus knots: one n drawn from each stratum.  Narrow strata keep the
# cost of a pass nearly the same for every seed; n = 31 and 41 are always in.
TORUS_STRATA = {
    "full": ((9, 11), (13, 15), (17, 19), (21, 23), (25, 27), (31,), (41,)),
    "tiny": ((3, 5), (7,)),
}
GENERAL_KNOTS = {
    "full": (("hopf", (2,)), ("k3_1", (3,)), ("k4_1", (2, 2))),
    "tiny": (("hopf", (2,)), ("k3_1", (3,))),
}
# Diagrams on which the genus-2 general search is checked against the
# specialized enumerators.
GENUS2_CHECKED = ("k3_1", "k4_1")
MAX_DRAWS = 100


@dataclass(frozen=True)
class Item:
    """One generated diagram, as written for altcurves."""

    name: str
    path: str
    n: int
    terms: tuple[int, ...]
    text: str


@dataclass(frozen=True)
class Command:
    """One CLI call of a pass and the items it covers."""

    argv: tuple[str, ...]
    items: tuple[Item, ...]


@dataclass(frozen=True)
class Inputs:
    items: tuple[Item, ...]
    redraws: int


def relabel(text: str, rng: random.Random) -> str:
    """Shuffle crossing order and arc labels; the diagram stays the same."""
    rows = [line.split()[1:] for line in text.splitlines() if line.startswith("X")]
    labels = sorted({x for row in rows for x in row}, key=int)
    perm = dict(zip(labels, rng.sample(labels, len(labels))))
    rows = [[perm[x] for x in row] for row in rows]
    rng.shuffle(rows)
    return "".join("X " + " ".join(row) + "\n" for row in rows)


def _draws(workload: str, size: str):
    """(name, draw) pairs; draw(rng) gives the continued fraction's terms."""
    if workload == "torus-ladder":
        for stratum in TORUS_STRATA[size]:
            yield "torus", lambda rng, stratum=stratum: (rng.choice(stratum),)
    elif workload == "general-search":
        for name, terms in GENERAL_KNOTS[size]:
            yield name, lambda rng, terms=terms: terms
    else:
        raise ValueError(f"unknown workload {workload!r}")


def generate(workload: str, seed: int, size: str, out_dir: Path) -> Inputs:
    """Draw, validate and write the workload's diagrams.

    A draw that is invalid, or repeats an earlier draw (its terms read either
    way), is replaced by the seed's next draw, never dropped.
    """
    from altcurves.diagram import build_diagram, parse_pd, validate

    rng = random.Random(f"{workload}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    items: list[Item] = []
    seen: set[tuple[int, ...]] = set()
    redraws = 0
    for label, draw in _draws(workload, size):
        for _ in range(MAX_DRAWS):
            terms = draw(rng)
            text = relabel(pd_from_tree(cf_tree(list(terms))), rng)
            d = build_diagram(parse_pd(text))
            key = min(terms, terms[::-1])
            if validate(d).ok and key not in seen:
                break
            redraws += 1
        else:
            raise RuntimeError(f"{workload}: no valid new {label} diagram in {MAX_DRAWS} draws")
        seen.add(key)
        name = f"torus_2_{terms[0]}" if label == "torus" else label
        path = out_dir / f"{name}.pd"
        path.write_text(f"# {name}: continued fraction {list(terms)}, seed {seed}\n" + text,
                        encoding="utf-8")
        items.append(Item(name, str(path), d.n, terms, text))
    return Inputs(tuple(items), redraws)


def commands(workload: str, inputs: Inputs) -> tuple[Command, ...]:
    """The CLI calls of one pass, one per diagram."""
    if workload == "torus-ladder":
        return tuple(Command(("report", item.path, "--format", "csv"), (item,))
                     for item in inputs.items)
    return tuple(
        Command(("enumerate", item.path, "--genus", "3", "--format", "json"), (item,))
        for item in inputs.items
    )


def corpus_report(inputs: Inputs, in_dir: Path, jobs: int) -> Command:
    """One report over the whole input directory, with ``--jobs`` when above 1."""
    pool = ("--jobs", str(jobs)) if jobs > 1 else ()
    return Command(("report", str(in_dir), "--format", "csv", *pool), inputs.items)


# ----------------------------------------------------------------------------
# output checks (run after the timed region)
# ----------------------------------------------------------------------------


def _report_failures(workload: str, items, stdout: str) -> list[str]:
    rows = {Path(row["path"]).stem: row for row in csv.DictReader(io.StringIO(stdout))}
    problems = []
    for item in items:
        row = rows.get(item.name)
        if row is None:
            problems.append(f"{item.name}: no report row")
        elif row["valid"] != "True" or row["bounds_ok"] != "True":
            problems.append(f"{item.name}: valid={row['valid']} bounds_ok={row['bounds_ok']}")
        elif workload == "torus-ladder":
            n = item.terms[0]
            want = (n, n * (n - 1) // 2, 0)
            got = (int(row["n"]), int(row["pppp"]), int(row["psps_pair"]))
            if got != want:
                problems.append(f"{item.name}: (n, pppp, psps_pair) = {got}, expected {want}")
    return problems


def _enumerate_failures(stdout: str) -> list[str]:
    lines = [json.loads(line) for line in stdout.splitlines()]
    if not lines or lines[-1].get("type") != "summary":
        return ["no summary line"]
    summary = lines[-1]
    problems = []
    if summary["visited"] <= 0:
        problems.append(f"visited = {summary['visited']}")
    if len(lines) - 1 != summary["counts"]["total"]:
        problems.append(f"{len(lines) - 1} configuration lines, total {summary['counts']['total']}")
    return problems


def check_outcome(workload: str, command: Command, rc, stdout: str, reference: str | None):
    """Names of the command's items whose output fails a check, with reasons.

    `reference`, given for a `--jobs 2` report, is the serial output it must
    equal byte for byte.
    """
    if rc != 0:
        return {item.name: f"exit {rc}" for item in command.items}
    if workload == "general-search":
        problems = _enumerate_failures(stdout)
        return {command.items[0].name: "; ".join(problems)} if problems else {}
    failed = {}
    for problem in _report_failures(workload, command.items, stdout):
        failed.setdefault(problem.split(":", 1)[0], problem)
    if reference is not None and stdout != reference:
        ref_rows = {Path(r["path"]).stem: r for r in csv.DictReader(io.StringIO(reference))}
        out_rows = {Path(r["path"]).stem: r for r in csv.DictReader(io.StringIO(stdout))}
        for item in command.items:
            if ref_rows.get(item.name) != out_rows.get(item.name):
                failed.setdefault(item.name, f"{item.name}: --jobs 2 row differs from --jobs 1")
        if not failed:
            failed[command.items[0].name] = "--jobs 2 output differs from --jobs 1 outside the rows"
    return failed


def genus2_disagreements(workload: str, inputs: Inputs) -> dict[str, str]:
    """Items on which the genus-2 general search and enumerate_genus2 differ.

    Compares the PPPP and PSPS-pair configurations only; the general search
    also finds 'other' configurations, whose counts are not pinned.
    """
    if workload != "general-search":
        return {}
    from altcurves import (budgets, build_diagram, build_dual, classify_family,
                           enumerate_general, enumerate_genus2, parse_pd)

    bad = {}
    for item in inputs.items:
        if item.name not in GENUS2_CHECKED:
            continue
        g = build_dual(build_diagram(parse_pd(item.text)))
        special = set(enumerate_genus2(g).configurations)
        general = {c for c in enumerate_general(g, budgets(2)).configurations
                   if classify_family(c) != "other"}
        if special != general:
            bad[item.name] = (f"{item.name}: genus-2 general search gives {len(general)} "
                              f"PPPP/PSPS-pair configurations, enumerate_genus2 {len(special)}")
    return bad
