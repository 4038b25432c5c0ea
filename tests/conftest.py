"""Shared fixture loading for the test suite."""

from __future__ import annotations

import random
import sys
from pathlib import Path

from altcurves.diagram import Diagram, build_diagram, parse_pd
from altcurves.dualgraph import AugmentedDualGraph, build_dual

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
sys.path.insert(0, str(FIXTURE_DIR.parent / "scripts"))

from gen_fixtures import PlaneGraph, cf_tree, medial_pd_rows, pd_from_tree, realize  # noqa: E402

VALID_NAMES = sorted(p.stem for p in FIXTURE_DIR.glob("*.pd"))
INVALID_NAMES = sorted(p.stem for p in (FIXTURE_DIR / "invalid").glob("*.pd"))

# (2,n) torus closures in the corpus, by crossing number
TORUS_NAMES = {"hopf": 2, "k3_1": 3, "k5_1": 5, "k7_1": 7}


def fixture_path(name: str) -> Path:
    direct = FIXTURE_DIR / f"{name}.pd"
    if direct.exists():
        return direct
    return FIXTURE_DIR / "invalid" / f"{name}.pd"


def fixture_text(name: str) -> str:
    return fixture_path(name).read_text(encoding="utf-8")


def load_diagram(name: str) -> Diagram:
    return build_diagram(parse_pd(fixture_text(name)))


def load_dual(name: str) -> AugmentedDualGraph:
    return build_dual(load_diagram(name))


def relabel(text: str, rng: random.Random) -> str:
    """Shuffle crossing order and arc labels; the diagram stays the same."""
    rows = [line.split()[1:] for line in text.splitlines() if line.startswith("X")]
    labels = sorted({x for row in rows for x in row}, key=int)
    perm = dict(zip(labels, rng.sample(labels, len(labels))))
    rows = [[perm[x] for x in row] for row in rows]
    rng.shuffle(rows)
    return "".join("X " + " ".join(row) + "\n" for row in rows)


def has_consecutive_saddles(w) -> bool:
    """True when some cyclically adjacent pair of a word's letters is S,S.

    The innermost rule (property 3) forbids this.  The genus-2 families hold
    it by pattern and the package checks it nowhere, so the tests do.
    """
    kinds = [l.kind for l in w.letters]
    return any(a == b == "S" for a, b in zip(kinds, kinds[1:] + kinds[:1]))


def two_bridge_pd(terms: list[int]) -> str:
    """PD text of the alternating twist diagram of a continued fraction."""
    return pd_from_tree(cf_tree(terms))


def connected_sum_pd(*summands: list[int]) -> str:
    """PD text of a chain of twist diagrams joined at vertices, as for the granny.

    The first summand is closed at a hub vertex; each later one is closed at
    an inner vertex of the summand before it (at the hub when there is none),
    so the chain can have several distinct 2-edge cuts.
    """
    g = PlaneGraph()
    target = g.new_vertex()
    for terms in summands:
        before = len(g.rot)
        fan_s, fan_t = realize(cf_tree(terms), g)
        g.rot[target] += fan_s + fan_t
        if len(g.rot) > before:
            target = before
    return "".join("X " + " ".join(map(str, row)) + "\n" for row in medial_pd_rows(g))
