"""Shared fixture loading for the test suite."""

from __future__ import annotations

import random
import sys
from collections import Counter
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


def _pairwise_classes(items, related):
    parent = list(range(len(items)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if related(items[i], items[j]):
                parent[find(i)] = find(j)
    groups = {}
    for i, item in enumerate(items):
        groups.setdefault(find(i), []).append(item)
    return list(groups.values())


def shares_three_arcs(w1, w2) -> bool:
    """True when two words' puncture arc multisets have three arcs in common."""
    m1 = Counter(l.ref for l in w1.letters if l.kind == "P")
    m2 = Counter(l.ref for l in w2.letters if l.kind == "P")
    return sum((m1 & m2).values()) >= 3


def pairwise_puncture_reps(words):
    """Least member of each class of "three shared punctures", pair by pair.

    The reference quotient for the oracle's PPPP words; it uses no code of
    the package, so the oracle comparison stays independent.
    """
    return sorted(min(c) for c in _pairwise_classes(sorted(words), shares_three_arcs))


def _channel_set(w):
    return frozenset(l.ref for l in w.letters if l.kind == "S")


def pairwise_saddle_reps(pairs):
    """Least member of each class of pairs sharing a word's channel set."""
    def shares_channel_set(p1, p2):
        return bool({_channel_set(w) for w in p1} & {_channel_set(w) for w in p2})

    items = sorted(tuple(sorted(p)) for p in pairs)
    return sorted(min(c) for c in _pairwise_classes(items, shares_channel_set))


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


def k4_network_pd(edge_terms: list[list[int]]) -> str:
    """PD text of the medial of plane K4 with each edge a twist network.

    Six continued fractions, one per edge of K4; all six [1] give the
    Borromean rings.  Many of these diagrams have balanced PSPS pairs,
    which 2-bridge and pretzel diagrams lack.
    """
    g = PlaneGraph()
    a, b, c, hub = (g.new_vertex() for _ in range(4))
    fans = {e: realize(cf_tree(terms), g)
            for e, terms in zip(("ab", "bc", "ca", "ad", "bd", "cd"), edge_terms)}
    g.rot[a] = fans["ab"][0] + fans["ad"][0] + fans["ca"][1]
    g.rot[b] = fans["bc"][0] + fans["bd"][0] + fans["ab"][1]
    g.rot[c] = fans["ca"][0] + fans["cd"][0] + fans["bc"][1]
    g.rot[hub] = fans["ad"][1] + fans["bd"][1] + fans["cd"][1]
    return "".join("X " + " ".join(map(str, row)) + "\n" for row in medial_pd_rows(g))
