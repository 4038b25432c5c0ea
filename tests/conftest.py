"""Shared fixture loading for the test suite."""

from __future__ import annotations

import random
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import product
from pathlib import Path

from altcurves.diagram import Diagram, build_diagram, parse_pd
from altcurves.dualgraph import AugmentedDualGraph, build_dual

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
sys.path.insert(0, str(FIXTURE_DIR.parent / "scripts"))

from gen_fixtures import (PlaneGraph, cf_tree, leaf, medial_pd_rows, parallel,  # noqa: E402
                          pd_from_tree, realize, series)

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


def glued_complex(words_plus, words_minus) -> tuple[int, int, int]:
    """(V, E, F) of the complex that two spheres' curve polygons glue into.

    The reference for `euler.euler_crosscheck`.  Each word bounds a polygon
    whose corners are its saddle letters.  At a crossing the four stacks of
    corners (plus and minus sphere, channel A and B) must have equal height
    h, and they glue four at a time into h vertices; each edge joins two
    corners.  Unequal stacks fail an assertion.
    """
    def stacks(words):
        return Counter((l.ref.crossing, l.ref.side)
                       for w in words for l in w.letters if l.kind == "S")

    plus, minus = stacks(words_plus), stacks(words_minus)
    vertices = 0
    for c in sorted({c for c, _ in plus} | {c for c, _ in minus}):
        heights = {plus[c, "A"], plus[c, "B"], minus[c, "A"], minus[c, "B"]}
        assert len(heights) == 1, f"crossing {c}: unequal saddle stacks {heights}"
        vertices += heights.pop()
    incidence = sum(plus.values()) + sum(minus.values())
    assert incidence == 4 * vertices
    return vertices, incidence // 2, len(words_plus) + len(words_minus)


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


def pretzel_pd(bundles: list[int]) -> str:
    """PD text of a pretzel diagram: a cycle of parallel twist bundles."""
    return pd_from_tree(series([parallel([leaf()] * k) for k in bundles]))


def mirror_pd(text: str) -> str:
    """PD text of the mirror image: each row X a b c d becomes X b c d a."""
    rows = [line.split()[1:] for line in text.splitlines() if line.startswith("X")]
    return "".join(f"X {b} {c} {d} {a}\n" for a, b, c, d in rows)


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


# edge terms of four K4 networks, one edge or two changed from the Borromean rings
K4_NETWORK_TERMS = (
    [[2]] + [[1]] * 5,
    [[1, 1]] + [[1]] * 5,
    [[1, 2]] + [[1]] * 5,
    [[3], [1], [1], [2], [1], [1]],
)


# ----------------------------------------------------------------------------
# tubing plans: the brute-force reference for `tubing.count_tubings`
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class PunctureCircle:
    """A curve carrying an even number of punctures in cyclic order."""

    label: str
    punctures: int

    def __post_init__(self):
        if self.punctures < 0 or self.punctures % 2:
            raise ValueError("a circle carries an even number of punctures")


@dataclass(frozen=True)
class TubingPlan:
    """Tubes as (i, j, side): side 0 hugs the arc i..j, side 1 its complement."""

    tubes: tuple[tuple[int, int, int], ...]


def noncrossing_matchings(points: tuple[int, ...]):
    """Yield all non-crossing perfect matchings of points in cyclic order."""
    if not points:
        yield ()
        return
    first = points[0]
    for idx in range(1, len(points), 2):
        partner = points[idx]
        inside = points[1:idx]
        outside = points[idx + 1:]
        for m_in in noncrossing_matchings(inside):
            for m_out in noncrossing_matchings(outside):
                yield ((first, partner),) + m_in + m_out


def arc_gaps(i: int, j: int, side: int, total: int) -> frozenset[int]:
    """The gaps a tube's routed arc covers; gap g lies between punctures g and g+1."""
    forward = frozenset((i + t) % total for t in range((j - i) % total))
    if side == 0:
        return forward
    return frozenset(range(total)) - forward


def enumerate_circle_tubings(punctures: int) -> tuple[TubingPlan, ...]:
    """All tubings of one circle, in a deterministic order.

    The routed arcs of a tubing are nested or disjoint exactly when some gap
    lies on none of them, so each routing is the one that keeps every tube
    off a chosen gap.  The k tubes cut the circle's gaps into k + 1 regions,
    one routing each.  Per matching, plans come in increasing order of their
    side vectors.
    """
    if punctures < 0 or punctures % 2:
        raise ValueError("a circle carries an even number of punctures")
    if punctures == 0:
        return (TubingPlan(()),)
    plans = []
    for matching in noncrossing_matchings(tuple(range(punctures))):
        routings = {
            tuple(int(g in arc_gaps(i, j, 0, punctures)) for i, j in matching)
            for g in range(punctures)
        }
        for sides in sorted(routings):
            plans.append(TubingPlan(tuple(
                (i, j, side) for (i, j), side in zip(matching, sides)
            )))
    return tuple(plans)


def enumerate_tubings(circles: tuple[PunctureCircle, ...]):
    """All joint tubings, one plan per circle, as a tuple of plan tuples."""
    return tuple(product(*(enumerate_circle_tubings(c.punctures) for c in circles)))
