"""PSPS pairs against a reference: the half walk over the step table.

The reference below is the walk `_psps_words` once made.  It indexes the
saddle steps of `g.steps` by face and destination, takes each puncture step
then a saddle step as a half, and tests each junction on the steps'
`touches`.  `enumerate_psps_pairs` now reads only `p_edges`, `s_edges` and
the diagram's arcs, so the tests compare the two configuration by
configuration and in order, with their counts and property-6 tallies.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altcurves import enumerators
from altcurves.diagram import build_diagram, parse_pd
from altcurves.dualgraph import SaddleChannel, build_dual
from altcurves.enumerators import enumerate_psps_pairs
from altcurves.words import CurveWord, canonical_form, make_configuration

from conftest import (K4_NETWORK_TERMS, VALID_NAMES, k4_network_pd, load_dual, pretzel_pd,
                      relabel, two_bridge_pd)


def ref_psps_words(g, diagnostics):
    """The clean PSPS words as sorted canonical (letters, faces), tallying property 6."""
    saddles = {}  # by face, then destination
    for f, out in g.steps.items():
        by_dest = saddles[f] = {}
        for s in out:
            if s.kind == "S":
                by_dest.setdefault(s.dest, []).append(s)
    halves = {}  # (from, to) -> [(puncture, saddles)]
    counts = {}  # (from, to) -> halves
    for f, out in g.steps.items():
        for p in out:
            if p.kind == "P":
                for mid, ss in saddles[p.dest].items():
                    halves.setdefault((f, mid), []).append((p, ss))
                    counts[f, mid] = counts.get((f, mid), 0) + len(ss)

    def clean(pair):
        return [(p, s) for p, ss in halves[pair] for s in ss
                if p.touches.isdisjoint(s.touches)]

    walks = passed = 0
    seen = set()
    for (f, mid), k in counts.items():
        back = counts.get((mid, f), 0)
        walks += k * back
        if not back or (back, mid) < (k, f):
            continue  # each face pair once, from its smaller side
        firsts = clean((f, mid))
        if not firsts:
            continue
        for p2, s2 in clean((mid, f)):
            for p1, s1 in firsts:
                if s1.touches.isdisjoint(p2.touches) and s2.touches.isdisjoint(p1.touches):
                    passed += 2  # the walk from f, and its rotation from mid
                    seen.add(canonical_form((p1.letter, s1.letter, p2.letter, s2.letter),
                                            (f, p1.dest, mid, p2.dest)))
    if walks > passed:
        diagnostics[6] = diagnostics.get(6, 0) + walks - passed
    return sorted(seen)


def ref_enumerate_psps_pairs(g):
    """The PSPS pair configurations, sorted, and the property tally."""
    diagnostics = {}
    least = {}  # channel set -> its least word
    for letters, faces in ref_psps_words(g, diagnostics):
        least.setdefault(frozenset(l.ref for l in letters if l.kind == "S"), (letters, faces))
    pairs = []
    for chs, w1 in least.items():
        flipped = frozenset(SaddleChannel(c.crossing, "B" if c.side == "A" else "A")
                            for c in chs)
        w2 = least.get(flipped)
        if w2 is not None and w1 < w2:
            pairs.append((w1, w2))
    configs = tuple(make_configuration([CurveWord(*w1), CurveWord(*w2)])
                    for w1, w2 in sorted(pairs))
    return configs, diagnostics


def assert_same_psps(g):
    configs, diagnostics = ref_enumerate_psps_pairs(g)
    result = enumerate_psps_pairs(g)
    assert result.counts["psps_pair"] == len(configs)
    assert result.counts["total"] == len(configs)
    assert result.diagnostics == diagnostics
    assert result.configurations == configs
    words_diagnostics = {}
    assert enumerators._psps_words(g, words_diagnostics) == ref_psps_words(g, {})
    assert words_diagnostics == diagnostics
    return len(configs)


def _dual(text, seed):
    return build_dual(build_diagram(parse_pd(relabel(text, random.Random(seed)))))


@pytest.mark.parametrize("name", VALID_NAMES)
def test_fixtures_match_reference(name):
    assert_same_psps(load_dual(name))


@pytest.mark.parametrize("n", range(3, 42))
def test_torus_knots_match_reference(n):
    assert_same_psps(_dual(two_bridge_pd([n]), n))


PRETZEL_TERMS = [terms for k in range(2, 5) for terms in product(range(1, 4), repeat=k)]


def test_pretzels_and_k4_networks_match_reference():
    texts = [pretzel_pd(list(terms)) for terms in PRETZEL_TERMS]
    texts += [k4_network_pd(terms) for terms in ([[1]] * 6,) + K4_NETWORK_TERMS]
    pairs = [assert_same_psps(_dual(text, seed)) for seed, text in enumerate(texts)]
    assert sum(pairs) > 0  # the K4 networks have pairs, so a join is compared


two_bridge_terms = st.lists(st.integers(1, 9), min_size=1, max_size=5).filter(
    lambda t: 2 <= sum(t) <= 9)


@settings(max_examples=60, deadline=None)
@given(terms=two_bridge_terms, seed=st.integers(0, 2**32 - 1))
def test_two_bridge_diagrams_match_reference(terms, seed):
    assert_same_psps(_dual(two_bridge_pd(terms), seed))
