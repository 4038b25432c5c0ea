"""PPPP words against a reference: the three-deep walk over the step table.

The reference below is the walk `enumerate_pppp` once made.  It takes three
punctures over `g.steps` from each word's least arc and closes the word by
looking up the step home from its third face.  It shares no code with the
4-cycle count of the face graph, so the tests compare the two configuration
by configuration and in order.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altcurves.diagram import build_diagram, parse_pd
from altcurves.dualgraph import build_dual
from altcurves.enumerators import enumerate_pppp
from altcurves.words import CurveWord, make_configuration

from conftest import (K4_NETWORK_TERMS, VALID_NAMES, k4_network_pd, load_dual, pretzel_pd,
                      relabel, two_bridge_pd)


def ref_enumerate_pppp(g):
    """The PPPP configurations, sorted, from walks over the step table."""
    punctures = {f: [m for m in out if m.kind == "P"] for f, out in g.steps.items()}
    words = []  # (arcs, faces, letters), which sort as their words do
    for start, out in punctures.items():
        home = {m.dest: m for m in out}  # the step back to `start` from each face
        for p1 in out:
            a1 = p1.ref
            for p2 in punctures[p1.dest]:
                a2 = p2.ref
                if a2 <= a1:
                    continue  # not from the least arc, or property 5
                for p3 in punctures[p2.dest]:
                    a3 = p3.ref
                    if a3 == a2 or a3 < a1:
                        continue  # property 5, or not from the least arc
                    p4 = home.get(p3.dest)
                    if p4 is not None and a2 < p4.ref:
                        words.append(((a1, a2, a3, p4.ref), (start, p1.dest, p2.dest, p3.dest),
                                      (p1.letter, p2.letter, p3.letter, p4.letter)))
    return tuple(make_configuration([CurveWord(letters, faces)])
                 for _, faces, letters in sorted(words))


def assert_same_pppp(g):
    result, reference = enumerate_pppp(g), ref_enumerate_pppp(g)
    assert result.counts["pppp"] == len(reference)
    assert result.configurations == reference


def _dual(text, seed):
    return build_dual(build_diagram(parse_pd(relabel(text, random.Random(seed)))))


@pytest.mark.parametrize("name", VALID_NAMES)
def test_fixtures_match_reference(name):
    assert_same_pppp(load_dual(name))


@pytest.mark.parametrize("n", range(3, 42))
def test_torus_knots_match_reference(n):
    assert_same_pppp(_dual(two_bridge_pd([n]), n))


PRETZEL_TERMS = [terms for k in range(2, 5) for terms in product(range(1, 4), repeat=k)]


def test_pretzels_and_k4_networks_match_reference():
    texts = [pretzel_pd(list(terms)) for terms in PRETZEL_TERMS]
    texts += [k4_network_pd(terms) for terms in ([[1]] * 6,) + K4_NETWORK_TERMS]
    for seed, text in enumerate(texts):
        assert_same_pppp(_dual(text, seed))


two_bridge_terms = st.lists(st.integers(1, 9), min_size=1, max_size=5).filter(
    lambda t: 2 <= sum(t) <= 9)


@settings(max_examples=60, deadline=None)
@given(terms=two_bridge_terms, seed=st.integers(0, 2**32 - 1))
def test_two_bridge_diagrams_match_reference(terms, seed):
    assert_same_pppp(_dual(two_bridge_pd(terms), seed))
