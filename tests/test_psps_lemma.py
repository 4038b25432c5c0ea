"""The lemma the PSPS walker counts by, checked by brute force over the steps.

A half f -> mid is a puncture step from f into `via`, then a saddle step
from `via` to mid; it is unclean when the two steps' `touches` meet.  For
every ordered pair of distinct faces, exactly two halves are unclean when
the faces share an arc, and none otherwise (`enumerators` docstring).  The
corpus is `test_psps_reference.py`'s.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (K4_NETWORK_TERMS, VALID_NAMES, k4_network_pd, load_dual, pretzel_pd,
                      two_bridge_pd)
from test_psps_reference import PRETZEL_TERMS, _dual, two_bridge_terms


def assert_lemma(g):
    for arc, ((c1, _), (c2, _)) in g.diagram.arcs.items():
        assert c1 != c2, arc  # no loop arc
    unclean, shared = {}, set()
    for f, out in g.steps.items():
        for p in out:
            if p.kind == "P":
                shared.add((f, p.dest))
                for s in g.steps[p.dest]:
                    if s.kind == "S" and not p.touches.isdisjoint(s.touches):
                        unclean[f, s.dest] = unclean.get((f, s.dest), 0) + 1
    for f in g.nodes:
        for mid in g.nodes:
            if mid != f:
                assert unclean.get((f, mid), 0) == 2 * ((f, mid) in shared), (f, mid)


@pytest.mark.parametrize("name", VALID_NAMES)
def test_fixtures_keep_the_lemma(name):
    assert_lemma(load_dual(name))


@pytest.mark.parametrize("n", range(3, 42))
def test_torus_knots_keep_the_lemma(n):
    assert_lemma(_dual(two_bridge_pd([n]), n))


def test_pretzels_and_k4_networks_keep_the_lemma():
    texts = [pretzel_pd(list(terms)) for terms in PRETZEL_TERMS]
    texts += [k4_network_pd(terms) for terms in ([[1]] * 6,) + K4_NETWORK_TERMS]
    for seed, text in enumerate(texts):
        assert_lemma(_dual(text, seed))


@settings(max_examples=60, deadline=None)
@given(terms=two_bridge_terms, seed=st.integers(0, 2**32 - 1))
def test_two_bridge_diagrams_keep_the_lemma(terms, seed):
    assert_lemma(_dual(two_bridge_pd(terms), seed))
