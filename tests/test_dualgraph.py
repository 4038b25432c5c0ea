"""Augmented dual graph construction."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altcurves.diagram import build_diagram, parse_pd, validate
from altcurves.dualgraph import SaddleChannel, build_dual
from altcurves.errors import PreconditionError

from conftest import VALID_NAMES, load_diagram, load_dual, relabel
from gen_fixtures import cf_tree, leaf, parallel, pd_from_tree, series


def test_counts_on_small_fixtures():
    for name, nodes, p_edges, s_edges in (
        ("k3_1", 5, 6, 6),
        ("hopf", 4, 4, 4),
        ("k4_1", 6, 8, 8),
    ):
        g = load_dual(name)
        assert len(g.nodes) == nodes
        assert len(g.p_edges) == p_edges
        assert len(g.s_edges) == s_edges


def test_counts_follow_diagram_size():
    for name in VALID_NAMES:
        g = load_dual(name)
        n = g.diagram.n
        assert len(g.nodes) == n + 2
        assert len(g.p_edges) == 2 * n
        assert len(g.s_edges) == 2 * n
        channels = {(ch.crossing, ch.side) for ch in g.s_edges}
        assert channels == {(c, s) for c in g.diagram.crossing_ids for s in "AB"}


def _assert_no_self_loops(g):
    for pair in g.p_edges.values():
        assert pair[0] != pair[1]
    for pair in g.s_edges.values():
        assert pair[0] != pair[1]
    # the two channels of a crossing split its four pairwise distinct
    # corner faces into complementary pairs
    for c in g.diagram.crossing_ids:
        a = g.s_edges[SaddleChannel(c, "A")]
        b = g.s_edges[SaddleChannel(c, "B")]
        assert len(set(a) | set(b)) == 4


def test_no_self_loops_and_distinct_corner_faces():
    # build_dual does not check this: validation rules it out
    for name in VALID_NAMES:
        _assert_no_self_loops(load_dual(name))


twist_counts = st.lists(st.integers(1, 4), min_size=1, max_size=5)
generated_trees = st.one_of(
    # 2-bridge twist diagrams; a single twist is a one-crossing kink
    twist_counts.filter(lambda t: sum(t) >= 2).map(cf_tree),
    # pretzels: a cycle of parallel bundles in the checkerboard graph
    twist_counts.filter(lambda t: len(t) >= 2).map(
        lambda t: series([parallel([leaf()] * k) for k in t])),
)


@settings(max_examples=60, deadline=None)
@given(tree=generated_trees, seed=st.integers(0, 2**32 - 1))
def test_no_self_loops_on_generated_diagrams(tree, seed):
    text = relabel(pd_from_tree(tree), random.Random(seed))
    _assert_no_self_loops(build_dual(build_diagram(parse_pd(text))))


def test_trefoil_bigon_steps():
    g = load_dual("k3_1")
    bigons = [f.id for f in g.diagram.faces if f.degree == 2]
    for f in bigons:
        steps = g.steps_from(f)
        kinds = [s.kind for s in steps]
        assert kinds.count("P") == 2
        assert kinds.count("S") == 2


def test_steps_mirror_edges():
    for name in ("k3_1", "borromean", "k6_2"):
        g = load_dual(name)
        for f in g.nodes:
            for step in g.steps_from(f):
                table = g.p_edges if step.kind == "P" else g.s_edges
                assert set(table[step.ref]) == {f, step.dest}
    with pytest.raises(ValueError):
        load_dual("k3_1").steps_from(999)


def test_arc_crossings():
    g = load_dual("k3_1")
    for arc, (e1, e2) in g.diagram.arcs.items():
        assert sorted(g.arc_crossings(arc)) == sorted((e1[0], e2[0]))


def test_build_requires_valid_diagram():
    for name, keyword in (
        ("granny", "prime"),
        ("kinked_trefoil", "reduced"),
        ("split_two_trefoils", "connected"),
    ):
        d = load_diagram(name)
        with pytest.raises(PreconditionError) as err:
            build_dual(d)
        assert keyword in str(err.value)
        # the error carries the report, so callers need not validate again
        assert err.value.report == validate(d)
        assert not err.value.report.ok
