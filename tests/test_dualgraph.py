"""Augmented dual graph construction."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altcurves.diagram import build_diagram, parse_pd, validate
from altcurves.dualgraph import SaddleChannel, Step, build_dual
from altcurves.enumerators import enumerate_general, enumerate_genus2, oracle_enumerate
from altcurves.errors import PreconditionError

from conftest import (K4_NETWORK_TERMS, VALID_NAMES, k4_network_pd, load_diagram, load_dual,
                      relabel, two_bridge_pd)
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


def _relabelled_dual(text, seed):
    return build_dual(build_diagram(parse_pd(relabel(text, random.Random(seed)))))


STEP_TABLE_CASES = (
    [(name, None) for name in VALID_NAMES]
    + [(f"torus_2_{n}", two_bridge_pd([n])) for n in (5, 9, 21, 41)]
    + [(f"k4_network_{i}", k4_network_pd(terms)) for i, terms in enumerate(K4_NETWORK_TERMS)]
)


@pytest.mark.parametrize("name,text", STEP_TABLE_CASES, ids=[c[0] for c in STEP_TABLE_CASES])
def test_step_table(name, text, monkeypatch):
    made = [0]
    real_init = Step.__init__

    def counting_init(self, *args):
        made[0] += 1
        real_init(self, *args)

    monkeypatch.setattr(Step, "__init__", counting_init)
    g = load_dual(name) if text is None else _relabelled_dual(text, 1)
    edges = {**g.p_edges, **g.s_edges}
    # `build_dual` makes no step; the first read of `steps` makes two per
    # edge, and a second read none
    assert made[0] == 0
    steps = g.steps
    assert made[0] == 2 * len(edges)
    assert g.steps is steps
    assert made[0] == 2 * len(edges)

    # each arc and each channel gives two steps, sharing one letter and one
    # `touches` object, which the two channels of a crossing share too
    by_ref = {}
    for f in g.nodes:
        for step in g.steps_from(f):
            assert (step.kind, step.ref) == step.letter
            by_ref.setdefault(step.ref, []).append(step)
    assert by_ref.keys() == edges.keys()
    for ref, (a, b) in by_ref.items():
        assert a.letter is b.letter
        assert a.touches is b.touches
        assert {a.dest, b.dest} == set(edges[ref])
    for arc in g.p_edges:
        step = by_ref[arc][0]
        assert step.touches == frozenset(g.arc_crossings(arc))
        assert step.bit == step.sibling == 0
    bits = set()
    for ch in g.s_edges:
        step = by_ref[ch][0]
        assert step.touches == {ch.crossing}
        assert step.bit > 0 and step.bit & (step.bit - 1) == 0
        # the bit of the other channel at the same crossing
        other = SaddleChannel(ch.crossing, "B" if ch.side == "A" else "A")
        assert step.sibling == by_ref[other][0].bit
        assert step.touches is by_ref[other][0].touches
        bits.add(step.bit)
    assert len(bits) == len(g.s_edges)

    # no walker makes steps of its own: the genus-2 enumerators read none,
    # the general search and the oracle the graph's
    made[0] = 0
    assert enumerate_genus2(g).configurations
    # the oracle's cost is check_word on every closed walk, and the general
    # search's partial walks grow as about n^4 on a (2,n) torus knot (593,482
    # at n = 21), so both run only up to this size
    if g.diagram.n <= 9:
        enumerate_general(g, 2)
        oracle_enumerate(g, 4)
    assert made[0] == 0


@pytest.mark.parametrize("name,text", STEP_TABLE_CASES, ids=[c[0] for c in STEP_TABLE_CASES])
def test_neighbour_table(name, text):
    # built on first read, once per graph: by face, each face across an arc
    # to that arc, in the order of the face's P-steps, which is label order
    g = load_dual(name) if text is None else _relabelled_dual(text, 1)
    assert "neighbours" not in vars(g)
    table = g.neighbours
    assert g.neighbours is table
    for f in g.nodes:
        assert list(table[f].items()) == [(s.dest, s.ref) for s in g.steps[f] if s.kind == "P"]
    result = enumerate_genus2(g)
    assert result.counts["pppp"] > 0 and result.diagnostics
    # both genus-2 walkers take the faces' adjacency from this table alone
    g.__dict__["neighbours"] = tuple({} for _ in g.nodes)
    result = enumerate_genus2(g)
    assert result.counts["total"] == 0 and result.diagnostics == {}


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
