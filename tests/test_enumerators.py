"""Enumeration: specialized families, general search, oracle agreement."""

import hashlib
import inspect
import random
import sys
from collections import Counter
from functools import cache
from itertools import combinations, combinations_with_replacement, product
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from altcurves import cli, enumerators
from altcurves.bounds import compare
from altcurves.diagram import Face, build_diagram, parse_pd, validate
from altcurves.dualgraph import SaddleChannel, Step, build_dual
from altcurves.enumerators import (
    budgets,
    classify_family,
    enumerate_general,
    enumerate_genus2,
    enumerate_pppp,
    enumerate_psps_pairs,
)
from altcurves.errors import EulerInconsistencyError, GuardAbort
from altcurves.euler import euler_crosscheck
from altcurves.tubing import configuration_tubing_count
from altcurves.words import (
    Configuration,
    CurveWord,
    Letter,
    canonicalize,
    check_configuration,
    check_word,
    make_configuration,
    serialize_word,
)

from conftest import (TORUS_NAMES, VALID_NAMES, fixture_path, fixture_text, glued_complex,
                      has_consecutive_saddles, k4_network_pd, load_dual, mirror_pd,
                      pairwise_puncture_reps, pairwise_saddle_reps, pretzel_pd, relabel,
                      shares_three_arcs, two_bridge_pd)

# class counts certified against oracle_enumerate(max_len=4) on every fixture
EXPECTED = {
    "borromean": (6, 3),
    "hopf": (1, 0),
    "k3_1": (3, 0),
    "k4_1": (5, 0),
    "k5_1": (10, 0),
    "k5_2": (8, 0),
    "k6_1": (12, 0),
    "k6_2": (10, 0),
    "k6_3": (9, 0),
    "k7_1": (21, 0),
    "k7_2": (17, 0),
    "k7_3": (15, 0),
    "k7_4": (13, 0),
    "k7_5": (13, 0),
    "k7_6": (12, 0),
    "k7_7": (11, 0),
}


def test_expected_covers_corpus():
    assert sorted(EXPECTED) == VALID_NAMES


def test_genus2_counts_frozen():
    for name, (pppp, psps) in EXPECTED.items():
        result = enumerate_genus2(load_dual(name))
        assert result.counts["pppp"] == pppp, name
        assert result.counts["psps_pair"] == psps, name
        assert result.counts["other"] == 0, name
        assert result.counts["total"] == pppp + psps, name


def test_torus_closures_choose_two_bigons():
    # on a (2,n) torus closure the classes pair up bigons: n choose 2
    for name, n in TORUS_NAMES.items():
        result = enumerate_pppp(load_dual(name))
        assert result.counts["pppp"] == comb(n, 2), name


def test_trefoil_pppp_words():
    result = enumerate_pppp(load_dual("k3_1"))
    words = sorted(serialize_word(c.words_plus[0]) for c in result.configurations)
    assert words == ["P1 P3 P6 P4", "P1 P4 P2 P5", "P2 P5 P3 P6"]


def test_borromean_psps_pairs_use_opposite_channels():
    result = enumerate_psps_pairs(load_dual("borromean"))
    assert result.counts["psps_pair"] == 3
    for cfg in result.configurations:
        w1, w2 = cfg.words_plus
        ch1 = {l.ref for l in w1.letters if l.kind == "S"}
        ch2 = {l.ref for l in w2.letters if l.kind == "S"}
        assert {c.crossing for c in ch1} == {c.crossing for c in ch2}
        assert len({c.crossing for c in ch1}) == 2
        flipped = {SaddleChannel(c.crossing, "B" if c.side == "A" else "A")
                   for c in ch1}
        assert ch2 == flipped


def test_emitted_configurations_are_clean():
    rng = random.Random(11)
    duals = [load_dual(name) for name in ("k3_1", "borromean", "k6_3")]
    duals += [build_dual(build_diagram(parse_pd(relabel(two_bridge_pd(terms), rng))))
              for terms in ([9], [2, 3], [3, 1, 2], [2, 2, 2, 1])]
    for g in duals:
        result = enumerate_genus2(g)
        for cfg in result.configurations:
            for w in cfg.words_plus:
                assert not check_word(g, w)
                assert not has_consecutive_saddles(w)
            assert not check_configuration(cfg)


def test_words_never_repeat_arcs_on_prime_diagrams():
    # two faces of a prime diagram never share two arcs, so no clean PPPP
    # word punctures an arc twice
    for name in VALID_NAMES:
        g = load_dual(name)
        result = enumerate_pppp(g)
        for cfg in result.configurations:
            arcs = [l.ref for l in cfg.words_plus[0].letters]
            assert len(set(arcs)) == 4, name


def _word(arcs):
    return CurveWord(tuple(Letter("P", a) for a in arcs), tuple(range(len(arcs))))


def test_puncture_quotient_merges_three_shared():
    w1 = _word([1, 2, 3, 4])
    w2 = _word([1, 2, 3, 5])  # shares 3 arcs with w1
    w3 = _word([1, 2, 6, 7])  # shares only 2
    # the reference quotient the oracle comparisons use
    reps = pairwise_puncture_reps([w1, w2, w3])
    assert reps == [w1, w3]
    w4 = _word([4, 3, 2, 1])  # same multiset as w1
    assert len(pairwise_puncture_reps([w1, w2, w3, w4])) == 2


def _pair(c1, s1, c2, s2):
    w = CurveWord(
        (Letter("P", 1), Letter("S", SaddleChannel(c1, s1)),
         Letter("P", 2), Letter("S", SaddleChannel(c2, s2))),
        (0, 1, 2, 3),
    )
    flip = {"A": "B", "B": "A"}
    partner = CurveWord(
        (Letter("P", 3), Letter("S", SaddleChannel(c1, flip[s1])),
         Letter("P", 4), Letter("S", SaddleChannel(c2, flip[s2]))),
        (4, 5, 6, 7),
    )
    return (w, partner)


def test_saddle_pair_quotient_merges_shared_channel_sets():
    p1 = _pair(1, "A", 2, "A")
    p2 = (p1[0], _pair(1, "A", 2, "A")[1].rotated(2))  # same channel sets
    p3 = _pair(1, "A", 3, "A")
    reps = pairwise_saddle_reps([p1, p2, p3])
    assert len(reps) == 2


def _genus2_family_duals():
    """The fixtures, then relabelled 2-bridge and pretzel diagrams up to 8 crossings."""
    texts = [two_bridge_pd(list(terms)) for k in range(1, 4)
             for terms in product(range(1, 4), repeat=k) if 2 <= sum(terms) <= 8]
    texts += [pretzel_pd(terms) for k in range(2, 5)
              for terms in product(range(1, 4), repeat=k) if sum(terms) <= 8]
    return [load_dual(name) for name in VALID_NAMES] + _valid_duals(texts, 12)


def test_general_matches_specialized_at_genus_two():
    # at genus 2 the identity leaves exactly the two families: one PPPP word
    # (cost 4) or two PSPS words (cost 2 each), balanced and connected
    duals = _genus2_family_duals()
    assert len(duals) >= 100
    for g in duals:
        spec = enumerate_genus2(g)
        general = enumerate_general(g, 2)
        assert general.configurations == tuple(sorted(spec.configurations))
        assert general.counts == spec.counts


def test_general_is_deterministic():
    g = load_dual("k5_2")
    runs = [enumerate_general(g, 2) for _ in range(2)]
    serial = [
        tuple(tuple(serialize_word(w) for w in cfg.words_plus)
              for cfg in r.configurations)
        for r in runs
    ]
    assert serial[0] == serial[1]


def test_genus3_runs_on_trefoil():
    # Within the genus-3 walk cap p + t <= 6 the trefoil's clean words
    # are its three PPPP words, each of cost 4.  So the selections of cost
    # exactly 8 are the six pairs of them, repeats included.  They are
    # balanced (no saddles), but saddle-free words share no crossing, so
    # each pair is two spheres and no genus-3 surface is left.
    g = load_dual("k3_1")
    guard = enumerators._Guard(enumerators.DEFAULT_GUARD_CAP)
    pool = enumerators._general_words(g, 3, guard, {})
    assert [make_configuration([w]) for w in pool] == \
        list(enumerate_pppp(g).configurations)
    result = enumerate_general(g, 3)
    assert result.configurations == ()
    assert result.diagnostics[10] == comb(3 + 1, 2)
    assert 4 not in result.diagnostics


def test_genus3_configurations_are_connected_genus3_surfaces():
    # k4_1 keeps four; each is one word, so connected, and meets the identity
    result = enumerate_general(load_dual("k4_1"), 3)
    assert result.counts == {"pppp": 0, "psps_pair": 0, "other": 4, "total": 4}
    for cfg in result.configurations:
        assert len(cfg.words_plus) == 1
        v, e, f = glued_complex(cfg.words_plus, cfg.words_minus)
        assert v - e + f - cfg.p == euler_crosscheck(cfg) - cfg.p == 2 - 2 * 3


def _is_power(w) -> bool:
    """True when a word equals one of its own nontrivial rotations."""
    tokens = serialize_word(w).split()
    return any(tokens[d:] + tokens[:d] == tokens for d in range(1, len(tokens)))


def test_genus4_drops_curves_that_run_round_a_pppp_word_twice():
    # A simple closed curve spells no proper power (property 11).  Within
    # the genus-4 walk cap p + t <= 8 the only clean walks that repeat
    # themselves are the squares u u of the PPPP words u.  A period of a
    # closed walk with saddles repeats a channel (2).  An all-puncture walk
    # whose period is 1, 2 or odd puts one arc twice in a row (5), as no
    # two arcs join the same two faces.  So a period has at least 4 letters,
    # all punctures, and the cap leaves only u u, which costs
    # 8 + 8 - 4 = 12 = 4g - 4 alone: one saddle-free word, balanced and
    # connected.  hopf, k3_1 and k4_1 have 1, 3 and 5 PPPP words, so their
    # 1, 6 and 19 genus-4 configurations before this property drop to 0, 3
    # and 14.  A square's two least-letter positions give one walk, as
    # rotating by its period gives the same walk, and only one of its two
    # directions leaves the lesser face of that letter: one tallied walk a
    # square.
    for name, total in (("hopf", 0), ("k3_1", 3), ("k4_1", 14)):
        g = load_dual(name)
        pppp = [cfg.words_plus[0] for cfg in enumerate_pppp(g).configurations]
        squares = {canonicalize(CurveWord(w.letters * 2, w.faces * 2)) for w in pppp}
        assert all(_is_power(w) and check_word(g, w) == {11} for w in squares)
        result = enumerate_general(g, 4)
        assert result.counts["total"] == total
        assert result.diagnostics[11] == len(pppp)
        assert not any(_is_power(w) for cfg in result.configurations for w in cfg.words_plus)


def test_closed_walks_are_spelled_once(monkeypatch):
    # A kept walk goes into a set as its canonical (letters, faces), so the
    # pool builds one word per distinct word, not one per closed walk.
    # k3_1 at genus 4 closes 12 walks that are kept or tested for property
    # 11 (all punctures, 8 letters or more), 4 of them both.
    closing_faults, curve_word = enumerators._closing_faults, enumerators.CurveWord
    calls = Counter()

    def counting_closing_faults(path):
        faults = closing_faults(path)
        tested = len(path) >= 8 and all(m.kind == "P" for m in path)
        calls["walks"] += tested or not faults
        calls["both"] += tested and not faults
        return faults

    def counting_curve_word(letters, faces):
        calls["words"] += 1
        return curve_word(letters, faces)

    monkeypatch.setattr(enumerators, "_closing_faults", counting_closing_faults)
    monkeypatch.setattr(enumerators, "CurveWord", counting_curve_word)
    g = load_dual("k3_1")
    pool = enumerators._general_words(g, 4, enumerators._Guard(enumerators.DEFAULT_GUARD_CAP), {})
    assert (calls["walks"], calls["both"]) == (12, 4)
    assert calls["words"] == len(pool)
    assert enumerate_general(g, 4).counts["total"] == 3


def test_each_word_is_walked_one_way(monkeypatch):
    # A kept walk starts at an occurrence of its word's least letter and
    # leaves the lesser face of that letter, which one of the word's two
    # directions does at each occurrence.  So a pool word closes at least
    # once, and at most once per occurrence of its least letter; a search
    # that walked both ways would close each word twice that often.
    canonical_form = enumerators.canonical_form
    closes = Counter()

    def counting_canonical_form(letters, faces):
        canonical = canonical_form(letters, faces)
        closes[canonical] += 1
        return canonical

    monkeypatch.setattr(enumerators, "canonical_form", counting_canonical_form)
    for name in ("hopf", "k3_1", "k4_1", "borromean"):
        g = load_dual(name)
        for genus in (3, 4):
            closes.clear()
            guard = enumerators._Guard(enumerators.DEFAULT_GUARD_CAP)
            pool = enumerators._general_words(g, genus, guard, {})
            assert sorted(closes) == [(w.letters, w.faces) for w in pool], (name, genus)
            for w in pool:
                assert 1 <= closes[w.letters, w.faces] <= w.letters.count(min(w.letters)), \
                    (name, genus, w)


def test_identity_breach_is_an_internal_fault(monkeypatch):
    # the identity holds on every balanced selection of total cost 4g - 4,
    # so only a broken Euler count can reach the raise
    monkeypatch.setattr(enumerators, "euler_crosscheck", lambda cfg: 99)
    with pytest.raises(EulerInconsistencyError, match="genus-3"):
        enumerate_general(load_dual("k4_1"), 3)


def test_guard_abort_carries_stats():
    g = load_dual("k3_1")
    with pytest.raises(GuardAbort) as err:
        enumerate_general(g, 9, guard_cap=5000)
    assert err.value.cap == 5000
    assert err.value.visited > 5000
    assert "partial walks" in str(err.value)


def test_assembly_depth_is_not_bounded_by_the_stack(monkeypatch):
    # The assembly keeps selections on an explicit stack, so its depth
    # never meets the recursion limit, lowered here to keep the test short.
    # The pool is the hopf link's one PPPP word alone, which costs 4, so at
    # genus 402 the one selection of cost 4g - 4 = 1604 takes it 401 times;
    # 401 copies of a saddle-free word are 401 spheres, rejected as
    # disconnected.
    g = load_dual("hopf")
    (pppp,) = enumerate_pppp(g).configurations
    monkeypatch.setattr(enumerators, "_general_words",
                        lambda g, genus, guard, diagnostics: list(pppp.words_plus))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        result = enumerate_general(g, 402)
    finally:
        sys.setrecursionlimit(limit)
    assert result.configurations == ()
    assert result.diagnostics == {10: 1}
    # no walk ran: the empty selection, then one per number of copies, 1 to 401
    assert result.visited == 1 + 401


def test_budgets_start_at_genus_two():
    with pytest.raises(ValueError, match="genus 2"):
        budgets(1)


def test_general_search_starts_at_genus_two():
    with pytest.raises(ValueError, match="genus 2"):
        enumerate_general(load_dual("k3_1"), 1)


# ----------------------------------------------------------------------------
# the genus-2 families need no quotient (enumerators module docstring)
# ----------------------------------------------------------------------------


def _valid_duals(texts, seed):
    rng = random.Random(seed)
    diagrams = [build_diagram(parse_pd(relabel(text, rng))) for text in texts]
    return [build_dual(d) for d in diagrams if validate(d).ok]


def test_pppp_words_never_share_three_arcs():
    texts = [two_bridge_pd(list(terms)) for k in range(1, 4)
             for terms in product(range(1, 4), repeat=k) if sum(terms) >= 2]
    texts += [pretzel_pd(terms) for k in range(2, 5) for terms in product(range(1, 4), repeat=k)]
    duals = _valid_duals(texts, 8)
    assert len(duals) >= 100
    for g in duals:
        words = [cfg.words_plus[0] for cfg in enumerate_pppp(g).configurations]
        assert words
        assert not any(shares_three_arcs(w1, w2) for w1, w2 in combinations(words, 2))


def _balanced_psps_pairs(g):
    """Every balanced PSPS pair of clean words, the walks filtered by check_word."""
    words = sorted({canonicalize(w) for w in _closed_walks(g, "PSPS") if not check_word(g, w)})
    pairs = []
    for w1, w2 in combinations_with_replacement(words, 2):
        cfg = make_configuration([w1, w2])
        if classify_family(cfg) == "psps_pair" and not check_configuration(cfg):
            pairs.append(cfg.words_plus)
    return pairs


def _k4_duals():
    """The Borromean rings, three relabellings of them, then twelve K4 networks.

    K4 networks keep balanced PSPS pairs when most edges stay single.
    """
    rng = random.Random(4)
    networks = []
    for _ in range(12):
        terms = [[1]] * 6
        for edge in rng.sample(range(6), 2):
            terms[edge] = rng.choice(([1], [2], [3], [1, 1], [1, 2]))
        networks.append(terms)
    duals = [load_dual("borromean")]
    duals += _valid_duals([k4_network_pd([[1]] * 6)] * 3
                          + [k4_network_pd(terms) for terms in networks], 9)
    return duals


K4_DUALS = _k4_duals()


def test_psps_pairs_equal_pairwise_reference():
    assert len(K4_DUALS) == 16
    for g in K4_DUALS:
        pairs = [cfg.words_plus for cfg in enumerate_psps_pairs(g).configurations]
        assert pairs
        assert pairs == pairwise_saddle_reps(_balanced_psps_pairs(g))


# ----------------------------------------------------------------------------
# PSPS generation: the property-6 tally counts every failing walk
# ----------------------------------------------------------------------------


def _closed_walks(g, skeleton):
    """Every closed walk over `g.steps_from` spelling `skeleton`, from every face."""
    def extend(start, steps):
        here = steps[-1].dest if steps else start
        if len(steps) == len(skeleton):
            if here == start:
                yield CurveWord(tuple(Letter(step.kind, step.ref) for step in steps),
                                (start,) + tuple(step.dest for step in steps[:-1]))
            return
        for step in g.steps_from(here):
            if step.kind == skeleton[len(steps)]:
                yield from extend(start, steps + (step,))

    for start in g.nodes:
        yield from extend(start, ())


def _psps_reference(g):
    """`check_word`'s property tally over every closed PSPS walk, and the clean words."""
    tally: dict[int, int] = {}
    clean = set()
    for word in _closed_walks(g, "PSPS"):
        props = check_word(g, word)
        for prop in props:
            tally[prop] = tally.get(prop, 0) + 1
        if not props:
            clean.add(canonicalize(word))
    return tally, sorted(clean)


def _torus_dual(n):
    text = relabel(two_bridge_pd([n]), random.Random(n))
    return build_dual(build_diagram(parse_pd(text)))


# the twelve K4 networks have clean PSPS walks, so the tally is all walks
# less the clean ones; elsewhere no walk is clean
@pytest.mark.parametrize("g", [
    load_dual("borromean"),
    load_dual("k7_7"),  # has walks failing property 6 only where s2 meets p1
    build_dual(build_diagram(parse_pd(relabel(two_bridge_pd([9]), random.Random(3))))),
    _torus_dual(21),
    *K4_DUALS[4:],
], ids=["borromean", "k7_7", "torus_2_9", "torus_2_21"]
   + [f"k4_network_{i}" for i in range(12)])
def test_psps_diagnostics_equal_check_word_tally(g, monkeypatch):
    tally, clean = _psps_reference(g)
    assert tally

    checked = []

    def counting_check_word(graph, word):
        checked.append(word)
        return check_word(graph, word)

    monkeypatch.setattr(enumerators, "check_word", counting_check_word)
    result = enumerate_psps_pairs(g)
    word_props = {2, 5, 6, 7, 8, 9}
    assert {p: k for p, k in result.diagnostics.items() if p in word_props} == tally
    # PSPS generation builds only words that pass every word check
    assert checked == []
    assert [CurveWord(*w) for w in enumerators._psps_words(g, {})] == clean


# ----------------------------------------------------------------------------
# PPPP generation: 4-cycles of the face graph, built canonical
# ----------------------------------------------------------------------------


twist_terms = st.lists(st.integers(1, 3), min_size=1, max_size=4)
pppp_families = st.one_of(
    twist_terms.filter(lambda t: sum(t) >= 2).map(two_bridge_pd),
    twist_terms.filter(lambda t: len(t) >= 2).map(pretzel_pd),
    st.lists(st.sampled_from(([1], [2], [1, 1])), min_size=6, max_size=6).map(k4_network_pd),
)


@settings(max_examples=60, deadline=None)
@given(text=pppp_families, seed=st.integers(0, 2**32 - 1))
def test_pppp_words_equal_check_word_reference(text, seed):
    d = build_diagram(parse_pd(relabel(text, random.Random(seed))))
    assume(validate(d).ok)
    g = build_dual(d)
    words = {canonicalize(w) for w in _closed_walks(g, "PPPP") if not check_word(g, w)}
    assert words
    assert enumerate_pppp(g).configurations == \
        tuple(make_configuration([w]) for w in sorted(words))


@settings(max_examples=60, deadline=None)
@given(text=pppp_families, seed=st.integers(0, 2**32 - 1))
def test_psps_words_equal_check_word_reference(text, seed):
    d = build_diagram(parse_pd(relabel(text, random.Random(seed))))
    assume(validate(d).ok)
    g = build_dual(d)
    tally, clean = _psps_reference(g)
    diagnostics: dict[int, int] = {}
    assert [CurveWord(*w) for w in enumerators._psps_words(g, diagnostics)] == clean
    assert diagnostics == tally


@settings(max_examples=40, deadline=None)
@given(text=pppp_families, seed=st.integers(0, 2**32 - 1))
def test_closed_form_chi_equals_glued_complex(text, seed):
    d = build_diagram(parse_pd(relabel(text, random.Random(seed))))
    assume(validate(d).ok)
    for cfg in enumerate_genus2(build_dual(d)).configurations:
        v, e, f = glued_complex(cfg.words_plus, cfg.words_minus)
        assert euler_crosscheck(cfg) == v - e + f == 2


@pytest.mark.parametrize("n", [201, 1001])
def test_pppp_count_on_large_torus_knots_builds_no_configuration(n):
    # a (2,n) torus knot's face graph is K(2,n): two n-gons, each joined to
    # all n bigons, so its 4-cycles are the C(n, 2) pairs of bigons
    g = build_dual(build_diagram(parse_pd(two_bridge_pd([n]))))
    result = enumerate_pppp(g)
    assert result.counts["pppp"] == comb(n, 2)
    assert "configurations" not in result.__dict__


def _genus2_family_counts(text):
    counts = enumerate_genus2(build_dual(build_diagram(parse_pd(text)))).counts
    return counts["pppp"], counts["psps_pair"]


MIRROR_CASES = ([(name, fixture_text(name)) for name in VALID_NAMES]
                + [(f"torus_2_{n}", relabel(two_bridge_pd([n]), random.Random(n)))
                   for n in range(2, 42)])


@pytest.mark.parametrize("name,text", MIRROR_CASES, ids=[c[0] for c in MIRROR_CASES])
def test_mirror_keeps_genus2_family_counts(name, text):
    # Mirroring keeps the face graph, so the PPPP count, its 4-cycles, is
    # kept by proof; that the PSPS count is kept is observed here.
    assert _genus2_family_counts(mirror_pd(text)) == _genus2_family_counts(text)


def test_genus2_fault_tests_grow_with_the_output(monkeypatch):
    # On (2,n) torus knots the output grows as n^2, 3.8 times from n = 21 to
    # n = 41, and the genus-2 work should grow no faster than n.  The genus-2
    # enumerators read no follow list, so `_adjacent_fault` is never called.
    # Each face pair with halves both ways shares an arc and has two halves
    # one way, both unclean by the lemma (`enumerators` docstring), so no
    # half is built and nothing is joined.  The work counted is the entries
    # both walkers read from the face-adjacency table.
    faults = [0]
    real_fault = enumerators._adjacent_fault

    def counting_fault(a, b):
        faults[0] += 1
        return real_fault(a, b)

    reads = [0]

    class CountingDict(dict):
        def __iter__(self):
            reads[0] += len(self)
            return super().__iter__()

        def items(self):
            reads[0] += len(self)
            return super().items()

        def __contains__(self, key):
            reads[0] += 1
            return super().__contains__(key)

        def get(self, key, default=None):
            reads[0] += 1
            return super().get(key, default)

    monkeypatch.setattr(enumerators, "_adjacent_fault", counting_fault)
    calls = _count_calls(monkeypatch, enumerators._halves, enumerators.canonical_form)
    made = {}
    for n in (21, 41):
        g = _torus_dual(n)
        g.__dict__["neighbours"] = tuple(map(CountingDict, g.neighbours))
        faults[0] = reads[0] = 0
        calls.clear()
        result = enumerate_genus2(g)
        assert result.counts["pppp"] == comb(n, 2)
        assert result.diagnostics == {6: 8 * n * n}
        assert faults[0] == 0
        assert not calls  # no half built, no join
        made[n] = reads[0]
    assert 0 < made[41] <= 2.2 * made[21]


def _count_calls(monkeypatch, *fns) -> Counter:
    """Calls of each of `fns` by name, through every altcurves module attribute bound to it."""
    calls = Counter()
    for fn in fns:
        def counting(*args, fn=fn, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "altcurves" or name.startswith("altcurves."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counting)
    return calls


def _torus_path(tmp_path, n) -> str:
    path = tmp_path / f"torus_2_{n}.pd"
    path.write_text(relabel(two_bridge_pd([n]), random.Random(n)), encoding="utf-8")
    return str(path)


def test_genus2_report_row_classifies_and_tubes_nothing(monkeypatch, tmp_path):
    # A genus-2 row takes its family counts from the genus-2 enumerators
    # and sums its surfaces per family, so neither
    # `classify_family` nor `configuration_tubing_count` runs on a single
    # configuration.  Every module attribute bound to either is counted.
    calls = _count_calls(monkeypatch, classify_family, configuration_tubing_count)
    for n in (21, 41):
        path = _torus_path(tmp_path, n)
        calls.clear()
        row, _ = cli._report_row(path)
        assert (row["pppp"], row["psps_pair"], row["other"]) == (comb(n, 2), 0, 0)
        assert row["surfaces"] == 6 * comb(n, 2)
        assert row["bounds_ok"] is True
        assert calls == {}


def test_genus2_rows_build_no_configuration(monkeypatch, tmp_path, capsys):
    # `report` and `bounds` rows read only the genus-2 counts, so they build
    # no word and no configuration; `enumerate --genus 2` reads the
    # configurations and builds each exactly once.
    calls = _count_calls(monkeypatch, CurveWord, Configuration, make_configuration)
    for n in (21, 41):
        path = _torus_path(tmp_path, n)
        calls.clear()
        row, _ = cli._report_row(path)
        assert row["configurations"] == comb(n, 2)
        assert cli.main(["bounds", path]) == 0
        assert calls == {}
        capsys.readouterr()
        assert cli.main(["enumerate", path, "--genus", "2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == comb(n, 2) + 1
        assert calls["Configuration"] == calls["make_configuration"] == comb(n, 2)


def test_genus2_counts_build_no_psps_word(monkeypatch):
    # Clean PSPS joins are deduped and their channel sets' least words
    # chosen on canonical (letters, faces) tuples, so reading the counts
    # builds no word even where pairs exist; reading the configurations
    # builds two words a pair.
    calls = _count_calls(monkeypatch, CurveWord)
    for g in K4_DUALS:
        calls.clear()
        result = enumerate_genus2(g)
        pairs = result.counts["psps_pair"]
        assert pairs
        assert calls == {}
        result.configurations
        assert calls["CurveWord"] == result.counts["pppp"] + 2 * pairs


def test_genus2_rows_build_no_step(monkeypatch, tmp_path, capsys):
    # The genus-2 enumerators read only `s_edges` and the face-adjacency
    # table, so neither a genus-2 count nor a `report` row builds the step
    # table.
    made = [0]
    real_init = Step.__init__

    def counting_init(self, *args):
        made[0] += 1
        real_init(self, *args)

    monkeypatch.setattr(Step, "__init__", counting_init)
    result = enumerate_genus2(_torus_dual(41))
    assert result.counts["pppp"] == comb(41, 2)
    assert result.diagnostics == {6: 8 * 41 * 41}
    assert cli.main(["report", _torus_path(tmp_path, 41), "--format", "csv"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert made[0] == 0


def test_rows_build_no_face(monkeypatch, tmp_path, capsys):
    # `build_diagram` traces face ids only; the boundary walks wait for
    # `Diagram.faces`, which neither a `report` row nor the general search
    # reads.  Rendering and `face_degrees` read them, with the same output.
    made = [0]
    real_init = Face.__init__

    def counting_init(self, *args):
        made[0] += 1
        real_init(self, *args)

    monkeypatch.setattr(Face, "__init__", counting_init)
    torus = _torus_path(tmp_path, 41)
    assert cli.main(["report", torus, "--format", "csv"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert cli.main(["enumerate", str(fixture_path("k4_1")), "--genus", "3"]) == 0
    assert made[0] == 0
    capsys.readouterr()
    # the SVGs and degrees the package gave when `build_diagram` built the faces
    for path, svg, degrees in (
            (str(fixture_path("k4_1")),
             "e734eb78595cca34f72e21f7adb379828a9c85ec6180f31c9aef476eccbabebd",
             (2, 2, 3, 3, 3, 3)),
            (torus, "3eb6d09b847d7131f06b594355a063d891503a8bc0f27d65b146d0cee9cc2b81",
             (2,) * 41 + (41, 41))):
        assert cli.main(["render", "--config", "0", path]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == svg
        d = build_diagram(parse_pd(Path(path).read_text(encoding="utf-8")))
        assert d.face_degrees() == degrees
        assert len(d.faces) == d.face_count == d.n + 2


def _family_count_duals():
    """The fixtures, relabelled (2,n) torus knots up to n = 41, pretzels and K4 networks."""
    texts = [pretzel_pd(terms) for k in range(2, 5) for terms in product(range(1, 4), repeat=k)]
    return ([load_dual(name) for name in VALID_NAMES] + [_torus_dual(n) for n in range(2, 42)]
            + _valid_duals(texts, 10) + K4_DUALS)


def test_family_counts_and_surfaces_equal_per_configuration_reference():
    # the producers' family counts are what `classify_family` tallies, and
    # `compare` sums surfaces per family exactly as the per-configuration
    # tubing counts would
    duals = _family_count_duals()
    assert len(duals) >= 150
    for g in duals:
        for enumerate_ in (enumerate_pppp, enumerate_psps_pairs, enumerate_genus2):
            result = enumerate_(g)
            tally = Counter(classify_family(cfg) for cfg in result.configurations)
            assert result.counts == {"pppp": tally["pppp"], "psps_pair": tally["psps_pair"],
                                     "other": tally["other"], "total": len(result.configurations)}
            surfaces = sum(configuration_tubing_count(cfg) for cfg in result.configurations)
            assert compare(g.diagram.n, result).counts["surfaces"] == surfaces


def test_deferred_configurations_agree_with_counts_in_either_order():
    # a genus-2 result builds its configurations when they are first read,
    # once; its counts, read before or after, are what they classify as
    for g in _family_count_duals():
        for enumerate_ in (enumerate_pppp, enumerate_psps_pairs, enumerate_genus2):
            counts_first, configurations_first = enumerate_(g), enumerate_(g)
            counts = counts_first.counts
            configs = counts_first.configurations
            assert configurations_first.configurations == configs
            assert configurations_first.counts == counts
            tally = Counter(classify_family(cfg) for cfg in configs)
            assert counts == {"pppp": tally["pppp"], "psps_pair": tally["psps_pair"],
                              "other": tally["other"], "total": len(configs)}
            for result in (counts_first, configurations_first):
                assert result.configurations is result.configurations


# ----------------------------------------------------------------------------
# the general search against a three-way reference: every closed walk
# filtered by check_word, the Euler identity of the glued complex, and
# connectivity by breadth-first search
# ----------------------------------------------------------------------------


def _reference_words(g, genus):
    """Every clean word a genus-g configuration can use, from every start.

    No start rule: each closed walk whose cost p + length - 4 stays at most
    4g - 4, with that cap and properties 2, 5 and 6 pruned letter by letter,
    is filtered by `check_word`.  Recursive, so only for small genera.
    """
    ends = {arc: g.arc_crossings(arc) for arc in g.p_edges}
    seen = set()
    letters, faces = [], []

    def extend(start, used, p_used):
        here = faces[-1]
        length = len(letters)
        if length and here == start and length >= 4 and length % 2 == 0:
            word = CurveWord(tuple(letters), tuple(faces[:-1]))
            if not check_word(g, word):
                seen.add(canonicalize(word))
        prev = letters[-1] if letters else None
        for step in g.steps_from(here):
            if p_used + (step.kind == "P") + length + 1 > 4 * genus:
                continue  # the word's cost would pass 4g - 4
            if step.kind == "P":
                if prev and prev.kind == "P" and prev.ref == step.ref:
                    continue  # property 5
                if prev and prev.kind == "S" and prev.ref.crossing in ends[step.ref]:
                    continue  # property 6
                p_next, used_next = p_used + 1, used
            else:
                if step.ref in used:
                    continue  # property 2
                if prev and prev.kind == "P" and step.ref.crossing in ends[prev.ref]:
                    continue  # property 6
                p_next, used_next = p_used, used | {step.ref}
            letters.append(step.letter)
            faces.append(step.dest)
            extend(start, used_next, p_next)
            letters.pop()
            faces.pop()

    for start in g.nodes:
        faces.append(start)
        extend(start, frozenset(), 0)
        faces.pop()
    return sorted(seen)


def _connected(words) -> bool:
    """Breadth-first search over the words, two adjacent when they share a saddle crossing."""
    crossings = [{l.ref.crossing for l in w.letters if l.kind == "S"} for w in words]
    reached, frontier = {0}, [0]
    while frontier:
        i = frontier.pop()
        for j in range(len(words)):
            if j not in reached and crossings[i] & crossings[j]:
                reached.add(j)
                frontier.append(j)
    return len(reached) == len(words)


def _reference_general(g, genus):
    """The reference words, and the connected genus-g configurations of them.

    A multiset of words is kept when it is balanced (`check_configuration`),
    its glued complex has V - E + F - p = 2 - 2g and it is connected.  Only
    multisets whose costs total at most 4g - 4 are tried, which the
    identity allows; the complex, not the total, decides the genus.  The
    words are scanned by cost, so each scan stops at the first word that
    would pass 4g - 4.
    """
    pool = _reference_words(g, genus)
    by_cost = sorted((w.p_count + len(w) - 4, w) for w in pool)
    configs = []

    def assemble(index, chosen, total):
        if chosen:
            cfg = make_configuration(chosen)
            if not check_configuration(cfg):
                v, e, f = glued_complex(cfg.words_plus, cfg.words_minus)
                if v - e + f - cfg.p == 2 - 2 * genus and _connected(chosen):
                    configs.append(cfg)
        for i in range(index, len(by_cost)):
            cost, word = by_cost[i]
            if total + cost > 4 * genus - 4:
                break  # every later word costs at least as much
            assemble(i, chosen + [word], total + cost)

    assemble(0, [], 0)
    return pool, tuple(sorted(configs))


# The reference walk has no start rule, so it is the slow side: at genus 3
# it takes up to about 6 s a fixture, and about 30 s on k7_1, whose 14,231
# words are the most.  Each case names the search it checks: "genus2" is
# `enumerate_genus2`, the two genus-2 families that `enumerate --genus 2`
# runs, and "general" is `enumerate_general`.  On a fixture at genus 2 both
# run, against the same reference; the general search's id there ends in
# "-unrestricted".  At genus 4 four small fixtures take about 1 s in all;
# borromean alone would take about 2.6 s.
EQUIVALENCE_CASES = (
    [(name, 2, "genus2") for name in VALID_NAMES]
    + [(name, 2, "general") for name in VALID_NAMES]
    + [(name, 3, "general") for name in VALID_NAMES]
    + [
        ("two_bridge_2_2", 2, "general"),
        ("pretzel_2_2", 2, "general"),
        ("two_bridge_3_1_2", 2, "general"),
        ("pretzel_2_2_2", 2, "general"),
        ("pretzel_3_1_2", 2, "general"),
        ("two_bridge_2_2", 3, "general"),
        ("pretzel_2_2_2", 3, "general"),
    ]
    + [(name, 4, "general") for name in ("hopf", "k3_1", "k4_1", "k5_2")]
)
GENERATED = {
    "two_bridge_2_2": lambda: two_bridge_pd([2, 2]),
    "pretzel_2_2": lambda: pretzel_pd([2, 2]),
    "two_bridge_3_1_2": lambda: two_bridge_pd([3, 1, 2]),
    "pretzel_2_2_2": lambda: pretzel_pd([2, 2, 2]),
    "pretzel_3_1_2": lambda: pretzel_pd([3, 1, 2]),
}


def _equivalence_dual(name):
    if name in GENERATED:
        rng = random.Random(sum(map(ord, name)))
        return build_dual(build_diagram(parse_pd(relabel(GENERATED[name](), rng))))
    return load_dual(name)


@cache
def _equivalence_reference(name, genus):
    """The case's dual graph, and its reference words and configurations."""
    g = _equivalence_dual(name)
    return (g, *_reference_general(g, genus))


def _walk_weight(w) -> int:
    """p + t for a word: its punctures, and the crossings its saddles pass."""
    return w.p_count + len({l.ref.crossing for l in w.letters if l.kind == "S"})


@pytest.mark.parametrize("name,genus,search", EQUIVALENCE_CASES,
                         ids=[f"{n}-g{g}" + ("-unrestricted" if g == 2 and s == "general"
                                                 and n not in GENERATED else "")
                              for n, g, s in EQUIVALENCE_CASES])
def test_general_search_equals_check_word_reference(name, genus, search, monkeypatch):
    g, words, expected = _equivalence_reference(name, genus)

    real_words = enumerators._general_words
    pools = []

    def spying_words(*args):
        pools.append(real_words(*args))
        return pools[-1]

    checked = []

    def counting_check_word(graph, word):
        checked.append(word)
        return check_word(graph, word)

    monkeypatch.setattr(enumerators, "_general_words", spying_words)
    monkeypatch.setattr(enumerators, "check_word", counting_check_word)
    if search == "genus2":
        # the two families are built directly, with no general walk, and
        # are every connected genus-2 configuration the reference assembles
        result = enumerate_genus2(g)
        assert pools == []
        assert tuple(sorted(result.configurations)) == expected
        assert checked == []
        return
    result = enumerate_general(g, genus)
    # the start rule loses no word within the walk cap p + t <= 2g, and the
    # cap and the assembly lose no configuration: those are what the
    # reference assembles from all its words; walk counts and tallies
    # differ by design
    assert pools == [[w for w in words if _walk_weight(w) <= 2 * genus]]
    assert result.configurations == expected
    # the walk settles every word property by construction
    assert checked == []


def test_walk_cap_drops_reference_words():
    # The reference walk keeps p + length <= 4g, so the filter above is not
    # vacuous: these cases hold words under that cap and past p + t <= 2g.
    for name, genus in (("k6_2", 2), ("k4_1", 3)):
        _, words, _ = _equivalence_reference(name, genus)
        dropped = [w for w in words if _walk_weight(w) > 2 * genus]
        assert dropped, name
        assert all(w.p_count + len(w) <= 4 * genus for w in dropped)


@pytest.mark.parametrize("name", ["k4_1", "borromean", "k7_4"])
def test_walk_cap_is_attained(name):
    # Every word of a kept configuration keeps p + t <= 2g, and some word
    # reaches 2g, so a cap one lower would lose configurations.
    g = load_dual(name)
    for genus in (2, 3):
        result = enumerate_general(g, genus)
        weights = [_walk_weight(w) for cfg in result.configurations for w in cfg.words_plus]
        assert max(weights) == 2 * genus, (name, genus)


def test_kept_configurations_meet_the_identity_limits():
    # Word costs p_w + length_w - 4, each at least 2, sum to 4g - 4, so a
    # configuration has at most 2g - 2 words and 4g - 4 punctures.  The walk
    # cap keeps p + length <= 4g and p >= 2, so a word has at most 4g - 2
    # letters (enumerators module docstring).
    cases = [(name, genus) for genus in (2, 3) for name in VALID_NAMES]
    cases += [(name, 4) for name in VALID_NAMES if load_dual(name).diagram.n <= 6]
    for name, genus in cases:
        result = enumerate_general(load_dual(name), genus)
        for cfg in result.configurations:
            assert len(cfg.words_plus) <= 2 * genus - 2, (name, genus)
            assert cfg.p <= 4 * genus - 4, (name, genus)
            assert max(map(len, cfg.words_plus)) <= 4 * genus - 2, (name, genus)
        if name == "borromean" and genus > 2:
            # the word and puncture limits are reached, so neither is loose
            assert max(len(cfg.words_plus) for cfg in result.configurations) == 2 * genus - 2
            assert max(cfg.p for cfg in result.configurations) == 4 * genus - 4
