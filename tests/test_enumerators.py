"""Enumeration: specialized families, general search, oracle agreement."""

import inspect
import random
import sys
from collections import Counter
from itertools import combinations, combinations_with_replacement, product
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from altcurves import enumerators
from altcurves.diagram import build_diagram, parse_pd, validate
from altcurves.dualgraph import SaddleChannel, build_dual
from altcurves.enumerators import (
    EnumerationBudget,
    EnumerationResult,
    budgets,
    classify_family,
    enumerate_general,
    enumerate_genus2,
    enumerate_pppp,
    enumerate_psps_pairs,
    oracle_enumerate,
)
from altcurves.errors import GuardAbort, TractabilityError
from altcurves.euler import euler_crosscheck
from altcurves.words import (
    CurveWord,
    Letter,
    canonicalize,
    check_configuration,
    check_word,
    make_configuration,
    serialize_word,
)

from conftest import (TORUS_NAMES, VALID_NAMES, glued_complex, has_consecutive_saddles,
                      k4_network_pd, load_dual, pairwise_puncture_reps, pairwise_saddle_reps,
                      relabel, shares_three_arcs, two_bridge_pd)
from gen_fixtures import leaf, parallel, pd_from_tree, series

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
                assert check_word(g, w) == []
                assert not has_consecutive_saddles(w)
            assert check_configuration(g, cfg) == []


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


def test_general_matches_specialized_at_genus_two():
    for name in ("k3_1", "k4_1", "borromean"):
        g = load_dual(name)
        spec = enumerate_genus2(g)
        general = enumerate_general(g, budgets(2))
        spec_keys = {
            tuple(serialize_word(w) for w in cfg.words_plus)
            for cfg in spec.configurations
        }
        general_family_keys = {
            tuple(serialize_word(w) for w in cfg.words_plus)
            for cfg in general.configurations
            if classify_family(cfg) != "other"
        }
        assert spec_keys == general_family_keys, name
        assert general.counts["pppp"] == spec.counts["pppp"]
        assert general.counts["psps_pair"] == spec.counts["psps_pair"]


def test_general_pattern_restriction():
    g = load_dual("borromean")
    only_pppp = enumerate_general(g, budgets(2), patterns=("PPPP",))
    assert only_pppp.counts["pppp"] == 6
    assert only_pppp.counts["psps_pair"] == 0
    assert all(classify_family(c) == "pppp" for c in only_pppp.configurations)


def test_general_is_deterministic():
    g = load_dual("k5_2")
    runs = [enumerate_general(g, budgets(2)) for _ in range(2)]
    serial = [
        tuple(tuple(serialize_word(w) for w in cfg.words_plus)
              for cfg in r.configurations)
        for r in runs
    ]
    assert serial[0] == serial[1]


def test_genus3_runs_on_trefoil():
    g = load_dual("k3_1")
    result = enumerate_general(g, budgets(3))
    assert result.counts["total"] == 15
    assert result.counts["pppp"] == 3
    # the genus-2 families persist inside the genus-3 budget
    spec = enumerate_genus2(g)
    spec_keys = {
        tuple(serialize_word(w) for w in cfg.words_plus)
        for cfg in spec.configurations
    }
    gen_keys = {
        tuple(serialize_word(w) for w in cfg.words_plus)
        for cfg in result.configurations
    }
    assert spec_keys <= gen_keys


def test_guard_abort_carries_stats():
    g = load_dual("k3_1")
    with pytest.raises(GuardAbort) as err:
        enumerate_general(g, budgets(9), guard_cap=5000)
    assert err.value.cap == 5000
    assert err.value.visited > 5000
    assert "partial walks" in str(err.value)


def test_assembly_depth_is_not_bounded_by_the_stack():
    # a selection may hold max_curves words; the assembly keeps selections
    # on an explicit stack, so its depth never meets the recursion limit,
    # lowered here to keep the selections short
    g = load_dual("hopf")
    budget = EnumerationBudget(2, 4 * 400, 400, 4)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        result = enumerate_general(g, budget)
    finally:
        sys.setrecursionlimit(limit)
    # the hopf link's one 4-letter word, taken 1 to 400 times
    assert len({w for cfg in result.configurations for w in cfg.words_plus}) == 1
    assert [len(cfg.words_plus) for cfg in result.configurations] == list(range(1, 401))


def test_budget_fields():
    b = EnumerationBudget(2, 4, 2, 24)
    assert (b.genus, b.max_punctures, b.max_curves, b.max_word_length) == (2, 4, 2, 24)


def test_budgets_start_at_genus_two():
    with pytest.raises(ValueError, match="genus 2"):
        budgets(1)


def test_oracle_rejects_deep_scans():
    with pytest.raises(TractabilityError):
        oracle_enumerate(load_dual("k3_1"), 9)


def test_oracle_agreement_on_small_fixtures():
    for name in ("k3_1", "hopf", "borromean"):
        g = load_dual(name)
        oracle = oracle_enumerate(g, 4)
        spec = enumerate_genus2(g)
        o_pppp = [c.words_plus[0] for c in oracle.configurations
                  if classify_family(c) == "pppp"]
        o_pairs = [tuple(c.words_plus) for c in oracle.configurations
                   if classify_family(c) == "psps_pair"]
        reps_p = sorted(serialize_word(w) for w in pairwise_puncture_reps(o_pppp))
        reps_s = sorted(tuple(map(serialize_word, p)) for p in pairwise_saddle_reps(o_pairs))
        s_p = sorted(serialize_word(c.words_plus[0]) for c in spec.configurations
                     if classify_family(c) == "pppp")
        s_s = sorted(tuple(map(serialize_word, c.words_plus))
                     for c in spec.configurations
                     if classify_family(c) == "psps_pair")
        assert reps_p == s_p, name
        assert reps_s == s_s, name


# ----------------------------------------------------------------------------
# the genus-2 families need no quotient (enumerators module docstring)
# ----------------------------------------------------------------------------


def _pretzel_pd(bundles):
    return pd_from_tree(series([parallel([leaf()] * k) for k in bundles]))


def _valid_duals(texts, seed):
    rng = random.Random(seed)
    diagrams = [build_diagram(parse_pd(relabel(text, rng))) for text in texts]
    return [build_dual(d) for d in diagrams if validate(d).ok]


def test_pppp_words_never_share_three_arcs():
    texts = [two_bridge_pd(list(terms)) for k in range(1, 4)
             for terms in product(range(1, 4), repeat=k) if sum(terms) >= 2]
    texts += [_pretzel_pd(terms) for k in range(2, 5) for terms in product(range(1, 4), repeat=k)]
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
        if classify_family(cfg) == "psps_pair" and not check_configuration(g, cfg):
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
        props = {v.prop for v in check_word(g, word)}
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
    assert enumerators._psps_words(enumerators._moves(g), {}) == clean


# ----------------------------------------------------------------------------
# PPPP generation: closed by lookup, built canonical
# ----------------------------------------------------------------------------


twist_terms = st.lists(st.integers(1, 3), min_size=1, max_size=4)
pppp_families = st.one_of(
    twist_terms.filter(lambda t: sum(t) >= 2).map(two_bridge_pd),
    twist_terms.filter(lambda t: len(t) >= 2).map(_pretzel_pd),
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
    assert enumerators._psps_words(enumerators._moves(g), diagnostics) == clean
    assert diagnostics == tally


@settings(max_examples=40, deadline=None)
@given(text=pppp_families, seed=st.integers(0, 2**32 - 1))
def test_closed_form_chi_equals_glued_complex(text, seed):
    d = build_diagram(parse_pd(relabel(text, random.Random(seed))))
    assume(validate(d).ok)
    for cfg in enumerate_genus2(build_dual(d)).configurations:
        v, e, f = glued_complex(cfg.words_plus, cfg.words_minus)
        assert euler_crosscheck(cfg) == v - e + f == 2


def test_genus2_fault_tests_grow_with_the_output(monkeypatch):
    # on (2,n) torus knots the output grows as n^2, 3.8 times from n = 21 to
    # n = 41, and the PSPS work should grow no faster than n.  The genus-2
    # walkers read no follow list, so `_adjacent_fault` is never called:
    # PPPP walks skip repeated arcs by their letter order, and PSPS halves
    # test their one junction on `touches`.  Each face pair with halves
    # both ways builds its smaller side first: here two halves, neither
    # clean, so the larger side is never built and nothing is joined.
    faults = [0]
    real_fault = enumerators._adjacent_fault

    def counting_fault(a, b):
        faults[0] += 1
        return real_fault(a, b)

    tests = Counter()

    class CountingTouches(frozenset):
        def isdisjoint(self, other):
            disjoint = frozenset.isdisjoint(self, other)
            # a puncture's touches test a half, a saddle's a join
            tests[self.kind, disjoint] += 1
            return disjoint

    real_moves = enumerators._moves

    def counting_moves(g):
        moves = real_moves(g)
        for out in moves.values():
            for m in out:
                m.touches = CountingTouches(m.touches)
                m.touches.kind = m.kind
        return moves

    monkeypatch.setattr(enumerators, "_adjacent_fault", counting_fault)
    monkeypatch.setattr(enumerators, "_moves", counting_moves)
    made = {}
    for n, halves_tested in ((21, 84), (41, 164)):
        g = _torus_dual(n)
        faults[0] = 0
        tests.clear()
        result = enumerate_genus2(g)
        assert result.counts["pppp"] == comb(n, 2)
        assert result.diagnostics == {6: 8 * n * n}
        assert faults[0] == 0
        # 4n halves tested, none of them clean, and no join
        assert tests == {("P", False): halves_tested}
        made[n] = sum(tests.values())
    assert made[41] <= 2.2 * made[21]


# ----------------------------------------------------------------------------
# the general search against a walk that filters closed walks with check_word
# ----------------------------------------------------------------------------


def _reference_general(g, budget, patterns):
    """The general search with every closed walk filtered by `check_word`.

    Returns the word pool, the guard's visits and the diagnostics as they
    stand after the walk, as one tuple, and then the full EnumerationResult.
    Recursive, so only for small budgets.
    """
    guard = enumerators._Guard(enumerators.DEFAULT_GUARD_CAP)
    diagnostics: dict[int, int] = {}
    rotations = enumerators._pattern_rotations(patterns)
    max_len = budget.max_word_length
    if rotations is not None:
        max_len = min(max_len, max(len(p) for p in rotations))
    seen = set()

    def tally(violations):
        for prop in {v.prop for v in violations}:
            diagnostics[prop] = diagnostics.get(prop, 0) + 1

    def extend(start, letters, faces, used, p_used):
        guard.tick()
        here = faces[-1]
        length = len(letters)
        if length and here == start and length >= 4 and length % 2 == 0:
            word = CurveWord(letters, faces[:-1])
            if rotations is None or "".join(l.kind for l in letters) in rotations:
                bad = check_word(g, word)
                if bad:
                    tally(bad)
                else:
                    seen.add(canonicalize(word))
        if length == max_len:
            return
        kinds = "" if rotations is None else "".join(l.kind for l in letters)
        prev = letters[-1] if letters else None
        for step in g.steps_from(here):
            if rotations is not None and \
                    not any(r.startswith(kinds + step.kind) for r in rotations):
                continue
            if step.kind == "P":
                if p_used == budget.max_punctures:
                    continue
                if prev and prev.kind == "P" and prev.ref == step.ref:
                    continue  # property 5
                if prev and prev.kind == "S" and \
                        prev.ref.crossing in g.arc_crossings(step.ref):
                    continue  # property 6
                extend(start, letters + (Letter("P", step.ref),),
                       faces + (step.dest,), used, p_used + 1)
            else:
                if step.ref in used:
                    continue  # property 2
                if prev and prev.kind == "P" and \
                        step.ref.crossing in g.arc_crossings(prev.ref):
                    continue  # property 6
                extend(start, letters + (Letter("S", step.ref),),
                       faces + (step.dest,), used | {step.ref}, p_used)

    for start in g.nodes:
        extend(start, (), (start,), frozenset(), 0)
    words = sorted(seen)
    walk = (words, guard.visited, dict(diagnostics))

    pool = sorted(words, key=lambda w: w.p_count)
    configs = set()

    def assemble(index, chosen, p_total):
        guard.tick()
        if chosen:
            cfg = make_configuration(chosen)
            bad = check_configuration(g, cfg)
            if bad:
                tally(bad)
            else:
                configs.add(cfg)
        if len(chosen) == budget.max_curves:
            return
        for i in range(index, len(pool)):
            if p_total + pool[i].p_count > budget.max_punctures:
                break
            assemble(i, chosen + [pool[i]], p_total + pool[i].p_count)

    assemble(0, [], 0)
    return walk, EnumerationResult(tuple(sorted(configs)), diagnostics, guard.visited)


GENUS2_SKELETONS = ("PPPP", "PSPS")
EQUIVALENCE_CASES = (
    [(name, 2, GENUS2_SKELETONS) for name in VALID_NAMES]
    + [(name, 3, None) for name in ("hopf", "k3_1", "k4_1")]
    + [
        ("two_bridge_2_2", 2, None),
        ("pretzel_2_2", 2, None),
        ("two_bridge_3_1_2", 2, GENUS2_SKELETONS + ("PPPPPP", "PSPPSP")),
        ("pretzel_2_2_2", 2, GENUS2_SKELETONS + ("PPSPPS",)),
        ("pretzel_3_1_2", 2, GENUS2_SKELETONS + ("PPPPPP", "PSPSPS")),
    ]
)
GENERATED = {
    "two_bridge_2_2": lambda: two_bridge_pd([2, 2]),
    "pretzel_2_2": lambda: _pretzel_pd([2, 2]),
    "two_bridge_3_1_2": lambda: two_bridge_pd([3, 1, 2]),
    "pretzel_2_2_2": lambda: _pretzel_pd([2, 2, 2]),
    "pretzel_3_1_2": lambda: _pretzel_pd([3, 1, 2]),
}


def _equivalence_dual(name):
    if name in GENERATED:
        rng = random.Random(sum(map(ord, name)))
        return build_dual(build_diagram(parse_pd(relabel(GENERATED[name](), rng))))
    return load_dual(name)


@pytest.mark.parametrize("name,genus,patterns", EQUIVALENCE_CASES,
                         ids=[f"{n}-g{g}" for n, g, _ in EQUIVALENCE_CASES])
def test_general_search_equals_check_word_reference(name, genus, patterns, monkeypatch):
    g = _equivalence_dual(name)
    walk, expected = _reference_general(g, budgets(genus), patterns)

    real_words = enumerators._general_words
    seen = []

    def spying_words(graph, budget, rotations, guard, diagnostics):
        words = real_words(graph, budget, rotations, guard, diagnostics)
        seen.append((words, guard.visited, dict(diagnostics)))
        return words

    checked = []

    def counting_check_word(graph, word):
        checked.append(word)
        return check_word(graph, word)

    monkeypatch.setattr(enumerators, "_general_words", spying_words)
    monkeypatch.setattr(enumerators, "check_word", counting_check_word)
    result = enumerate_general(g, budgets(genus), patterns=patterns)
    assert seen == [walk]
    assert result.configurations == expected.configurations
    assert result.diagnostics == expected.diagnostics
    assert result.visited == expected.visited
    # the walk settles every word property by construction
    assert checked == []
    assert all(check_word(g, w) == [] for w in walk[0])
