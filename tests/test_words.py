"""Curve words: canonical forms, constraint checks, configurations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altcurves.dualgraph import SaddleChannel
from altcurves.words import (
    Configuration,
    CurveWord,
    Letter,
    canonicalize,
    check_configuration,
    check_word,
    make_configuration,
    serialize_word,
    word_pattern,
)

from conftest import load_dual


def closed_walks(g, max_len):
    """Every closed walk up to max_len letters, as raw CurveWords."""
    out = []

    def grow(start, letters, faces):
        here = faces[-1]
        if letters and here == start:
            out.append(CurveWord(tuple(letters), tuple(faces[:-1])))
        if len(letters) == max_len:
            return
        for step in g.steps_from(here):
            letters.append(Letter(step.kind, step.ref))
            faces.append(step.dest)
            grow(start, letters, faces)
            letters.pop()
            faces.pop()

    for start in g.nodes:
        grow(start, [], [start])
    return out


TREFOIL_DUAL = load_dual("k3_1")
WALK_POOL = closed_walks(TREFOIL_DUAL, 5)


def test_letter_serialization():
    assert str(Letter("P", 3)) == "P3"
    assert str(Letter("S", SaddleChannel(2, "B"))) == "S2B"


def test_word_shape_validation():
    with pytest.raises(ValueError):
        CurveWord((Letter("P", 1),), (1, 2))
    with pytest.raises(ValueError):
        CurveWord((), ())


def test_pattern_and_serialize():
    w = WALK_POOL[0]
    assert set(word_pattern(w)) <= {"P", "S"}
    assert serialize_word(w) == " ".join(str(l) for l in w.letters)


@settings(max_examples=300, deadline=None)
@given(
    idx=st.integers(min_value=0, max_value=len(WALK_POOL) - 1),
    rot=st.integers(min_value=0, max_value=11),
    flip=st.booleans(),
)
def test_canonical_form_is_orbit_invariant(idx, rot, flip):
    w = WALK_POOL[idx]
    moved = w.rotated(rot % len(w))
    if flip:
        moved = moved.reversed()
    assert canonicalize(moved) == canonicalize(w)


@settings(max_examples=200, deadline=None)
@given(idx=st.integers(min_value=0, max_value=len(WALK_POOL) - 1))
def test_canonicalize_idempotent(idx):
    w = canonicalize(WALK_POOL[idx])
    assert canonicalize(w) == w


def _canonical_by_all_rotations(w):
    # the plain definition: every rotation of both directions, built as words
    candidates = [base.rotated(r) for base in (w, w.reversed()) for r in range(len(w))]
    return min(candidates)


# two letters and two faces, so that rotations tie on letters and faces decide
tie_words = st.integers(1, 12).flatmap(lambda n: st.builds(
    CurveWord,
    st.lists(st.sampled_from([Letter("P", 1), Letter("S", SaddleChannel(1, "A"))]),
             min_size=n, max_size=n).map(tuple),
    st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple),
))


@settings(max_examples=300, deadline=None)
@given(tie_words)
def test_canonicalize_matches_all_rotations(w):
    assert canonicalize(w) == _canonical_by_all_rotations(w)


def test_canonicalize_matches_all_rotations_on_walks():
    for w in WALK_POOL:
        assert canonicalize(w) == _canonical_by_all_rotations(w)


# The explicit sort keys that defined the canonical order before letters,
# words and configurations ordered themselves; kept as the reference.
def _old_letter_key(l):
    if l.kind == "P":
        return (0, l.ref)
    return (1, l.ref.crossing, l.ref.side)


def _old_word_key(w):
    return (tuple(_old_letter_key(l) for l in w.letters), w.faces)


def _old_config_key(cfg):
    return (tuple(_old_word_key(w) for w in cfg.words_plus),
            tuple(_old_word_key(w) for w in cfg.words_minus))


mixed_letters = st.sampled_from(
    [Letter("P", arc) for arc in (1, 2, 3, 4, 10)]
    + [Letter("S", SaddleChannel(c, side)) for c in (1, 2, 3, 10) for side in "AB"]
)


@st.composite
def word_lists(draw):
    # each drawn word comes with one of its prefixes, so that words share
    # prefixes and differ in length
    words = []
    for letters in draw(st.lists(st.lists(mixed_letters, min_size=1, max_size=6),
                                 min_size=1, max_size=6)):
        cut = draw(st.integers(1, len(letters)))
        for part in (letters, letters[:cut]):
            faces = draw(st.lists(st.integers(0, 2), min_size=len(part), max_size=len(part)))
            words.append(CurveWord(tuple(part), tuple(faces)))
    return words


@settings(max_examples=120, deadline=None)
@given(word_lists(), st.data())
def test_natural_order_matches_old_keys(words, data):
    letters = [l for w in words for l in w.letters]
    assert sorted(letters) == sorted(letters, key=_old_letter_key)
    assert min(letters) == min(letters, key=_old_letter_key)
    for l in letters:
        ref = str(l.ref) if l.kind == "P" else f"{l.ref.crossing}{l.ref.side}"
        assert str(l) == l.kind + ref
        if l.kind == "S":
            assert str(l.ref) == ref

    assert sorted(words) == sorted(words, key=_old_word_key)
    assert min(words) == min(words, key=_old_word_key)

    configs = []
    for _ in range(data.draw(st.integers(1, 6))):
        plus = data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=3))
        configs.append(Configuration(tuple(sorted(plus))))
    assert sorted(configs) == sorted(configs, key=_old_config_key)
    assert min(configs) == min(configs, key=_old_config_key)


def test_rotation_preserves_walk_shape():
    w = WALK_POOL[17]
    r = w.rotated(1)
    assert r.letters == w.letters[1:] + w.letters[:1]
    assert r.faces == w.faces[1:] + w.faces[:1]
    rr = w.reversed()
    assert rr.letters == tuple(reversed(w.letters))
    assert rr.faces == (w.faces[0],) + tuple(reversed(w.faces[1:]))


def test_check_word_flags_channel_reuse():
    # 0 -S1B-> 2 -S1B-> 0 -S3B-> 4 -S3B-> 0 on the trefoil dual
    w = CurveWord(
        (Letter("S", SaddleChannel(1, "B")), Letter("S", SaddleChannel(1, "B")),
         Letter("S", SaddleChannel(3, "B")), Letter("S", SaddleChannel(3, "B"))),
        (0, 2, 0, 4),
    )
    props = {v.prop for v in check_word(TREFOIL_DUAL, w)}
    assert 2 in props  # channels reused
    assert 8 in props  # no punctures at all


def test_check_word_flags_adjacent_same_arc():
    # 1 -P1-> 2 -P1-> 1 -P3-> 0 -P3-> 1: bouncing on arcs 1 and 3
    w = CurveWord(
        (Letter("P", 1), Letter("P", 1), Letter("P", 3), Letter("P", 3)),
        (1, 2, 1, 0),
    )
    props = {v.prop for v in check_word(TREFOIL_DUAL, w)}
    assert props == {5}


def test_check_word_flags_saddle_next_to_incident_arc():
    # 2 -P4-> 3 -S1A-> 1 -P1-> 2: arcs 4 and 1 both end at crossing 1
    w = CurveWord(
        (Letter("P", 4), Letter("S", SaddleChannel(1, "A")), Letter("P", 1)),
        (2, 3, 1),
    )
    props = {v.prop for v in check_word(TREFOIL_DUAL, w)}
    assert 6 in props
    assert 9 in props  # odd length


def test_check_word_flags_single_block_and_odd_and_short():
    flagged_7 = flagged_9 = 0
    for w in WALK_POOL:
        props = {v.prop for v in check_word(TREFOIL_DUAL, w)}
        p_to_s = sum(
            1 for i in range(len(w))
            if w.letters[i].kind == "P" and w.letters[(i + 1) % len(w)].kind == "S"
        )
        if w.s_count and p_to_s <= 1:
            assert 7 in props
            flagged_7 += 1
        if len(w) < 4 or len(w) % 2:
            assert 9 in props
            flagged_9 += 1
    assert flagged_7 > 0
    assert flagged_9 > 0


def test_clean_words_have_no_violations():
    clean = [w for w in WALK_POOL if not check_word(TREFOIL_DUAL, w)]
    assert clean, "expected some valid words in the pool"
    for w in clean:
        assert len(w) >= 4 and len(w) % 2 == 0
        assert w.p_count >= 2


def test_make_configuration_sorts_and_mirrors():
    g = load_dual("borromean")
    words = [w for w in closed_walks(g, 4) if not check_word(g, w)]
    w1, w2 = canonicalize(words[0]), canonicalize(words[1])
    assert w1 != w2
    cfg = make_configuration([max(w1, w2), min(w1, w2)])
    assert cfg.words_plus == (min(w1, w2), max(w1, w2))
    assert cfg.words_minus == cfg.words_plus


def test_complexity_counts_both_spheres():
    g = load_dual("borromean")
    pppp = [w for w in closed_walks(g, 4)
            if not check_word(g, w) and w.s_count == 0]
    cfg = make_configuration([canonicalize(pppp[0])])
    assert (cfg.p, cfg.s, cfg.c) == (4, 0, 2)
    assert cfg.complexity == 6


def test_configuration_balance():
    g = load_dual("borromean")
    mixed = [w for w in closed_walks(g, 4)
             if not check_word(g, w) and w.s_count == 2
             and len({l.ref.crossing for l in w.letters if l.kind == "S"}) == 2]
    assert mixed, "borromean should carry two-crossing PSPS words"
    lone = make_configuration([canonicalize(mixed[0])])
    violations = check_configuration(g, lone)
    # one violation per unbalanced crossing: the mirrored minus sphere is
    # not checked again
    crossings = sorted({l.ref.crossing for l in mixed[0].letters if l.kind == "S"})
    assert [(v.prop, v.position) for v in violations] == [(4, c) for c in crossings]
    assert all(f"crossing {v.position} has" in v.message for v in violations)
