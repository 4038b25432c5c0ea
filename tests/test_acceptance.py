"""Acceptance gate: one test per promised behaviour of the package.

Each test is self-contained and prints one pass/fail line under pytest -v.
"""

import itertools
import random
import time
from math import comb

from altcurves.bounds import (
    c_g,
    compare,
    general_bound,
    genus2_config_bound,
    genus2_surface_bound,
    pppp_bound,
    psps_bound,
)
from altcurves.cli import main
from altcurves.dualgraph import SaddleChannel
from altcurves.enumerators import (
    classify_family,
    enumerate_genus2,
    oracle_enumerate,
)
from altcurves.euler import euler_crosscheck
from altcurves.tubing import count_tubings
from altcurves.words import (
    CurveWord,
    Letter,
    check_configuration,
    check_word,
    make_configuration,
    serialize_word,
)

from conftest import (FIXTURE_DIR, VALID_NAMES, PunctureCircle, TubingPlan, arc_gaps,
                      enumerate_circle_tubings, enumerate_tubings, glued_complex,
                      has_consecutive_saddles, load_diagram, load_dual, noncrossing_matchings,
                      pairwise_puncture_reps, pairwise_saddle_reps)


def test_exact_formula_values():
    assert genus2_config_bound(3) == 54
    assert genus2_surface_bound(3) == 324
    assert count_tubings(2) == 6
    assert pppp_bound(3) == 30
    assert psps_bound(3) == 15
    assert general_bound(3, 2) == 6 * (4 * 3) ** 48
    assert c_g(2) == 6 * 4**160


def test_corpus_counts_within_polynomial_caps():
    start = time.perf_counter()
    for name in VALID_NAMES:
        n = load_diagram(name).n
        result = enumerate_genus2(load_dual(name))
        assert result.counts["total"] < 2 * n**3, name
        report = compare(n, result)
        assert report.counts["surfaces"] < 12 * n**3, name
        assert report.all_ok, name
    assert time.perf_counter() - start < 10.0


def test_specialized_enumerators_match_oracle():
    start = time.perf_counter()
    for name in VALID_NAMES:
        g = load_dual(name)
        oracle = oracle_enumerate(g, 4)
        spec = enumerate_genus2(g)

        o_pppp = [c.words_plus[0] for c in oracle.configurations
                  if classify_family(c) == "pppp"]
        o_pairs = [tuple(c.words_plus) for c in oracle.configurations
                   if classify_family(c) == "psps_pair"]
        oracle_pppp = sorted(serialize_word(w) for w in pairwise_puncture_reps(o_pppp))
        oracle_pairs = sorted(tuple(map(serialize_word, p))
                              for p in pairwise_saddle_reps(o_pairs))

        spec_pppp = sorted(serialize_word(c.words_plus[0])
                           for c in spec.configurations
                           if classify_family(c) == "pppp")
        spec_pairs = sorted(tuple(map(serialize_word, c.words_plus))
                            for c in spec.configurations
                            if classify_family(c) == "psps_pair")

        assert oracle_pppp == spec_pppp, name
        assert oracle_pairs == spec_pairs, name
    assert time.perf_counter() - start < 60.0


def _reference_props(tokens, incidence):
    """Property classification recomputed from the serialized tokens alone."""
    n = len(tokens)
    kinds = [t[0] for t in tokens]
    props = set()

    saddle_tokens = [t for t in tokens if t[0] == "S"]
    if len(saddle_tokens) != len(set(saddle_tokens)):
        props.add(2)

    for i in range(n):
        a, b = tokens[i], tokens[(i + 1) % n]
        if a[0] == "P" and a == b:
            props.add(5)
        for s_tok, p_tok in ((a, b), (b, a)):
            if s_tok[0] == "S" and p_tok[0] == "P":
                if int(s_tok[1:-1]) in incidence[int(p_tok[1:])]:
                    props.add(6)

    if "S" in kinds:
        blocks = sum(1 for i in range(n)
                     if kinds[i] == "P" and kinds[(i + 1) % n] == "S")
        if blocks <= 1:
            props.add(7)

    if kinds.count("P") < 2:
        props.add(8)
    if n < 4 or n % 2:
        props.add(9)
    # a proper power equals one of its own nontrivial rotations
    if any(tokens[d:] + tokens[:d] == tokens for d in range(1, n)):
        props.add(11)
    return props


def _random_closed_walks(g, rng, count):
    faces = sorted(g.nodes)
    walks = []
    while len(walks) < count:
        start = rng.choice(faces)
        length = rng.randint(1, 8)
        letters, trail, here = [], [start], start
        for _ in range(length):
            step = rng.choice(g.steps_from(here))
            letters.append(Letter(step.kind, step.ref))
            trail.append(step.dest)
            here = step.dest
        if here == start:
            walks.append(CurveWord(tuple(letters), tuple(trail[:-1])))
    return walks


def test_word_predicates_match_independent_reimplementation():
    rng = random.Random(20260817)
    cases = 0
    seen_props = set()
    for name in ("k3_1", "borromean"):
        g = load_dual(name)
        incidence = {arc: set(g.arc_crossings(arc)) for arc in g.p_edges}
        for w in _random_closed_walks(g, rng, 5000):
            got = check_word(g, w)
            want = _reference_props(serialize_word(w).split(), incidence)
            assert got == want, serialize_word(w)
            seen_props |= got
            cases += 1
    assert cases >= 10_000
    assert seen_props >= {2, 5, 6, 7, 8, 9, 11}

    # hand-built violators, one per property number
    trefoil = load_dual("k3_1")
    s_step = next(st for st in trefoil.steps_from(0) if st.kind == "S")
    all_saddle = CurveWord(
        (Letter("S", s_step.ref), Letter("S", s_step.ref)), (0, s_step.dest))
    all_saddle_props = check_word(trefoil, all_saddle)
    assert 2 in all_saddle_props  # channel reused
    assert 7 in all_saddle_props  # no puncture-to-saddle transition
    assert 8 in all_saddle_props  # fewer than two punctures
    assert 9 in all_saddle_props  # length below four

    double = CurveWord(
        (Letter("P", 1), Letter("P", 1), Letter("P", 3), Letter("P", 3)),
        (1, 2, 1, 0),
    )
    assert check_word(trefoil, double) == {5}

    touching = CurveWord(
        (Letter("P", 4), Letter("S", SaddleChannel(1, "A")), Letter("P", 1)),
        (2, 3, 1),
    )
    assert 6 in check_word(trefoil, touching)

    # a closed walk through four distinct arcs is clean
    def puncture_square(g, start, here, letters, faces):
        if len(letters) == 4:
            if here == start:
                return CurveWord(tuple(letters), tuple(faces))
            return None
        for st in g.steps_from(here):
            if st.kind != "P" or any(l.ref == st.ref for l in letters):
                continue
            got = puncture_square(g, start, st.dest,
                                  letters + [Letter("P", st.ref)], faces + [here])
            if got is not None:
                return got
        return None

    clean = puncture_square(trefoil, 0, 0, [], [])
    assert clean is not None
    assert not check_word(trefoil, clean)

    # configuration-level balance: one half of a saddle pair alone fails
    borromean = load_dual("borromean")
    pair = next(c for c in enumerate_genus2(borromean).configurations
                if classify_family(c) == "psps_pair")
    lone = make_configuration([pair.words_plus[0]])
    assert check_configuration(lone) == {4}

    # everything the enumerators emit is clean
    for name in VALID_NAMES:
        g = load_dual(name)
        for cfg in enumerate_genus2(g).configurations:
            for w in cfg.words_plus:
                assert not check_word(g, w)
                assert not has_consecutive_saddles(w)
            assert not check_configuration(cfg)


def test_euler_accounting_consistent():
    families = set()
    for name in VALID_NAMES:
        for cfg in enumerate_genus2(load_dual(name)).configurations:
            v, e, f = glued_complex(cfg.words_plus, cfg.words_minus)
            assert euler_crosscheck(cfg) == v - e + f == 2
            families.add(classify_family(cfg))
    assert families == {"pppp", "psps_pair"}


def _laminar(gapsets):
    for a, b in itertools.combinations(gapsets, 2):
        meet = a & b
        if meet and meet != a and meet != b:
            return False
    return True


def _brute_force_tubings(punctures):
    # every side vector of every matching, kept when laminar
    plans = []
    for matching in noncrossing_matchings(tuple(range(punctures))):
        for sides in itertools.product((0, 1), repeat=len(matching)):
            tubes = tuple((i, j, side) for (i, j), side in zip(matching, sides))
            if _laminar([arc_gaps(i, j, side, punctures) for i, j, side in tubes]):
                plans.append(TubingPlan(tubes))
    return tuple(plans)


def test_tubing_plan_counts():
    for k in range(9):
        plans = enumerate_circle_tubings(2 * k)
        assert len(plans) == comb(2 * k, k), k
        assert len(set(plans)) == len(plans), k
        for plan in plans:
            assert _laminar([arc_gaps(i, j, side, 2 * k) for i, j, side in plan.tubes]), plan
        if 0 < k <= 5:
            assert plans == _brute_force_tubings(2 * k), k
    joint = enumerate_tubings((PunctureCircle("a", 2), PunctureCircle("b", 2)))
    assert len(joint) == 4


def test_serial_and_parallel_reports_identical(tmp_path):
    for fmt in ("csv", "json"):
        serial = tmp_path / f"serial.{fmt}"
        parallel = tmp_path / f"parallel.{fmt}"
        assert main(["report", "--format", fmt, "--jobs", "1",
                     "--out", str(serial), str(FIXTURE_DIR)]) == 0
        assert main(["report", "--format", fmt, "--jobs", "8",
                     "--out", str(parallel), str(FIXTURE_DIR)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()
