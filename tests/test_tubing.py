"""Tubing counts, against the plan enumeration in conftest."""

from math import comb

import pytest

from altcurves.enumerators import classify_family, enumerate_general, enumerate_genus2
from altcurves.tubing import configuration_tubing_count, count_tubings

from conftest import (VALID_NAMES, PunctureCircle, TubingPlan, enumerate_circle_tubings,
                      enumerate_tubings, load_dual, noncrossing_matchings)


def _catalan(k):
    return comb(2 * k, k) // (k + 1)


def test_matchings_are_catalan_many():
    for k in range(7):
        matchings = list(noncrossing_matchings(tuple(range(2 * k))))
        assert len(matchings) == _catalan(k)
        assert len(set(matchings)) == len(matchings)


def test_matchings_never_cross():
    for matching in noncrossing_matchings(tuple(range(8))):
        for (a, b) in matching:
            for (c, d) in matching:
                if (a, b) == (c, d):
                    continue
                # crossing means exactly one endpoint falls strictly inside
                assert (a < c < b) == (a < d < b)


def test_circle_tubings_hit_central_binomial():
    for k in range(7):
        plans = enumerate_circle_tubings(2 * k)
        assert len(plans) == comb(2 * k, k), k
        assert len(set(plans)) == len(plans)
        assert count_tubings(k) == comb(2 * k, k)


def test_two_puncture_circle_has_two_routings():
    plans = enumerate_circle_tubings(2)
    assert plans == (TubingPlan(((0, 1, 0),)), TubingPlan(((0, 1, 1),)))


def test_odd_punctures_rejected():
    with pytest.raises(ValueError):
        enumerate_circle_tubings(3)
    with pytest.raises(ValueError):
        PunctureCircle("п", 5)
    with pytest.raises(ValueError):
        count_tubings(-1)


def test_joint_tubings_multiply():
    circles = (PunctureCircle("a", 2), PunctureCircle("b", 2))
    joint = enumerate_tubings(circles)
    assert len(joint) == 4
    assert all(len(plans) == 2 for plans in joint)


def test_configuration_counts():
    for cfg in enumerate_genus2(load_dual("borromean")).configurations:
        punctures = [w.p_count for w in cfg.words_plus]
        if classify_family(cfg) == "pppp":
            assert punctures == [4]
            assert configuration_tubing_count(cfg) == 6
        else:
            assert punctures == [2, 2]
            assert configuration_tubing_count(cfg) == 4


def test_emitted_words_puncture_evenly():
    # configuration_tubing_count halves each word's punctures unchecked: a
    # puncture changes the face's checkerboard colour and a saddle keeps it
    results = [enumerate_genus2(load_dual(name)) for name in VALID_NAMES]
    results += [enumerate_general(load_dual(name), 3)
                for name in ("k4_1", "borromean")]
    words = {w for r in results for cfg in r.configurations for w in cfg.words_plus}
    assert any(w.p_count > 4 for w in words)
    assert all(w.p_count % 2 == 0 for w in words)
