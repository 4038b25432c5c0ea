"""Exact Euler accounting and genus budgets."""

from fractions import Fraction

import pytest

from altcurves.dualgraph import SaddleChannel
from altcurves.enumerators import budgets, enumerate_general, enumerate_genus2
from altcurves.errors import EulerInconsistencyError
from altcurves.euler import (
    build_polygon_complex,
    euler_characteristic,
    euler_crosscheck,
    polygon_contribution,
)
from altcurves.words import Configuration, CurveWord, Letter

from conftest import VALID_NAMES, load_dual


def test_polygon_contributions():
    assert polygon_contribution(0) == 1
    assert polygon_contribution(1) == Fraction(3, 4)
    assert polygon_contribution(2) == Fraction(1, 2)
    assert polygon_contribution(4) == 0
    assert polygon_contribution(8) == -1
    with pytest.raises(ValueError):
        polygon_contribution(-1)


def _psps(c1, s1, c2, s2, arcs=(1, 2), faces=(0, 1, 2, 3)):
    return CurveWord(
        (Letter("P", arcs[0]), Letter("S", SaddleChannel(c1, s1)),
         Letter("P", arcs[1]), Letter("S", SaddleChannel(c2, s2))),
        faces,
    )


def test_lone_psps_word_is_inconsistent():
    cfg = Configuration((_psps(1, "A", 2, "A"),), ())
    with pytest.raises(EulerInconsistencyError, match="not an integer"):
        euler_characteristic(cfg)


def test_unbalanced_stacks_fail_to_glue():
    # both chi summands integral, but the minus sphere is empty
    cfg = Configuration(
        (_psps(1, "A", 2, "A"), _psps(1, "B", 2, "B", arcs=(3, 4))),
        (),
    )
    assert euler_characteristic(cfg) == 1
    with pytest.raises(EulerInconsistencyError, match="cannot be glued"):
        build_polygon_complex(cfg)


def test_corpus_configurations_have_sphere_characteristic():
    for name in VALID_NAMES:
        for cfg in enumerate_genus2(load_dual(name)).configurations:
            assert euler_crosscheck(cfg) == 2, name


def test_saddle_corners_fill_vertices():
    # build_polygon_complex does not check this: equal stacks imply it
    runs = [enumerate_genus2(load_dual(name)) for name in VALID_NAMES]
    runs += [enumerate_general(load_dual(name), budgets(3)) for name in ("hopf", "k3_1")]
    for result in runs:
        for cfg in result.configurations:
            complex_ = build_polygon_complex(cfg)
            assert complex_.saddle_incidence == 4 * complex_.vertices


def test_complex_counts_on_saddle_pair():
    plus = (_psps(1, "A", 2, "A"), _psps(1, "B", 2, "B", arcs=(3, 4)))
    minus = (
        _psps(1, "A", 2, "A", arcs=(5, 6), faces=(4, 5, 6, 7)),
        _psps(1, "B", 2, "B", arcs=(7, 8), faces=(4, 5, 6, 7)),
    )
    complex_ = build_polygon_complex(Configuration(plus, minus))
    assert complex_.vertices == 2
    assert complex_.edges == 4
    assert complex_.polygons == 4
    assert complex_.chi == 2
    assert complex_.per_crossing == {1: 1, 2: 1}


def test_budget_values():
    b2 = budgets(2)
    assert (b2.max_punctures, b2.max_curves, b2.max_word_length) == (4, 2, 24)
    b3 = budgets(3)
    assert (b3.max_punctures, b3.max_curves, b3.max_word_length) == (8, 4, 44)
    with pytest.raises(ValueError, match="genus 2"):
        budgets(1)
