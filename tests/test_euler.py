"""Closed-form Euler characteristic against the glued polygon complex."""

import pytest

from altcurves.dualgraph import SaddleChannel
from altcurves.enumerators import budgets, enumerate_general, enumerate_genus2
from altcurves.euler import euler_crosscheck
from altcurves.words import Configuration, CurveWord, Letter

from conftest import VALID_NAMES, glued_complex, load_dual


def _psps(c1, s1, c2, s2, arcs=(1, 2), faces=(0, 1, 2, 3)):
    return CurveWord(
        (Letter("P", arcs[0]), Letter("S", SaddleChannel(c1, s1)),
         Letter("P", arcs[1]), Letter("S", SaddleChannel(c2, s2))),
        faces,
    )


def test_corpus_configurations_have_sphere_characteristic():
    for name in VALID_NAMES:
        for cfg in enumerate_genus2(load_dual(name)).configurations:
            assert euler_crosscheck(cfg) == 2, name


def test_saddle_corners_fill_vertices():
    # the reference glues the mirrored spheres' corners, checking equal
    # stacks and 4V corner incidence; the closed form must give its V - E + F.
    # Genus 3 on hopf and k3_1 finds saddle-free words only; k4_1 adds
    # configurations of up to 4 words and 32 saddles.
    runs = [enumerate_genus2(load_dual(name)) for name in VALID_NAMES]
    runs += [enumerate_general(load_dual(name), budgets(3))
             for name in ("hopf", "k3_1", "k4_1")]
    for result in runs:
        assert result.configurations
        for cfg in result.configurations:
            v, e, f = glued_complex(cfg.words_plus, cfg.words_minus)
            assert euler_crosscheck(cfg) == v - e + f


def test_complex_counts_on_saddle_pair():
    plus = (_psps(1, "A", 2, "A"), _psps(1, "B", 2, "B", arcs=(3, 4)))
    minus = (
        _psps(1, "A", 2, "A", arcs=(5, 6), faces=(4, 5, 6, 7)),
        _psps(1, "B", 2, "B", arcs=(7, 8), faces=(4, 5, 6, 7)),
    )
    assert glued_complex(plus, minus) == (2, 4, 4)
    assert euler_crosscheck(Configuration(plus)) == 2
    # one half of the pair, or an empty minus sphere, leaves unequal stacks
    for lone_plus, lone_minus in ((plus[:1], minus[:1]), (plus, ())):
        with pytest.raises(AssertionError, match="unequal saddle stacks"):
            glued_complex(lone_plus, lone_minus)
