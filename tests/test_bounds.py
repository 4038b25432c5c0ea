"""Polynomial caps and exact comparisons."""

import pytest

from altcurves.bounds import (
    BoundReport,
    c_g,
    compare,
    general_bound,
    genus2_config_bound,
    genus2_surface_bound,
    pppp_bound,
    psps_bound,
)
from altcurves.enumerators import EnumerationResult, enumerate_genus2

from conftest import VALID_NAMES, load_diagram, load_dual


def test_values_at_three_crossings():
    assert pppp_bound(3) == 30
    assert psps_bound(3) == 15
    assert genus2_config_bound(3) == 54
    assert genus2_surface_bound(3) == 324


def test_family_caps_fill_the_config_cap():
    for n in range(1, 51):
        assert pppp_bound(n) + psps_bound(n) + n * n == genus2_config_bound(n)


def test_general_bound_tight():
    assert general_bound(3, 2) == 6 * 12**48
    assert general_bound(1, 2) == 6 * 4**48
    assert general_bound(2, 3) == 70 * 8**176


def test_general_bound_stated_dominates_tight():
    # the paper's stated form is c_g * n^(40 g^2)
    assert c_g(2) == 6 * 4**160
    assert c_g(3) == 70 * 4**360
    for n in (1, 2, 3, 7, 19):
        for g in (2, 3):
            assert c_g(g) * n ** (40 * g * g) >= general_bound(n, g)


def test_bad_arguments():
    with pytest.raises(ValueError, match="genus 2"):
        general_bound(3, 1)
    with pytest.raises(ValueError, match="genus 2"):
        c_g(0)


def test_compare_on_corpus():
    for name in VALID_NAMES:
        d = load_diagram(name)
        report = compare(d.n, enumerate_genus2(load_dual(name)))
        assert report.all_ok, name
        assert report.counts["configurations"] == (
            report.counts["pppp"] + report.counts["psps_pair"]
        )
        assert report.counts["surfaces"] <= 6 * report.counts["configurations"]


def test_compare_flags_violations_without_raising():
    result = enumerate_genus2(load_dual("borromean"))
    report = compare(1, result)  # caps for n=1 are far too small
    assert isinstance(report, BoundReport)
    assert not report.all_ok
    assert not report.ok["pppp"]
    assert report.bounds["pppp"] == 0


def test_compare_on_empty_result():
    empty = EnumerationResult(
        configurations=(),
        diagnostics={},
        visited=0,
    )
    report = compare(4, empty)
    assert report.all_ok
    assert report.counts["surfaces"] == 0
