"""Polynomial configuration and surface bounds, checked with exact integers.

Every bound is a closed-form polynomial in the crossing number n (and, for
the general family, the genus g).  Comparison against enumerated counts is
reported, never raised, so a violated bound surfaces as a failing flag in
the report rather than an exception mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .enumerators import EnumerationResult, budgets
from .tubing import count_tubings

__all__ = [
    "pppp_bound",
    "psps_bound",
    "genus2_config_bound",
    "genus2_surface_bound",
    "general_bound",
    "c_g",
    "BoundReport",
    "compare",
]


def pppp_bound(n: int) -> int:
    """Cap on all-puncture 4-letter curve classes in an n-crossing diagram."""
    return 2 * n**3 - 3 * n**2 + n


def psps_bound(n: int) -> int:
    """Cap on opposite-channel curve-pair classes in an n-crossing diagram."""
    return 2 * n**2 - n


def genus2_config_bound(n: int) -> int:
    """Cap on genus-2 configurations; exceeds the family caps plus n^2."""
    return 2 * n**3


def genus2_surface_bound(n: int) -> int:
    """Cap on genus-2 splitting surfaces after tubing."""
    return 12 * n**3


def general_bound(n: int, genus: int) -> int:
    """Cap on genus-g configurations.

    (4n) choices per letter, to the power (20g - 16)(2g - 2): 2g - 2 curves
    of 20g - 16 letters each.  The genus-g identity (`enumerators` module
    docstring) leaves a word at most 4g - 2 letters, so the cap is far
    looser than it need be.  The paper's looser headline form is
    c_g(genus) * n ** (40 g^2).  ValueError below genus 2 (`budgets`).
    """
    genus = budgets(genus)
    exponent = (20 * genus - 16) * (2 * genus - 2)
    return comb(4 * genus - 4, 2 * genus - 2) * (4 * n) ** exponent


def c_g(genus: int) -> int:
    """Constant factor of the paper's general bound: c_g * n^(40 g^2).

    ValueError below genus 2 (`budgets`).
    """
    genus = budgets(genus)
    return comb(4 * genus - 4, 2 * genus - 2) * 4 ** (40 * genus * genus)


@dataclass(frozen=True)
class BoundReport:
    """Enumerated counts next to their caps, with one pass flag per cap."""

    counts: dict[str, int]
    bounds: dict[str, int]
    ok: dict[str, bool]

    @property
    def all_ok(self) -> bool:
        return all(self.ok.values())


def compare(n: int, result: EnumerationResult) -> BoundReport:
    """Check a genus-2 enumeration against every applicable cap.

    Surfaces are summed per family: a PPPP word is one circle with 4
    punctures, binom(4, 2) = 6 tubings; a PSPS pair is two circles with 2
    punctures each, 2^2 = 4.  Any other configuration raises ValueError, as
    no genus-2 cap applies to it.
    """
    c = result.counts
    if c["other"]:
        raise ValueError(f"{c['other']} configurations outside the genus-2 families")
    counts = {
        "pppp": c["pppp"],
        "psps_pair": c["psps_pair"],
        "configurations": c["total"],
        "surfaces": count_tubings(2) * c["pppp"] + count_tubings(1) ** 2 * c["psps_pair"],
    }
    caps = {
        "pppp": pppp_bound(n),
        "psps_pair": psps_bound(n),
        "configurations": genus2_config_bound(n),
        "surfaces": genus2_surface_bound(n),
    }
    ok = {key: counts[key] <= caps[key] for key in counts}
    return BoundReport(counts=counts, bounds=caps, ok=ok)
