"""Polynomial configuration and surface bounds, checked with exact integers.

Every bound is a closed-form polynomial in the crossing number n (and, for
the general family, the genus g).  Comparison against enumerated counts is
reported, never raised, so a violated bound surfaces as a failing flag in
the report rather than an exception mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .enumerators import EnumerationResult
from .tubing import configuration_tubing_count

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

    Multiplies the per-letter choices actually available along a maximal
    word: (4n) to the power max_word_length * max_curves.  The paper's
    looser headline form is c_g(genus) * n ** (40 g^2).
    """
    if genus < 2:
        raise ValueError(f"splitting surfaces start at genus 2, got {genus}")
    exponent = (20 * genus - 16) * (2 * genus - 2)
    return comb(4 * genus - 4, 2 * genus - 2) * (4 * n) ** exponent


def c_g(genus: int) -> int:
    """Constant factor of the paper's general bound: c_g * n^(40 g^2)."""
    if genus < 2:
        raise ValueError(f"splitting surfaces start at genus 2, got {genus}")
    return comb(4 * genus - 4, 2 * genus - 2) * 4 ** (40 * genus * genus)


@dataclass(frozen=True)
class BoundReport:
    """Enumerated counts next to their caps, with one pass flag per cap."""

    n: int
    counts: dict[str, int]
    bounds: dict[str, int]
    ok: dict[str, bool]

    @property
    def all_ok(self) -> bool:
        return all(self.ok.values())


def compare(n: int, result: EnumerationResult) -> BoundReport:
    """Check a genus-2 enumeration against every applicable cap."""
    surfaces = sum(configuration_tubing_count(c) for c in result.configurations)
    counts = {
        "pppp": result.counts["pppp"],
        "psps_pair": result.counts["psps_pair"],
        "configurations": result.counts["total"],
        "surfaces": surfaces,
    }
    caps = {
        "pppp": pppp_bound(n),
        "psps_pair": psps_bound(n),
        "configurations": genus2_config_bound(n),
        "surfaces": genus2_surface_bound(n),
    }
    ok = {key: counts[key] <= caps[key] for key in counts}
    return BoundReport(n=n, counts=counts, bounds=caps, ok=ok)
