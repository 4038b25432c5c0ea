"""Tube attachments that close a punctured configuration into a surface.

Punctures sit on a curve in cyclic order.  A tubing pairs them with a
non-crossing matching and routes each tube along one of the two circle arcs
between its endpoints; routed arcs must be pairwise nested or disjoint so
the tubes can be pushed to different depths.  A circle with 2k punctures
admits exactly binom(2k, k) tubings: Catalan-many matchings times k + 1
compatible routings each.  The package only counts them; the tests
enumerate the plans and check the count.
"""

from __future__ import annotations

from math import comb, prod

from .words import Configuration

__all__ = [
    "count_tubings",
    "configuration_tubing_count",
]


def count_tubings(tubes: int) -> int:
    """Number of tubings of one circle with the given number of tubes."""
    if tubes < 0:
        raise ValueError("tube count cannot be negative")
    return comb(2 * tubes, tubes)


def configuration_tubing_count(cfg: Configuration) -> int:
    """Number of closed surfaces one configuration can tube up into.

    Every plus curve punctures evenly: a puncture changes the checkerboard
    colour of the face and a saddle, joining opposite corners, keeps it.
    """
    return prod([count_tubings(w.p_count // 2) for w in cfg.words_plus])
