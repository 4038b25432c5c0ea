"""Tube attachments that close a punctured configuration into a surface.

Punctures sit on a curve in cyclic order.  A tubing pairs them with a
non-crossing matching and routes each tube along one of the two circle arcs
between its endpoints; routed arcs must be pairwise nested or disjoint so
the tubes can be pushed to different depths.  A circle with 2k punctures
admits exactly binom(2k, k) tubings: Catalan-many matchings times k + 1
compatible routings each.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, prod

from .words import Configuration

__all__ = [
    "PunctureCircle",
    "TubingPlan",
    "noncrossing_matchings",
    "enumerate_circle_tubings",
    "enumerate_tubings",
    "count_tubings",
    "configuration_tubing_count",
    "closed_surface_upper_bound",
]


@dataclass(frozen=True)
class PunctureCircle:
    """A curve carrying an even number of punctures in cyclic order."""

    label: str
    punctures: int

    def __post_init__(self):
        if self.punctures < 0 or self.punctures % 2:
            raise ValueError("a circle carries an even number of punctures")


@dataclass(frozen=True)
class TubingPlan:
    """Tubes as (i, j, side): side 0 hugs the arc i..j, side 1 its complement."""

    tubes: tuple[tuple[int, int, int], ...]


def noncrossing_matchings(points: tuple[int, ...]):
    """Yield all non-crossing perfect matchings of points in cyclic order."""
    if not points:
        yield ()
        return
    first = points[0]
    for idx in range(1, len(points), 2):
        partner = points[idx]
        inside = points[1:idx]
        outside = points[idx + 1:]
        for m_in in noncrossing_matchings(inside):
            for m_out in noncrossing_matchings(outside):
                yield ((first, partner),) + m_in + m_out


def _arc_gaps(i: int, j: int, side: int, total: int) -> frozenset[int]:
    # gap g is the circle segment between punctures g and g+1 (mod total)
    forward = frozenset((i + t) % total for t in range((j - i) % total))
    if side == 0:
        return forward
    return frozenset(range(total)) - forward


def enumerate_circle_tubings(punctures: int) -> tuple[TubingPlan, ...]:
    """All tubings of one circle, in a deterministic order.

    The routed arcs of a tubing are nested or disjoint exactly when some gap
    lies on none of them, so each routing is the one that keeps every tube
    off a chosen gap.  The k tubes cut the circle's gaps into k + 1 regions,
    one routing each.  Per matching, plans come in increasing order of their
    side vectors.
    """
    if punctures < 0 or punctures % 2:
        raise ValueError("a circle carries an even number of punctures")
    if punctures == 0:
        return (TubingPlan(()),)
    plans = []
    for matching in noncrossing_matchings(tuple(range(punctures))):
        routings = {
            tuple(int(g in _arc_gaps(i, j, 0, punctures)) for i, j in matching)
            for g in range(punctures)
        }
        for sides in sorted(routings):
            plans.append(TubingPlan(tuple(
                (i, j, side) for (i, j), side in zip(matching, sides)
            )))
    return tuple(plans)


def enumerate_tubings(circles: tuple[PunctureCircle, ...]):
    """All joint tubings, one plan per circle, as a tuple of plan tuples."""
    per_circle = [enumerate_circle_tubings(c.punctures) for c in circles]
    return tuple(itertools.product(*per_circle))


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
    return prod(count_tubings(w.p_count // 2) for w in cfg.words_plus)


def closed_surface_upper_bound(config_count: int, genus: int) -> int:
    """Configurations times the worst-case tubing count at this genus."""
    if genus < 2:
        raise ValueError(f"splitting surfaces start at genus 2, got {genus}")
    return config_count * comb(4 * genus - 4, 2 * genus - 2)
