"""Exact Euler characteristic accounting for curve configurations.

Each curve word bounds a polygon whose corners are its saddle letters; the
saddles of a crossing glue four polygon corners around one vertex.  All
arithmetic is exact (fractions.Fraction), and the characteristic must come
out an integer or the configuration is rejected as inconsistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import EulerInconsistencyError
from .words import Configuration, channel_counts

__all__ = [
    "polygon_contribution",
    "euler_characteristic",
    "PolygonComplex",
    "build_polygon_complex",
    "euler_crosscheck",
]


def polygon_contribution(saddle_count: int) -> Fraction:
    """Contribution of one polygon with the given number of saddle corners.

    A polygon counts 1 for its face, and each saddle corner charges it a
    quarter of a vertex minus half of a shared edge: 1 + s0/4 - s0/2.
    """
    if saddle_count < 0:
        raise ValueError("saddle count cannot be negative")
    return 1 - Fraction(saddle_count, 4)


def euler_characteristic(cfg: Configuration) -> int:
    """Exact characteristic of the polygon complex a configuration spans.

    Raises EulerInconsistencyError when the total is not an integer, which
    happens exactly when some sphere is missing saddle partners.
    """
    total = Fraction(0)
    for w in cfg.words_plus + cfg.words_minus:
        total += polygon_contribution(w.s_count)
    if total.denominator != 1:
        raise EulerInconsistencyError(
            f"polygon contributions sum to {total}, not an integer; "
            "saddle corners do not close up into whole vertices"
        )
    return int(total)


@dataclass(frozen=True)
class PolygonComplex:
    """Vertex/edge/polygon counts of a configuration's glued-up complex."""

    vertices: int
    edges: int
    polygons: int
    saddle_incidence: int
    per_crossing: dict[int, int]

    @property
    def chi(self) -> int:
        return self.vertices - self.edges + self.polygons


def build_polygon_complex(cfg: Configuration) -> PolygonComplex:
    """Glue the configuration's polygons along saddles into a complex.

    At every crossing the four stacks of saddle corners (plus/minus sphere
    times A/B channel) must have equal height, or the corners cannot be
    matched around vertices; unequal stacks raise EulerInconsistencyError.
    """
    plus = channel_counts(cfg.words_plus)
    minus = channel_counts(cfg.words_minus)
    crossings = {c for (c, _) in plus} | {c for (c, _) in minus}

    per_crossing: dict[int, int] = {}
    for c in sorted(crossings):
        stacks = (plus[(c, "A")], plus[(c, "B")], minus[(c, "A")], minus[(c, "B")])
        if len(set(stacks)) != 1:
            raise EulerInconsistencyError(
                f"crossing {c} has saddle stacks plus A/B = {stacks[0]}/{stacks[1]}, "
                f"minus A/B = {stacks[2]}/{stacks[3]}; corners cannot be glued"
            )
        per_crossing[c] = stacks[0]

    # equal stacks give each vertex four corners: incidence is 4 * vertices
    incidence = sum(w.s_count for w in cfg.words_plus + cfg.words_minus)
    vertices = sum(per_crossing.values())
    edges = incidence // 2
    polygons = len(cfg.words_plus) + len(cfg.words_minus)
    return PolygonComplex(vertices, edges, polygons, incidence, per_crossing)


def euler_crosscheck(cfg: Configuration) -> int:
    """Characteristic via the glued complex, checked against the direct sum."""
    complex_ = build_polygon_complex(cfg)
    direct = euler_characteristic(cfg)
    if complex_.chi != direct:
        raise EulerInconsistencyError(
            f"complex gives chi {complex_.chi} but polygon contributions give {direct}"
        )
    return direct
