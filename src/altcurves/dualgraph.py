"""Dual graph of a diagram, augmented with saddle channels.

Nodes are the faces of a validated diagram.  Two kinds of edges:

* p_edges: one per arc, joining the two faces the arc borders (a curve
  crossing that arc picks up a puncture letter);
* s_edges: two per crossing, the saddle channels.  Channel A joins the faces
  at corners 0 and 2 of the crossing, channel B the faces at corners 1 and 3.
  The A/B labeling is a fixed global convention.

Validated diagrams never produce self-loop edges of either kind; validation
rules this out.  An arc with one face on both sides would be a bridge, which
a 4-valent plane graph never has, and a channel whose two corners lie in one
face is exactly a crossing that fails the `reduced` check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .diagram import Diagram, validate
from .errors import PreconditionError

__all__ = ["SaddleChannel", "Step", "AugmentedDualGraph", "build_dual"]


class SaddleChannel(NamedTuple):
    """One side of a crossing's bubble: side 'A' (corners 0,2) or 'B' (1,3).

    Channels order by crossing, then side.
    """

    crossing: int
    side: str

    def __str__(self) -> str:
        return f"{self.crossing}{self.side}"


@dataclass(frozen=True)
class Step:
    """A move leaving a face: kind 'P' crosses an arc, kind 'S' a channel."""

    kind: str
    ref: int | SaddleChannel
    dest: int


@dataclass(frozen=True)
class AugmentedDualGraph:
    """Faces plus puncture and saddle adjacency, with deterministic ordering."""

    diagram: Diagram
    nodes: tuple[int, ...]
    p_edges: dict[int, tuple[int, int]]
    s_edges: dict[SaddleChannel, tuple[int, int]]
    _steps: dict[int, tuple[Step, ...]]

    def steps_from(self, face: int) -> tuple[Step, ...]:
        """All P-steps then all S-steps leaving `face`, in sorted ref order."""
        if face not in self._steps:
            raise ValueError(f"face {face} is not a node of this dual graph")
        return self._steps[face]

    def arc_crossings(self, arc: int) -> tuple[int, int]:
        """The crossings at the two ends of an arc (equal for a loop arc)."""
        (c1, _), (c2, _) = self.diagram.arcs[arc]
        return (c1, c2)


def build_dual(d: Diagram) -> AugmentedDualGraph:
    """Assemble the augmented dual graph of a validated diagram.

    Raises:
        PreconditionError: the diagram fails validation; the error carries
            the ValidationReport.
    """
    report = validate(d)
    if not report.ok:
        raise PreconditionError(
            "dual graph requires a validated diagram; failures: "
            + "; ".join(report.failures),
            report=report,
        )

    p_edges = {arc: faces for arc, faces in sorted(d.arc_faces.items())}
    s_edges: dict[SaddleChannel, tuple[int, int]] = {}
    for c in d.crossing_ids:
        for side, (k1, k2) in (("A", (0, 2)), ("B", (1, 3))):
            faces = (d.corner_map[(c, k1)], d.corner_map[(c, k2)])
            s_edges[SaddleChannel(c, side)] = tuple(sorted(faces))

    nodes = tuple(f.id for f in d.faces)
    steps: dict[int, list[Step]] = {f: [] for f in nodes}
    for arc, (f1, f2) in sorted(p_edges.items()):
        steps[f1].append(Step("P", arc, f2))
        steps[f2].append(Step("P", arc, f1))
    for ch, (f1, f2) in sorted(s_edges.items()):
        steps[f1].append(Step("S", ch, f2))
        steps[f2].append(Step("S", ch, f1))

    frozen = {f: tuple(s) for f, s in steps.items()}
    return AugmentedDualGraph(d, nodes, p_edges, s_edges, frozen)
