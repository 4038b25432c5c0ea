"""Dual graph of a diagram, augmented with saddle channels.

Nodes are the faces of a validated diagram, by id.  Two kinds of edges:

* p_edges: one per arc, joining the two faces the arc borders (a curve
  crossing that arc picks up a puncture letter).  It is the diagram's own
  `arc_faces`, in label order;
* s_edges: two per crossing, the saddle channels.  Channel A joins the faces
  at corners 0 and 2 of the crossing, channel B the faces at corners 1 and 3,
  read from the diagram's `corner_faces` by dart.  The A/B labeling is a
  fixed global convention.

Each edge gives two `Step`s, one leaving each of its faces.  They are built
when `AugmentedDualGraph.steps` is first read, in one pass over each table
in ref order, with no sort; the genus-2 enumerators read only the edges.

Validated diagrams never produce self-loop edges of either kind; validation
rules this out.  An arc with one face on both sides would be a bridge, which
a 4-valent plane graph never has, and a channel whose two corners lie in one
face is exactly a crossing that fails the `reduced` check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .diagram import Diagram, validate
from .errors import PreconditionError

__all__ = ["SaddleChannel", "Letter", "Step", "AugmentedDualGraph", "build_dual"]


class SaddleChannel(NamedTuple):
    """One side of a crossing's bubble: side 'A' (corners 0,2) or 'B' (1,3).

    Channels order by crossing, then side.
    """

    crossing: int
    side: str

    def __str__(self) -> str:
        return f"{self.crossing}{self.side}"


class Letter(NamedTuple):
    """kind 'P' with an arc ref, or kind 'S' with a SaddleChannel ref.

    A letter names an edge of this graph, as a curve word spells it.
    Letters of different kinds differ in their first field, so an arc is
    never compared with a channel.
    """

    kind: str
    ref: int | SaddleChannel

    def __str__(self) -> str:
        return f"{self.kind}{self.ref}"


class Step:
    """A move leaving a face over an arc (kind 'P') or a channel (kind 'S').

    `ref` is the arc or channel, `letter` the Letter a walk spells for it and
    `dest` the face reached.  `touches` holds the crossings the letter meets:
    both ends of the arc for a puncture, the channel's crossing for a
    saddle.  `bit` marks a saddle's channel in a walk's used-channel mask,
    1 << i for the i-th channel of `s_edges`, and `sibling` the other
    channel at its crossing, 1 << (i ^ 1), as a crossing's channels A and B
    are consecutive there; both are 0 for a puncture.  The two steps over
    one arc or channel share its letter and its `touches`, and the two
    channels of a crossing share their `touches`.  Steps hash by identity,
    so a dict keyed by steps never hashes their fields.
    """

    __slots__ = ("kind", "ref", "letter", "dest", "touches", "bit", "sibling")

    def __init__(self, letter: Letter, dest: int, touches: frozenset[int], bit: int,
                 sibling: int):
        self.kind, self.ref = letter
        self.letter = letter
        self.dest = dest
        self.touches = touches
        self.bit = bit
        self.sibling = sibling


@dataclass(frozen=True)
class AugmentedDualGraph:
    """Faces plus puncture and saddle adjacency, with deterministic ordering.

    `steps` maps each face to the steps leaving it: all P-steps, then all
    S-steps, each in sorted ref order.  It is built when first read, once
    per graph; the general search and the oracle walk it.
    """

    diagram: Diagram
    nodes: tuple[int, ...]
    p_edges: dict[int, tuple[int, int]]
    s_edges: dict[SaddleChannel, tuple[int, int]]

    @cached_property
    def steps(self) -> dict[int, tuple[Step, ...]]:
        steps: list[list[Step]] = [[] for _ in self.nodes]
        for ((c1, _), (c2, _)), (arc, (f1, f2)) in zip(self.diagram.arcs.values(),
                                                        self.p_edges.items()):
            letter, touches = Letter("P", arc), frozenset((c1, c2))
            steps[f1].append(Step(letter, f2, touches, 0, 0))
            steps[f2].append(Step(letter, f1, touches, 0, 0))
        # channels A and B of a crossing are channels i and i ^ 1 of s_edges
        for i, (ch, (f1, f2)) in enumerate(self.s_edges.items()):
            touches = frozenset((ch.crossing,)) if ch.side == "A" else touches
            letter, bit, sibling = Letter("S", ch), 1 << i, 1 << (i ^ 1)
            steps[f1].append(Step(letter, f2, touches, bit, sibling))
            steps[f2].append(Step(letter, f1, touches, bit, sibling))
        return dict(zip(self.nodes, map(tuple, steps)))

    def steps_from(self, face: int) -> tuple[Step, ...]:
        """The steps leaving `face`; a face not in the graph is a ValueError."""
        if face not in self.steps:
            raise ValueError(f"face {face} is not a node of this dual graph")
        return self.steps[face]

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

    # A joins the faces at corners 0 and 2 of crossing c, B those at 1 and 3
    s_edges: dict[SaddleChannel, tuple[int, int]] = {}
    corners = iter(d.corner_faces)
    for c, (a0, b0, a2, b2) in enumerate(zip(corners, corners, corners, corners), start=1):
        s_edges[SaddleChannel(c, "A")] = (a0, a2) if a0 < a2 else (a2, a0)
        s_edges[SaddleChannel(c, "B")] = (b0, b2) if b0 < b2 else (b2, b0)
    return AugmentedDualGraph(d, tuple(f.id for f in d.faces), d.arc_faces, s_edges)
