"""Dual graph of a diagram, augmented with saddle channels.

Nodes are the faces of a validated diagram.  Two kinds of edges:

* p_edges: one per arc, joining the two faces the arc borders (a curve
  crossing that arc picks up a puncture letter);
* s_edges: two per crossing, the saddle channels.  Channel A joins the faces
  at corners 0 and 2 of the crossing, channel B the faces at corners 1 and 3.
  The A/B labeling is a fixed global convention.

Each edge gives two `Step`s, one leaving each of its faces.  `build_dual`
prepares them once per diagram, and every walker reads them.

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
    one arc or channel share its letter and its `touches`.  Steps hash by
    identity, so a dict keyed by steps never hashes their fields.
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
    S-steps, each in sorted ref order.  Every walker reads this one table.
    """

    diagram: Diagram
    nodes: tuple[int, ...]
    p_edges: dict[int, tuple[int, int]]
    s_edges: dict[SaddleChannel, tuple[int, int]]
    steps: dict[int, tuple[Step, ...]]

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

    p_edges = {arc: faces for arc, faces in sorted(d.arc_faces.items())}
    s_edges: dict[SaddleChannel, tuple[int, int]] = {}
    for c in d.crossing_ids:
        for side, (k1, k2) in (("A", (0, 2)), ("B", (1, 3))):
            faces = (d.corner_map[(c, k1)], d.corner_map[(c, k2)])
            s_edges[SaddleChannel(c, side)] = tuple(sorted(faces))

    nodes = tuple(f.id for f in d.faces)
    steps: dict[int, list[Step]] = {f: [] for f in nodes}

    def add(letter: Letter, faces: tuple[int, int], touches: frozenset[int], bit: int,
            sibling: int):
        f1, f2 = faces
        steps[f1].append(Step(letter, f2, touches, bit, sibling))
        steps[f2].append(Step(letter, f1, touches, bit, sibling))

    # both tables are already in sorted ref order
    for arc, faces in p_edges.items():
        (c1, _), (c2, _) = d.arcs[arc]
        add(Letter("P", arc), faces, frozenset((c1, c2)), 0, 0)
    for i, (ch, faces) in enumerate(s_edges.items()):
        add(Letter("S", ch), faces, frozenset((ch.crossing,)), 1 << i, 1 << (i ^ 1))

    frozen = {f: tuple(s) for f, s in steps.items()}
    return AugmentedDualGraph(d, nodes, p_edges, s_edges, frozen)
