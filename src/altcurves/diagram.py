"""Planar diagram codes for alternating link diagrams.

A diagram with n crossings is given by a PD code: one 4-tuple of arc labels
per crossing, listed counterclockwise starting from the incoming under-strand.
Slots 0 and 2 of a tuple therefore carry the under-strand, slots 1 and 3 the
over-strand, and every arc label names an edge of the underlying 4-valent
plane multigraph (crossings are the vertices).

Faces are recovered purely combinatorially from the rotation system.  A dart
is an arc end, slot k of crossing c, numbered 4(c - 1) + k; it also names
corner k of that crossing, between slots k and k + 1 mod 4.  Walking
"traverse the arc, then turn to the next slot counterclockwise" partitions
the darts into face cycles, and each arc's far end is the corner the walk
sweeps.  For a sphere diagram the counts obey v - e + f = 2 on every
connected component.

Text grammar accepted by `parse_pd`:

    X 1 4 2 5
    X 3 6 4 1
    X 5 2 6 3

Crossings may also be separated by slashes on one line ("X 1 4 2 5 / X ...").
A JSON alternative is accepted: {"crossings": [[1,4,2,5], [3,6,4,1], ...]}.
Labels may be any positive integers as long as each occurs exactly twice; they
are normalized to 1..2n preserving order.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from .errors import PdStructureError, PdSyntaxError, PlanarityError

__all__ = [
    "PdCode",
    "Face",
    "Diagram",
    "ValidationReport",
    "parse_pd",
    "build_diagram",
    "validate",
]

End = tuple[int, int]  # (crossing id 1..n, slot 0..3)


@dataclass(frozen=True)
class PdCode:
    """A parsed PD code: one counterclockwise 4-tuple per crossing.

    Its labels are 1..2n, each exactly twice, as `parse_pd` normalizes them.
    """

    crossings: tuple[tuple[int, int, int, int], ...]

    @property
    def n(self) -> int:
        return len(self.crossings)


@dataclass(frozen=True)
class Face:
    """One complementary region, recorded as its boundary walk.

    `corners[i]` is the (crossing, corner index) swept between consecutive
    boundary arcs; corner k of a crossing sits between slots k and k+1 mod 4.
    `arcs[i]` is the arc walked into corner i.
    """

    id: int
    corners: tuple[End, ...]
    arcs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.arcs)


@dataclass(frozen=True)
class Diagram:
    """A PD code together with its traced faces.

    `corner_faces[4(c - 1) + k]` is the face containing corner k of crossing
    c.  `arcs` sends an arc to its two ends, in dart order, and `arc_faces`
    to the two faces it borders, lesser first.  Both are built in label
    order, and `validate` and `build_dual` rely on that order: they read
    them without sorting.
    """

    pd: PdCode
    arcs: dict[int, tuple[End, End]]
    faces: tuple[Face, ...]
    corner_faces: tuple[int, ...]
    arc_faces: dict[int, tuple[int, int]]

    @property
    def n(self) -> int:
        return self.pd.n

    @property
    def crossing_ids(self) -> range:
        return range(1, self.pd.n + 1)

    def face_degrees(self) -> tuple[int, ...]:
        return tuple(sorted(f.degree for f in self.faces))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the four diagram checks, with a witness per failure."""

    alternating: bool
    reduced: bool
    prime: bool
    connected: bool
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.alternating and self.reduced and self.prime and self.connected


# ----------------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------------


def parse_pd(text: str) -> PdCode:
    """Parse PD text (or the JSON alternative) into a normalized PdCode.

    Raises:
        PdSyntaxError: empty input or tokens that do not match the grammar.
        PdStructureError: some arc label does not occur exactly twice.
    """
    stripped = text.strip()
    if not stripped:
        raise PdSyntaxError("empty PD input")
    if stripped.startswith("{"):
        rows = _crossings_from_json(stripped)
    else:
        rows = _crossings_from_text(stripped)
    if not rows:
        raise PdSyntaxError("no crossings found")
    return _normalize(rows)


def _crossings_from_json(blob: str) -> list[tuple[int, int, int, int]]:
    try:
        data = json.loads(blob)
    except json.JSONDecodeError as exc:
        raise PdSyntaxError(f"bad JSON PD input: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("crossings"), list):
        raise PdSyntaxError('JSON PD input must be an object with a "crossings" list')
    rows = []
    for entry in data["crossings"]:
        if not isinstance(entry, list) or len(entry) != 4:
            raise PdSyntaxError(f"crossing entry {entry!r} is not a 4-tuple")
        # bool is a subclass of int, but true is not an arc label
        if not all(type(x) is int and x > 0 for x in entry):
            raise PdSyntaxError(f"crossing entry {entry!r} has labels that are not "
                                "positive integers")
        rows.append(tuple(entry))
    return rows


def _crossings_from_text(text: str) -> list[tuple[int, int, int, int]]:
    rows = []
    for line in text.splitlines():
        for chunk in line.split("#", 1)[0].split("/"):
            parts = chunk.split()
            if not parts:
                continue
            if parts[0].upper() != "X" or len(parts) != 5:
                raise PdSyntaxError(f"expected 'X a b c d', got {chunk.strip()!r}")
            try:
                labels = tuple(map(int, parts[1:]))
            except ValueError as exc:
                raise PdSyntaxError(f"non-integer arc label in {chunk.strip()!r}") from exc
            if min(labels) <= 0:
                raise PdSyntaxError(f"arc labels must be positive in {chunk.strip()!r}")
            rows.append(labels)
    return rows


def _normalize(rows: list[tuple[int, int, int, int]]) -> PdCode:
    labels = [label for row in rows for label in row]
    counts = Counter(labels)
    bad = sorted(label for label, k in counts.items() if k != 2)
    if bad:
        raise PdStructureError(
            f"arc labels must occur exactly twice; offending labels: {bad}"
        )
    rank = {label: i for i, label in enumerate(sorted(counts), start=1)}
    ranked = map(rank.__getitem__, labels)
    return PdCode(tuple(zip(ranked, ranked, ranked, ranked)))  # four labels a row


# ----------------------------------------------------------------------------
# face tracing
# ----------------------------------------------------------------------------


def build_diagram(pd: PdCode) -> Diagram:
    """Trace faces and assemble the combinatorial diagram.

    Raises:
        PlanarityError: the rotation data fails the sphere Euler check
            (v - e + f = 2 on each connected component).
    """
    n = pd.n
    label_of = [label for row in pd.crossings for label in row]  # by dart
    first = [-1] * (2 * n + 1)  # by label: the dart where it first occurs
    mate = [0] * (4 * n)  # by dart: the other end of its arc
    for d, label in enumerate(label_of):
        e = first[label]
        if e < 0:
            first[label] = d
        else:
            mate[d], mate[e] = e, d
    ends = [(c, slot) for c in range(1, n + 1) for slot in range(4)]  # by dart
    arrival = [ends[a] for a in mate]  # by departure dart: the corner it sweeps
    # the departure after arriving at dart a: the next slot of its crossing
    after = [a + 1 if a % 4 != 3 else a - 3 for a in mate]

    # Orbit of "traverse the arc, then turn one slot counterclockwise",
    # seeded in dart order so face ids are reproducible.
    face_of = [-1] * (4 * n)  # by departure dart
    faces: list[Face] = []
    for start in range(4 * n):
        if face_of[start] >= 0:
            continue
        fid = len(faces)
        corners, walked = [], []
        d = start
        while face_of[d] < 0:
            face_of[d] = fid
            corners.append(arrival[d])
            walked.append(label_of[d])
            d = after[d]
        faces.append(Face(fid, tuple(corners), tuple(walked)))

    arcs = {label: (ends[d], ends[mate[d]]) for label, d in enumerate(first[1:], start=1)}
    arc_faces: dict[int, tuple[int, int]] = {}
    for label, d in enumerate(first[1:], start=1):
        f, g = face_of[d], face_of[mate[d]]
        arc_faces[label] = (f, g) if f < g else (g, f)

    # Euler check runs per connected component so that split (disconnected)
    # diagrams still build and fail validation on the connected flag instead.
    # v crossings end 4v arc ends, so a component has e = 2v arcs.
    for members, f in _components(n, mate, [face.corners[0] for face in faces]):
        v, e = len(members), 2 * len(members)
        if v - e + f != 2:
            raise PlanarityError(f"component {members} has v-e+f = {v}-{e}+{f} != 2; "
                                 "rotation data is not a sphere diagram")
    corner_faces = tuple([face_of[d] for d in mate])  # leaving mate[a] sweeps corner a
    return Diagram(pd, arcs, tuple(faces), corner_faces, arc_faces)


def _components(n: int, mate: list[int], face_corners: list[End]) -> list[list]:
    """[crossings, face count] of each component, by least crossing.

    `face_corners` holds one corner of each face.
    """
    least = [0] * (n + 1)  # by crossing: the least crossing of its component
    groups: dict[int, list] = {}
    for c in range(1, n + 1):
        if not least[c]:  # depth-first search from a new component's least crossing
            least[c], stack = c, [c]
            while stack:
                x = stack.pop()
                for d in mate[4 * x - 4:4 * x]:
                    if not least[d // 4 + 1]:
                        least[d // 4 + 1] = c
                        stack.append(d // 4 + 1)
        groups.setdefault(least[c], [[], 0])[0].append(c)
    for c, _ in face_corners:
        groups[least[c]][1] += 1
    return list(groups.values())


# ----------------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------------


def validate(d: Diagram) -> ValidationReport:
    """Run the four diagram checks; every false flag carries a witness.

    Witnesses come in label order and crossing order, as `d` is built.
    """
    failures: list[str] = []

    alternating = True
    for label, ((_, s1), (_, s2)) in d.arcs.items():
        if s1 % 2 == s2 % 2:
            alternating = False
            kind = "under" if s1 % 2 == 0 else "over"
            failures.append(f"alternating: arc {label} has two {kind}-strand ends")

    reduced = True
    for a in range(4 * d.n):
        if a % 4 < 2 and d.corner_faces[a] == d.corner_faces[a + 2]:
            reduced = False
            c, k = divmod(a, 4)
            failures.append(
                f"reduced: crossing {c + 1} has opposite corners {k} and {k + 2} "
                f"on face {d.corner_faces[a]}"
            )

    # build_diagram found v - e + f = 2 on each component, with e = 2v, so
    # the components number (f - n) / 2.
    connected = len(d.faces) == d.n + 2
    if not connected:
        failures.append("connected: underlying 4-valent graph is disconnected")

    prime = True
    if not connected:
        prime = False
        failures.append("prime: diagram splits without removing any arcs")
    elif d.n >= 2:
        cut = _find_two_edge_cut(d)
        if cut is not None:
            prime = False
            failures.append(f"prime: arcs {cut[0]} and {cut[1]} form a 2-edge cut")

    return ValidationReport(alternating, reduced, prime, connected, tuple(failures))


def _find_two_edge_cut(d: Diagram) -> tuple[int, int] | None:
    # The least pair of arcs whose removal disconnects a connected diagram.
    # A 4-valent graph has no bridge, so a 2-edge cut is a minimal cut, and in
    # a plane graph that is a pair of arcs bordering the same two faces (their
    # dual edges form a 2-cycle).  Loop arcs never separate crossings, so they
    # are skipped outright.  Linear in the number of arcs, read in label order.
    by_faces: dict[tuple[int, int], list[int]] = {}
    for a, ((c1, _), (c2, _)) in d.arcs.items():
        if c1 != c2:
            by_faces.setdefault(d.arc_faces[a], []).append(a)
    return min(((arcs[0], arcs[1]) for arcs in by_faces.values() if len(arcs) > 1),
               default=None)
