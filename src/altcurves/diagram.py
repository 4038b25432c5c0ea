"""Planar diagram codes for alternating link diagrams.

A diagram with n crossings is given by a PD code: one 4-tuple of arc labels
per crossing, listed counterclockwise starting from the incoming under-strand.
Slots 0 and 2 of a tuple therefore carry the under-strand, slots 1 and 3 the
over-strand, and every arc label names an edge of the underlying 4-valent
plane multigraph (crossings are the vertices).

Faces are recovered purely combinatorially from the rotation system: a dart is
an arc end (crossing, slot); walking "traverse the arc, then turn to the next
slot counterclockwise" partitions the darts into face cycles.  For a sphere
diagram the counts obey v - e + f = 2 on every connected component.

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
    """A parsed PD code: one counterclockwise 4-tuple per crossing."""

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

    corner_map sends every (crossing, corner 0..3) to the face containing that
    corner; arc_faces sends an arc to the unordered pair of faces it borders.
    """

    pd: PdCode
    arcs: dict[int, tuple[End, End]]
    faces: tuple[Face, ...]
    corner_map: dict[End, int]
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
    chunks: list[str] = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        chunks.extend(p.strip() for p in line.split("/") if p.strip())
    rows = []
    for chunk in chunks:
        parts = chunk.split()
        if parts[0].upper() != "X" or len(parts) != 5:
            raise PdSyntaxError(f"expected 'X a b c d', got {chunk!r}")
        try:
            labels = tuple(int(p) for p in parts[1:])
        except ValueError as exc:
            raise PdSyntaxError(f"non-integer arc label in {chunk!r}") from exc
        if any(x <= 0 for x in labels):
            raise PdSyntaxError(f"arc labels must be positive in {chunk!r}")
        rows.append(labels)
    return rows


def _normalize(rows: list[tuple[int, int, int, int]]) -> PdCode:
    counts: dict[int, int] = {}
    for row in rows:
        for label in row:
            counts[label] = counts.get(label, 0) + 1
    bad = sorted(label for label, k in counts.items() if k != 2)
    if bad:
        raise PdStructureError(
            f"arc labels must occur exactly twice; offending labels: {bad}"
        )
    rank = {label: i + 1 for i, label in enumerate(sorted(counts))}
    return PdCode(tuple(tuple(rank[x] for x in row) for row in rows))


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
    occurrences: dict[int, list[End]] = {}
    for c, row in enumerate(pd.crossings, start=1):
        for slot, label in enumerate(row):
            occurrences.setdefault(label, []).append((c, slot))
    arcs = {label: (ends[0], ends[1]) for label, ends in sorted(occurrences.items())}

    def label_of(end: End) -> int:
        return pd.crossings[end[0] - 1][end[1]]

    def mate(end: End) -> End:
        first, second = arcs[label_of(end)]
        return second if end == first else first

    # Orbit of "traverse the arc, then turn one slot counterclockwise",
    # seeded in deterministic end order so face ids are reproducible.
    face_of_departure: dict[End, int] = {}
    faces: list[Face] = []
    for c in range(1, n + 1):
        for slot in range(4):
            start = (c, slot)
            if start in face_of_departure:
                continue
            fid = len(faces)
            corners: list[End] = []
            walked: list[int] = []
            d = start
            while True:
                face_of_departure[d] = fid
                arrival = mate(d)
                walked.append(label_of(d))
                corners.append(arrival)
                d = (arrival[0], (arrival[1] + 1) % 4)
                if d == start:
                    break
            faces.append(Face(fid, tuple(corners), tuple(walked)))

    corner_map = {corner: f.id for f in faces for corner in f.corners}
    arc_faces = {
        label: tuple(sorted((face_of_departure[e1], face_of_departure[e2])))
        for label, (e1, e2) in arcs.items()
    }

    _check_spherical(pd, arcs, faces)
    return Diagram(pd, arcs, tuple(faces), corner_map, arc_faces)


def _components(n: int, arcs) -> list[list[int]]:
    """The crossings 1..n grouped by connected component, each in order."""
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (e1, e2) in arcs.values():
        parent[find(e1[0])] = find(e2[0])

    groups: dict[int, list[int]] = {}
    for c in range(1, n + 1):
        groups.setdefault(find(c), []).append(c)
    return list(groups.values())


def _check_spherical(pd: PdCode, arcs, faces) -> None:
    # Euler check runs per connected component so that split (disconnected)
    # diagrams still build and fail validation on the connected flag instead.
    for members in _components(pd.n, arcs):
        crossings = set(members)
        v = len(crossings)
        e = sum(1 for (e1, _) in arcs.values() if e1[0] in crossings)
        f = sum(1 for face in faces if face.corners[0][0] in crossings)
        if v - e + f != 2:
            raise PlanarityError(
                f"component {sorted(crossings)} has v-e+f = {v}-{e}+{f} != 2; "
                "rotation data is not a sphere diagram"
            )


# ----------------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------------


def validate(d: Diagram) -> ValidationReport:
    """Run the four diagram checks; every false flag carries a witness."""
    failures: list[str] = []

    alternating = True
    for label, (e1, e2) in sorted(d.arcs.items()):
        under = (e1[1] % 2 == 0, e2[1] % 2 == 0)
        if under[0] == under[1]:
            alternating = False
            kind = "under" if under[0] else "over"
            failures.append(f"alternating: arc {label} has two {kind}-strand ends")

    reduced = True
    for c in d.crossing_ids:
        for k in (0, 1):
            if d.corner_map[(c, k)] == d.corner_map[(c, k + 2)]:
                reduced = False
                failures.append(
                    f"reduced: crossing {c} has opposite corners {k} and {k + 2} "
                    f"on face {d.corner_map[(c, k)]}"
                )

    connected = len(_components(d.n, d.arcs)) == 1
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
    # are skipped outright.  Linear in the number of arcs.
    by_faces: dict[tuple[int, int], list[int]] = {}
    for a, (e1, e2) in sorted(d.arcs.items()):
        if e1[0] != e2[0]:
            by_faces.setdefault(d.arc_faces[a], []).append(a)
    return min(((arcs[0], arcs[1]) for arcs in by_faces.values() if len(arcs) > 1),
               default=None)

