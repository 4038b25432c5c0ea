"""The front end against a reference: tuple-dart face tracing and validation.

The reference below traces faces on (crossing, slot) tuples through a dict,
validates through a union-find over the crossings and sorts every table it
reads, as the package once did.  It shares no code with `build_diagram`,
`validate` or `build_dual` and builds plain tuples, so the tests compare
the package's output with it field by field and in order: faces, arcs, arc
and corner faces, the validation report, the edge tables, the node order and
every step of the step table.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altcurves import diagram
from altcurves.diagram import build_diagram, parse_pd, validate
from altcurves.dualgraph import build_dual
from altcurves.errors import PlanarityError, PreconditionError

from conftest import (INVALID_NAMES, VALID_NAMES, connected_sum_pd, fixture_text,
                      k4_network_pd, relabel, two_bridge_pd)


# ----------------------------------------------------------------------------
# the reference
# ----------------------------------------------------------------------------


def ref_build_diagram(pd):
    """(arcs, faces, corner_map, arc_faces), faces as (id, corners, arcs)."""
    n = pd.n
    occurrences = {}
    for c, row in enumerate(pd.crossings, start=1):
        for slot, label in enumerate(row):
            occurrences.setdefault(label, []).append((c, slot))
    arcs = {label: (ends[0], ends[1]) for label, ends in sorted(occurrences.items())}

    def label_of(end):
        return pd.crossings[end[0] - 1][end[1]]

    def mate(end):
        first, second = arcs[label_of(end)]
        return second if end == first else first

    face_of_departure = {}
    faces = []
    for c in range(1, n + 1):
        for slot in range(4):
            start = (c, slot)
            if start in face_of_departure:
                continue
            fid = len(faces)
            corners, walked = [], []
            d = start
            while True:
                face_of_departure[d] = fid
                arrival = mate(d)
                walked.append(label_of(d))
                corners.append(arrival)
                d = (arrival[0], (arrival[1] + 1) % 4)
                if d == start:
                    break
            faces.append((fid, tuple(corners), tuple(walked)))

    corner_map = {corner: fid for fid, corners, _ in faces for corner in corners}
    arc_faces = {
        label: tuple(sorted((face_of_departure[e1], face_of_departure[e2])))
        for label, (e1, e2) in arcs.items()
    }
    for members in ref_components(n, arcs):
        crossings = set(members)
        v = len(crossings)
        e = sum(1 for (e1, _) in arcs.values() if e1[0] in crossings)
        f = sum(1 for _, corners, _ in faces if corners[0][0] in crossings)
        if v - e + f != 2:
            raise PlanarityError(
                f"component {sorted(crossings)} has v-e+f = {v}-{e}+{f} != 2; "
                "rotation data is not a sphere diagram"
            )
    return arcs, faces, corner_map, arc_faces


def ref_components(n, arcs):
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (e1, e2) in arcs.values():
        parent[find(e1[0])] = find(e2[0])
    groups = {}
    for c in range(1, n + 1):
        groups.setdefault(find(c), []).append(c)
    return list(groups.values())


def ref_validate(n, ref):
    """(alternating, reduced, prime, connected, failures)."""
    arcs, _, corner_map, arc_faces = ref
    failures = []
    alternating = True
    for label, (e1, e2) in sorted(arcs.items()):
        under = (e1[1] % 2 == 0, e2[1] % 2 == 0)
        if under[0] == under[1]:
            alternating = False
            kind = "under" if under[0] else "over"
            failures.append(f"alternating: arc {label} has two {kind}-strand ends")
    reduced = True
    for c in range(1, n + 1):
        for k in (0, 1):
            if corner_map[(c, k)] == corner_map[(c, k + 2)]:
                reduced = False
                failures.append(f"reduced: crossing {c} has opposite corners {k} and "
                                f"{k + 2} on face {corner_map[(c, k)]}")
    connected = len(ref_components(n, arcs)) == 1
    if not connected:
        failures.append("connected: underlying 4-valent graph is disconnected")
    prime = True
    if not connected:
        prime = False
        failures.append("prime: diagram splits without removing any arcs")
    elif n >= 2:
        by_faces = {}
        for a, (e1, e2) in sorted(arcs.items()):
            if e1[0] != e2[0]:
                by_faces.setdefault(arc_faces[a], []).append(a)
        cut = min(((a[0], a[1]) for a in by_faces.values() if len(a) > 1), default=None)
        if cut is not None:
            prime = False
            failures.append(f"prime: arcs {cut[0]} and {cut[1]} form a 2-edge cut")
    return alternating, reduced, prime, connected, tuple(failures)


def ref_build_dual(n, ref):
    """(nodes, p_edges, s_edges, steps); a step is (kind, ref, letter, dest,
    touches, bit, sibling), letters and channels plain tuples."""
    arcs, faces, corner_map, arc_faces = ref
    p_edges = dict(sorted(arc_faces.items()))
    s_edges = {}
    for c in range(1, n + 1):
        for side, (k1, k2) in (("A", (0, 2)), ("B", (1, 3))):
            s_edges[(c, side)] = tuple(sorted((corner_map[(c, k1)], corner_map[(c, k2)])))
    nodes = tuple(fid for fid, _, _ in faces)
    steps = {f: [] for f in nodes}

    def add(kind, ref, faces, touches, bit, sibling):
        f1, f2 = faces
        steps[f1].append((kind, ref, (kind, ref), f2, touches, bit, sibling))
        steps[f2].append((kind, ref, (kind, ref), f1, touches, bit, sibling))

    for arc, faces in p_edges.items():
        (c1, _), (c2, _) = arcs[arc]
        add("P", arc, faces, frozenset((c1, c2)), 0, 0)
    for i, (ch, faces) in enumerate(s_edges.items()):
        add("S", ch, faces, frozenset((ch[0],)), 1 << i, 1 << (i ^ 1))
    return nodes, p_edges, s_edges, steps


# ----------------------------------------------------------------------------
# the comparison
# ----------------------------------------------------------------------------


def assert_same_front_end(text):
    pd = parse_pd(text)
    try:
        ref = ref_build_diagram(pd)
    except PlanarityError as e:
        with pytest.raises(PlanarityError) as err:
            build_diagram(pd)
        assert str(err.value) == str(e)
        return
    d = build_diagram(pd)
    arcs, faces, corner_map, arc_faces = ref
    assert [(f.id, f.corners, f.arcs) for f in d.faces] == faces
    assert list(d.arcs.items()) == list(arcs.items())
    assert list(d.arc_faces.items()) == list(arc_faces.items())
    assert d.corner_faces == tuple(corner_map[(c, k)] for c in d.crossing_ids for k in range(4))

    report = validate(d)
    want = ref_validate(d.n, ref)
    assert (report.alternating, report.reduced, report.prime, report.connected,
            report.failures) == want
    if not report.ok:
        with pytest.raises(PreconditionError):
            build_dual(d)
        return
    g = build_dual(d)
    nodes, p_edges, s_edges, steps = ref_build_dual(d.n, ref)
    assert g.nodes == nodes
    assert list(g.p_edges.items()) == list(p_edges.items())
    assert list(g.s_edges.items()) == list(s_edges.items())
    assert list(g.steps) == list(steps)
    for f, table in g.steps.items():
        assert [(s.kind, s.ref, s.letter, s.dest, s.touches, s.bit, s.sibling)
                for s in table] == steps[f]


@pytest.mark.parametrize("name", VALID_NAMES + INVALID_NAMES)
def test_fixtures_match_reference(name):
    assert_same_front_end(fixture_text(name))


def split_pd(*texts: str) -> str:
    """The disjoint union of PD texts, each one's labels shifted past the last's."""
    rows, shift = [], 0
    for text in texts:
        part = [[int(x) for x in line.split()[1:]] for line in text.splitlines()
                if line.startswith("X")]
        rows += [[x + shift for x in row] for row in part]
        shift = max(x for row in rows for x in row)
    return "".join("X " + " ".join(map(str, row)) + "\n" for row in rows)


def twisted(text: str, rng: random.Random, rotate: bool) -> str:
    """Turn some crossings' tuples: by a rotation (the diagram stays planar
    and changes which strand is over) or by any permutation (which may take
    it off the sphere)."""
    lines = []
    for line in text.splitlines():
        row = line.split()[1:]
        if rng.random() < 0.3:
            if rotate:
                k = rng.randrange(1, 4)
                row = row[k:] + row[:k]
            else:
                rng.shuffle(row)
        lines.append("X " + " ".join(row) + "\n")
    return "".join(lines)


terms = st.lists(st.integers(1, 4), min_size=1, max_size=5)


@settings(max_examples=120, deadline=None)
@given(family=st.sampled_from(["two-bridge", "sum", "split", "k4"]),
       parts=st.lists(terms, min_size=6, max_size=6),
       twist=st.sampled_from([None, "rotate", "permute"]),
       seed=st.integers(0, 2**32 - 1))
def test_generated_diagrams_match_reference(family, parts, twist, seed):
    rng = random.Random(seed)
    text = {"two-bridge": lambda: two_bridge_pd(parts[0]),
            "sum": lambda: connected_sum_pd(*parts[:3]),
            "split": lambda: split_pd(two_bridge_pd(parts[0]), two_bridge_pd(parts[1])),
            "k4": lambda: k4_network_pd(parts)}[family]()
    if twist:
        text = twisted(text, rng, twist == "rotate")
    assert_same_front_end(relabel(text, rng))


# ----------------------------------------------------------------------------
# what the front end promises beyond the reference
# ----------------------------------------------------------------------------


def test_one_component_search_per_dual_graph(monkeypatch):
    calls = []
    search = diagram._components
    monkeypatch.setattr(diagram, "_components", lambda *a: calls.append(1) or search(*a))
    build_dual(build_diagram(parse_pd(fixture_text("k7_4"))))
    assert len(calls) == 1


@pytest.mark.parametrize("seed", range(5))
def test_tables_come_in_label_order_on_relabelled_diagrams(seed):
    rng = random.Random(seed)
    d = build_diagram(parse_pd(relabel(two_bridge_pd([3, 1, 2]), rng)))
    assert list(d.arcs) == sorted(d.arcs)
    assert list(d.arc_faces) == sorted(d.arc_faces)
    assert list(build_dual(d).p_edges) == sorted(build_dual(d).p_edges)
    # the non-alternating trefoil of test_diagram, relabelled: its witnesses
    # still come in label order
    text = "X 4 2 5 1\nX 3 6 4 1\nX 5 2 6 3\n"
    failures = validate(build_diagram(parse_pd(relabel(text, rng)))).failures
    labels = [int(f.split()[2]) for f in failures if f.startswith("alternating")]
    assert len(labels) == 4 and labels == sorted(labels)
