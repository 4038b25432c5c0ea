"""Parsing, face tracing, and diagram validation."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altcurves.diagram import (
    _find_two_edge_cut,
    build_diagram,
    parse_pd,
    validate,
)
from altcurves.errors import PdStructureError, PdSyntaxError, PlanarityError

from conftest import (
    INVALID_NAMES,
    VALID_NAMES,
    connected_sum_pd,
    fixture_text,
    load_diagram,
    relabel,
    two_bridge_pd,
)

TREFOIL = "X 1 4 2 5 / X 3 6 4 1 / X 5 2 6 3"


def test_parse_text_slash_and_newline_forms():
    one_line = parse_pd(TREFOIL)
    multi_line = parse_pd(TREFOIL.replace(" / ", "\n"))
    assert one_line == multi_line
    assert one_line.n == 3


def test_parse_strips_comments():
    text = "# a trefoil\nX 1 4 2 5\nX 3 6 4 1  # middle\nX 5 2 6 3\n"
    assert parse_pd(text) == parse_pd(TREFOIL)


def test_parse_json_form():
    blob = json.dumps({"crossings": [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]})
    assert parse_pd(blob) == parse_pd(TREFOIL)


def test_parse_normalizes_sparse_labels():
    sparse = "X 10 40 20 50 / X 30 60 40 10 / X 50 20 60 30"
    assert parse_pd(sparse) == parse_pd(TREFOIL)


def test_parse_rejects_bad_grammar():
    with pytest.raises(PdSyntaxError):
        parse_pd("")
    with pytest.raises(PdSyntaxError):
        parse_pd("X 1 2 3")
    with pytest.raises(PdSyntaxError):
        parse_pd("Y 1 2 3 4")
    with pytest.raises(PdSyntaxError):
        parse_pd("X 1 2 3 four")
    for blob in ('{"no_crossings": []}', '{"crossings": 5}', '{"crossings": null}',
                 '{"crossings": {"X": [1, 2, 3, 4]}}',
                 '{"crossings": [[true, 2, 3, 4], [1, 2, 3, 4]]}',
                 '{"crossings": [[1.0, 2, 3, 4]]}'):
        with pytest.raises(PdSyntaxError):
            parse_pd(blob)


def test_parse_rejects_bad_arc_multiplicity():
    with pytest.raises(PdStructureError):
        parse_pd("X 1 2 3 4 / X 1 2 3 5")  # 4 and 5 occur once
    with pytest.raises(PdStructureError):
        parse_pd("X 1 1 1 2 / X 2 3 3 4 / X 4 5 5 6 / X 6 7 7 8")


def test_build_rejects_rotation_data_off_the_sphere():
    # one crossing whose two arcs are both loops, and two crossings joined
    # by four arcs in the same rotation at each end: neither traces a sphere
    for text, component in (("X 1 2 1 2", r"\[1\]"), ("X 1 2 3 4 / X 1 2 3 4", r"\[1, 2\]")):
        with pytest.raises(PlanarityError, match=f"component {component} has"):
            build_diagram(parse_pd(text))
    # a trefoil beside such a crossing: the check names the bad component only
    with pytest.raises(PlanarityError) as err:
        build_diagram(parse_pd(TREFOIL + " / X 7 8 7 8"))
    assert str(err.value).startswith("component [4] has")


def test_trefoil_faces():
    d = build_diagram(parse_pd(TREFOIL))
    assert d.n == 3
    assert len(d.faces) == 5
    assert d.face_degrees() == (2, 2, 2, 3, 3)


def test_face_corner_accounting():
    for name in VALID_NAMES:
        d = load_diagram(name)
        corners = sum(f.degree for f in d.faces)
        assert corners == 4 * d.n
        arcs_on_faces = sum(len(f.arcs) for f in d.faces)
        assert arcs_on_faces == 2 * len(d.arcs)


def test_valid_corpus_passes_validation():
    for name in VALID_NAMES:
        d = load_diagram(name)
        report = validate(d)
        assert report.ok, f"{name}: {report.failures}"
        assert len(d.faces) == d.n + 2


def test_kinked_fixture_fails_reduced_with_witness():
    d = load_diagram("kinked_trefoil")
    report = validate(d)
    assert report.alternating
    assert not report.reduced
    assert not report.ok
    assert any("reduced: crossing" in f for f in report.failures)


def test_composite_fixture_fails_prime_only():
    d = load_diagram("granny")
    report = validate(d)
    assert report.alternating
    assert report.reduced
    assert report.connected
    assert not report.prime
    assert any("2-edge cut" in f for f in report.failures)


def test_split_fixture_fails_connected():
    d = load_diagram("split_two_trefoils")
    report = validate(d)
    assert not report.connected
    assert not report.prime
    assert any("disconnected" in f for f in report.failures)


def test_non_alternating_detected():
    # swap one crossing's over/under by rotating its tuple one slot
    rows = [line.split()[1:] for line in TREFOIL.split(" / ")]
    rows[0] = rows[0][1:] + rows[0][:1]
    text = "\n".join("X " + " ".join(r) for r in rows)
    report = validate(build_diagram(parse_pd(text)))
    assert not report.alternating
    assert any("alternating: arc" in f for f in report.failures)


def test_fixture_headers_are_comments():
    for name in VALID_NAMES + INVALID_NAMES:
        text = fixture_text(name)
        assert text.startswith("#")
        parse_pd(text)


def _connected_without(d, removed):
    # depth-first search over the crossings, skipping the removed arcs
    adj = {c: [] for c in d.crossing_ids}
    for label, (e1, e2) in d.arcs.items():
        if label in removed:
            continue
        adj[e1[0]].append(e2[0])
        adj[e2[0]].append(e1[0])
    stack = [1]
    seen = {1}
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == d.n


def _two_edge_cut_by_scan(d):
    # oracle: the O(e^3) scan that removes every pair of non-loop arcs in
    # label order and reruns the connectivity test
    labels = [a for a, (e1, e2) in sorted(d.arcs.items()) if e1[0] != e2[0]]
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            if not _connected_without(d, frozenset((a, b))):
                return (a, b)
    return None


def _relabelled(text: str, seed: int):
    return build_diagram(parse_pd(relabel(text, random.Random(seed))))


@pytest.mark.parametrize("name", ["borromean", "granny", "kinked_trefoil"])
def test_two_edge_cut_matches_scan_on_fixtures(name):
    diagrams = [load_diagram(name)]
    diagrams += [_relabelled(fixture_text(name), seed) for seed in range(20)]
    for d in diagrams:
        assert _find_two_edge_cut(d) == _two_edge_cut_by_scan(d)


terms = st.lists(st.integers(1, 4), min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(terms=terms, seed=st.integers(0, 2**32 - 1))
def test_two_edge_cut_matches_scan_on_two_bridge(terms, seed):
    d = _relabelled(two_bridge_pd(terms), seed)
    assert _find_two_edge_cut(d) == _two_edge_cut_by_scan(d)


@settings(max_examples=40, deadline=None)
@given(summands=st.lists(terms, min_size=2, max_size=3), seed=st.integers(0, 2**32 - 1))
def test_two_edge_cut_matches_scan_on_connected_sums(summands, seed):
    d = _relabelled(connected_sum_pd(*summands), seed)
    cut = _find_two_edge_cut(d)
    assert cut is not None
    assert cut == _two_edge_cut_by_scan(d)
