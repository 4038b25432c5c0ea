"""SVG rendering: structure, determinism, overlays."""

import xml.etree.ElementTree as ET

from altcurves.enumerators import enumerate_genus2
from altcurves.render import render_diagram

from conftest import load_diagram, load_dual

SVG = "{http://www.w3.org/2000/svg}"


def _render_tree(name, cfg=None):
    svg = render_diagram(load_diagram(name), cfg, title=name)
    return svg, ET.fromstring(svg)


def _paths_with_class(tree, cls):
    return [el for el in tree.iter(f"{SVG}path") if el.get("class") == cls]


def test_trefoil_svg_parses():
    svg, tree = _render_tree("k3_1")
    assert tree.tag == f"{SVG}svg"
    assert len(_paths_with_class(tree, "arc")) == 6
    texts = [el.text for el in tree.iter(f"{SVG}text")]
    assert "x1" in texts and "x2" in texts and "x3" in texts
    for arc in range(1, 7):
        assert str(arc) in texts


def test_every_fixture_renders():
    for name in ("hopf", "k5_2", "k7_7", "borromean"):
        _, tree = _render_tree(name)
        d = load_diagram(name)
        assert len(_paths_with_class(tree, "arc")) == 2 * d.n


def test_overlay_curves():
    cfgs = enumerate_genus2(load_dual("borromean")).configurations
    pair = next(c for c in cfgs if len(c.words_plus) == 2)
    svg, tree = _render_tree("borromean", pair)
    assert len(_paths_with_class(tree, "curve")) == 2
    legend = [el.text for el in tree.iter(f"{SVG}text") if el.text and " S" in el.text]
    assert len(legend) == 2


def test_title_is_escaped():
    # a title comes from a file name, which may hold XML's special characters
    title = "R&D <k3_1>"
    svg = render_diagram(load_diagram("k3_1"), title=title)
    texts = [el.text for el in ET.fromstring(svg).iter(f"{SVG}text")]
    assert title in texts


def test_render_is_deterministic():
    a, _ = _render_tree("k6_2")
    b, _ = _render_tree("k6_2")
    assert a == b


def test_kinked_diagram_with_loop_arc_renders():
    # a reduced-check failure still draws; one arc loops at a single crossing
    svg, tree = _render_tree("kinked_trefoil")
    d = load_diagram("kinked_trefoil")
    assert len(_paths_with_class(tree, "arc")) == 2 * d.n
