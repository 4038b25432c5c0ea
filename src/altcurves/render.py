"""Self-contained SVG rendering of diagrams and curve overlays.

Crossings are laid out by pinning the largest face's crossings on a circle
and relaxing the rest to the barycenter of their neighbors.  Arcs are drawn
as quadratic curves, parallel arcs bowed apart, and each arc is clipped
short of its under-strand end so crossings read correctly.  Curve words are
overlaid as closed splines through arc midpoints and crossing centers.
"""

from __future__ import annotations

import html
import math

from .diagram import Diagram
from .words import Configuration, serialize_word

__all__ = ["render_diagram"]

_RADIUS = 180.0  # of the circle the largest face's crossings are pinned on
_PALETTE = ("#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d35400", "#16a085")

Point = tuple[float, float]


def _neighbor_multiset(d: Diagram) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {c: [] for c in d.crossing_ids}
    for (e1, e2) in d.arcs.values():
        if e1[0] != e2[0]:
            out[e1[0]].append(e2[0])
            out[e2[0]].append(e1[0])
    return out


def _layout_positions(d: Diagram) -> dict[int, Point]:
    """Circle-pinned barycentric layout of the crossings."""
    outer = max(d.faces, key=lambda f: (f.degree, -f.id))
    pinned: list[int] = []
    for (c, _slot) in outer.corners:
        if c not in pinned:
            pinned.append(c)

    pos: dict[int, Point] = {}
    for i, c in enumerate(pinned):
        ang = 2 * math.pi * i / len(pinned) - math.pi / 2
        pos[c] = (_RADIUS * math.cos(ang), _RADIUS * math.sin(ang))

    free = [c for c in d.crossing_ids if c not in pos]
    for c in free:
        pos[c] = (0.0, 0.0)
    nbrs = _neighbor_multiset(d)
    for _ in range(600):
        for c in free:
            around = nbrs[c]
            if around:
                pos[c] = (
                    sum(pos[o][0] for o in around) / len(around),
                    sum(pos[o][1] for o in around) / len(around),
                )
    return pos


def _blossom(p0: Point, p1: Point, p2: Point, s: float, t: float) -> Point:
    w0 = (1 - s) * (1 - t)
    w1 = s * (1 - t) + t * (1 - s)
    w2 = s * t
    return (
        w0 * p0[0] + w1 * p1[0] + w2 * p2[0],
        w0 * p0[1] + w1 * p1[1] + w2 * p2[1],
    )


def _sub_quadratic(p0, p1, p2, u: float, v: float):
    return (
        _blossom(p0, p1, p2, u, u),
        _blossom(p0, p1, p2, u, v),
        _blossom(p0, p1, p2, v, v),
    )


class _ArcCurve:
    __slots__ = ("p0", "ctrl", "p2", "trim_start", "trim_end", "loop_path")

    def __init__(self, p0, ctrl, p2, trim_start, trim_end, loop_path=None):
        self.p0, self.ctrl, self.p2 = p0, ctrl, p2
        self.trim_start, self.trim_end = trim_start, trim_end
        self.loop_path = loop_path

    def midpoint(self) -> Point:
        if self.loop_path is not None:
            return self.loop_path[1]
        return _blossom(self.p0, self.ctrl, self.p2, 0.5, 0.5)


def _arc_curves(d: Diagram, pos: dict[int, Point]) -> dict[int, _ArcCurve]:
    centroid = (
        sum(p[0] for p in pos.values()) / len(pos),
        sum(p[1] for p in pos.values()) / len(pos),
    )
    groups: dict[tuple[int, int], list[int]] = {}
    for a in sorted(d.arcs):
        (c1, _), (c2, _) = d.arcs[a]
        groups.setdefault((min(c1, c2), max(c1, c2)), []).append(a)

    curves: dict[int, _ArcCurve] = {}
    for (u, v), arcs in sorted(groups.items()):
        if u == v:
            px, py = pos[u]
            dx, dy = px - centroid[0], py - centroid[1]
            norm = math.hypot(dx, dy)
            dx, dy = (dx / norm, dy / norm) if norm > 1e-9 else (1.0, 0.0)
            for idx, a in enumerate(arcs):
                reach = 90.0 + 45.0 * idx
                spin = 0.65
                c1p = (px + reach * (dx * math.cos(spin) - dy * math.sin(spin)),
                       py + reach * (dx * math.sin(spin) + dy * math.cos(spin)))
                c2p = (px + reach * (dx * math.cos(-spin) - dy * math.sin(-spin)),
                       py + reach * (dx * math.sin(-spin) + dy * math.cos(-spin)))
                curves[a] = _ArcCurve((px, py), None, (px, py), False, False,
                                      loop_path=((px, py), c1p, c2p, (px, py)))
            continue
        p0, p2 = pos[u], pos[v]
        mid = ((p0[0] + p2[0]) / 2, (p0[1] + p2[1]) / 2)
        dx, dy = p2[0] - p0[0], p2[1] - p0[1]
        dist = math.hypot(dx, dy) or 1.0
        nx, ny = -dy / dist, dx / dist
        k = len(arcs)
        for idx, a in enumerate(arcs):
            off = (idx - (k - 1) / 2) * 0.9 * dist / k
            ctrl = (mid[0] + nx * off, mid[1] + ny * off)
            (e1c, e1s), (e2c, e2s) = d.arcs[a]
            start_slot = e1s if e1c == u else e2s
            end_slot = e2s if e2c == v else e1s
            curves[a] = _ArcCurve(
                p0, ctrl, p2,
                trim_start=start_slot in (0, 2),
                trim_end=end_slot in (0, 2),
            )
    return curves


def _fmt(x: float) -> str:
    out = f"{x:.1f}"
    return "0.0" if out == "-0.0" else out


def _quad_path(p0, p1, p2) -> str:
    return (f"M {_fmt(p0[0])} {_fmt(p0[1])} "
            f"Q {_fmt(p1[0])} {_fmt(p1[1])} {_fmt(p2[0])} {_fmt(p2[1])}")


def _closed_spline(points: list[Point]) -> str:
    n = len(points)
    parts = [f"M {_fmt(points[0][0])} {_fmt(points[0][1])}"]
    for i in range(n):
        p_prev = points[(i - 1) % n]
        p_a = points[i]
        p_b = points[(i + 1) % n]
        p_next = points[(i + 2) % n]
        c1 = (p_a[0] + (p_b[0] - p_prev[0]) / 6, p_a[1] + (p_b[1] - p_prev[1]) / 6)
        c2 = (p_b[0] - (p_next[0] - p_a[0]) / 6, p_b[1] - (p_next[1] - p_a[1]) / 6)
        parts.append(
            f"C {_fmt(c1[0])} {_fmt(c1[1])}, {_fmt(c2[0])} {_fmt(c2[1])}, "
            f"{_fmt(p_b[0])} {_fmt(p_b[1])}"
        )
    parts.append("Z")
    return " ".join(parts)


def _overlay_points(word, curves, pos) -> list[Point]:
    points: list[Point] = []
    for letter in word.letters:
        if letter.kind == "P":
            points.append(curves[letter.ref].midpoint())
        else:
            cx, cy = pos[letter.ref.crossing]
            dy = -7.0 if letter.ref.side == "A" else 7.0
            points.append((cx, cy + dy))
    return points


def render_diagram(d: Diagram, cfg: Configuration | None = None,
                   title: str | None = None) -> str:
    """Render the diagram, plus the configuration's plus-sphere curves if given."""
    pos = _layout_positions(d)
    curves = _arc_curves(d, pos)

    xs: list[float] = []
    ys: list[float] = []
    for c in curves.values():
        for p in ((c.p0, c.ctrl, c.p2) if c.loop_path is None else c.loop_path):
            if p is not None:
                xs.append(p[0])
                ys.append(p[1])
    margin = 60.0
    x0, y0 = min(xs) - margin, min(ys) - margin
    w, h = max(xs) - min(xs) + 2 * margin, max(ys) - min(ys) + 2 * margin

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(x0)} {_fmt(y0)} '
        f'{_fmt(w)} {_fmt(h)}">',
        f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(w)}" height="{_fmt(h)}" '
        f'fill="#fdfdf8"/>',
    ]
    if title:
        lines.append(
            f'<text x="{_fmt(x0 + 12)}" y="{_fmt(y0 + 22)}" font-family="sans-serif" '
            f'font-size="14" fill="#333">{html.escape(title, quote=False)}</text>'
        )

    for a in sorted(curves):
        c = curves[a]
        if c.loop_path is not None:
            q0, q1, q2, q3 = c.loop_path
            path = (f"M {_fmt(q0[0])} {_fmt(q0[1])} "
                    f"C {_fmt(q1[0])} {_fmt(q1[1])}, {_fmt(q2[0])} {_fmt(q2[1])}, "
                    f"{_fmt(q3[0])} {_fmt(q3[1])}")
        else:
            # clip roughly 14 px off the under end so the over strand reads on top
            span = (math.dist(c.p0, c.ctrl) + math.dist(c.ctrl, c.p2)) or 1.0
            gap = min(0.3, 16.0 / span)
            u = gap if c.trim_start else 0.0
            v = 1.0 - gap if c.trim_end else 1.0
            path = _quad_path(*_sub_quadratic(c.p0, c.ctrl, c.p2, u, v))
        lines.append(
            f'<path class="arc" d="{path}" fill="none" stroke="#1a1a1a" '
            f'stroke-width="3.4" stroke-linecap="round"/>'
        )
        mx, my = c.midpoint()
        lines.append(
            f'<text x="{_fmt(mx + 5)}" y="{_fmt(my - 5)}" font-family="sans-serif" '
            f'font-size="10" fill="#8a7b52">{a}</text>'
        )

    for c in sorted(pos):
        px, py = pos[c]
        lines.append(
            f'<text x="{_fmt(px + 7)}" y="{_fmt(py + 13)}" font-family="sans-serif" '
            f'font-size="11" fill="#aa5500">x{c}</text>'
        )

    if cfg is not None:
        for i, word in enumerate(cfg.words_plus):
            color = _PALETTE[i % len(_PALETTE)]
            spline = _closed_spline(_overlay_points(word, curves, pos))
            lines.append(
                f'<path class="curve" d="{spline}" fill="none" stroke="{color}" '
                f'stroke-width="2.4" opacity="0.78"/>'
            )
            lines.append(
                f'<text x="{_fmt(x0 + 12)}" y="{_fmt(y0 + h - 14 - 16 * i)}" '
                f'font-family="monospace" font-size="12" fill="{color}">'
                f'{serialize_word(word)}</text>'
            )

    lines.append("</svg>")
    return "\n".join(lines) + "\n"
