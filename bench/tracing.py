"""Spans around altcurves' layer functions, installed from outside the package.

A span records (id, name, start, end, parent, item, thread) for one call.
Spans stay in memory; the run writes them out when it ends.  A layer's self
time is its span's duration minus the part of that interval its child spans
cover.  The `--jobs` pool runs report rows on other threads: their spans take
the enclosing ``cli.main`` span as parent, so two children of one span can
overlap in time.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import math
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

# Layer module -> wrapped functions.  Every module attribute bound to one of
# them is replaced, so callers that imported the name (``cli.validate``,
# ``dualgraph.validate``, ``enumerators.check_word``) are traced too.
# ``cli._report_row`` marks where one diagram of a report starts.
LAYERS = {
    "diagram": ("parse_pd", "build_diagram", "validate"),
    "dualgraph": ("build_dual",),
    "enumerators": (
        "enumerate_pppp", "enumerate_psps_pairs", "puncture_class_representatives",
        "saddle_pair_class_representatives", "enumerate_genus2", "enumerate_general",
    ),
    "words": ("check_word", "canonicalize", "check_configuration"),
    "euler": ("euler_crosscheck",),
    "tubing": ("configuration_tubing_count",),
    "bounds": ("compare",),
    "cli": ("main", "_report_row"),
}
REJECTED_PROPS = (4, 5, 6, 7, 8)
PSPS = "enumerators.enumerate_psps_pairs"

# Counts read off a call's arguments and result.
COUNTERS = {
    "enumerators.puncture_class_representatives":
        lambda args, out: {"words_in": len(args[0]), "classes_out": len(out)},
    PSPS:
        lambda args, out: {"pairs_out": out.counts["psps_pair"],
                           "rejected": sum(out.diagnostics.values())},
    "enumerators.enumerate_general":
        lambda args, out: {"visited": out.visited, "configs": out.counts["total"],
                           **{f"rejected.p{p}": out.diagnostics.get(p, 0)
                              for p in REJECTED_PROPS}},
}
ITEM_ARG = {"cli._report_row": lambda args: args[0]}


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    item: str | None
    thread: int
    counts: dict | None


class Tracer:
    """Installs the span wrappers and collects spans until uninstalled."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.item: str | None = None  # the harness's item for the current command
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "altcurves" or name.startswith("altcurves.")]
        for layer, names in LAYERS.items():
            module = sys.modules.get(f"altcurves.{layer}")
            for fname in names:
                fn = getattr(module, fname, None)
                if fn is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patches.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        local = self._local
        counter = COUNTERS.get(name)
        item_arg = ITEM_ARG.get(name)
        is_root = name == "cli.main"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent, item = stack[-1] if stack else (self._root, self.item)
            if item_arg:
                item = item_arg(args)
            if is_root and not stack:
                self._root = sid
            stack.append((sid, item))
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_root and not stack:
                    self._root = None
            counts = counter(args, out) if counter else None
            self.spans.append(Span(sid, name, start, end, parent, item,
                                   threading.get_ident(), counts))
            return out

        return traced

    def take(self) -> list[Span]:
        """Spans recorded since the last take."""
        spans, self.spans = self.spans, []
        return spans


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span], pass_s: float) -> dict[int, float]:
    """Self time of every span of one pass, after checking the span tree.

    Checks that children lie inside their parent, that children on one
    thread never overlap, and that the self times sum to the traced pass
    time.  Time two pool threads spend at once is counted once per thread.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            if s.parent not in by_id:
                raise AssertionError(f"span {s.name} has no parent span in its pass")
            children[s.parent].append(s)
    selfs, parallel = {}, 0.0
    for s in spans:
        kids = children.get(s.id, ())
        per_thread = defaultdict(list)
        for k in kids:
            if k.start < s.start or k.end > s.end:
                raise AssertionError(f"{k.name} lies outside its parent {s.name}")
            per_thread[k.thread].append((k.start, k.end))
        for intervals in per_thread.values():
            intervals.sort()
            if any(a[1] > b[0] for a, b in zip(intervals, intervals[1:])):
                raise AssertionError(f"children of {s.name} overlap on one thread")
        covered = _union_length((k.start, k.end) for k in kids)
        selfs[s.id] = (s.end - s.start) - covered
        parallel += sum(k.end - k.start for k in kids) - covered
    top = sum(s.end - s.start for s in spans if s.parent is None)
    if abs(sum(selfs.values()) - parallel - top) > 1e-9 * len(spans) + 1e-9:
        raise AssertionError("self times do not sum to the top-level spans")
    if not top <= pass_s <= top + 0.01 * pass_s + 0.005:
        raise AssertionError(f"top-level spans cover {top:.4f} s of a {pass_s:.4f} s pass")
    return selfs


def pass_profile(spans: list[Span], pass_s: float):
    """Per-name calls, self seconds and summed counts for one traced pass.

    Also returns the enumerate_pppp self time per item.  The check_word calls
    made inside enumerate_psps_pairs count as its ``words_built``.
    """
    selfs = self_times(spans, pass_s)
    by_id = {s.id: s for s in spans}
    prof: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    pppp_by_item: dict[str, float] = defaultdict(float)
    for s in spans:
        entry = prof[s.name]
        entry["calls"] += 1
        entry["self_s"] += selfs[s.id]
        for key, value in (s.counts or {}).items():
            entry[key] = entry.get(key, 0) + value
        if s.name == "enumerators.enumerate_pppp":
            pppp_by_item[s.item] += selfs[s.id]
        elif s.name == "words.check_word":
            p = s.parent
            while p is not None and by_id[p].name != PSPS:
                p = by_id[p].parent
            if p is not None:
                prof[PSPS]["words_built"] = prof[PSPS].get("words_built", 0) + 1
    return prof, pppp_by_item


def _slope(points) -> float:
    """Least-squares slope of log(y) against log(x); 0 below two distinct x."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def layer_metrics(profiles, n_of_item: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics from the traced passes' profiles.

    Times are medians over the passes; counts come from the first pass and
    must repeat exactly in every other pass.
    """
    profs = [prof for prof, _ in profiles]

    def time_of(name):
        return statistics.median(p[name]["self_s"] if name in p else 0.0 for p in profs)

    def count_of(name, key):
        values = {p[name].get(key, 0) if name in p else 0 for p in profs}
        if len(values) != 1:
            raise AssertionError(f"{name}.{key} differs between passes: {sorted(values)}")
        return values.pop()

    m: dict[str, float] = {}
    for layer, names in LAYERS.items():
        for fname in names:
            if layer != "cli":
                m[f"{layer}.{fname}.self_s"] = time_of(f"{layer}.{fname}")
    for name in ("diagram.validate", "words.check_word", "words.canonicalize",
                 "words.check_configuration", "euler.euler_crosscheck",
                 "tubing.configuration_tubing_count"):
        m[f"{name}.calls"] = count_of(name, "calls")
    m["cli.self_s"] = statistics.median(
        sum(e["self_s"] for name, e in p.items() if name.startswith("cli.")) for p in profs)

    pcr = "enumerators.puncture_class_representatives"
    m[f"{pcr}.words_in"] = count_of(pcr, "words_in")
    m[f"{pcr}.classes_out"] = count_of(pcr, "classes_out")

    items = sorted(set().union(*(by_item for _, by_item in profiles)))
    m["enumerators.enumerate_pppp.slope_n"] = _slope(
        (n_of_item[item], statistics.median(by_item.get(item, 0.0) for _, by_item in profiles))
        for item in items)

    words_built = m[f"{PSPS}.words_built"] = count_of(PSPS, "words_built")
    m[f"{PSPS}.rejected"] = count_of(PSPS, "rejected")
    m[f"{PSPS}.useful_ratio"] = count_of(PSPS, "pairs_out") / words_built if words_built else 0.0

    gen = "enumerators.enumerate_general"
    m[f"{gen}.visited"] = count_of(gen, "visited")
    m[f"{gen}.configs"] = count_of(gen, "configs")
    m[f"{gen}.useful_ratio"] = m[f"{gen}.configs"] / m[f"{gen}.visited"] if m[f"{gen}.visited"] else 0.0
    for prop in REJECTED_PROPS:
        m[f"{gen}.rejected.p{prop}"] = count_of(gen, f"rejected.p{prop}")
    return m


def write_spans(path, passes: list[list[Span]], header: dict) -> None:
    """One JSON header line, then one JSON list per span, gzip-compressed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as f:
        f.write(json.dumps({**header, "fields": ["pass", *Span._fields]}) + "\n")
        for k, spans in enumerate(passes):
            for s in spans:
                f.write(json.dumps([k, *s]) + "\n")
