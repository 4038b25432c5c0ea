"""Curve-configuration enumerators over the augmented dual graph.

Three layers, kept deliberately separate:

* specialized genus-2 enumerators for the two word families a genus-2 splitting
  allows: a single all-puncture 4-letter curve (PPPP) or a pair of
  puncture-saddle curves (PSPS) through opposite channels of two crossings;
* a general enumerator for the connected genus-g configurations: closed
  even words subject to the word constraints, assembled exactly as the
  genus-g identity below allows, balanced and one connected surface, under
  a cap on the partial walks and selections it visits (the guard,
  `DEFAULT_GUARD_CAP`);
* a brute-force oracle that walks every closed path up to a given length and
  filters with the public checks only; the tests quotient its families pair
  by pair and compare them with the specialized results.

The genus-2 enumerators read only the graph's edges, `p_edges` and
`s_edges`, so a genus-2 row builds no step table; the general search and
the oracle walk the steps (`AugmentedDualGraph.steps`, built when first
read).  Only the general search reads follow lists, the steps that may
follow each step, built once per search; `_adjacent_fault` alone decides
properties 5 and 6 for them.  No enumerator but the oracle calls
`check_word`: each builds only clean words.

* PPPP words are the 4-cycles of the face graph, whose nodes are the faces
  and whose edges are the arcs (`p_edges`).  That graph is simple: no arc is
  a loop, as the diagram is reduced, and no two arcs join the same two
  faces, as they would be the 2-edge cut `validate` rejects for a prime
  diagram.  So a closed walk f0, f1, f2, f3 over four arcs repeats an arc
  back to back exactly when f(i+2) = f(i) for some i: it passes property 5
  exactly when its four faces differ, that is when it runs round a 4-cycle.
  No such word is a power (11): in a power u^2 the arc x0 recurs as x2, so
  it joins f2 and f3 as well as f0 and f1, and f2 = f0.  With no saddle, 2,
  6 and 7 hold, and 8 and 9 hold by length.  A 4-cycle has four distinct
  arcs, so it is one word, and its canonical form starts at its least arc,
  walked towards the lesser of that arc's two neighbours, its face trace
  starting at the face the arc leaves.  Three arcs of a 4-cycle are a path,
  and one arc at most joins its two ends, so no two words share three arcs:
  "three punctures determine the fourth" needs no quotient.  The count is
  Chiba and Nishizeki's (SIAM J. Comput. 14 (1985)): rank the faces by
  degree, highest first, ties by id; from each face u, index each path u-v-w
  whose v and w rank after u by w.  A 4-cycle is found once, at its
  first-ranked face u, as two of the middles v indexed under its opposite
  face w, so the count is the sum of C(k, 2) over the k middles of each pair
  (u, w).  Each edge uv is scanned from its earlier-ranked end u, at the
  cost of deg(v) <= deg(u) steps, so the wedge steps number at most the sum
  of min(deg) over the edges, which is at most 2am for a graph of arboricity
  a with m edges (ibid.).  The face graph is planar, so a <= 3, and it has
  2n edges: at most 12n steps, linear in n.
* PSPS walks are two halves, a puncture then a saddle, from the start face
  to a middle face and back; the two faces have opposite checkerboard
  colours, so they differ.  The halves of each face pair (f, mid) are
  indexed once by their arcs, each with its end crossings and the channels
  from its far face to mid, so the closed walks number the sum of
  count[f, mid] * count[mid, f] over face pairs, none of them built.  Clean
  halves, whose channel meets neither end of the arc (`_clean`), are built
  only for face pairs with halves both ways: first the direction with fewer
  halves, then the other only when the first has a clean one.  A join tests
  its two other junctions for property 6 and stands for the walk from f and
  its rotation from mid.  Property 6 is tallied as the closed walks less the
  clean ones, each failing walk once, as `check_word` would.  Nothing else
  can fail: two punctures in two blocks (7, 8), length four (9), and saddles
  joining faces of opposite checkerboard colours, so no channel twice (2)
  and no power (11).  A clean word is kept as its canonical
  (letters, faces), which orders as its `CurveWord` does.  Each channel set
  C keeps its least word, and each unordered {C, flip(C)} across two
  crossings gives one pair.  Pairs share a channel set exactly when they
  share {C, flip(C)}, so this is the least pair of its class under "two
  saddles determine the pair".  It is balanced (4) and has no adjacent
  saddles (3) by construction, so it skips `check_configuration`.  On a
  (2,n) torus knot every face pair's smaller side has at most two halves and
  no clean one, so the PSPS work is linear in n.
* The general search is driven by the genus-g identity.  With w plus
  words, s plus saddles and p plus punctures, chi = 2w - s/2
  (`euler_crosscheck`), so chi - p = 2 - 2g says that the costs
  p_w + length_w - 4 = 2p_w + s_w - 4 of the words sum to exactly 4g - 4.
  A clean word has at least 2 punctures (8) and 4 letters (9), so it costs
  at least 2, and at least its saddle count.  Hence every partial word
  keeps p + t <= 2g (the walk cap), t the crossings whose saddles it
  passes.  A word uses a channel at most once (2), so if u of its t
  crossings are passed through one channel only, s = 2t - u.  Balance (4)
  needs one more saddle at each of those u crossings, in the other words,
  which so cost at least u together: 2p + s + u = 2(p + t) <= 4g.  A
  puncture adds 1 to p + t and a saddle 1 or 0, so it never falls as a
  walk grows, and a partial word past the cap extends to no usable word.
  As s <= 2t, the cap keeps p + length <= 4g too.  A walk skips moves
  whose letter is below its first letter, and its first step leaves the
  lesser face of its letter (the start rule).  No edge is a loop, so a
  letter's faces differ, and at each occurrence of a word's least letter
  one of the word's two directions crosses it from its lesser face.  The
  cap, the mask, the follow lists and the closing tests below read a word
  the same either way, so each word closes at least once, and at most
  once per occurrence of its least letter; the pool is the set of the kept
  words' canonical forms, sorted.  A selection of pool words, by cost and
  with repetition, grows only while its total is at most 4g - 4, and only
  a total of exactly 4g - 4 is checked, for balance (4) and then for one
  component (10).  Components come from a union-find joining words that
  share a saddle crossing: a word's plus and minus disks glue into one
  piece, and pieces meet only at saddle vertices, at crossings.  Where a
  crossing's saddles stack one high, its one vertex joins every word
  through it; higher stacks are joined whole, as the words do not record
  which passages share a saddle.  A kept configuration with chi - p other
  than 2 - 2g is a defect (`EulerInconsistencyError`).  A partial walk is
  the tuple of its steps, with its p + t and its mask.  The walk prunes
  property 2 with the mask of used channels, and 5 and 6 through the
  follow lists; a saddle adds to t unless the mask holds its crossing's
  other channel (`Step.sibling`).  A walk closes only at an even length of
  at least 4 (9); there the closing pair is tested for 5 and 6, property 8
  is read from the punctures of its steps' P/S skeleton, 7 from the
  skeleton (saddles present, at most one cyclic P-to-S block start) and 11
  from the letters of an all-puncture walk of at least 8 letters.  No
  other walk is a power: a power with a saddle uses its channel twice (2),
  and in a walk that survives the follow lists a period of 1, of 2 or an
  odd one would put one arc twice in a row, as no two arcs join the same
  two faces.  Each property a closed walk breaks is tallied once, as
  `check_word` tallies it, as is each selection the assembly rejects: the
  tallies, like `visited`, count the walks made, not distinct words.  Walks
  and selections keep their state on explicit stacks, so no genus meets
  the recursion limit.

A configuration stores its plus sphere only (`Configuration`).  Each word
is canonical when it is generated: PPPP words are built so; the PSPS walker
and the general search keep each clean walk as its canonical
(letters, faces) (`canonical_form`) in a set, and build one `CurveWord`
per distinct word; the oracle canonicalizes each clean walk.
`make_configuration` only sorts them.  The genus-2 enumerators count their
rows (a PPPP word's pair of middles; a PSPS pair's canonical tuples) and
build them into words and configurations only when those are first read
(`EnumerationResult`), so a `report` or `bounds` row, which reads only the
counts, builds no word and no configuration.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from functools import cached_property
from itertools import combinations
from math import comb

from .dualgraph import AugmentedDualGraph, Letter, SaddleChannel, Step
from .errors import EulerInconsistencyError, GuardAbort
from .euler import euler_crosscheck
from .words import (
    Configuration,
    CurveWord,
    canonical_form,
    canonicalize,
    check_configuration,
    check_word,
    is_proper_power,
    make_configuration,
    word_pattern,
)

__all__ = [
    "DEFAULT_GUARD_CAP",
    "EnumerationResult",
    "budgets",
    "enumerate_pppp",
    "enumerate_psps_pairs",
    "enumerate_genus2",
    "enumerate_general",
    "oracle_enumerate",
    "classify_family",
]

DEFAULT_GUARD_CAP = 10_000_000


def budgets(genus: int) -> int:
    """The genus, checked: ValueError below genus 2, where splitting surfaces start."""
    if genus < 2:
        raise ValueError(f"splitting surfaces start at genus 2, got {genus}")
    return genus


_FAMILIES = ("pppp", "psps_pair", "other")


class EnumerationResult:
    """Configurations plus per-property rejection tallies and guard visits.

    `configurations` is a tuple, or a function the genus-2 enumerators pass
    that builds it when first read, at most once.  `counts` has one entry
    per family of `classify_family`, plus "total".  It comes from
    `families` when given, as the genus-2 enumerators know theirs by
    construction; other results (the general search's, the oracle's, one
    built by hand) classify each configuration once, when `counts` is first
    read.  `visited` counts the general search's partial walks and word
    selections, else 0.
    """

    def __init__(self, configurations: tuple[Configuration, ...] | Callable[[], tuple],
                 diagnostics: dict[int, int], visited: int = 0,
                 families: dict[str, int] | None = None):
        if callable(configurations):
            self._build = configurations
        else:
            self.configurations = configurations  # shadows the deferred build
        self.diagnostics = diagnostics
        self.visited = visited
        self.families = families

    @cached_property
    def configurations(self) -> tuple[Configuration, ...]:
        return self._build()

    @cached_property
    def counts(self) -> dict[str, int]:
        counts = dict.fromkeys(_FAMILIES, 0)
        counts.update(self.families or Counter(map(classify_family, self.configurations)))
        counts["total"] = sum(counts.values())
        return counts


class _Guard:
    """Counts visited partial walks and word selections; aborts past the cap."""

    def __init__(self, cap: int):
        self.cap = cap
        self.visited = 0

    def tick(self) -> None:
        self.visited += 1
        if self.visited > self.cap:
            raise GuardAbort(self.visited, self.cap)


def _channels(letters) -> frozenset[SaddleChannel]:
    return frozenset(l.ref for l in letters if l.kind == "S")


def _flip(ch: SaddleChannel) -> SaddleChannel:
    return SaddleChannel(ch.crossing, "B" if ch.side == "A" else "A")


def classify_family(cfg: Configuration) -> str:
    """'pppp', 'psps_pair', or 'other' (genus-2 family shapes)."""
    if len(cfg.words_plus) == 1 and word_pattern(cfg.words_plus[0]) == "PPPP":
        return "pppp"
    if len(cfg.words_plus) == 2:
        w1, w2 = cfg.words_plus
        if word_pattern(w1) == word_pattern(w2) == "PSPS":
            ch1, ch2 = _channels(w1.letters), _channels(w2.letters)
            if len({c.crossing for c in ch1}) == 2 and ch2 == frozenset(map(_flip, ch1)):
                return "psps_pair"
    return "other"


def _tally(diagnostics: dict[int, int], props: set[int]) -> None:
    for prop in props:
        diagnostics[prop] = diagnostics.get(prop, 0) + 1


# ----------------------------------------------------------------------------
# specialized genus-2 enumerators
# ----------------------------------------------------------------------------


def enumerate_pppp(g: AugmentedDualGraph) -> EnumerationResult:
    """All-puncture 4-letter curves: the 4-cycles of the face graph (module docstring)."""
    across: list[list[tuple[int, int]]] = [[] for _ in g.nodes]  # (face, arc) by face
    for arc, (f1, f2) in g.p_edges.items():
        across[f1].append((f2, arc))
        across[f2].append((f1, arc))
    order = sorted(g.nodes, key=lambda f: (-len(across[f]), f))
    rank = [0] * len(order)
    for i, f in enumerate(order):
        rank[f] = i
    # each pair of faces (u, w) with two or more paths u-v-w, v and w ranked
    # after u; a middle is (v, arc uv, arc vw), and two middles a 4-cycle
    cycles, count = [], 0  # (u, w, middles)
    for u in order:
        r, mids = rank[u], {}  # w -> its middles
        for v, uv in across[u]:
            if rank[v] > r:
                for w, vw in across[v]:
                    if rank[w] > r:
                        mids.setdefault(w, []).append((v, uv, vw))
        for w, ms in mids.items():
            if len(ms) > 1:
                cycles.append((u, w, ms))
                count += comb(len(ms), 2)

    def build() -> tuple[Configuration, ...]:
        letters = {arc: Letter("P", arc) for arc in g.p_edges}
        words = []  # (arcs, faces), which sort as their words do
        for u, w, ms in cycles:
            for (v1, a1, b1), (v2, a2, b2) in combinations(ms, 2):
                # the canonical word: from the least arc, towards its lesser
                # neighbour, from the face that arc leaves
                arcs, faces = (a1, b1, b2, a2), (u, v1, w, v2)
                i = arcs.index(min(arcs))
                if arcs[i - 1] < arcs[(i + 1) % 4]:  # walk the other way round
                    arcs, faces, i = (a2, b2, b1, a1), (u, v2, w, v1), 3 - i
                words.append((arcs[i:] + arcs[:i], faces[i:] + faces[:i]))
        return tuple([make_configuration([CurveWord(tuple([letters[a] for a in arcs]), faces)])
                      for arcs, faces in sorted(words)])

    return EnumerationResult(build, {}, families={"pppp": count})


def _clean(halves: list[tuple]) -> list[tuple]:
    """(arc, ends, via, channel) for each channel at neither end of its arc."""
    return [(arc, ends, via, ch) for arc, ends, via, chs in halves for ch in chs
            if ch.crossing not in ends]


def _psps_words(g: AugmentedDualGraph, diagnostics: dict[int, int]) -> list[tuple]:
    # halves, joins, the property-6 tally and canonical tuples: module docstring
    saddles: list[dict] = [{} for _ in g.nodes]  # face -> destination -> channels
    for ch, (f1, f2) in g.s_edges.items():
        saddles[f1].setdefault(f2, []).append(ch)
        saddles[f2].setdefault(f1, []).append(ch)
    halves: list[dict] = [{} for _ in g.nodes]  # from -> to -> [(arc, ends, via, channels)]
    counts: list[dict] = [{} for _ in g.nodes]  # from -> to -> halves
    for ((c1, _), (c2, _)), (arc, (f1, f2)) in zip(g.diagram.arcs.values(), g.p_edges.items()):
        ends = (c1, c2)
        for f, via in ((f1, f2), (f2, f1)):  # over the arc into `via`, then a channel
            out, count = halves[f], counts[f]
            for mid, chs in saddles[via].items():
                out.setdefault(mid, []).append((arc, ends, via, chs))
                count[mid] = count.get(mid, 0) + len(chs)

    walks, passed, seen = 0, 0, set()
    for f, count in enumerate(counts):
        for mid, k in count.items():
            back = counts[mid].get(f, 0)
            walks += k * back
            if not back or (back, mid) < (k, f):
                continue  # each face pair once, from its smaller side
            firsts = _clean(halves[f][mid])
            if not firsts:
                continue
            for a2, ends2, m2, s2 in _clean(halves[mid][f]):
                for a1, ends1, m1, s1 in firsts:
                    if s1.crossing not in ends2 and s2.crossing not in ends1:
                        passed += 2  # the walk from f, and its rotation from mid
                        seen.add(canonical_form(
                            (Letter("P", a1), Letter("S", s1), Letter("P", a2), Letter("S", s2)),
                            (f, m1, mid, m2)))
    if walks > passed:
        diagnostics[6] = diagnostics.get(6, 0) + walks - passed
    return sorted(seen)


def enumerate_psps_pairs(g: AugmentedDualGraph) -> EnumerationResult:
    """Balanced pairs of PSPS curves through opposite channels of two crossings.

    A curve using the saddles of two distinct crossings forces its partner
    through the flipped channels (module docstring).
    """
    diagnostics: dict[int, int] = {}
    least: dict[frozenset[SaddleChannel], tuple] = {}
    for letters, faces in _psps_words(g, diagnostics):
        least.setdefault(_channels(letters), (letters, faces))
    # a channel set at one crossing is its own flip, so it pairs with nothing
    pairs = []
    for ch, w1 in least.items():
        w2 = least.get(frozenset(map(_flip, ch)))
        if w2 is not None and w1 < w2:
            pairs.append((w1, w2))  # sorts as its configuration does
    return EnumerationResult(
        lambda: tuple([make_configuration([CurveWord(*w1), CurveWord(*w2)])
                       for w1, w2 in sorted(pairs)]),
        diagnostics, families={"psps_pair": len(pairs)})


def enumerate_genus2(g: AugmentedDualGraph) -> EnumerationResult:
    """Union of the two genus-2 families; `bounds.compare` checks the count."""
    pppp, psps = enumerate_pppp(g), enumerate_psps_pairs(g)
    families = {key: pppp.counts[key] + psps.counts[key] for key in _FAMILIES}
    # PPPP words are built clean, so only the PSPS pairs tally rejections
    return EnumerationResult(lambda: pppp.configurations + psps.configurations,
                             psps.diagnostics, families=families)


# ----------------------------------------------------------------------------
# general search, driven by the genus-g identity
# ----------------------------------------------------------------------------


def _adjacent_fault(a: Step, b: Step) -> int | None:
    """The property (5 or 6) that letter `b` breaks right after `a`, if any."""
    if a.kind != b.kind:
        return None if a.touches.isdisjoint(b.touches) else 6
    return 5 if a.kind == "P" and a.letter == b.letter else None


def _closing_faults(path: tuple[Step, ...]) -> set[int]:
    """The properties a closed walk breaks (module docstring)."""
    kinds = "".join([m.kind for m in path])
    p = kinds.count("P")
    faults = set()
    fault = _adjacent_fault(path[-1], path[0])
    if fault is not None:
        faults.add(fault)
    if p < len(kinds):
        if (kinds + kinds[0]).count("PS") <= 1:
            faults.add(7)
    elif p >= 8 and is_proper_power(tuple([m.letter for m in path])):
        faults.add(11)  # all punctures; no other walk is a power (module docstring)
    if p < 2:
        faults.add(8)
    return faults


def _general_words(
    g: AugmentedDualGraph,
    genus: int,
    guard: _Guard,
    diagnostics: dict[int, int],
) -> list[CurveWord]:
    cap = 2 * genus  # on p + t of every partial word (module docstring)
    # the steps that may follow each step: none that breaks 5 or 6 with it
    follow = {m: [n for n in g.steps[m.dest] if _adjacent_fault(m, n) is None]
              for out in g.steps.values() for m in out}
    seen: set[tuple] = set()  # canonical (letters, faces)

    for start in g.nodes:
        # A frame is a partial walk: its steps, its p + t and its
        # used-channel mask.  Its first step leaves the lesser face of its
        # letter (the start rule), at p + t = 1 under any cap.
        guard.tick()  # the empty walk at `start`
        stack = [((m,), 1, m.bit) for m in g.steps[start] if m.dest > start]
        while stack:
            path, pt, used = stack.pop()
            guard.tick()
            last = path[-1]
            if len(path) >= 4 and len(path) % 2 == 0 and last.dest == start:
                faults = _closing_faults(path)
                _tally(diagnostics, faults)
                if not faults:  # its face trace begins at `start`
                    seen.add(canonical_form(tuple([m.letter for m in path]),
                                            tuple([start] + [m.dest for m in path[:-1]])))
            first = path[0].letter
            for m in follow[last]:
                if used & m.bit:
                    continue  # property 2
                grown = pt if used & m.sibling else pt + 1  # 0 at a touched crossing
                if grown > cap:
                    continue  # the walk cap
                if m.letter < first:
                    continue  # the walk from a least letter finds this word
                stack.append((path + (m,), grown, used | m.bit))
    return [CurveWord(*w) for w in sorted(seen)]


def _components(words) -> int:
    """Components of the words, joined wherever two share a saddle crossing."""
    parent = list(range(len(words)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    owner: dict[int, int] = {}  # crossing -> a word through it
    for i, w in enumerate(words):
        for l in w.letters:
            if l.kind == "S":
                j = owner.setdefault(l.ref.crossing, i)
                parent[find(i)] = find(j)
    return sum(parent[i] == i for i in range(len(words)))


def enumerate_general(
    g: AugmentedDualGraph,
    genus: int,
    guard_cap: int = DEFAULT_GUARD_CAP,
) -> EnumerationResult:
    """Every connected genus-g configuration, g = `genus` (module docstring).

    The genus alone decides which words and selections are kept; below 2
    it raises ValueError (`budgets`).  Past `guard_cap` visited partial
    walks and selections, GuardAbort is raised.  A kept configuration
    breaking chi - p = 2 - 2g raises EulerInconsistencyError.
    """
    genus = budgets(genus)
    guard = _Guard(guard_cap)
    diagnostics: dict[int, int] = {}
    pool = _general_words(g, genus, guard, diagnostics)
    # by cost, so a selection's next words can stop at the first that overshoots
    costs = sorted((len(w) + w.p_count - 4, w) for w in pool)
    pool = [w for _, w in costs]
    costs = [c for c, _ in costs]
    target = 4 * genus - 4

    configs = []

    def fits(i: int, total: int) -> bool:
        return i < len(pool) and total + costs[i] <= target

    # Multisets of pool words, depth first.  An entry (i, chosen, total) is
    # the selection `chosen` plus pool[i]; it stands for its later siblings
    # too, which are pushed only when it is reached.
    guard.tick()  # the empty selection
    stack = [(0, (), 0)] if fits(0, 0) else []
    while stack:
        i, chosen, total = stack.pop()
        if fits(i + 1, total):
            stack.append((i + 1, chosen, total))
        guard.tick()
        chosen += (pool[i],)
        total += costs[i]
        if total < target:
            if fits(i, total):
                stack.append((i, chosen, total))
            continue
        cfg = make_configuration(chosen)
        bad = check_configuration(cfg) or ({10} if _components(chosen) > 1 else set())
        if bad:
            _tally(diagnostics, bad)
        elif euler_crosscheck(cfg) - cfg.p != 2 - 2 * genus:
            raise EulerInconsistencyError(
                f"chi - p = {euler_crosscheck(cfg) - cfg.p}, not {2 - 2 * genus}, "
                f"for a genus-{genus} configuration")
        else:
            configs.append(cfg)
    return EnumerationResult(tuple(sorted(configs)), diagnostics, guard.visited)


# ----------------------------------------------------------------------------
# brute-force oracle
# ----------------------------------------------------------------------------


def oracle_enumerate(g: AugmentedDualGraph, max_len: int) -> EnumerationResult:
    """Every closed walk of length <= max_len, filtered by the public checks only.

    Its clean words form every balanced configuration of one or two words.
    """
    diagnostics: dict[int, int] = {}
    words: set[CurveWord] = set()

    def grow(start: int, letters: list[Letter], faces: list[int]):
        here = faces[-1]
        if letters and here == start:
            word = CurveWord(tuple(letters), tuple(faces[:-1]))
            bad = check_word(g, word)
            _tally(diagnostics, bad)
            if not bad:
                words.add(canonicalize(word))
        if len(letters) == max_len:
            return
        for step in g.steps_from(here):
            letters.append(step.letter)
            faces.append(step.dest)
            grow(start, letters, faces)
            letters.pop()
            faces.pop()

    for start in g.nodes:
        grow(start, [], [start])

    pool = sorted(words)
    configs: set[Configuration] = set()
    for i, w1 in enumerate(pool):
        single = make_configuration([w1])
        if not check_configuration(single):
            configs.add(single)
        for w2 in pool[i:]:
            cfg = make_configuration([w1, w2])
            if not check_configuration(cfg):
                configs.add(cfg)
    return EnumerationResult(tuple(sorted(configs)), diagnostics)
