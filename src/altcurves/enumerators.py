"""Curve-configuration enumerators over the augmented dual graph.

Three layers, kept deliberately separate:

* specialized genus-2 enumerators for the two word families a genus-2 splitting
  allows: a single all-puncture 4-letter curve (PPPP) or a pair of
  puncture-saddle curves (PSPS) through opposite channels of two crossings;
* a general enumerator for closed even words subject to the word and
  balance constraints, bounded by the genus-g search budget (`budgets`) and
  by a cap on the partial walks it visits (the guard, `DEFAULT_GUARD_CAP`);
* a brute-force oracle that walks every closed path up to a small length and
  filters with the public checks only; the tests quotient its families pair
  by pair and compare them with the specialized results.

All but the oracle walk one table, `_moves`, made once per diagram (once
for both families in `enumerate_genus2`): the moves leaving each face, each
with its letter, destination face and the crossings it touches.  The two
moves over one arc or channel share what is prepared for it.  Only the
general search reads follow lists (`_Follow`), the moves that may follow
each move, each list built the first time it is read; `_adjacent_fault`
alone decides properties 5 and 6 for them.  The genus-2 walkers test their
few junctions themselves, so a genus-2 row builds no follow list.  No
walker calls `check_word`: each builds only clean words.

* PPPP walks take three punctures from their least arc, skipping a second
  arc not above the first and a third equal to the second, which is the
  whole property-5 test between them.  The fourth is looked up by its two
  faces, the third face and the first: no arc is a loop and no two arcs
  join the same two faces, so there is at most one.  No arc repeats in a
  walk, since a repeat would make an arc a loop or two arcs join the same
  two faces, so the closing pairs pass 5; 9 holds by length.  A word's
  least arc is unique, and it is walked in one direction only, the one
  whose second letter is the smaller: that walk is the canonical word,
  built as such.  On a prime diagram no two clean PPPP words share three
  arcs, so "three punctures determine the fourth" needs no quotient.  A
  closed walk ends at each face an even number of times, so a word's
  fourth arc joins the two faces its other three arcs end at an odd number
  of times.  Two distinct such fourth arcs form the 2-edge cut `validate`
  rejects.  Equal ones give the same arcs, which close up in one 4-cycle
  only, so the same canonical word.
* PSPS walks are two halves, a puncture then a saddle, from the start face
  to a middle face and back; the two faces have opposite checkerboard
  colours, so they differ.  The halves of each face pair (f, mid) are
  indexed once by their punctures, so the closed walks number the sum of
  count[f, mid] * count[mid, f] over face pairs, none of them built.  Clean
  halves, whose saddle meets no end of its puncture's arc, are built only
  for face pairs with halves both ways: first the direction with fewer
  halves, then the other only when the first has a clean one.  A join
  tests its two other junctions for property 6 and stands for the walk
  from f and its rotation from mid.  Property 6 is tallied as the closed
  walks less the clean ones, each failing walk once, as `check_word`
  would.  Nothing else can fail: two punctures in two blocks (7, 8), length
  four (9), and saddles joining faces of opposite checkerboard colours, so
  no channel twice (2).  Each channel set C keeps its least word, and each
  unordered {C, flip(C)} across two crossings gives one pair.  Pairs share
  a channel set exactly when they share {C, flip(C)}, so this is the least
  pair of its class under "two saddles determine the pair".  It is
  balanced (4) and has no adjacent saddles (3) by construction, so it
  skips `check_configuration`.  On a (2,n) torus knot every face pair's
  smaller side has at most two halves and no clean one, so the PSPS work
  is linear in n.
* The general search prunes property 2 with a mask of used channels, and 5
  and 6 through the follow lists.  A walk closes only at an even length of
  at least 4 (9); there the closing pair is tested for 5 and 6, property 8
  is read from the puncture count and 7 from the P/S skeleton (saddles
  present, at most one cyclic P-to-S block start).  Each property a closed
  walk breaks is tallied once, as `check_word` tallies it.  Walks and
  assemblies keep their state on explicit stacks, so no budget meets the
  recursion limit.

A configuration stores its plus sphere only; `Configuration` says why the
minus sphere mirrors it.  Each word is canonical when it is generated: PPPP
words are built so, the others canonicalized once.  `make_configuration`
only sorts canonical words.  A word walked more than once is deduped
through a set, and the natural order of words and configurations is the
canonical order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .dualgraph import AugmentedDualGraph, SaddleChannel
from .errors import GuardAbort, TractabilityError
from .words import (
    Configuration,
    CurveWord,
    Letter,
    canonicalize,
    check_configuration,
    check_word,
    make_configuration,
    word_pattern,
)

__all__ = [
    "DEFAULT_GUARD_CAP",
    "EnumerationBudget",
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


@dataclass(frozen=True)
class EnumerationBudget:
    """Search limits for a genus-g run; `budgets` gives the ones a genus needs.

    max_punctures caps total plus-sphere punctures (also the length cap for
    all-puncture words), max_curves caps curves per sphere, max_word_length
    caps any single word.  genus records which genus the limits are for.
    """

    genus: int
    max_punctures: int
    max_curves: int
    max_word_length: int


def budgets(genus: int) -> EnumerationBudget:
    """Search budget that any genus-g splitting surface must fit inside."""
    if genus < 2:
        raise ValueError(f"splitting surfaces start at genus 2, got {genus}")
    return EnumerationBudget(
        genus=genus,
        max_punctures=4 * genus - 4,
        max_curves=2 * genus - 2,
        max_word_length=20 * genus - 16,
    )


@dataclass(frozen=True)
class EnumerationResult:
    """Configurations plus per-property rejection tallies and guard visits.

    `counts` is derived from the configurations: one entry per family of
    `classify_family`, plus "total".  `visited` counts the partial walks
    the general search's guard saw; the other enumerators leave it 0.
    """

    configurations: tuple[Configuration, ...]
    diagnostics: dict[int, int]
    visited: int = 0

    @cached_property
    def counts(self) -> dict[str, int]:
        counts = {"pppp": 0, "psps_pair": 0, "other": 0}
        for cfg in self.configurations:
            counts[classify_family(cfg)] += 1
        counts["total"] = len(self.configurations)
        return counts


class _Guard:
    """Counts visited partial walks; aborts past the cap."""

    def __init__(self, cap: int):
        self.cap = cap
        self.visited = 0

    def tick(self) -> None:
        self.visited += 1
        if self.visited > self.cap:
            raise GuardAbort(self.visited, self.cap)


def _channels(w: CurveWord) -> frozenset[SaddleChannel]:
    return frozenset(l.ref for l in w.letters if l.kind == "S")


def _flip(ch: SaddleChannel) -> SaddleChannel:
    return SaddleChannel(ch.crossing, "B" if ch.side == "A" else "A")


def classify_family(cfg: Configuration) -> str:
    """'pppp', 'psps_pair', or 'other' (genus-2 family shapes)."""
    if len(cfg.words_plus) == 1 and word_pattern(cfg.words_plus[0]) == "PPPP":
        return "pppp"
    if len(cfg.words_plus) == 2:
        w1, w2 = cfg.words_plus
        if word_pattern(w1) == word_pattern(w2) == "PSPS":
            ch1, ch2 = _channels(w1), _channels(w2)
            if len({c.crossing for c in ch1}) == 2 and ch2 == frozenset(map(_flip, ch1)):
                return "psps_pair"
    return "other"


def _bump(diagnostics: dict[int, int], prop: int) -> None:
    diagnostics[prop] = diagnostics.get(prop, 0) + 1


def _tally(diagnostics: dict[int, int], violations) -> None:
    for prop in {v.prop for v in violations}:
        _bump(diagnostics, prop)


# ----------------------------------------------------------------------------
# moves, shared by every walker but the oracle
# ----------------------------------------------------------------------------


class _Move:
    """A step of a walk, prepared once per diagram.

    `touches` holds the crossings the letter meets: both ends of the arc for
    a puncture, the channel's crossing for a saddle.  `bit` marks a saddle's
    channel in a walk's used-channel mask (0 for a puncture), and
    `punctures` is 1 for a puncture and 0 for a saddle.  The two moves over
    one arc or channel share its letter and its `touches`.
    """

    __slots__ = ("kind", "letter", "dest", "touches", "bit", "punctures")

    def __init__(self, letter: Letter, touches: frozenset[int], bit: int, dest: int):
        self.kind = letter.kind
        self.letter = letter
        self.dest = dest
        self.touches = touches
        self.bit = bit
        self.punctures = 1 if letter.kind == "P" else 0


def _adjacent_fault(a: _Move, b: _Move) -> int | None:
    """The property (5 or 6) that letter `b` breaks right after `a`, if any."""
    if a.kind != b.kind:
        return None if a.touches.isdisjoint(b.touches) else 6
    return 5 if a.kind == "P" and a.letter == b.letter else None


class _Follow(dict):
    """The moves that may follow each move, each list built when first read.

    No move follows one it would break property 5 or 6 with.  Only the
    general search reads follow lists; the genus-2 walkers test their few
    junctions themselves.
    """

    __slots__ = ("moves",)

    def __init__(self, moves: dict):
        self.moves = moves

    def __missing__(self, m: _Move) -> tuple:
        # from a list, not a generator (see `_frame_word`)
        out = self[m] = tuple([n for n in self.moves[m.dest] if _adjacent_fault(m, n) is None])
        return out


def _moves(g: AugmentedDualGraph) -> dict[int, tuple[_Move, ...]]:
    """The moves leaving each face, in the order of `steps_from`.

    Each arc and each channel is prepared once, for the two moves over it.
    No move links to another, so the table is freed at once when dropped,
    not by the cyclic GC.
    """
    prepared = {arc: (Letter("P", arc), frozenset(g.arc_crossings(arc)), 0)
                for arc in g.p_edges}
    prepared.update((ch, (Letter("S", ch), frozenset((ch.crossing,)), 1 << i))
                    for i, ch in enumerate(g.s_edges))
    return {f: tuple([_Move(*prepared[step.ref], step.dest) for step in g.steps_from(f)])
            for f in g.nodes}


# ----------------------------------------------------------------------------
# specialized genus-2 enumerators
# ----------------------------------------------------------------------------


def enumerate_pppp(g: AugmentedDualGraph, moves=None) -> EnumerationResult:
    """All-puncture 4-letter curves, one configuration per clean word.

    Each word is walked once, from its least arc in the direction of its
    smaller second letter, and closed by looking up the arc joining its
    third face to its first; that walk is its canonical form.  On a prime
    diagram no two of these words share three arcs (module docstring).
    `moves` is `_moves(g)`, built here when not given.
    """
    moves = moves or _moves(g)
    punctures = {f: [m for m in out if m.kind == "P"] for f, out in moves.items()}
    words = []  # (letters, faces), which sort as their words do
    for start, out in punctures.items():
        # the arc back to `start` from each face next to it; there is at
        # most one, since no two arcs join the same two faces of a prime
        # diagram
        home = {m.dest: m.letter for m in out}
        for p1 in out:
            l1 = p1.letter
            for p2 in punctures[p1.dest]:
                l2 = p2.letter
                if l2 <= l1:
                    continue  # not from the least arc, or property 5
                for p3 in punctures[p2.dest]:
                    l3 = p3.letter
                    if l3 == l2 or l3 < l1:
                        continue  # property 5, or not from the least arc
                    l4 = home.get(p3.dest)
                    # no arc repeats (module docstring), so l4 may follow l3,
                    # and l1 may follow l4
                    if l4 is not None and l2 < l4:
                        words.append(((l1, l2, l3, l4), (start, p1.dest, p2.dest, p3.dest)))
    words.sort()
    return EnumerationResult(
        tuple([make_configuration([CurveWord(*w)]) for w in words]), {})


def _psps_words(moves: dict, diagnostics: dict[int, int]) -> list[CurveWord]:
    # Closed walks are counted from the halves of each face pair, indexed by
    # their punctures; clean halves are built from a pair's smaller side
    # first and joined, and the walks failing property 6 are the difference
    # (module docstring).
    saddles: dict[int, dict[int, list[_Move]]] = {}  # by face, then destination
    for f, out in moves.items():
        by_dest = saddles[f] = {}
        for s in out:
            if s.kind == "S":
                by_dest.setdefault(s.dest, []).append(s)
    halves: dict[tuple[int, int], list] = {}  # (from, to) -> [(puncture, saddles)]
    for f, out in moves.items():
        for p in out:
            if p.kind == "P":
                for mid, ss in saddles[p.dest].items():
                    halves.setdefault((f, mid), []).append((p, ss))
    counts = {pair: sum(len(ss) for _, ss in hs) for pair, hs in halves.items()}

    def clean(pair: tuple[int, int]) -> list[tuple[_Move, _Move]]:
        return [(p, s) for p, ss in halves[pair] for s in ss
                if p.touches.isdisjoint(s.touches)]

    walks = passed = 0
    seen: set[CurveWord] = set()
    for (f, mid), k in counts.items():
        back = counts.get((mid, f), 0)
        walks += k * back
        if not back or (back, mid) < (k, f):
            continue  # each face pair once, from its smaller side
        firsts = clean((f, mid))
        if not firsts:
            continue
        for p2, s2 in clean((mid, f)):
            for p1, s1 in firsts:
                if s1.touches.isdisjoint(p2.touches) and s2.touches.isdisjoint(p1.touches):
                    passed += 2  # the walk from f, and its rotation from mid
                    word = CurveWord((p1.letter, s1.letter, p2.letter, s2.letter),
                                     (f, p1.dest, mid, p2.dest))
                    seen.add(canonicalize(word))
    if walks > passed:
        diagnostics[6] = diagnostics.get(6, 0) + walks - passed
    return sorted(seen)


def enumerate_psps_pairs(g: AugmentedDualGraph, moves=None) -> EnumerationResult:
    """Balanced pairs of PSPS curves through opposite channels of two crossings.

    A curve using the saddles of two distinct crossings forces its partner
    through the flipped channels.  The words are joined from clean halves,
    and the diagnostics tally every closed PSPS walk failing property 6 as
    all closed walks less the clean ones.  Each channel set keeps its least
    word, and each unordered {C, flip(C)} gives the pair of those least
    words (module docstring).  `moves` is `_moves(g)`, built here when not
    given.
    """
    moves = moves or _moves(g)
    diagnostics: dict[int, int] = {}
    least: dict[frozenset[SaddleChannel], CurveWord] = {}
    for w in _psps_words(moves, diagnostics):
        least.setdefault(_channels(w), w)
    # a channel set at one crossing is its own flip, so it pairs with nothing
    pairs = []
    for ch, w1 in least.items():
        w2 = least.get(frozenset(map(_flip, ch)))
        if w2 is not None and w1 < w2:
            pairs.append(make_configuration((w1, w2)))
    return EnumerationResult(tuple(sorted(pairs)), diagnostics)


def enumerate_genus2(g: AugmentedDualGraph) -> EnumerationResult:
    """Union of the two genus-2 families.

    The count is not checked here: `bounds.compare` reports it against the
    2n^3 cap.
    """
    moves = _moves(g)
    pppp = enumerate_pppp(g, moves)
    psps = enumerate_psps_pairs(g, moves)
    # PPPP words are built clean, so only the PSPS pairs tally rejections
    return EnumerationResult(pppp.configurations + psps.configurations, psps.diagnostics)


# ----------------------------------------------------------------------------
# general budget-driven enumerator
# ----------------------------------------------------------------------------


def _pattern_rotations(patterns) -> set[str] | None:
    if patterns is None:
        return None
    out: set[str] = set()
    for pat in patterns:
        for r in range(len(pat)):
            out.add(pat[r:] + pat[:r])
    return out


def _closing_faults(first: _Move, last: _Move, p: int, kinds: str) -> set[int]:
    """The word properties a closed walk breaks (module docstring)."""
    faults = set()
    fault = _adjacent_fault(last, first)
    if fault is not None:
        faults.add(fault)
    if p < len(kinds) and (kinds + kinds[0]).count("PS") <= 1:
        faults.add(7)
    if p < 2:
        faults.add(8)
    return faults


def _general_words(
    g: AugmentedDualGraph,
    budget: EnumerationBudget,
    rotations: set[str] | None,
    guard: _Guard,
    diagnostics: dict[int, int],
) -> list[CurveWord]:
    max_len = budget.max_word_length
    prefixes = None
    if rotations is not None:
        max_len = min(max_len, max(len(p) for p in rotations))
        prefixes = {r[:i] for r in rotations for i in range(1, len(r) + 1)}
    max_p = budget.max_punctures
    moves = _moves(g)
    follow = _Follow(moves)
    seen: set[CurveWord] = set()

    for start in g.nodes:
        # A frame is a partial walk: its last move, the frame before it, its
        # first move, its punctures, its used-channel mask and its P/S
        # skeleton.  The root frame is the empty walk at `start`.
        stack = [(None, None, None, 0, 0, "")]
        while stack:
            frame = stack.pop()
            last, _, first, p, used, kinds = frame
            guard.tick()
            length = len(kinds)
            if length >= 4 and length % 2 == 0 and last.dest == start \
                    and (rotations is None or kinds in rotations):
                faults = _closing_faults(first, last, p, kinds)
                for prop in faults:
                    _bump(diagnostics, prop)
                if not faults:
                    seen.add(canonicalize(_frame_word(frame, start)))
            if length == max_len:
                continue
            for m in moves[start] if last is None else follow[last]:
                if used & m.bit or p + m.punctures > max_p:
                    continue  # property 2, or the puncture budget
                skeleton = kinds + m.kind
                if prefixes is not None and skeleton not in prefixes:
                    continue
                stack.append((m, frame, first or m, p + m.punctures, used | m.bit, skeleton))
    return sorted(seen)


def _frame_word(frame: tuple, start: int) -> CurveWord:
    """The word a closed walk spells, its face trace beginning at `start`."""
    # built from lists, not generators: a tuple grown from a generator is
    # resized, so when freed it joins the free list of another size, and
    # each word would leave a tuple behind until those lists are full
    letters, faces = [], []
    while frame[0] is not None:
        letters.append(frame[0].letter)
        frame = frame[1]
        faces.append(start if frame[0] is None else frame[0].dest)
    letters.reverse()
    faces.reverse()
    return CurveWord(tuple(letters), tuple(faces))


def enumerate_general(
    g: AugmentedDualGraph,
    budget: EnumerationBudget,
    patterns=None,
    guard_cap: int = DEFAULT_GUARD_CAP,
) -> EnumerationResult:
    """Every configuration within the budget, deduped canonically only.

    Words are closed even walks of length 4..max_word_length passing the word
    checks (all-puncture words are further capped at max_punctures letters);
    configurations take up to max_curves words per sphere with total plus
    punctures within budget and balanced channels.  `patterns` optionally
    restricts the P/S skeletons (up to rotation).  Search effort is capped by
    `guard_cap` visited partial walks (word walks and configuration
    assemblies); exceeding it raises GuardAbort.
    """
    guard = _Guard(guard_cap)
    diagnostics: dict[int, int] = {}
    rotations = _pattern_rotations(patterns)
    # sorted by puncture count, so a selection's next words can stop at the
    # first word past the budget; the order does not change which multisets
    # are visited
    pool = sorted(_general_words(g, budget, rotations, guard, diagnostics),
                  key=lambda w: w.p_count)
    p_counts = [w.p_count for w in pool]
    max_p = budget.max_punctures

    configs: set[Configuration] = set()

    def fits(i: int, p_total: int) -> bool:
        return i < len(pool) and p_total + p_counts[i] <= max_p

    # Multisets of pool words, depth first.  An entry (i, chosen, p_total)
    # is the selection `chosen` plus pool[i]; it stands for its later
    # siblings too, which are pushed only when it is reached.
    guard.tick()  # the empty selection
    stack = [(0, (), 0)] if budget.max_curves and fits(0, 0) else []
    while stack:
        i, chosen, p_total = stack.pop()
        if fits(i + 1, p_total):
            stack.append((i + 1, chosen, p_total))
        guard.tick()
        chosen += (pool[i],)
        p_total += p_counts[i]
        cfg = make_configuration(chosen)
        bad = check_configuration(g, cfg)
        if bad:
            _tally(diagnostics, bad)
        else:
            configs.add(cfg)
        if len(chosen) < budget.max_curves and fits(i, p_total):
            stack.append((i, chosen, p_total))
    return EnumerationResult(tuple(sorted(configs)), diagnostics, guard.visited)


# ----------------------------------------------------------------------------
# brute-force oracle
# ----------------------------------------------------------------------------


def oracle_enumerate(g: AugmentedDualGraph, max_len: int) -> EnumerationResult:
    """Plain walk enumeration filtered by the public checks only.

    Every closed walk of length <= max_len is generated letter by letter with
    no determination rules and no budget pruning; surviving words form all
    one- and two-word balanced configurations.  Kept deliberately independent
    of the specialized enumerators so fixtures can confirm them.
    """
    if max_len > 8:
        raise TractabilityError(f"oracle supports max_len <= 8, got {max_len}")

    diagnostics: dict[int, int] = {}
    words: set[CurveWord] = set()

    def grow(start: int, letters: list[Letter], faces: list[int]):
        here = faces[-1]
        if letters and here == start:
            word = CurveWord(tuple(letters), tuple(faces[:-1]))
            bad = check_word(g, word)
            if bad:
                _tally(diagnostics, bad)
            else:
                words.add(canonicalize(word))
        if len(letters) == max_len:
            return
        for step in g.steps_from(here):
            letters.append(Letter(step.kind, step.ref))
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
        if not check_configuration(g, single):
            configs.add(single)
        for w2 in pool[i:]:
            cfg = make_configuration([w1, w2])
            if not check_configuration(g, cfg):
                configs.add(cfg)
    return EnumerationResult(tuple(sorted(configs)), diagnostics)
