"""Curve-configuration enumerators over the augmented dual graph.

Three layers, kept deliberately separate:

* specialized genus-2 enumerators for the two word families a genus-2 splitting
  allows: a single all-puncture 4-letter curve (PPPP) or a pair of
  puncture-saddle curves (PSPS) through opposite channels of two crossings;
* a general enumerator for closed even words subject to the word and
  balance constraints, bounded by the genus-g search budget (`budgets`) and
  by a cap on the partial walks it visits (the guard, `DEFAULT_GUARD_CAP`);
* a brute-force oracle that walks every closed path up to a small length and
  filters with the public checks only, used to confirm the specialized
  results on fixtures.

Counting quotients ("three punctures determine the fourth", "two saddles
determine the pair") are applied as dedup relations after generation, never
as generation shortcuts, so the oracle can verify them.  They are computed by
bucketing, in time linear in the words quotiented.

The genus-2 generators build only words that pass every word check, so they
never call `check_word`.  PPPP walks skip immediate re-punctures (property 5)
and close at four letters (property 9).  PSPS walks are tested for property 6
as they grow; a walk failing it is dropped and tallied in the diagnostics
exactly as `check_word` would tally it.  No other property can fail: a PSPS
word has two punctures in two blocks (7, 8), length four (9), and its two
saddles join faces of opposite checkerboard colours, so they never share a
channel (2).

The general search builds only words that pass every word check too, and
never calls `check_word`.  Its walks are prepared once per diagram as moves
that carry their letter, destination face, the crossings the letter touches
and the moves allowed to follow them.  Property 2 is pruned with a mask of
the channels a walk has used.  Properties 5 and 6 are pruned letter by letter
through the follow lists.  A walk closes only at an even length of at least
4 (9), and there the closing pair (last letter, first letter) is tested for
5 and 6.  Property 8 is read from the walk's puncture count, and property 7
from its P/S skeleton: the word has saddles and at most one cyclic P-to-S
block start.  Each property a closed walk breaks is tallied once, exactly as
`check_word` tallies it, and only a walk that breaks none becomes a word.
Walks and configuration assemblies keep their state on explicit stacks, so
no budget meets the recursion limit.

PSPS pairs are balanced and alternate by construction, so they never call
`check_configuration` either.  The first word uses one channel at each of
two distinct crossings and its partner uses exactly the flipped channels,
so every crossing gets one passage through each channel on each sphere (4);
a PSPS word never has two saddles next to each other (3).

The minus sphere of every emitted configuration mirrors the plus sphere:
each saddle passes to the other sphere and the curve family closes up
symmetrically, so the mirror is the unique completion with the same letters.
Each word is canonicalized once, when it is generated; `make_configuration`
only sorts and mirrors canonical words.  Dedupe goes through sets, and the
natural order of words and configurations is the canonical order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .dualgraph import AugmentedDualGraph, SaddleChannel, Step
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
    "puncture_class_representatives",
    "saddle_pair_class_representatives",
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
            if (
                len({c.crossing for c in ch1}) == 2
                and ch2 == frozenset(_flip(c) for c in ch1)
            ):
                return "psps_pair"
    return "other"


# ----------------------------------------------------------------------------
# dedup quotients
# ----------------------------------------------------------------------------


def _class_leaders(items: list, keys) -> list:
    """The least member of each class of a sorted list, in order.

    Two items are related when `keys` yields a common bucket for both; the
    classes are the transitive closure.  Each item is united with the first
    item seen in each of its buckets, so the cost is linear in the number of
    keys rather than quadratic in the number of items.
    """
    parent = list(range(len(items)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first: dict = {}
    for i, item in enumerate(items):
        for key in keys(item):
            j = first.setdefault(key, i)
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    return [item for i, item in enumerate(items) if find(i) == i]


def puncture_class_representatives(words: list[CurveWord]) -> list[CurveWord]:
    """Quotient PPPP words by "three shared punctures determine the fourth".

    Words whose arc multisets agree in at least three of four positions are
    identified; each class is returned by its least member.  Two multisets
    share three elements exactly when they share a 3-element sub-multiset, so
    each word is bucketed by its (at most four) sorted arc triples.
    """
    items = sorted(words)

    def triples(w: CurveWord):
        return set(combinations(sorted(l.ref for l in w.letters), 3))

    return _class_leaders(items, triples)


def saddle_pair_class_representatives(pairs: list[tuple[CurveWord, CurveWord]]):
    """Quotient PSPS pairs by "two saddles determine the curve".

    Pairs containing words with identical channel sets are identified; each
    class is returned by its least member.
    """
    items = sorted(tuple(sorted(pair)) for pair in pairs)
    return _class_leaders(items, lambda p: {_channels(w) for w in p})


def _bump(diagnostics: dict[int, int], prop: int) -> None:
    diagnostics[prop] = diagnostics.get(prop, 0) + 1


def _tally(diagnostics: dict[int, int], violations) -> None:
    for prop in {v.prop for v in violations}:
        _bump(diagnostics, prop)


# ----------------------------------------------------------------------------
# specialized genus-2 enumerators
# ----------------------------------------------------------------------------


def enumerate_pppp(g: AugmentedDualGraph) -> EnumerationResult:
    """All-puncture 4-letter curves, up to symmetry and the 3-puncture rule."""
    seen: set[CurveWord] = set()
    for start in g.nodes:
        stack = [((), (start,))]
        while stack:
            letters, faces = stack.pop()
            here = faces[-1]
            for step in g.steps_from(here):
                if step.kind != "P":
                    continue
                if letters and step.ref < letters[0].ref:
                    continue  # a canonical word starts at its least arc
                if letters and letters[-1].ref == step.ref:
                    continue  # immediate re-puncture, pruned by property 5
                new_letters = letters + (Letter("P", step.ref),)
                if len(new_letters) == 4:
                    if step.dest != start or new_letters[0].ref == step.ref:
                        continue
                    seen.add(canonicalize(CurveWord(new_letters, faces)))
                else:
                    stack.append((new_letters, faces + (step.dest,)))

    reps = puncture_class_representatives(list(seen))
    return EnumerationResult(tuple(make_configuration([w]) for w in reps), {})


def _psps_words(g: AugmentedDualGraph, diagnostics: dict[int, int]) -> list[CurveWord]:
    # Every P-S adjacency of a PSPS walk is tested for property 6 as the walk
    # grows; a walk passing it passes every word check (module docstring).
    p_steps = {f: [s for s in g.steps_from(f) if s.kind == "P"] for f in g.nodes}
    closing: dict[tuple[int, int], list[Step]] = {}  # S-steps by (from, to)
    for f in g.nodes:
        for s in g.steps_from(f):
            if s.kind == "S":
                closing.setdefault((f, s.dest), []).append(s)
    ends = {arc: g.arc_crossings(arc) for arc in g.p_edges}

    seen: set[CurveWord] = set()
    for start in g.nodes:
        for p1 in p_steps[start]:
            for s1 in g.steps_from(p1.dest):
                if s1.kind != "S":
                    continue
                bad_s1 = s1.ref.crossing in ends[p1.ref]
                for p2 in p_steps[s1.dest]:
                    bad_p2 = bad_s1 or s1.ref.crossing in ends[p2.ref]
                    for s2 in closing.get((p2.dest, start), ()):
                        c = s2.ref.crossing
                        if bad_p2 or c in ends[p2.ref] or c in ends[p1.ref]:
                            _bump(diagnostics, 6)
                            continue
                        seen.add(canonicalize(CurveWord(
                            (Letter("P", p1.ref), Letter("S", s1.ref),
                             Letter("P", p2.ref), Letter("S", s2.ref)),
                            (start, p1.dest, s1.dest, p2.dest),
                        )))
    return sorted(seen)


def enumerate_psps_pairs(g: AugmentedDualGraph) -> EnumerationResult:
    """Balanced pairs of PSPS curves through opposite channels of two crossings.

    A curve using the saddles of two distinct crossings forces its partner
    through the remaining channels; pairs are quotiented by the two-saddle
    rule after generation.
    """
    diagnostics: dict[int, int] = {}
    words = _psps_words(g, diagnostics)
    by_channel_set: dict[frozenset, list[CurveWord]] = {}
    for w in words:
        by_channel_set.setdefault(_channels(w), []).append(w)

    pairs: set[tuple[CurveWord, ...]] = set()
    for w1 in words:
        ch = _channels(w1)
        if len({c.crossing for c in ch}) != 2:
            continue  # both saddles at one crossing never pair up
        partner_set = frozenset(_flip(c) for c in ch)
        for w2 in by_channel_set.get(partner_set, ()):
            pairs.add(tuple(sorted((w1, w2))))

    reps = saddle_pair_class_representatives(list(pairs))
    return EnumerationResult(tuple(make_configuration(pair) for pair in reps), diagnostics)


def enumerate_genus2(g: AugmentedDualGraph) -> EnumerationResult:
    """Union of the two genus-2 families.

    The count is not checked here: `bounds.compare` reports it against the
    2n^3 cap.
    """
    pppp = enumerate_pppp(g)
    psps = enumerate_psps_pairs(g)
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


class _Move:
    """A step of the general search, prepared once per diagram.

    `touches` holds the crossings the letter meets: both ends of the arc for
    a puncture, the channel's crossing for a saddle.  `bit` marks a saddle's
    channel in a walk's used-channel mask (0 for a puncture), `punctures` is
    1 for a puncture and 0 for a saddle, and `follow` lists the moves that
    may come next without breaking property 5 or 6.
    """

    __slots__ = ("kind", "letter", "dest", "touches", "bit", "punctures", "follow")

    def __init__(self, g: AugmentedDualGraph, step: Step, bits: dict[SaddleChannel, int]):
        puncture = step.kind == "P"
        self.kind = step.kind
        self.letter = Letter(step.kind, step.ref)
        self.dest = step.dest
        self.touches = frozenset(g.arc_crossings(step.ref) if puncture
                                 else (step.ref.crossing,))
        self.bit = 0 if puncture else bits[step.ref]
        self.punctures = 1 if puncture else 0
        self.follow: tuple[_Move, ...] = ()


def _adjacent_fault(a: _Move, b: _Move) -> int | None:
    """The property (5 or 6) that letter `b` breaks right after `a`, if any."""
    if a.kind != b.kind:
        return 6 if a.touches & b.touches else None
    return 5 if a.kind == "P" and a.letter == b.letter else None


def _moves(g: AugmentedDualGraph) -> dict[int, tuple[_Move, ...]]:
    """The moves leaving each face, each linked to the moves that may follow it."""
    bits = {ch: 1 << i for i, ch in enumerate(g.s_edges)}
    moves = {f: tuple(_Move(g, step, bits) for step in g.steps_from(f)) for f in g.nodes}
    for out in moves.values():
        for m in out:
            m.follow = tuple(n for n in moves[m.dest] if _adjacent_fault(m, n) is None)
    return moves


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
            for m in moves[start] if last is None else last.follow:
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
