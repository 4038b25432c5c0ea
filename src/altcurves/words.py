"""Cyclic curve words over the augmented dual graph, and their constraints.

A curve on either sphere of the standard position is recorded as a cyclic
word: letter P{arc} when the curve punctures an arc, letter S{crossing}{side}
when it passes a saddle channel.  A word is stored with its face trace
(faces[i] is the face occupied before letters[i] is played), so a word is a
closed walk in the dual graph.

Words are compared up to rotation and reversal; `canonicalize` picks the
least representative.  The order lives in the types: a `Letter` is the tuple
(kind, ref), so P letters sort before S letters, then by arc or by
(crossing, side); a `CurveWord` orders by its letters, then its face trace;
a `Configuration` by its plus words.  Sorting, `min` and set-based dedupe
need no key functions.

The executable constraints are numbered the way the count arguments use them:

  2  no channel is used twice by one curve
  3  no two consecutive saddles (the innermost rule; the genus-2 families
     hold it by pattern, so nothing checks it at run time).  Open above
     genus 2: the general search keeps words that break it, in 4 of the
     142 connected genus-3 configurations of the fixtures (2 of k4_1's,
     1 of k6_3's, 1 of k7_6's), and whether the rule binds there is not
     settled
  4  at each crossing, equally many passages through the two channels
  5  no two cyclically consecutive punctures on the same arc
  6  no saddle passage cyclically adjacent to a puncture of an arc that ends
     at that crossing
  7  no word of the form P^i S^j with j > 0
  8  at least two punctures per word
  9  word length at least 4 and even
 10  one connected surface: the configuration's words form one component
     when two words are joined wherever they share a saddle crossing (the
     general search's configurations only; `enumerators` says why).  Open:
     saddles stacked at one crossing are joined whole, so 3 of borromean's
     19 genus-3 configurations, two copies of each word of a genus-2
     saddle pair, may be two parallel genus-2 surfaces instead
 11  no word is a proper power u^k (k >= 2): a simple closed curve does not
     run round another twice.  Only all-puncture words can be powers, as a
     power with a saddle uses its channel twice (2)

Property 1 (each curve bounds a disk) is a modeling assumption and has no
check.

`check_word` and `check_configuration` return the set of property numbers a
word or configuration breaks, empty when it is clean.  The enumerators build
their words clean and never call `check_word`: it is the brute-force
oracle's filter, and the tests run it on what the enumerators emit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .dualgraph import AugmentedDualGraph, Letter
from .errors import PreconditionError

__all__ = [
    "Letter",
    "CurveWord",
    "Configuration",
    "canonical_form",
    "canonicalize",
    "word_pattern",
    "serialize_word",
    "check_word",
    "check_configuration",
    "is_proper_power",
    "make_configuration",
]


@dataclass(frozen=True, order=True)
class CurveWord:
    """A cyclic decorated word together with its face trace.

    Words order by their letters, then by their face traces.
    """

    letters: tuple[Letter, ...]
    faces: tuple[int, ...]

    def __post_init__(self):
        if not self.letters or len(self.letters) != len(self.faces):
            raise ValueError("a curve word needs one face per letter")

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def p_count(self) -> int:
        return [l.kind for l in self.letters].count("P")

    @property
    def s_count(self) -> int:
        return [l.kind for l in self.letters].count("S")

    def rotated(self, r: int) -> "CurveWord":
        return CurveWord(self.letters[r:] + self.letters[:r], self.faces[r:] + self.faces[:r])

    def reversed(self) -> "CurveWord":
        # walking the cycle backwards: letters in reverse order, trace
        # starting from the same face
        letters = tuple(reversed(self.letters))
        faces = (self.faces[0],) + tuple(reversed(self.faces[1:]))
        return CurveWord(letters, faces)


def canonical_form(letters: tuple[Letter, ...], faces: tuple[int, ...]) -> tuple[tuple, tuple]:
    """The least (letters, faces) over all rotations of both directions.

    Rotations are compared as tuples, the order of `CurveWord`, so this is
    `canonicalize` without building a word.  A least rotation starts at a
    least letter, so only those rotations are compared.
    """
    first = min(letters)
    best = None
    # walked backwards, a word's trace starts from the same face (`reversed`)
    for ls, fs in ((letters, faces), (letters[::-1], faces[:1] + faces[:0:-1])):
        for r in range(len(ls)):
            if ls[r] != first:
                continue
            key = (ls[r:] + ls[:r], fs[r:] + fs[:r])
            if best is None or key < best:
                best = key
    return best


def canonicalize(w: CurveWord) -> CurveWord:
    """Least representative over all rotations of both directions (`canonical_form`)."""
    return CurveWord(*canonical_form(w.letters, w.faces))


def word_pattern(w: CurveWord) -> str:
    """The P/S skeleton, e.g. 'PSPS'."""
    return "".join([l.kind for l in w.letters])


def serialize_word(w: CurveWord) -> str:
    """Space-separated letters, e.g. 'P1 S3A P4 S5B'."""
    return " ".join(str(l) for l in w.letters)


def _assert_walk(g: AugmentedDualGraph, w: CurveWord) -> None:
    faces = w.faces
    for i, (letter, here, there) in enumerate(zip(w.letters, faces, faces[1:] + faces[:1])):
        edge = (g.p_edges if letter.kind == "P" else g.s_edges).get(letter.ref)
        if edge != (here, there) and edge != (there, here):
            raise PreconditionError(
                f"letter {letter} at position {i} does not join faces {here},{there}"
            )


def check_word(g: AugmentedDualGraph, w: CurveWord) -> set[int]:
    """The numbers of the word-level properties `w` breaks; empty if none.

    The word must be a closed walk in `g` (PreconditionError otherwise).
    """
    _assert_walk(g, w)
    letters = w.letters
    saddles = [l.ref for l in letters if l.kind == "S"]
    broken = {2} if len(set(saddles)) < len(saddles) else set()
    blocks = 0  # cyclic P-to-S junctions; the word is P^i S^j when there is one
    for a, b in zip(letters, letters[1:] + letters[:1]):
        if a.kind != b.kind:
            arc, channel = (a.ref, b.ref) if a.kind == "P" else (b.ref, a.ref)
            blocks += a.kind == "P"
            if channel.crossing in g.arc_crossings(arc):
                broken.add(6)
        elif a.kind == "P" and a.ref == b.ref:
            broken.add(5)
    if saddles and blocks <= 1:
        broken.add(7)
    if len(letters) - len(saddles) < 2:
        broken.add(8)
    if len(letters) < 4 or len(letters) % 2:
        broken.add(9)
    if is_proper_power(letters):
        broken.add(11)
    return broken


def is_proper_power(letters: tuple[Letter, ...]) -> bool:
    """True when the letters repeat a shorter word, period d dividing the length."""
    n = len(letters)
    return any(letters[d:] == letters[:-d] for d in range(1, n // 2 + 1) if n % d == 0)


@dataclass(frozen=True, order=True)
class Configuration:
    """Curve words on the two spheres of the standard position.

    Only the plus sphere is stored.  The minus sphere mirrors it: each
    saddle passes to the other sphere and the curve family closes up
    symmetrically, so the mirror is the unique completion with the same
    letters, and `words_minus` returns the plus words.

    p and s count puncture and saddle letters on the plus sphere only; c
    counts curves on both spheres.  |F| = p + s + c is the complexity.
    Configurations order by their plus words.
    """

    words_plus: tuple[CurveWord, ...]

    @property
    def words_minus(self) -> tuple[CurveWord, ...]:
        return self.words_plus

    @property
    def p(self) -> int:
        return sum(w.p_count for w in self.words_plus)

    @property
    def s(self) -> int:
        return sum(w.s_count for w in self.words_plus)

    @property
    def c(self) -> int:
        return 2 * len(self.words_plus)

    @property
    def complexity(self) -> int:
        return self.p + self.s + self.c


def make_configuration(words) -> Configuration:
    """Configuration of canonical words, sorted.

    The words must already be canonical (`canonicalize`); they are not
    canonicalized again.  The genus-2 enumerators call it only when their
    configurations are first read (`EnumerationResult`).
    """
    return Configuration(tuple(sorted(words)))


def check_configuration(cfg: Configuration) -> set[int]:
    """{4} if some crossing's two channels carry unequal passages, else empty.

    The two channels of a crossing carry one passage per saddle each.  The
    minus sphere mirrors the plus sphere, so one sphere is checked.
    """
    # passages through each channel; a channel equals its (crossing, side)
    counts = Counter(l.ref for w in cfg.words_plus for l in w.letters if l.kind == "S")
    balanced = all(counts[(crossing, "A")] == counts[(crossing, "B")] for crossing, _ in counts)
    return set() if balanced else {4}
