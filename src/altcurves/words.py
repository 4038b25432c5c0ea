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
     hold it by pattern, so nothing checks it at run time)
  4  at each crossing, equally many passages through the two channels
  5  no two cyclically consecutive punctures on the same arc
  6  no saddle passage cyclically adjacent to a puncture of an arc that ends
     at that crossing
  7  no word of the form P^i S^j with j > 0
  8  at least two punctures per word
  9  word length at least 4 and even

Property 1 (each curve bounds a disk) is a modeling assumption and has no
check.

The specialized and general enumerators build their words to pass these
checks and never call `check_word`.  It is the brute-force oracle's filter,
and the tests run it on what the enumerators emit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .dualgraph import AugmentedDualGraph, SaddleChannel
from .errors import PreconditionError

__all__ = [
    "Letter",
    "CurveWord",
    "Violation",
    "Configuration",
    "canonicalize",
    "word_pattern",
    "serialize_word",
    "check_word",
    "check_configuration",
    "channel_counts",
    "make_configuration",
]


class Letter(NamedTuple):
    """kind 'P' with an arc ref, or kind 'S' with a SaddleChannel ref.

    Letters of different kinds differ in their first field, so an arc is
    never compared with a channel.
    """

    kind: str
    ref: int | SaddleChannel

    def __str__(self) -> str:
        return f"{self.kind}{self.ref}"


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


def canonicalize(w: CurveWord) -> CurveWord:
    """Least representative over all rotations of both directions.

    Rotations are compared as (letters, faces) tuples, the order of
    `CurveWord`, and only the least one is built as a word.  A least
    rotation starts at a least letter, so only those rotations are compared.
    """
    best = None
    for base in (w, w.reversed()):
        letters, faces = base.letters, base.faces
        first = min(letters)
        for r in range(len(letters)):
            if letters[r] != first:
                continue
            key = (letters[r:] + letters[:r], faces[r:] + faces[:r])
            if best is None or key < best:
                best = key
    return CurveWord(*best)


def word_pattern(w: CurveWord) -> str:
    """The P/S skeleton, e.g. 'PSPS'."""
    return "".join([l.kind for l in w.letters])


def serialize_word(w: CurveWord) -> str:
    """Space-separated letters, e.g. 'P1 S3A P4 S5B'."""
    return " ".join(str(l) for l in w.letters)


@dataclass(frozen=True)
class Violation:
    """A failed constraint: property number, letter/word position, detail."""

    prop: int
    position: int
    message: str


def _assert_walk(g: AugmentedDualGraph, w: CurveWord) -> None:
    for i, letter in enumerate(w.letters):
        here, there = w.faces[i], w.faces[(i + 1) % len(w)]
        edge = g.p_edges.get(letter.ref) if letter.kind == "P" else g.s_edges.get(letter.ref)
        if edge is None or tuple(sorted((here, there))) != edge:
            raise PreconditionError(
                f"letter {letter} at position {i} does not join faces {here},{there}"
            )


def check_word(g: AugmentedDualGraph, w: CurveWord) -> list[Violation]:
    """All word-level constraint failures, in property order.

    The word must be a closed walk in `g` (PreconditionError otherwise).
    """
    _assert_walk(g, w)
    out: list[Violation] = []
    n = len(w)

    seen: dict[SaddleChannel, int] = {}
    for i, letter in enumerate(w.letters):
        if letter.kind != "S":
            continue
        if letter.ref in seen:
            out.append(Violation(2, i, f"channel {letter.ref} reused "
                                       f"(first use at {seen[letter.ref]})"))
        else:
            seen[letter.ref] = i

    for i, letter in enumerate(w.letters):
        nxt = w.letters[(i + 1) % n]
        if letter.kind == "P" and nxt.kind == "P" and letter.ref == nxt.ref:
            out.append(Violation(5, i, f"arc {letter.ref} punctured twice in a row"))

    for i, letter in enumerate(w.letters):
        nxt = w.letters[(i + 1) % n]
        pair = None
        if letter.kind == "S" and nxt.kind == "P":
            pair = (letter.ref, nxt.ref)
        elif letter.kind == "P" and nxt.kind == "S":
            pair = (nxt.ref, letter.ref)
        if pair is not None:
            channel, arc = pair
            if channel.crossing in g.arc_crossings(arc):
                out.append(Violation(6, i, f"saddle at crossing {channel.crossing} "
                                           f"adjacent to puncture of arc {arc}"))

    s_total = w.s_count
    if s_total:
        blocks = sum(
            1
            for i in range(n)
            if w.letters[i].kind == "P" and w.letters[(i + 1) % n].kind == "S"
        )
        if blocks <= 1:
            first_s = next(i for i, l in enumerate(w.letters) if l.kind == "S")
            out.append(Violation(7, first_s, "word has the shape P^i S^j"))

    if w.p_count < 2:
        out.append(Violation(8, 0, f"only {w.p_count} puncture letters"))

    if n < 4 or n % 2 == 1:
        out.append(Violation(9, 0, f"length {n} is below 4 or odd"))

    return sorted(out, key=lambda v: (v.prop, v.position))


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
    canonicalized again.
    """
    return Configuration(tuple(sorted(words)))


def channel_counts(words) -> Counter[SaddleChannel]:
    """Passages through each channel; a channel equals its (crossing, side)."""
    return Counter(l.ref for w in words for l in w.letters if l.kind == "S")


def check_configuration(g: AugmentedDualGraph, cfg: Configuration) -> list[Violation]:
    """Configuration-level failures: channel balance (property 4).

    The two channels of a crossing carry one passage per saddle each.  The
    minus sphere mirrors the plus sphere, so one sphere is checked.
    """
    counts = channel_counts(cfg.words_plus)
    out: list[Violation] = []
    for crossing in sorted({ch.crossing for ch in counts}):
        a, b = counts[(crossing, "A")], counts[(crossing, "B")]
        if a != b:
            out.append(Violation(
                4, crossing,
                f"crossing {crossing} has {a} passages through channel A but {b} through B",
            ))
    return out
