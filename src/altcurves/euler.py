"""Euler characteristic of a configuration's glued-up surface, in closed form.

Each curve word bounds a polygon on its sphere whose corners are its saddle
letters; the saddles of a crossing glue four corners (plus and minus sphere,
channel A and B) around one vertex.  On a balanced configuration, whose
minus sphere mirrors its plus sphere, the four stacks at each crossing are
equal, so with w plus words and s plus saddles the complex has V = s/2,
E = s and F = 2w.  The tests check this against the glued complex itself.
"""

from __future__ import annotations

from .words import Configuration

__all__ = ["euler_crosscheck"]


def euler_crosscheck(cfg: Configuration) -> int:
    """Characteristic V - E + F = 2w - s/2 of a balanced configuration."""
    return 2 * len(cfg.words_plus) - cfg.s // 2
