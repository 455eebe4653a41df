"""Monomial orders: names and kinds.

Three total orders are provided, each refining divisibility and compatible
with monomial multiplication:

  * grevlex   -- graded reverse lexicographic (the default everywhere),
  * lex       -- pure lexicographic,
  * elim(k)   -- block order eliminating the first k variables: grevlex on
                 the first block, ties broken by grevlex on the rest.

Variables are compared in ring order.  An order is its ``kind`` and
elimination ``block``.  This module compares nothing: ``kernel.Packing``
turns an order into one int per monomial, and comparing those ints is
the order.
"""

from __future__ import annotations

from dataclasses import dataclass

GREVLEX = 0
LEX = 1
ELIM = 2

_KIND_NAMES = {GREVLEX: "grevlex", LEX: "lex", ELIM: "elim"}


@dataclass(frozen=True)
class MonomialOrder:
    """A total monomial order: kind and elimination block size."""

    kind: int
    block: int = 0

    def __post_init__(self):
        if self.kind not in _KIND_NAMES:
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.kind == ELIM and self.block < 1:
            raise ValueError("elimination order needs a block size >= 1")

    def __str__(self) -> str:
        if self.kind == ELIM:
            return f"elim({self.block})"
        return _KIND_NAMES[self.kind]


def grevlex() -> MonomialOrder:
    return MonomialOrder(GREVLEX)


def lex() -> MonomialOrder:
    return MonomialOrder(LEX)


def elim(block: int) -> MonomialOrder:
    """Block order in which the first ``block`` variables are eliminated:
    any monomial involving them beats any monomial that does not.
    """
    return MonomialOrder(ELIM, block)
