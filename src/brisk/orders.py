"""Monomial orders: names and specs.

Three total orders are provided, each refining divisibility and compatible
with monomial multiplication:

  * grevlex   -- graded reverse lexicographic (the default everywhere),
  * lex       -- pure lexicographic,
  * elim(k)   -- block order eliminating the first k variables: grevlex on
                 the first block, ties broken by grevlex on the rest.

An optional variable permutation is applied before comparison, so any
subset of variables can be moved to the front of an elimination block.

An order is described by a small ``spec`` tuple ``(kind, block, perm)``.
This module compares nothing: ``kernel.Packing`` turns a spec into one
int per monomial, and comparing those ints is the order.
"""

from __future__ import annotations

from dataclasses import dataclass

GREVLEX = 0
LEX = 1
ELIM = 2

_KIND_NAMES = {GREVLEX: "grevlex", LEX: "lex", ELIM: "elim"}


@dataclass(frozen=True)
class MonomialOrder:
    """A total monomial order: kind, elimination block size, permutation.

    ``perm`` lists variable indices in priority order; None means identity.
    """

    kind: int
    block: int = 0
    perm: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in _KIND_NAMES:
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.kind == ELIM and self.block < 1:
            raise ValueError("elimination order needs a block size >= 1")

    @property
    def name(self) -> str:
        if self.kind == ELIM:
            return f"elim({self.block})"
        return _KIND_NAMES[self.kind]

    def spec(self) -> tuple[int, int, tuple[int, ...] | None]:
        """Kernel-facing description of this order."""
        return (self.kind, self.block, self.perm)

    def __str__(self) -> str:
        if self.perm is not None:
            return f"{self.name}[perm={self.perm}]"
        return self.name


def grevlex(perm: tuple[int, ...] | None = None) -> MonomialOrder:
    return MonomialOrder(GREVLEX, 0, perm)


def lex(perm: tuple[int, ...] | None = None) -> MonomialOrder:
    return MonomialOrder(LEX, 0, perm)


def elim(block: int, perm: tuple[int, ...] | None = None) -> MonomialOrder:
    """Block order in which the first ``block`` (permuted) variables are
    eliminated: any monomial involving them beats any monomial that does not.
    """
    return MonomialOrder(ELIM, block, perm)
