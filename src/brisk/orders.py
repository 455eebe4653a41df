"""Monomial orders on exponent tuples.

Three total orders are provided, each refining divisibility and compatible
with monomial multiplication:

  * grevlex   -- graded reverse lexicographic (the default everywhere),
  * lex       -- pure lexicographic,
  * elim(k)   -- block order eliminating the first k variables: grevlex on
                 the first block, ties broken by grevlex on the rest.

An optional variable permutation is applied before comparison, so any
subset of variables can be moved to the front of an elimination block.

An order is described by a small ``spec`` tuple ``(kind, block, perm)``.
``key_of(exp, spec)`` is the one sort key (max() gives the leading
monomial), and ``MonomialOrder.key`` delegates to it.  Inside the
Groebner engine, ``kernel.Packing`` encodes the same orders as ints.
"""

from __future__ import annotations

from dataclasses import dataclass

GREVLEX = 0
LEX = 1
ELIM = 2

_KIND_NAMES = {GREVLEX: "grevlex", LEX: "lex", ELIM: "elim"}


def key_of(exp: tuple[int, ...], spec):
    """Sort key of ``exp`` under the order ``spec``; max(key) leads."""
    kind, block, perm = spec
    if perm is not None:
        exp = tuple(exp[i] for i in perm)
    if kind == GREVLEX:
        return (sum(exp), tuple(-x for x in reversed(exp)))
    if kind == LEX:
        return exp
    a, b = exp[:block], exp[block:]
    return (sum(a), tuple(-x for x in reversed(a)), sum(b), tuple(-x for x in reversed(b)))


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

    def key(self, exp: tuple[int, ...]):
        """Sort key; max(key) is the leading monomial."""
        return key_of(exp, (self.kind, self.block, self.perm))

    def sorted_exponents(self, exps, reverse: bool = True) -> list:
        """Exponents sorted descending (leading monomial first) by default."""
        return sorted(exps, key=self.key, reverse=reverse)

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
