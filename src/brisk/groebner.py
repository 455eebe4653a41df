"""Buchberger-based Groebner engine.

Provides reduced Groebner bases, normal forms, ideal membership,
elimination, and saturation.  Pair selection follows the normal strategy
(smallest lcm degree first) with Buchberger's coprimality and chain
criteria for pruning, so output is deterministic for a fixed input.

All computations respect a configurable resource budget; exceeding it
raises BudgetExceededError rather than ever returning a wrong basis.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from . import kernel
from .errors import BudgetExceededError, RingMismatchError
from .orders import MonomialOrder, elim, grevlex, key_of
from .polyring import MultiPoly, PolyRing


@dataclass(frozen=True)
class Budget:
    """Resource caps for basis computations and certificate searches."""

    max_pairs: int = 200_000
    max_degree: int | None = None
    max_matrix_entries: int = 200_000


DEFAULT_BUDGET = Budget()


class Ideal:
    """A finitely generated ideal; zero generators are dropped."""

    __slots__ = ("ring", "gens")

    def __init__(self, ring: PolyRing, gens):
        gens = tuple(g for g in gens if g)
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError(f"generator {g!r} not in {ring}")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "gens", gens)

    def __setattr__(self, *a):
        raise AttributeError("Ideal is immutable")

    def is_zero(self) -> bool:
        return not self.gens

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.gens)

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.gens) or "0"
        return f"Ideal({inside})"


class GroebnerBasis:
    """A reduced, monic Groebner basis (canonical for the given order)."""

    __slots__ = ("ring", "order", "basis", "_reducers")

    def __init__(self, ring: PolyRing, order: MonomialOrder, basis):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "basis", tuple(basis))
        spec = order.spec()
        reducers = []
        for g in self.basis:
            lead = kernel.leading_exponent(g.terms, spec)
            tail = tuple((e, c) for e, c in g.terms.items() if e != lead)
            reducers.append((lead, tail))
        object.__setattr__(self, "_reducers", tuple(reducers))

    def __setattr__(self, *a):
        raise AttributeError("GroebnerBasis is immutable")

    def leading_exponents(self) -> list[tuple[int, ...]]:
        return [lead for lead, _ in self._reducers]

    def normal_form(self, p: MultiPoly) -> MultiPoly:
        if p.ring != self.ring:
            raise RingMismatchError("polynomial not in the basis ring")
        return MultiPoly(
            self.ring, kernel.normal_form(p.terms, self._reducers, self.order.spec())
        )

    def contains(self, p: MultiPoly) -> bool:
        return not self.normal_form(p)

    def __iter__(self):
        return iter(self.basis)

    def __len__(self):
        return len(self.basis)

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.basis)
        return f"GroebnerBasis[{self.order}]{{{inside}}}"


def s_polynomial(g1: MultiPoly, g2: MultiPoly, order: MonomialOrder) -> MultiPoly:
    """S(g1, g2) = (lcm/lt1) g1 - (lcm/lt2) g2."""
    spec = order.spec()
    e1, c1 = g1.leading(order)
    e2, c2 = g2.leading(order)
    lcm = kernel.mono_lcm(e1, e2)
    m1 = g1.ring.monomial(kernel.mono_div(lcm, e1), 1 / c1)
    m2 = g2.ring.monomial(kernel.mono_div(lcm, e2), 1 / c2)
    return m1 * g1 - m2 * g2


def _nf_terms(terms, reducers, spec):
    return kernel.normal_form(terms, reducers, spec)


def buchberger(
    ideal: Ideal,
    order: MonomialOrder = grevlex(),
    budget: Budget = DEFAULT_BUDGET,
) -> GroebnerBasis:
    """Reduced Groebner basis of ``ideal`` with respect to ``order``."""
    ring = ideal.ring
    spec = order.spec()

    basis_terms: list[dict] = []
    leads: list[tuple[int, ...]] = []
    reducers: list[tuple] = []

    def push(terms: dict):
        lead = kernel.leading_exponent(terms, spec)
        c = terms[lead]
        one = c / c
        if c != one:
            terms = {e: v / c for e, v in terms.items()}
        basis_terms.append(terms)
        leads.append(lead)
        reducers.append((lead, tuple((e, v) for e, v in terms.items() if e != lead)))

    pending: list[tuple] = []  # heap of (lcm degree, i, j)
    in_queue: set[tuple[int, int]] = set()

    def queue_pairs(j: int):
        for i in range(j):
            lcm = kernel.mono_lcm(leads[i], leads[j])
            heapq.heappush(pending, (kernel.mono_deg(lcm), i, j))
            in_queue.add((i, j))

    for g in ideal.gens:
        push(dict(g.terms))
        queue_pairs(len(basis_terms) - 1)

    pops = 0
    while pending:
        deg, i, j = heapq.heappop(pending)
        in_queue.discard((i, j))
        pops += 1
        if pops > budget.max_pairs:
            raise BudgetExceededError(
                f"budget exhausted: more than {budget.max_pairs} S-pairs "
                "(raise max_pairs / --budget-pairs)"
            )
        if budget.max_degree is not None and deg > budget.max_degree:
            raise BudgetExceededError(
                f"budget exhausted: S-pair lcm degree {deg} exceeds "
                f"{budget.max_degree} (raise max_degree)"
            )
        li, lj = leads[i], leads[j]
        lcm = kernel.mono_lcm(li, lj)
        # coprimality criterion
        if lcm == kernel.mono_mul(li, lj):
            continue
        # chain criterion
        skip = False
        for k in range(len(leads)):
            if k in (i, j) or not kernel.mono_divides(leads[k], lcm):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in in_queue and b not in in_queue:
                skip = True
                break
        if skip:
            continue
        # S-polynomial reduction (both generators are monic)
        si = kernel.mono_div(lcm, li)
        sj = kernel.mono_div(lcm, lj)
        s = kernel.poly_sub(
            kernel.poly_mul({si: _one_like(basis_terms[i])}, basis_terms[i]),
            kernel.poly_mul({sj: _one_like(basis_terms[j])}, basis_terms[j]),
        )
        nf = _nf_terms(s, reducers, spec)
        if nf:
            push(nf)
            queue_pairs(len(basis_terms) - 1)

    return GroebnerBasis(ring, order, _reduce_basis(ring, basis_terms, order))


def _one_like(terms: dict):
    c = next(iter(terms.values()))
    return c / c


def _reduce_basis(ring: PolyRing, basis_terms: list[dict], order: MonomialOrder):
    """Minimalize and tail-reduce a monic basis into the reduced GB."""
    spec = order.spec()
    entries = [(kernel.leading_exponent(t, spec), t) for t in basis_terms if t]
    entries.sort(key=lambda it: key_of(it[0], spec))
    minimal = []
    for lead, t in entries:
        if any(kernel.mono_divides(l2, lead) for l2, _ in minimal):
            continue
        minimal.append((lead, t))
    out = []
    for idx, (lead, t) in enumerate(minimal):
        others = [
            (l2, tuple((e, c) for e, c in t2.items() if e != l2))
            for k, (l2, t2) in enumerate(minimal)
            if k != idx
        ]
        nf = _nf_terms(t, others, spec)
        out.append(MultiPoly(ring, nf))
    return out


def normal_form(p: MultiPoly, G: GroebnerBasis) -> MultiPoly:
    """Canonical remainder of p modulo the ideal of G; zero iff p is in it.

    Linear in p: NF(a p + b q) = a NF(p) + b NF(q).
    """
    return G.normal_form(p)


def membership(
    p: MultiPoly, ideal: Ideal, budget: Budget = DEFAULT_BUDGET
) -> bool:
    """True iff p lies in ``ideal`` (normal form vanishes)."""
    return buchberger(ideal, grevlex(), budget).contains(p)


def eliminate(
    ideal: Ideal, k: int, budget: Budget = DEFAULT_BUDGET
) -> Ideal:
    """Generators of the elimination ideal: members not involving the
    first k ring variables."""
    if k == 0:
        return Ideal(ideal.ring, ideal.gens)
    if k > ideal.ring.nvars:
        raise ValueError("cannot eliminate more variables than the ring has")
    gb = buchberger(ideal, elim(k), budget)
    kept = [g for g in gb if all(e[:k] == (0,) * k for e in g.terms)]
    return Ideal(ideal.ring, kept)


def _restrict_away_front(p: MultiPoly, target: PolyRing) -> MultiPoly:
    drop = p.ring.nvars - target.nvars
    for e in p.terms:
        if any(e[:drop]):
            raise ValueError("polynomial involves eliminated variables")
    return MultiPoly(target, {e[drop:]: c for e, c in p.terms.items()})


def _fresh_name(ring: PolyRing, stem: str = "t") -> str:
    if stem not in ring.names:
        return stem
    i = 0
    while f"{stem}{i}_" in ring.names:
        i += 1
    return f"{stem}{i}_"


def saturate(
    ideal: Ideal, f: MultiPoly, budget: Budget = DEFAULT_BUDGET
) -> Ideal:
    """(I : f^infinity) via the Rabinowitsch trick: adjoin t, eliminate t
    from I + (1 - t f)."""
    if not f:
        raise ValueError("cannot saturate by the zero polynomial")
    ring = ideal.ring
    big = ring.extend_front(_fresh_name(ring))
    lift = [MultiPoly(big, {(0,) + e: c for e, c in g.terms.items()}) for g in ideal.gens]
    t = big.var(0)
    f_big = MultiPoly(big, {(0,) + e: c for e, c in f.terms.items()})
    trick = big.one() - t * f_big
    elim_ideal = eliminate(Ideal(big, lift + [trick]), 1, budget)
    return Ideal(ring, [_restrict_away_front(g, ring) for g in elim_ideal.gens])
