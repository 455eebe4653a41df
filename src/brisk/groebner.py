"""Buchberger-based Groebner engine.

Provides reduced Groebner bases, normal forms, ideal membership,
elimination, and saturation.  One S-pair loop (``_basis_loop``) computes
these bases and the module bases of ``modules.module_groebner``.  It
keeps each lead as (position, exponent), position 0 for ideals, and each
new element goes through the Gebauer-Moeller update within its position:
criteria B_k, M and F, and for ideals the coprimality criterion, which
does not hold for modules.  Ideals take pairs smallest sugar first
(Giovini et al.), ties broken by lcm degree and then by index, so output
is deterministic for a fixed input; modules take the smallest packed lcm
first.  For homogeneous input the sugar of a pair is its lcm degree,
which makes the selection the normal strategy.

The Buchberger loop runs on plain ints, for coefficients and monomials
alike.  Over Q every basis element is a primitive integer polynomial with
a positive lead and S-polynomials are reduced fraction-free; over GF(p)
(any GFElement among the generators) coefficients are ints mod p and
basis elements are monic.  Either way each remainder is a nonzero scalar
multiple of the one over the field, so the pairs, leads and reduction
counts are those of field arithmetic.  Monomials are packed into ints by
a ``kernel.Packing`` sized from the input degrees; when an exponent
outgrows it, the computation starts again with fields twice as wide.
The pair criteria work on the exponent tuples of the leads.  The
finished basis is minimalized and tail-reduced on ints as well, and only
then goes back to monic Fraction or GFElement coefficients and exponent
tuples.  A ``GroebnerBasis`` packs its elements once, when it is made,
for ``normal_form``, which packs them wider for one call when that call
outgrows them.

Over Q the loop is guided by a trace modulo ``TRACE_PRIME`` = 32749
(Traverso 1988, "Groebner trace algorithms"), the largest prime below
2^15, so that a product of two residues fits one 30-bit digit of a
CPython int; the sums of ``kernel.normal_form``, reduced mod p only
when they lead, outgrow that digit.  The trace keeps a monic mod-p
image of every integer reducer.  Each pair taken is first reduced mod
p; when that gives zero the pair is skipped, and otherwise it is
reduced over Q and pushed as without the trace.  Unless a skipped pair
was a false zero (below), the pairs taken are those of the loop without
the trace, and only the reductions over Q that give zero are saved.
The trace starts at the first basis element whose primitive lead
coefficient is not 1: before it no reduction over Z rescales, and one
costs what a reduction mod p does.  If p divides a lead coefficient,
when the trace starts or at a later push, the trace stops and the rest
of the loop runs over Q alone.

A skipped pair may be a false zero, an S-polynomial whose remainder over
Q is nonzero but divisible by p.  So a basis that skipped a pair is
checked over Q before it is returned (Arnold 2003, "Modular algorithms
for computing Groebner bases"), on the skipped pairs and no others: the
loop records each as (i, j, lcm), and ``_proves_basis`` reduces one
S-polynomial per record by the reduced basis.  A pair takes the reduced
form of each of its loop elements that survived minimalization, tracked
by loop index since two generators may share a lead, and the loop
element itself otherwise.  Every other pair of the loop was reduced
exactly over Q or discarded by a criterion, so zero remainders for the
skipped ones prove the basis (the argument is in ``_proves_basis``).  If
a check fails, the loop runs again over Q without the trace, so a basis
over Q that has not been checked is never returned.

All computations respect a configurable resource budget; exceeding it
raises BudgetExceededError rather than ever returning a wrong basis.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from . import kernel
from .errors import BudgetExceededError, RingMismatchError
from .orders import MonomialOrder, elim, grevlex
from .polyring import MultiPoly, PolyRing


@dataclass(frozen=True)
class Budget:
    """Resource caps for basis computations and certificate searches.

    ``max_pairs`` counts the S-pairs taken off the queue for reduction;
    pairs that the pair criteria discard never count.  Bases of ideals and
    of modules run on the same loop and count their pairs the same way.
    Over Q a pair counts when it is taken, whether the modular trace then
    skips it or not, so the trace takes and counts the pairs of the loop
    without it.  A run that reaches a cap after skipping a pair runs again
    without the trace, and a failed check does too; each run is metered
    afresh.  The check of a finished basis is not metered.
    ``max_matrix_entries`` caps the linear systems of certificate
    searches.  A cap may be 0 but not negative.
    """

    max_pairs: int = 200_000
    max_matrix_entries: int = 200_000

    def __post_init__(self):
        for name in ("max_pairs", "max_matrix_entries"):
            cap = getattr(self, name)
            if cap < 0:
                raise ValueError(f"budget cap {name} must be >= 0, got {cap}")


DEFAULT_BUDGET = Budget()

# the prime of the trace over Q (see the module docstring)
TRACE_PRIME = 32749


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
    """A reduced, monic Groebner basis (canonical for the given order).

    The constructor makes its elements monic and packs them once:
    ``_packed`` is the (packing, reducers) pair of ``reducers`` at the
    width of the basis degrees.  The basis never changes after
    construction, so it is safe to share between threads.
    ``normal_form`` widens through ``kernel.widening``: when an input or
    a remainder outgrows the packed fields, that call divides by reducers
    packed wider, which it builds for itself."""

    __slots__ = ("ring", "order", "basis", "_packed")

    def __init__(self, ring: PolyRing, order: MonomialOrder, basis):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "basis", tuple(g.monic(order) for g in basis))
        degree = max((g.degree() for g in self.basis), default=0)
        object.__setattr__(self, "_packed", self.reducers(kernel.bits_for(degree)))

    def __setattr__(self, *a):
        raise AttributeError("GroebnerBasis is immutable")

    def reducers(self, bits: int):
        """(packing, reducers) of the basis with fields ``bits`` wide: the
        monic ``kernel.normal_form`` reducers under this order.  Raises
        OverflowError when an element does not fit the width."""
        packing = kernel.packing(self.order.spec(), self.ring.nvars, bits)
        reducers = []
        for g in self.basis:
            terms = packing.pack_terms(g.terms)
            reducers.append(kernel.reducer(max(terms), terms))
        return packing, tuple(reducers)

    def leading_exponents(self) -> list[tuple[int, ...]]:
        packing, reducers = self._packed
        return [packing.unpack(r[0]) for r in reducers]

    def normal_form(self, p: MultiPoly) -> MultiPoly:
        if p.ring != self.ring:
            raise RingMismatchError("polynomial not in the basis ring")
        if not self.basis:
            return MultiPoly(self.ring, kernel.normal_form(p.terms, (), None))
        bits = self._packed[0].bits

        def run(width):
            packing, reducers = self._packed if width == bits else self.reducers(width)
            nf = kernel.normal_form(packing.pack_terms(p.terms), reducers, packing)
            return MultiPoly(self.ring, packing.unpack_terms(nf))

        return kernel.widening(run, bits)

    def contains(self, p: MultiPoly) -> bool:
        return not self.normal_form(p)

    def __iter__(self):
        return iter(self.basis)

    def __len__(self):
        return len(self.basis)

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.basis)
        return f"GroebnerBasis[{self.order}]{{{inside}}}"


def _nf_terms(terms, reducers, packing, modulus=None, firsts=None):
    return kernel.normal_form(terms, reducers, packing, modulus, firsts)


def buchberger(
    ideal: Ideal,
    order: MonomialOrder = grevlex(),
    budget: Budget = DEFAULT_BUDGET,
) -> GroebnerBasis:
    """Reduced Groebner basis of ``ideal`` with respect to ``order``."""
    ring = ideal.ring
    modulus = kernel.field_modulus(ideal.gens)
    gens = [(kernel.to_ints(g.terms, modulus), g.degree()) for g in ideal.gens]

    def run(bits):
        packing = kernel.packing(order.spec(), ring.nvars, bits)
        basis = _packed_basis(gens, packing, modulus, budget)
        return [MultiPoly(ring, packing.unpack_terms(t)) for t in basis]

    polys = kernel.widening(run, kernel.bits_for(max((d for _, d in gens), default=0)))
    return GroebnerBasis(ring, order, polys)


def _packed_basis(gens, packing, modulus: int | None, budget: Budget) -> list[dict]:
    """The reduced basis of integer ``gens`` (terms and sugar) as packed,
    monic field terms; OverflowError when ``packing`` is too narrow.

    Over Q the loop runs with the trace; a basis that skipped a pair is
    returned only once ``_proves_basis`` has checked the pairs skipped,
    and otherwise the loop runs again without the trace."""
    gens = [(packing.pack_terms(t), d) for t, d in gens]
    loop, skipped = _basis_loop(gens, packing, modulus, budget, modulus is None)
    reduced = None if loop is None else _reduce_basis(loop, packing, modulus)
    if skipped and (reduced is None or not _proves_basis(reduced, loop, skipped, packing)):
        loop, _ = _basis_loop(gens, packing, modulus, budget, False)
        reduced = _reduce_basis(loop, packing, modulus)
    # the loop's coefficients can be far longer than the reduced ones;
    # free them before the conversion, which would otherwise set the peak
    del loop
    return [kernel.from_ints(t, max(t), modulus) for t in reduced.values()]


def _basis_loop(gens, layout, modulus, budget: Budget, trace: bool, pair_key=None):
    """(basis, skipped) for packed integer ``gens`` (terms and sugar): the
    basis as normalized integer terms (primitive over Z, monic mod p) in
    the order found, and the pairs (i, j, packed lcm) that the trace
    skipped, in the order taken; ``(None, skipped)`` when a cap fires
    after a skipped pair, because the pairs taken may then differ from
    those of the run without the trace.  ``layout`` is an ideal's
    ``kernel.Packing``, or a module's ``modules.Layout`` with its
    ``pair_key(pos, lcm, sugar)``; elements with no term at or above
    ``layout.flag`` (only relation terms) never join the basis."""
    if pair_key is None:
        flag, coprime, pair_key = 0, True, _sugar_key
        lead = lambda key: (0, layout.unpack(key))
        pack = lambda pos, exp: layout.pack(exp)
    else:
        lead, pack, flag, coprime = layout.unpack, layout.pack, layout.flag, False
    guard = layout.guard
    basis_terms: list[dict] = []
    leads: list[tuple] = []  # (position, exponent) of each lead
    sugars: list[int] = []
    reducers: list[tuple] = []
    # elements whose lead no later lead divides; only they get new pairs,
    # while every element stays a reducer in its list position
    active: list[int] = []
    pending: list[tuple] = []  # heap of (key, i, j, lcm, sugar)
    images = None  # monic mod-p images of ``reducers`` while the trace runs
    # first-divisor memos of ``kernel.normal_form``, one per reducer list
    firsts: dict = {}
    image_firsts: dict = {}

    def push(terms: dict, sugar: int):
        """Append a basis element (and its image while the trace runs)."""
        nonlocal trace, images
        key = max(terms)
        if key < flag:
            return
        terms = kernel.normalized(terms, key, modulus)
        basis_terms.append(terms)
        leads.append(lead(key))
        sugars.append(sugar)
        reducers.append(kernel.reducer(key, terms))
        if trace and (images or terms[key] != 1):
            # the trace starts or goes on; a lead coefficient that the
            # prime divides ends it
            images = images or []
            for r in reducers[len(images):]:
                if not r[1] % TRACE_PRIME:
                    trace, images = False, None
                    break
                images.append(_image(r))
        _update(pending, active, leads, sugars, pair_key, coprime)

    for terms, sugar in gens:
        push(terms, sugar)

    taken = 0
    skipped: list[tuple] = []
    while pending:
        _, i, j, lcm_exp, sugar = heapq.heappop(pending)
        taken += 1
        if taken > budget.max_pairs:
            if skipped:
                return None, skipped
            raise BudgetExceededError(
                f"budget exhausted: more than {budget.max_pairs} S-pairs "
                "(raise max_pairs / --budget-pairs)"
            )
        lcm_key = pack(leads[i][0], lcm_exp)
        if images:
            s = kernel.s_poly(images[i], images[j], lcm_key, guard, TRACE_PRIME)
            if not kernel.normal_form(s, images, layout, TRACE_PRIME, image_firsts):
                skipped.append((i, j, lcm_key))
                continue
        s = kernel.s_poly(reducers[i], reducers[j], lcm_key, guard, modulus)
        nf = _nf_terms(s, reducers, layout, modulus, firsts)
        if nf:
            push(nf, sugar)
    return basis_terms, skipped


def _image(r: tuple) -> tuple:
    """The monic image mod ``TRACE_PRIME`` of an integer reducer whose
    lead coefficient the prime does not divide."""
    lead, lc, tail = r
    inv = pow(lc, -1, TRACE_PRIME)
    tail = tuple((e, v) for e, c in tail if (v := c * inv % TRACE_PRIME))
    return lead, 1, tail


def _sugar_key(pos: int, lcm_exp: tuple, sugar: int) -> tuple:
    return sugar, kernel.mono_deg(lcm_exp)


def _update(pending: list, active: list, leads: list, sugars: list, pair_key, coprime) -> None:
    """The Gebauer-Moeller update for the last element h of ``leads``
    within its position: prune the heap ``pending`` of (key, i, j, lcm,
    sugar) pairs, push the new pairs (i, h) under ``pair_key`` and update
    ``active`` in place; the coprimality criterion only if ``coprime``."""
    h = len(leads) - 1
    pos, lh = leads[h]
    # B_k: drop (i, j) when lt(h) divides lcm(i, j) and lcm(i, h) and
    # lcm(j, h) both differ from it
    kept = [
        p
        for p in pending
        if leads[p[1]][0] != pos
        or not kernel.mono_divides(lh, p[3])
        or kernel.mono_lcm(leads[p[1]][1], lh) == p[3]
        or kernel.mono_lcm(leads[p[2]][1], lh) == p[3]
    ]
    if len(kept) < len(pending):
        pending[:] = kept
        heapq.heapify(pending)
    # M and F: one new pair (i, h) per minimal lcm, none where that
    # lcm is also reached by a coprime pair (which reduces to zero)
    first: dict[tuple, int] = {}
    coprimes: set[tuple] = set()
    for i in active:
        pi, li = leads[i]
        if pi == pos:
            lcm_exp = kernel.mono_lcm(li, lh)
            first.setdefault(lcm_exp, i)
            if coprime and lcm_exp == kernel.mono_mul(li, lh):
                coprimes.add(lcm_exp)
    gap_h = sugars[h] - kernel.mono_deg(lh)
    for lcm_exp in kernel.minimal_generators(first):
        if lcm_exp in coprimes:
            continue
        i = first[lcm_exp]
        sugar = max(sugars[i] - kernel.mono_deg(leads[i][1]), gap_h) + kernel.mono_deg(lcm_exp)
        heapq.heappush(pending, (pair_key(pos, lcm_exp, sugar), i, h, lcm_exp, sugar))
    active[:] = [
        i for i in active if leads[i][0] != pos or not kernel.mono_divides(lh, leads[i][1])
    ]
    active.append(h)


def _reduce_basis(basis_terms: list[dict], packing, modulus: int | None) -> dict[int, dict]:
    """Minimalize and tail-reduce a packed integer basis into the reduced
    GB: fraction-free over Z, ints mod p over GF(p), each element
    normalized as in the loop.  Keyed by the index in ``basis_terms`` of
    the element each one reduces, in ascending lead order; of elements
    with equal leads the first survives."""
    guard = packing.guard
    leads = [max(t) for t in basis_terms]
    minimal = []
    for k in sorted(range(len(leads)), key=leads.__getitem__):
        lead = leads[k]
        if any(not (lead - l2) & guard for _, l2, _ in minimal):
            continue
        minimal.append((k, lead, basis_terms[k]))
    reducers = [kernel.reducer(lead, t) for _, lead, t in minimal]
    return {
        k: kernel.normalized(
            _nf_terms(t, reducers[:idx] + reducers[idx + 1 :], packing, modulus), lead, modulus
        )
        for idx, (k, lead, t) in enumerate(minimal)
    }


def _proves_basis(reduced: dict[int, dict], loop: list[dict], skipped, packing) -> bool:
    """True when every pair (i, j, lcm) that the trace ``skipped`` has an
    S-polynomial that the ``reduced`` integer basis of ``_reduce_basis``
    reduces to 0 over Q; then that basis is the reduced Groebner basis of
    the ideal of the ``loop`` elements, which include the generators.

    Each pair takes the reduced forms of g_i and g_j where those loop
    elements survived minimalization, and the loop elements themselves
    otherwise; survival goes by loop index, since two generators may
    share a lead.  This proves the basis (Buchberger's criterion with
    t-representations and the Gebauer-Moeller criteria; Becker and
    Weispfenning, "Groebner Bases", 1993, section 5.5):

    - Every element of ``loop`` is a generator or the remainder over Q of
      an S-polynomial of earlier ones, so it lies in the ideal.
    - Every pair of the loop was reduced exactly over Q, discarded by a
      criterion, or skipped.  An exact reduction writes the S-polynomial
      of the pair over the loop elements with every term below the lcm
      t of its leads, the remainder (0 or a pushed element) included.
    - Tail reduction leaves the lead of g_i and only subtracts multiples
      of loop elements with smaller leads.  So a skipped pair whose
      S-polynomial of reduced forms reduces to 0 by the reduced basis has
      such a representation below t over the loop elements as well.
    - The Gebauer-Moeller criteria then cover the pairs they discarded,
      so the loop elements form a Groebner basis of the ideal, and the
      reduced basis made from them is its reduced one."""
    reducers = [kernel.reducer(max(t), t) for t in reduced.values()]
    firsts: dict = {}
    for i, j, lcm_key in skipped:
        ti, tj = reduced.get(i, loop[i]), reduced.get(j, loop[j])
        ri, rj = kernel.reducer(max(ti), ti), kernel.reducer(max(tj), tj)
        s = kernel.s_poly(ri, rj, lcm_key, packing.guard, None)
        if _nf_terms(s, reducers, packing, None, firsts):
            return False
    return True


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
