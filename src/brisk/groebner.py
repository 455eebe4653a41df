"""Buchberger-based Groebner engine.

Provides reduced Groebner bases, normal forms, ideal membership,
elimination, and saturation.  Two S-pair loops compute the bases, and
``_packed_basis`` picks one from two properties of the input, the order
and the generator count:

- A grevlex ideal with at most nvars generators takes the signature
  loop (``_signature_loop``).  These are the complete-intersection shape
  of the membership problems: ``buchberger``'s default-order bases, the
  truncated basis of ``certificate.minimal_degree`` and the variety and
  Hilbert-series bases.  Most syzygies of such generators are Koszul
  syzygies, which the signature criteria discard without a reduction;
  on a regular sequence no pair reduces to zero.
- Every other ideal (more generators than variables, or an elim or lex
  order) and every module basis (``modules.module_groebner``) takes the
  Gebauer-Moeller loop (``_basis_loop``).  More generators than
  variables cannot form a complete intersection, most of their syzygies
  are not Koszul, and a signature basis of them bloats.

Either loop's basis is a Groebner basis and goes through
``_reduce_basis``, so every ideal basis returned is the same canonical
reduced basis.

The Gebauer-Moeller loop keeps each lead as (position, exponent),
position 0 for ideals, and each new element goes through the
Gebauer-Moeller update within its position: criteria B_k, M and F, and
for ideals the coprimality criterion, which does not hold for modules.
Ideals take pairs smallest sugar first (Giovini et al.), ties broken by
lcm degree and then by index, so output is deterministic for a fixed
input; modules take the smallest packed lcm first.  For homogeneous
input the sugar of a pair is its lcm degree, which makes the selection
the normal strategy, and the loop can stop at a degree with a basis
truncated there.

The signature loop follows the rewrite-basis algorithm of Eder and
Faugere ("A survey on signature-based algorithms for computing Groebner
bases", 2017, section 7) with the J-pairs and Koszul syzygies of Gao,
Volny and Wang ("A new framework for computing Groebner bases", 2016),
after Faugere's F5 (2002).  Element g carries a signature sigma_g =
u*e_i, the lead of a representation g = sum a_j f_j.  Signatures are
ordered by deg u + deg f_i, then i, then u in grevlex.  On each e_i this
is grevlex, so it is a module order that extends the ring order and the
standard theory holds as stated.  The loop looks at signatures in
increasing order, each once: the e_i of the generators and the J-pair
signature max(a*sigma_g, b*sigma_h) of each pair with a*lt(g) =
b*lt(h) = lcm; a pair whose two sides are equal is singular and is
dropped.  A signature is discarded when a known syzygy signature of its
position divides it: the Koszul signature max(lt(h)*sigma_g,
lt(g)*sigma_h) of every two elements, and the signature of every
reduction to zero.  It is also discarded unless its J-pair comes from
the latest element r whose signature divides it (the rewrite rule).
What is left is reduced once, as (sigma/sigma_r)*r, by regular
reduction: reducer g may cancel monomial m only when (m/lt g)*sigma_g <
sigma, so the signature stays sigma (``kernel.normal_form`` with a
signature bound; tails are reduced the same way).  A remainder whose
lead is t*lt(g) for an element g with t*sigma_g = sigma is singular
and adds nothing.  A remainder of zero adds sigma to the syzygies, and any
other one joins the basis with signature sigma.  The elements so found
form a signature Groebner basis and hence a Groebner basis (Eder and
Faugere, section 7).  For homogeneous input the signature
degree is the polynomial degree, so signatures leave the heap in
nondecreasing degree, and a loop that stops before the first one above
a degree D has taken every signature of degree at most D: the basis is
a Groebner basis up to D (``certificate.minimal_degree`` picks its
degree from one).

Both loops run on plain ints, for coefficients and monomials alike.
Over Q every basis element is a primitive integer polynomial with a
positive lead and polynomials are reduced fraction-free; over GF(p)
(any GFElement among the generators) coefficients are ints mod p and
basis elements are monic.  Either way each remainder is a nonzero
scalar multiple of the one over the field, so the pairs, leads and
reduction counts are those of field arithmetic.  Monomials are packed
into ints by a ``kernel.Packing`` sized from the input degrees, and
signatures into ints of the same fields below a position and a degree
field; when an exponent outgrows them, the computation starts again
with fields twice as wide.  The Gebauer-Moeller criteria work on the
exponent tuples of the leads.  The signature loop keeps, per element,
a record made once when it joins (its rho, key(lt), its lead fields
laid out for a fieldwise-max lcm and a variable mask that skips coprime
leads), and per position its minimal syzygy signatures in
move-to-front order, so a divisor once found is tried first.  The
finished basis is minimalized and tail-reduced on ints as well,
and only then goes back to monic Fraction or GFElement coefficients
and exponent tuples.  A ``GroebnerBasis`` packs its elements once,
when it is made, for ``normal_form``, which packs them wider for one
call when that call outgrows them.

Over Q the Gebauer-Moeller loop keeps its ideal basis tail-reduced
(Becker and Weispfenning 1993, section 5.5) from the first element
whose primitive lead coefficient is not 1; before it no reduction over
Z rescales, and tail reduction would only add calls.  From then on,
after each push, every element that still gets new pairs and whose
tail holds a multiple of the new lead has that tail reduced by the
other elements, is made primitive again and replaces itself in place,
lead and position unchanged.  Integer remainders then stay near the
size of the reduced basis instead of growing with every S-polynomial
built from stale tails: on katsura-6 that loop's largest coefficient
has 119 bits, as in the reduced basis, where a loop that leaves tails
alone reaches 925.  The signature loop reduces every tail regularly
when it makes an element and never changes an element after, since
its signature is what the criteria read; on katsura-6 its largest
coefficient has 122 bits.  Over GF(p) every element is monic, so tails
are left alone there.

All computations respect a configurable resource budget; exceeding it
raises BudgetExceededError rather than ever returning a wrong basis.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from . import kernel
from .errors import BudgetExceededError, RingMismatchError
from .orders import GREVLEX, MonomialOrder, elim, grevlex
from .polyring import MultiPoly, PolyRing


@dataclass(frozen=True)
class Budget:
    """Resource caps for basis computations and certificate searches.

    ``max_pairs`` counts the S-pairs that a loop reduces.  On the
    Gebauer-Moeller loop (module bases, and ideals with more generators
    than variables or an elim or lex order) these are the pairs taken
    off the queue; pairs that the Gebauer-Moeller criteria discard never
    count, nor do the tail reductions of a basis over Q.  On the
    signature loop (other grevlex ideals) they are the J-pairs reduced
    after the syzygy criterion and the rewrite rule; a generator's own
    reduction does not count, so a cap of 0 still admits inputs that
    need no S-pair, such as [x, y].  The truncated basis that picks
    a scan's rho_min counts its pairs in the same way, up to the degree
    where it stops.  ``max_matrix_entries`` caps the
    rows x columns of the linear system of a certificate search; the
    search checks it as each column enters, so a system over the cap is
    refused before it is built whole.  A cap may be 0 but not negative.
    """

    max_pairs: int = 200_000
    max_matrix_entries: int = 200_000

    def __post_init__(self):
        for name in ("max_pairs", "max_matrix_entries"):
            cap = getattr(self, name)
            if cap < 0:
                raise ValueError(f"budget cap {name} must be >= 0, got {cap}")


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
        packing = kernel.packing(self.order, self.ring.nvars, bits)
        reducers = []
        for g in self.basis:
            terms = packing.pack_terms(g.terms)
            reducers.append(kernel.reducer(max(terms), terms))
        return packing, tuple(reducers)

    def lead_monomials(self) -> list[tuple[int, ...]]:
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


def _nf_terms(terms, reducers, packing, modulus=None, memo=None, bound=None):
    return kernel.normal_form(terms, reducers, packing, modulus, memo, bound)


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
        packing = kernel.packing(order, ring.nvars, bits)
        basis = _packed_basis(gens, packing, modulus, budget)
        return [MultiPoly(ring, packing.unpack_terms(t)) for t in basis]

    polys = kernel.widening(run, kernel.bits_for(max((d for _, d in gens), default=0)))
    return GroebnerBasis(ring, order, polys)


def _packed_basis(gens, packing, modulus: int | None, budget: Budget, stop=None) -> list[dict]:
    """The reduced basis of integer ``gens`` (terms and sugar) as packed,
    monic field terms; OverflowError when ``packing`` is too narrow.  With
    a degree ``stop`` the gens must be homogeneous, and the basis is
    truncated there.  Grevlex gens no more than the variables take the
    signature loop, all others the Gebauer-Moeller loop (module
    docstring)."""
    gens = [(packing.pack_terms(t), d) for t, d in gens]
    if packing.order.kind == GREVLEX and len(gens) <= len(packing.weights):
        loop = _signature_loop(gens, packing, modulus, budget, stop)
    else:
        loop = _basis_loop(gens, packing, modulus, budget, stop)
    reduced = _reduce_basis(loop, packing, modulus)
    # free the elements that minimalization dropped, whose tails are not
    # reduced, before the conversion to field terms sets the peak
    del loop
    return [kernel.from_ints(t, max(t), modulus) for t in reduced]


def _check_pairs(taken: int, budget: Budget):
    """Raise once a loop has taken more pairs than ``budget`` allows."""
    if taken > budget.max_pairs:
        raise BudgetExceededError(
            f"budget exhausted: more than {budget.max_pairs} S-pairs "
            "(raise max_pairs / --budget-pairs)"
        )


def _basis_loop(gens, layout, modulus, budget: Budget, stop=None, pair_key=None):
    """The basis of packed integer ``gens`` (terms and sugar) as
    normalized integer terms (primitive over Z, monic mod p) in the order
    found.  ``layout`` is an ideal's ``kernel.Packing``, or a module's
    ``modules.Layout`` with its ``pair_key(pos, lcm, sugar)``; elements
    with no term at or above ``layout.flag`` (only relation terms) never
    join the basis.

    An ideal over Q keeps its basis tail-reduced (Becker and
    Weispfenning, "Groebner Bases", 1993, section 5.5).  At the first
    lead coefficient other than 1, among the generators or at a later
    push, each element whose lead no later lead divides (those in
    ``active``) has its tail reduced by every element whose lead does not
    divide its own; each later push does the same for every such element
    whose tail holds a multiple of the new lead.  An element is replaced
    in place, with its lead and position, so the pair criteria see the
    same leads.  The result is still a Groebner basis:

    - Every element is a generator, the remainder of an S-polynomial of
      earlier ones, or such an element minus multiples of others, so it
      lies in the ideal.
    - Every pair was reduced exactly, or discarded by a Gebauer-Moeller
      criterion, which reads the leads only.  An exact reduction writes
      the S-polynomial of the pair over the elements of that moment with
      every term below the lcm t of its leads, the remainder (0 or a
      pushed element) included.
    - A replacement keeps the lead of g and subtracts multiples of other
      elements with smaller leads, so g is the new element plus terms
      below its own multiples.  Rewriting each old element by its
      replacement, back from the last, turns every representation below
      t into one below t over the final elements.  So each pair of the
      final elements has such a representation or is covered by a
      criterion, and they form a Groebner basis (Buchberger's criterion
      with t-representations).
    - A loop on homogeneous elements truncated at a degree D (``stop``)
      took every pair of degree at most D.  An element of the ideal of
      degree e <= D is a sum of degree-e multiples of basis elements, and
      the criterion's proof rewrites it with pairs of degree at most e
      only.  So the basis is proven up to D: an element of degree at most
      D is in the ideal exactly when the basis reduces it to 0.

    Over GF(p) every element is monic, so no tail is ever reduced.
    Module bases never reduce tails: the Schreyer frames read their
    elements as the loop finds them.

    A degree ``stop`` truncates the basis of homogeneous ``gens``, whose
    sugar is their degree: a new element has the degree of its pair, so
    pairs leave the heap in nondecreasing degree, and the loop ends, with
    no pair counted, at the first pair of degree above ``stop``."""
    reduce_tails = pair_key is None
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
    reducing = False  # whether the tails are kept reduced yet

    def push(terms: dict, sugar: int):
        """Append a basis element."""
        key = max(terms)
        if key < flag:
            return
        terms = kernel.normalized(terms, key, modulus)
        basis_terms.append(terms)
        leads.append(lead(key))
        sugars.append(sugar)
        reducers.append(kernel.reducer(key, terms))
        _update(pending, active, leads, sugars, pair_key, coprime)

    def reduce_tail(k: int):
        """Replace element k by itself with its tail reduced."""
        key = reducers[k][0]
        others = [r for r in reducers if (key - r[0]) & guard]
        terms = kernel.normal_form(basis_terms[k], others, layout, modulus)
        terms = kernel.normalized(terms, key, modulus)
        basis_terms[k] = terms
        reducers[k] = kernel.reducer(key, terms)

    def keep_tails_reduced():
        """Reduce the tails that the last push made reducible, or all of
        them at the first lead coefficient other than 1."""
        nonlocal reducing
        if reducing:
            new = reducers[-1][0]
            for k in active[:-1]:
                if any(not (e - new) & guard for e, _ in reducers[k][2]):
                    reduce_tail(k)
        elif any(r[1] != 1 for r in reducers):
            reducing = True
            for k in active:
                reduce_tail(k)

    for terms, sugar in gens:
        push(terms, sugar)
    if reduce_tails:
        keep_tails_reduced()

    taken = 0
    while pending:
        if stop is not None and pending[0][-1] > stop:
            break
        _, i, j, lcm_exp, sugar = heapq.heappop(pending)
        taken += 1
        _check_pairs(taken, budget)
        s = kernel.s_poly(reducers[i], reducers[j], pack(leads[i][0], lcm_exp), guard, modulus)
        nf = _nf_terms(s, reducers, layout, modulus)
        if not nf:
            continue
        push(nf, sugar)
        if reduce_tails:
            keep_tails_reduced()
    return basis_terms


def _signature_loop(gens, packing, modulus, budget: Budget, stop=None):
    """The signature basis of packed integer grevlex ``gens`` (terms and
    degree) as normalized integer terms (primitive over Z, monic mod p)
    in signature order; the criteria and the argument that it is a
    Groebner basis are in the module docstring.

    A signature u*e_i is one int of three fields, deg u + deg f_i, then
    i, then the packed u, so int order is the signature order and adding
    key(t) = t + (deg t << lift) multiplies by the monomial t; a guard
    bit of u signals an overflow.  Each element g keeps rho = sig(g) -
    key(lt g), so t*g has the signature rho + key(t*lt g): the J-pair
    and the Koszul syzygy of elements g and h take the larger rho, and
    equal rhos make a singular pair.  ``found`` and ``syzygies`` hold,
    per position, the u of each element's signature in the order found
    and a minimal set of the u of known syzygy signatures.  Elements
    join in increasing signature, so the latest divisor of a signature
    is the last one in ``found``.

    The pairs of a new element with every earlier one are the loop's
    bookkeeping, and most of them are discarded, so each element's
    record in ``elements`` is made once, when it joins: its rho,
    key(lt), the int ``both`` from which one fieldwise max gives the
    packed lcm of two leads, and the mask of the variables in its lead.
    Leads whose masks share no bit are coprime: their J-pair is their
    Koszul syzygy, and no lcm is formed.  Each list in ``syzygies`` is
    kept move-to-front: a divisor found by a scan, and a newly learned
    u, go to index 0; the order changes how long a scan runs, not what
    it finds.

    A degree ``stop`` truncates the basis of homogeneous ``gens``: the
    loop ends, with no pair counted, at the first signature of degree
    above ``stop``.  A form of degree e <= ``stop`` in the ideal is
    sum a_j f_j with forms a_j of degree e - deg f_j, so it has a
    representation of signature degree e, and every signature up to
    that degree was looked at: the basis reduces it to 0."""
    guard = packing.guard
    width = guard.bit_length()  # a packed monomial lies below this bit
    top = width - packing.bits  # its degree field
    lift = width + len(gens).bit_length()  # the degree field of a signature
    low, places = (1 << width) - 1, (1 << lift - width) - 1
    # the lcm of two leads, fieldwise: grevlex packs x_i alone at shift
    # (n-1-i)*bits and x_0 + .. + x_{k-1} at (n-2+k)*bits for k >= 2.  An
    # element keeps ``both``: its n single-variable fields, and above
    # them from bit ``span`` the same exponents with x_i at i*bits.  One
    # fieldwise max of two such ints gives the single-variable fields of
    # the lcm, and its upper half times ``ones`` the prefix sums in order
    bits = packing.bits
    span = len(packing.weights) * bits
    shift = span - bits
    single = (1 << span) - 1
    tail = single >> bits  # the single-variable fields below x_0
    ones = single // ((1 << bits) - 1)  # a 1 in each of the n low fields
    low_guards = guard & single
    guards = low_guards << span | low_guards
    fill = low_guards - ones  # the value bits of each low field
    value = packing.limit - 1  # the value bits of one field
    polys: list[dict] = []
    reducers: list[tuple] = []  # kernel reducers with rho as fourth entry
    # per element: rho, key(lt), the ``both`` int of lt and its mask, the
    # guard bits of the fields of the variables in lt
    elements: list[tuple] = []
    found: list[list] = [[] for _ in gens]  # per position: (u, element)
    syzygies: list[list] = [[] for _ in gens]  # per position: minimal u
    # the heap of signatures to look at, and for each the latest element
    # with a J-pair there (any value for the e_i of a generator)
    heap = [d << lift | i << width for i, (_, d) in enumerate(gens)]
    heapq.heapify(heap)
    latest = dict.fromkeys(heap, 0)
    divisors: dict = {}  # the divisor memo of ``kernel.normal_form``

    def divided(u: int, pos: int) -> bool:
        """Whether a known syzygy signature of ``pos`` divides u*e_pos;
        the divisor found moves to the front of its list."""
        known = syzygies[pos]
        for i, v in enumerate(known):
            if not (u - v) & guard:
                if i:
                    known.insert(0, known.pop(i))
                return True
        return False

    def syzygy(u: int, pos: int):
        """Add u*e_pos, which no known syzygy signature divides, to the
        front of the minimal list of its position."""
        known = syzygies[pos]
        known[:] = [u] + [v for v in known if (v - u) & guard]

    taken = 0
    while heap:
        if stop is not None and heap[0] >> lift > stop:
            break
        sig = heapq.heappop(heap)
        k = latest.pop(sig)
        u, pos = sig & low, sig >> width & places
        if divided(u, pos):
            continue
        if u:
            # the rewrite rule: only the latest element whose signature
            # divides sig is multiplied up to it, and only from its J-pair
            v, r = next(e for e in reversed(found[pos]) if not (u - e[0]) & guard)
            if r != k:
                continue
            taken += 1
            _check_pairs(taken, budget)
            terms = {e + u - v: c for e, c in polys[r].items()}
        else:
            terms = gens[pos][0]
        nf = _nf_terms(terms, reducers, packing, modulus, divisors, (sig, top, lift))
        if nf is None:
            continue
        if not nf:
            syzygy(u, pos)
            continue
        lead = max(nf)
        nf = kernel.normalized(nf, lead, modulus)
        both = lead & single
        mask = (both + fill) & guard
        for s in range(0, span, bits):  # x_i, at s = shift - i*bits, to span + i*bits
            both |= (lead >> s & value) << span + shift - s
        klead = lead + (lead >> top << lift)
        rho = sig - klead
        h = len(polys)
        for j, (rj, kj, bj, mj) in enumerate(elements):
            if rj == rho:
                continue
            high, g = (rho, h) if rho > rj else (rj, j)
            # the Koszul syzygy signature of the two elements
            koszul = high + klead + kj
            if koszul & guard:
                raise OverflowError("signature outgrew the packed field width")
            v, p = koszul & low, koszul >> width & places
            known = syzygies[p]
            for i, w in enumerate(known):
                if not (v - w) & guard:
                    if i:
                        known.insert(0, known.pop(i))
                    break
            else:
                syzygy(v, p)
            if not mask & mj:
                continue  # coprime leads: the J-pair is the Koszul syzygy
            # fieldwise max: the guard bit of (bj | guards) - both is set
            # in the fields where bj is the larger
            d = (bj | guards) - both
            t = d & guards
            m = both + (d & t - (t >> bits - 1))
            lcm = ((m >> span) * ones & single) << shift | m & tail
            pair = high + lcm + (lcm >> top << lift)
            # the lcm may outgrow the fields where its multiplier fits
            if (lcm | pair) & guard:
                raise OverflowError("signature outgrew the packed field width")
            if pair in latest:
                latest[pair] = max(latest[pair], g)
            else:
                latest[pair] = g
                heapq.heappush(heap, pair)
        polys.append(nf)
        reducers.append(kernel.reducer(lead, nf) + (rho,))
        elements.append((rho, klead, both, mask))
        found[pos].append((u, h))
    return polys


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


def _reduce_basis(basis_terms: list[dict], packing, modulus: int | None) -> list[dict]:
    """Minimalize and tail-reduce a packed integer basis into the reduced
    GB: fraction-free over Z, ints mod p over GF(p), each element
    normalized as in the loop, in ascending lead order; of elements with
    equal leads the first survives."""
    guard = packing.guard
    minimal = []
    for t in sorted(basis_terms, key=max):
        lead = max(t)
        if any(not (lead - l2) & guard for l2, _ in minimal):
            continue
        minimal.append((lead, t))
    reducers = [kernel.reducer(lead, t) for lead, t in minimal]
    return [
        kernel.normalized(
            _nf_terms(t, reducers[:idx] + reducers[idx + 1 :], packing, modulus), lead, modulus
        )
        for idx, (lead, t) in enumerate(minimal)
    ]


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


def saturate(
    ideal: Ideal, f: MultiPoly, budget: Budget = DEFAULT_BUDGET
) -> Ideal:
    """(I : f^infinity) via the Rabinowitsch trick: adjoin t, eliminate t
    from I + (1 - t f)."""
    if not f:
        raise ValueError("cannot saturate by the zero polynomial")
    ring = ideal.ring
    big = ring.extend_front(ring.fresh_name("t"))
    lift = [MultiPoly(big, {(0,) + e: c for e, c in g.terms.items()}) for g in ideal.gens]
    t = big.var(0)
    f_big = MultiPoly(big, {(0,) + e: c for e, c in f.terms.items()})
    trick = big.one() - t * f_big
    elim_ideal = eliminate(Ideal(big, lift + [trick]), 1, budget)
    return Ideal(ring, [_restrict_away_front(g, ring) for g in elim_ideal.gens])
