"""Polynomial kernel: monomial and sparse-dict arithmetic, normal form.

Terms are plain dicts mapping monomials to nonzero coefficients.  The
dict arithmetic works on any coefficient with arithmetic dunders and a
falsy zero: Fraction, GFElement or int.  Outside the Groebner engine a
monomial is an exponent tuple.

Inside the Groebner engine a monomial is one int, made by a ``Packing``
(Bachmann and Schoenemann 1998).  That int is the monomial order of the
whole package: every comparison of monomials, inside the engine or out
(``MultiPoly.leading``, ``format_poly``), compares packed ints of one
``MonomialOrder``.  Each monomial order compares blocks of variables, in
ring order, by grevlex: grevlex is one block, lex one block per variable,
elim(k) two.  The packing lays out the prefix sums of each block, most
significant first, and below them every exponent not already a field, in
fields of equal width.  Every field is a sum of exponents, so int
comparison is the monomial order and int addition is monomial
multiplication.  The top bit of each field is a guard bit that valid
monomials leave clear: ``lead`` divides ``m`` exactly when
``(m - lead) & guard`` is zero, and a product that outgrows its fields
sets a guard bit.  The engine then raises OverflowError, and its caller
starts again with fields twice as wide (``widening``).

``normal_form`` divides packed terms in one of three coefficient
domains: field elements by monic reducers, plain ints mod a prime by
monic reducers, or plain ints by integer reducers (fraction-free
pseudo-division, used for Groebner bases over Q).  Mod p the tail
updates leave their sums unreduced, and a coefficient is reduced only
when it leads.  Each step of a plain division scans the reducers from
the first for a lead that divides the monomial; nothing is kept between
calls.  For the
signature loop (``groebner._signature_loop``) a signature bound makes
the division regular: element g may cancel monomial m only when
(m / lt g) times the signature of g lies below the signature of the
polynomial.  Such a division collects every divisor of a monomial, not
the first, and the loop keeps these lists across its calls in a memo.
The S-pair loops use the int conversions around
it (``field_modulus``, ``to_ints``, ``normalized``, ``from_ints``), and
the Gebauer-Moeller loop the S-polynomial ``s_poly``.
"""

from __future__ import annotations

import heapq
import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .fields import GF, GFElement
from .orders import GREVLEX, LEX, MonomialOrder

# strip the content of an integer remainder after this many scalings
CONTENT_EVERY = 8
# the narrowest field width in bits, guard bit included
MIN_BITS = 8


# ---------------------------------------------------------------- monomials


def mono_mul(a, b):
    return tuple(map(operator.add, a, b))


def mono_div(a, b):
    """a / b, assuming b divides a."""
    return tuple(map(operator.sub, a, b))


def mono_divides(b, a):
    """True if b divides a (componentwise <=)."""
    return all(map(operator.le, b, a))


def mono_lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def mono_deg(a):
    return sum(a)


def minimal_generators(gens):
    """Minimal generators of the monomial ideal spanned by ``gens``,
    without repeats, sorted by (degree, exponent)."""
    gens = sorted(set(gens), key=lambda e: (sum(e), e))
    out = []
    for g in gens:
        if not any(mono_divides(h, g) for h in out):
            out.append(g)
    return out


# ------------------------------------------------------------- arithmetic


def poly_add(a, b):
    if len(b) > len(a):
        a, b = b, a
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        if s is None:
            out[e] = c
        else:
            s = s + c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def poly_sub(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        if s is None:
            out[e] = -c
        else:
            s = s - c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def poly_neg(a):
    return {e: -c for e, c in a.items()}


def poly_scale(a, c):
    if not c:
        return {}
    return {e: v * c for e, v in a.items()}


def poly_mul(a, b):
    if not a or not b:
        return {}
    if len(b) > len(a):
        a, b = b, a
    out = {}
    for eb, cb in b.items():
        for ea, ca in a.items():
            e = tuple(map(operator.add, ea, eb))
            c = ca * cb
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
    return out


# ------------------------------------------------------- packed monomials


class Packing:
    """Monomials of ``nvars`` variables under one order as ints whose
    fields are ``bits`` wide; ``limit`` bounds every field value.

    ``weights[i]`` is the packed form of variable i, ``offsets[i]`` the
    shift of the field that holds its exponent, ``guard`` the mask of all
    guard bits.  Under grevlex the n low fields hold x_0 .. x_{n-1} alone,
    x_0 highest, and the field at (n-2+k)*bits holds x_0 + .. + x_{k-1}
    for k >= 2, the degree on top; ``groebner._signature_loop`` forms
    lcms fieldwise on this layout."""

    __slots__ = ("order", "bits", "limit", "guard", "weights", "offsets")

    def __init__(self, order: MonomialOrder, nvars: int, bits: int):
        ranked = list(range(nvars))
        if order.kind == GREVLEX:
            blocks = [ranked]
        elif order.kind == LEX:
            blocks = [[v] for v in ranked]
        else:
            blocks = [ranked[:order.block], ranked[order.block:]]
        fields = [b[:k] for b in blocks for k in range(len(b), 0, -1)]
        # the divisor test needs a field per exponent; below fields that
        # already fix the monomial, these never decide a comparison
        fields += [[v] for v in range(nvars) if [v] not in fields]
        weights = [0] * nvars
        offsets = [0] * nvars
        guard = 0
        for j, field in enumerate(fields):
            shift = (len(fields) - 1 - j) * bits
            guard |= 1 << (shift + bits - 1)
            for v in field:
                weights[v] |= 1 << shift
            if len(field) == 1:
                offsets[field[0]] = shift
        self.order = order
        self.bits = bits
        self.limit = 1 << (bits - 1)
        self.guard = guard
        self.weights = tuple(weights)
        self.offsets = tuple(offsets)

    def pack(self, exp) -> int:
        """The int of an exponent tuple; OverflowError when its degree,
        which bounds every field, reaches ``limit``."""
        if sum(exp) >= self.limit:
            raise OverflowError("monomial degree exceeds the packed field width")
        return sum(map(operator.mul, exp, self.weights))

    def unpack(self, key: int) -> tuple[int, ...]:
        mask = self.limit - 1
        return tuple([key >> s & mask for s in self.offsets])

    def pack_terms(self, terms: dict) -> dict:
        return {self.pack(e): c for e, c in terms.items()}

    def unpack_terms(self, terms: dict) -> dict:
        return {self.unpack(k): c for k, c in terms.items()}


@lru_cache(maxsize=64)
def packing(order: MonomialOrder, nvars: int, bits: int) -> Packing:
    """The one ``Packing`` for an order, a variable count and a width."""
    return Packing(order, nvars, bits)


def bits_for(degree: int) -> int:
    """A field width that holds monomials of twice ``degree``."""
    return max(MIN_BITS, (2 * degree).bit_length() + 1)


def widening(run, bits: int):
    """``run(bits)``, with the field width doubled each time a packed
    value outgrows it (OverflowError)."""
    while True:
        try:
            return run(bits)
        except OverflowError:
            bits *= 2


# ------------------------------------------------------ int coefficients


def field_modulus(polys) -> int | None:
    """p when some coefficient of ``polys`` is a GFElement, else None (Q).
    Inputs may mix the two: saturate adds 1 - t*f to GF(p) generators."""
    for g in polys:
        for c in g.terms.values():
            if isinstance(c, GFElement):
                return c.p
    return None


def to_ints(terms: dict, modulus: int | None) -> dict:
    """Coefficients as ints mod p, or over Q cleared of denominators."""
    if modulus:
        field = GF(modulus)
        return {e: field(c).v for e, c in terms.items()}
    return cleared(terms)[0]


def cleared(terms: dict) -> tuple[dict, int]:
    """(integer terms, d) with ``terms`` = integer terms / d, for int or
    Fraction coefficients; d is the least common denominator."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in terms.items()}, den


def normalized(terms: dict, lead, modulus: int | None) -> dict:
    """Monic mod p, or primitive with a positive lead over Z."""
    if modulus:
        inv = pow(terms[lead], -1, modulus)
        return terms if inv == 1 else {e: v * inv % modulus for e, v in terms.items()}
    g = gcd(*terms.values())
    if terms[lead] < 0:
        g = -g
    return terms if g == 1 else {e: v // g for e, v in terms.items()}


def from_ints(terms: dict, lead, modulus: int | None) -> dict:
    """Back to monic Fraction or GFElement coefficients."""
    if modulus:
        return {e: GFElement(v, modulus) for e, v in terms.items()}
    lc = terms[lead]
    return {e: Fraction(v, lc) for e, v in terms.items()}


# ------------------------------------------------------------ normal form


def reducer(lead, terms):
    """``(lead, lc, tail)`` for ``normal_form``: the packed lead, its
    coefficient and the other terms as items."""
    return (lead, terms[lead], tuple((e, c) for e, c in terms.items() if e != lead))


def s_poly(ri, rj, lcm_key: int, guard: int, modulus: int | None) -> dict:
    """A nonzero multiple of S(g_i, g_j) from the packed reducer tuples
    of g_i and g_j; the lead terms cancel and are left out.  Raises
    OverflowError when a term outgrows the packing with mask ``guard``."""
    li, ai, tail_i = ri
    lj, aj, tail_j = rj
    g = gcd(ai, aj)
    fi, fj = aj // g, ai // g
    si, sj = lcm_key - li, lcm_key - lj
    s = {e + si: fi * v for e, v in tail_i}
    for e, v in tail_j:
        t = e + sj
        c = s.get(t, 0) - fj * v
        if modulus:
            c %= modulus
        if c:
            s[t] = c
        else:
            s.pop(t, None)
    if any(t & guard for t in s):
        raise OverflowError("exponent outgrew the packed field width")
    return s


def normal_form(terms, reducers, packing, modulus=None, memo=None, bound=None):
    """Remainder of packed ``terms`` under full multivariate division.

    ``reducers`` is a sequence of ``reducer(lead, terms)`` tuples packed
    by ``packing``, of which only the mask ``packing.guard`` is used.
    The first reducer (in sequence order) whose lead divides the current
    monomial is used, so the result is deterministic for a fixed reducer
    sequence; against a Groebner basis it is the canonical normal form
    regardless of that sequence.  With no reducers the terms come back
    unchanged and ``packing`` is not used.  The coefficients are one of:

    * field elements (Fraction, GFElement) with monic reducers;
    * ints mod ``modulus`` with monic reducers.  Tail updates leave
      their sums unreduced; a coefficient is reduced mod p when it is
      popped as the lead, and skipped when that gives 0, so the result
      has residues in 1..p-1;
    * ints with integer reducers.  Each step scales the working
      polynomial and the remainder already extracted by lc/gcd(lc, c)
      before it subtracts, and the content is stripped every
      ``CONTENT_EVERY`` scalings, so the result is a nonzero integer
      multiple of the remainder over Q.

    ``bound`` makes the division regular for the signature S-pair loop
    (``groebner._signature_loop``): a triple ``(sigma, top, lift)`` of
    the signature of ``terms`` and the layout of signature ints.  The
    reducers then carry a fourth entry rho = sigma_g - key(lead g), where
    ``key(m) = m + (m >> top << lift)`` is the signature int of a
    monomial, and reducer g may cancel monomial m only when
    ``rho + key(m) < sigma``, that is (m / lead g) sigma_g < sigma.  The
    first reducer in sequence order that divides m and passes the test
    is used; tails are reduced the same way.  When the first monomial
    that stays has a divisor with ``rho + key(m) == sigma`` the remainder
    is singular (super top-reducible), and the result is None instead.
    ``memo`` is the divisor memo of such calls, owned by the caller and
    valid for one reducer sequence that only grows by appending: it maps
    a monomial to (n, the reducers among the first n whose leads divide
    it), which serves every bound, and a call extends it past n.  Without
    a bound the memo is not used.

    Raises OverflowError when a product outgrows the packing's fields.
    """
    work = dict(terms)
    if not work or not reducers:
        return work
    if bound is not None:
        sigma, top, lift = bound
        n = len(reducers)
        if memo is None:
            memo = {}
    guard = packing.guard
    out = {}
    heap = [-m for m in work]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    scalings = 0
    while heap:
        m = -heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        if modulus:
            c %= modulus
            if not c:
                continue
        if bound is not None:
            seen, divisors = memo.get(m, (0, ()))
            if seen < n:
                divisors += tuple(r for r in reducers[seen:] if not (m - r[0]) & guard)
                memo[m] = n, divisors
            ceiling = sigma - m - (m >> top << lift)
            for r in divisors:
                if r[3] < ceiling:
                    break
            else:
                if not out and any(r[3] == ceiling for r in divisors):
                    return None
                out[m] = c
                continue
        else:
            for r in reducers:
                if not (m - r[0]) & guard:
                    break
            else:
                out[m] = c
                continue
        lead, lc, tail = r[0], r[1], r[2]
        if lc != 1:
            g = gcd(c, lc)
            scale = lc // g
            c //= g
            if scale != 1:
                for e in work:
                    work[e] *= scale
                for e in out:
                    out[e] *= scale
                scalings += 1
        shift = m - lead
        for e, q in tail:
            t = e + shift
            s = work.get(t)
            if s is None:
                if t & guard:
                    raise OverflowError("exponent outgrew the packed field width")
                work[t] = -(c * q)
                heappush(heap, -t)
            else:
                s = s - c * q
                if s:
                    work[t] = s
                else:
                    del work[t]
        if scalings >= CONTENT_EVERY:
            scalings = 0
            g = gcd(*work.values(), *out.values())
            if g > 1:
                for e in work:
                    work[e] //= g
                for e in out:
                    out[e] //= g
    return out
