"""Polynomial kernel: monomial and sparse-dict arithmetic, normal form.

Terms are plain dicts mapping exponent tuples to nonzero coefficients.
The dict arithmetic works on any coefficient with arithmetic dunders and
a falsy zero: Fraction, GFElement or int.  ``normal_form`` divides in
one of three coefficient domains: field elements by monic reducers,
plain ints mod a prime by monic reducers, or plain ints by integer
reducers (fraction-free pseudo-division, used for Groebner bases over Q).

The monomial-order argument ``spec`` is the tuple produced by
``MonomialOrder.spec()``: ``(kind, block, perm)`` with kind 0 = grevlex,
1 = lex, 2 = elimination block; ``orders.key_of`` turns it into a sort key.
"""

from __future__ import annotations

import heapq
import operator
from math import gcd

from .orders import key_of, neg_key_of

# strip the content of an integer remainder after this many scalings
CONTENT_EVERY = 8


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


def mono_mask(a):
    """Support mask of ``a``: bit i is set when variable i occurs.  If b
    divides a, mask(b) is contained in mask(a), so a lead whose mask has a
    bit outside the monomial's cannot divide it."""
    mask = 0
    bit = 1
    for x in a:
        if x:
            mask |= bit
        bit <<= 1
    return mask


def minimal_generators(gens):
    """Minimal generators of the monomial ideal spanned by ``gens``,
    without repeats, sorted by (degree, exponent)."""
    gens = sorted(set(gens), key=lambda e: (sum(e), e))
    out = []
    for g in gens:
        if not any(mono_divides(h, g) for h in out):
            out.append(g)
    return out


# ---------------------------------------------------------- leading term


def leading_exponent(terms, spec):
    """Largest exponent in ``terms`` (None for the zero polynomial)."""
    if not terms:
        return None
    best = None
    best_key = None
    for e in terms:
        k = key_of(e, spec)
        if best_key is None or k > best_key:
            best, best_key = e, k
    return best


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


# ------------------------------------------------------------ normal form


def reducer(lead, terms):
    """``(lead, mask, lc, tail)`` for ``normal_form``: the lead exponent,
    its support mask, its coefficient and the other terms as items."""
    return (
        lead,
        mono_mask(lead),
        terms[lead],
        tuple((e, c) for e, c in terms.items() if e != lead),
    )


def normal_form(terms, reducers, spec, modulus=None):
    """Remainder of ``terms`` under full multivariate division.

    ``reducers`` is a sequence of ``reducer(lead, terms)`` tuples.  The
    first reducer (in sequence order) whose lead divides the current
    monomial is used, so the result is deterministic for a fixed reducer
    sequence; against a Groebner basis it is the canonical normal form
    regardless of that sequence.  The coefficients are one of:

    * field elements (Fraction, GFElement) with monic reducers;
    * ints mod ``modulus`` with monic reducers;
    * ints with integer reducers.  Each step scales the working
      polynomial and the remainder already extracted by lc/gcd(lc, c)
      before it subtracts, and the content is stripped every
      ``CONTENT_EVERY`` scalings, so the result is a nonzero integer
      multiple of the remainder over Q.
    """
    work = dict(terms)
    if not work or not reducers:
        return work
    out = {}
    heap = [(neg_key_of(e, spec), e) for e in work]
    heapq.heapify(heap)
    add, sub, le = operator.add, operator.sub, operator.le
    scalings = 0
    while heap:
        _, m = heapq.heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        outside = ~mono_mask(m)
        for lead, mask, lc, tail in reducers:
            if not mask & outside and all(map(le, lead, m)):
                break
        else:
            out[m] = c
            continue
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
        shift = tuple(map(sub, m, lead))
        for e, q in tail:
            t = tuple(map(add, e, shift))
            s = work.get(t)
            if s is None:
                s = -(c * q)
                if modulus:
                    s %= modulus
                work[t] = s
                heapq.heappush(heap, (neg_key_of(t, spec), t))
            else:
                s = s - c * q
                if modulus:
                    s %= modulus
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
