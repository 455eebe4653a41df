"""Polynomial kernel: monomial and sparse-dict arithmetic, normal form.

Terms are plain dicts mapping exponent tuples to nonzero coefficients
(Fraction, or any field element with arithmetic dunders and a falsy zero).

The monomial-order argument ``spec`` is the tuple produced by
``MonomialOrder.spec()``: ``(kind, block, perm)`` with kind 0 = grevlex,
1 = lex, 2 = elimination block; ``orders.key_of`` turns it into a sort key.
"""

from __future__ import annotations

import heapq

from .orders import key_of, neg_key_of


# ---------------------------------------------------------------- monomials


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a, b):
    """a / b, assuming b divides a."""
    return tuple(x - y for x, y in zip(a, b))


def mono_divides(b, a):
    """True if b divides a (componentwise <=)."""
    for x, y in zip(b, a):
        if x > y:
            return False
    return True


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
            e = tuple(x + y for x, y in zip(ea, eb))
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


def normal_form(terms, reducers, spec):
    """Remainder of ``terms`` under full multivariate division.

    ``reducers`` is a sequence of ``(lead_exp, tail)`` pairs with monic
    leading coefficient, ``tail`` an iterable of (exp, coeff) items for the
    non-leading terms.  The first reducer (in sequence order) whose lead
    divides the current monomial is used, so the result is deterministic
    for a fixed reducer sequence; against a Groebner basis it is the
    canonical normal form regardless of that sequence.
    """
    work = dict(terms)
    if not work or not reducers:
        return work
    out = {}
    heap = [(neg_key_of(e, spec), e) for e in work]
    heapq.heapify(heap)
    while heap:
        _, m = heapq.heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        hit = None
        for lead, tail in reducers:
            ok = True
            for x, y in zip(lead, m):
                if x > y:
                    ok = False
                    break
            if ok:
                hit = (lead, tail)
                break
        if hit is None:
            out[m] = c
            continue
        lead, tail = hit
        shift = tuple(x - y for x, y in zip(m, lead))
        for e, q in tail:
            t = tuple(x + y for x, y in zip(e, shift))
            s = work.get(t)
            if s is None:
                work[t] = -(c * q)
                heapq.heappush(heap, (neg_key_of(t, spec), t))
            else:
                s = s - c * q
                if s:
                    work[t] = s
                else:
                    del work[t]
    return out
