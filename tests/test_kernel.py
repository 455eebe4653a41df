"""The kernel's normal form in its three coefficient domains: support
masks against a mask-free division, fraction-free pseudo-division over Z
against the Fraction remainder, and ints mod p against GFElement."""

import random
from fractions import Fraction

import pytest

from brisk import kernel
from brisk.fields import GF
from brisk.orders import grevlex, key_of, lex

P = 32003


def reference_nf(terms, reducers, spec):
    """Division by monic (lead, tail) pairs, first divisor in sequence
    order, no masks."""
    work = dict(terms)
    out = {}
    while work:
        m = max(work, key=lambda e: key_of(e, spec))
        c = work.pop(m)
        for lead, tail in reducers:
            if all(x <= y for x, y in zip(lead, m)):
                shift = [y - x for x, y in zip(lead, m)]
                for e, q in tail:
                    t = tuple(x + s for x, s in zip(e, shift))
                    v = work.get(t, 0) - c * q
                    if v:
                        work[t] = v
                    else:
                        work.pop(t, None)
                break
        else:
            out[m] = c
    return out


def rand_exp(rng, nvars, used, max_deg):
    e = [0] * nvars
    for _ in range(rng.randint(0, max_deg)):
        e[rng.choice(used)] += 1
    return tuple(e)


def rand_terms(rng, nvars, used, max_deg, nterms, coeff):
    terms = {}
    for _ in range(nterms):
        terms[rand_exp(rng, nvars, used, max_deg)] = coeff(rng)
    return {e: c for e, c in terms.items() if c}


def rand_reducers(rng, nvars, used, spec, count, coeff):
    """Random polynomials as (lead, terms) with the lead under ``spec``;
    not a Groebner basis, so the remainder depends on the order."""
    out = []
    while len(out) < count:
        terms = rand_terms(rng, nvars, used, 3, rng.randint(1, 4), coeff)
        if terms:
            out.append((kernel.leading_exponent(terms, spec), terms))
    return out


def small_int(rng):
    return rng.randint(-9, 9)


def monic(lead, terms):
    lc = Fraction(terms[lead])
    return {e: Fraction(c) / lc for e, c in terms.items()}


def is_multiple(a, b):
    """True when a = lam * b for a nonzero rational lam."""
    if a.keys() != b.keys():
        return False
    if not a:
        return True
    e0 = next(iter(a))
    lam = Fraction(a[e0]) / Fraction(b[e0])
    return lam != 0 and all(Fraction(a[e]) == lam * Fraction(b[e]) for e in a)


# ------------------------------------------------------------ support masks


def test_mask_contains_every_divisor():
    rng = random.Random(1)
    for nvars in (1, 3, 7, 70):
        for _ in range(300):
            a = rand_exp(rng, nvars, range(nvars), 6)
            b = tuple(rng.randint(0, x) for x in a)
            assert kernel.mono_divides(b, a)
            assert kernel.mono_mask(b) & ~kernel.mono_mask(a) == 0
    assert kernel.mono_mask((0,) * 70) == 0
    assert kernel.mono_mask((0,) * 69 + (2,)) == 1 << 69


@pytest.mark.parametrize("nvars, used", [
    (4, [0, 1, 2, 3]),
    (70, [0, 5, 63, 64, 65, 69]),
])
def test_masks_skip_no_divisor(nvars, used):
    rng = random.Random(nvars)
    spec = grevlex().spec()
    for _ in range(40):
        reds = rand_reducers(rng, nvars, used, spec, rng.randint(1, 5), small_int)
        reds = [(lead, monic(lead, t)) for lead, t in reds]
        # a constant lead has mask 0 and divides everything
        if rng.random() < 0.3:
            reds.append(((0,) * nvars, {(0,) * nvars: Fraction(1)}))
        f = rand_terms(rng, nvars, used, 5, 6, lambda r: Fraction(r.randint(-9, 9), r.randint(1, 4)))
        want = reference_nf(f, [(lead, [(e, c) for e, c in t.items() if e != lead]) for lead, t in reds], spec)
        got = kernel.normal_form(f, [kernel.reducer(lead, t) for lead, t in reds], spec)
        assert got == want


def test_constant_lead_reduces_everything():
    spec = grevlex().spec()
    one = (0,) * 70
    f = {(1,) + (0,) * 69: Fraction(3), (0,) * 69 + (4,): Fraction(-1), one: Fraction(2)}
    assert kernel.normal_form(f, [kernel.reducer(one, {one: Fraction(1)})], spec) == {}


class _Untouchable(tuple):
    def __iter__(self):
        raise AssertionError("a lead outside the monomial's support was compared")


def test_mask_test_precedes_the_exponent_comparison():
    # the first reducer's lead involves z, which the input lacks: its
    # mask must reject it before any exponent is compared
    spec = grevlex().spec()
    z = _Untouchable((0, 0, 1))
    x = (1, 0, 0)
    reducers = [(z, 0b100, 1, ()), kernel.reducer(x, {x: 1, (0, 1, 0): -1})]
    assert kernel.normal_form({(2, 0, 0): 1}, reducers, spec) == {(0, 2, 0): 1}


# ------------------------------------------- fraction-free over Z, mod p


@pytest.mark.parametrize("order", [grevlex(), lex()])
@pytest.mark.parametrize("content_every", [1, kernel.CONTENT_EVERY])
def test_integer_remainder_is_a_multiple_of_the_fraction_remainder(order, content_every, monkeypatch):
    monkeypatch.setattr(kernel, "CONTENT_EVERY", content_every)
    rng = random.Random(7)
    spec = order.spec()
    used = [0, 1, 2]
    nonzero = 0
    for _ in range(60):
        reds = rand_reducers(rng, 3, used, spec, rng.randint(1, 4), small_int)
        # positive integer leads, as the Buchberger loop keeps them
        reds = [
            (lead, t if t[lead] > 0 else {e: -c for e, c in t.items()})
            for lead, t in reds
        ]
        f = rand_terms(rng, 3, used, 6, 8, small_int)
        exact = kernel.normal_form(
            {e: Fraction(c) for e, c in f.items()},
            [kernel.reducer(lead, monic(lead, t)) for lead, t in reds],
            spec,
        )
        fraction_free = kernel.normal_form(f, [kernel.reducer(lead, t) for lead, t in reds], spec)
        assert all(type(c) is int for c in fraction_free.values())
        assert is_multiple(fraction_free, exact)
        nonzero += bool(exact)
    assert nonzero > 30


def test_mod_p_remainder_equals_the_gfelement_remainder():
    rng = random.Random(11)
    field = GF(P)
    spec = grevlex().spec()
    used = [0, 1, 2, 3]

    def residue(r):
        return r.randrange(P)

    for _ in range(60):
        reds = rand_reducers(rng, 4, used, spec, rng.randint(1, 5), residue)
        as_ints = []
        as_gf = []
        for lead, t in reds:
            inv = pow(t[lead], -1, P)
            t = {e: c * inv % P for e, c in t.items()}
            as_ints.append(kernel.reducer(lead, t))
            as_gf.append(kernel.reducer(lead, {e: field(c) for e, c in t.items()}))
        f = rand_terms(rng, 4, used, 6, 8, residue)
        got = kernel.normal_form(f, as_ints, spec, P)
        want = kernel.normal_form({e: field(c) for e, c in f.items()}, as_gf, spec)
        assert all(type(c) is int and 0 < c < P for c in got.values())
        assert {e: field(c) for e, c in got.items()} == want
