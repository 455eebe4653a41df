"""The kernel's packed monomials and its normal form: the int order
against the textbook tuple key ``oracles.key_of``, the int sum and the
guard-bit divisor test against exponent tuples, and the normal
form in its three coefficient domains: packed division against a tuple
division, fraction-free pseudo-division over Z against the Fraction
remainder, and ints mod p, with residues reduced only when they lead,
against GFElement.  With a signature bound, a divisor memo shared
across calls, while reducers are appended, gives the remainders of calls
with a fresh one, and a remainder that leads with a divisor at the bound
is singular; without a bound the division is the plain one."""

import random
from fractions import Fraction

import pytest

from oracles import key_of

from brisk import kernel
from brisk.fields import GF
from brisk.orders import elim, grevlex, lex

P = 32003


def reference_nf(terms, reducers, order):
    """Division of exponent tuples by monic (lead, tail) pairs, first
    divisor in sequence order."""
    work = dict(terms)
    out = {}
    while work:
        m = max(work, key=lambda e: key_of(e, order))
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


def rand_reducers(rng, nvars, used, order, count, coeff):
    """Random polynomials as (lead, terms) with the lead under ``order``;
    not a Groebner basis, so the remainder depends on the order."""
    out = []
    while len(out) < count:
        terms = rand_terms(rng, nvars, used, 3, rng.randint(1, 4), coeff)
        if terms:
            out.append((max(terms, key=lambda e: key_of(e, order)), terms))
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


# ------------------------------------------------------------ packing

NVARS = (1, 3, 7, 70)
KINDS = ["grevlex", "lex", "elim(2)"]


def make_packing(kind, nvars, bits=kernel.MIN_BITS):
    order = {"grevlex": grevlex(), "lex": lex(), "elim(2)": elim(2)}[kind]
    return kernel.packing(order, nvars, bits)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("nvars", NVARS)
def test_int_order_is_the_monomial_order(kind, nvars):
    rng = random.Random(nvars)
    pk = make_packing(kind, nvars)
    monos = [rand_exp(rng, nvars, range(nvars), 12) for _ in range(300)]
    # near ties: the same monomial with one unit moved between variables
    for a in monos[:100]:
        b = list(a)
        i, j = rng.randrange(nvars), rng.randrange(nvars)
        if b[i]:
            b[i] -= 1
            b[j] += 1
        monos.append(tuple(b))
    keys = {e: pk.pack(e) for e in monos}
    assert len(set(keys.values())) == len(keys)
    assert sorted(monos, key=keys.get) == sorted(monos, key=lambda e: key_of(e, pk.order))
    assert all(pk.unpack(k) == e for e, k in keys.items())


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("nvars", NVARS)
def test_int_sum_is_the_product(kind, nvars):
    rng = random.Random(nvars + 1)
    pk = make_packing(kind, nvars)
    for _ in range(300):
        a, b = rand_exp(rng, nvars, range(nvars), 60), rand_exp(rng, nvars, range(nvars), 60)
        ab = pk.pack(a) + pk.pack(b)
        assert ab == pk.pack(kernel.mono_mul(a, b))
        assert not ab & pk.guard


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("nvars", NVARS)
def test_guard_test_is_the_divisor_test(kind, nvars):
    rng = random.Random(nvars + 2)
    pk = make_packing(kind, nvars)
    top = pk.limit - 1
    hits = misses = 0
    for _ in range(600):
        a = rand_exp(rng, nvars, range(nvars), rng.choice((6, top)))
        if rng.random() < 0.5:
            b = tuple(rng.randint(0, x) for x in a)
        else:
            # a divisor of a with one exponent pushed one past it
            b = [rng.randint(0, x) for x in a]
            i = rng.randrange(nvars)
            b[i] = a[i] + 1
            while sum(b) > top:
                j = rng.choice([k for k in range(nvars) if k != i and b[k]] or [i])
                b[j] -= 1
            b = tuple(b)
        divides = kernel.mono_divides(b, a)
        assert (not (pk.pack(a) - pk.pack(b)) & pk.guard) == divides
        hits += divides
        misses += not divides
    assert hits > 200 and misses > 200


@pytest.mark.parametrize("nvars", NVARS)
def test_grevlex_fields_are_prefix_sums_over_single_variables(nvars):
    # the signature loop forms lcms fieldwise on this layout: x_i alone
    # at (n-1-i)*bits, and x_0 + .. + x_{k-1} at (n-2+k)*bits for k >= 2
    pk = make_packing("grevlex", nvars)
    n, bits = nvars, pk.bits
    for i in range(n):
        fields = [n - 1 - i] + [n - 2 + k for k in range(max(2, i + 1), n + 1)]
        assert pk.weights[i] == sum(1 << f * bits for f in fields)
        assert pk.offsets[i] == (n - 1 - i) * bits


@pytest.mark.parametrize("kind", KINDS)
def test_field_overflow_is_caught(kind):
    pk = make_packing(kind, 3)
    with pytest.raises(OverflowError):
        pk.pack((pk.limit, 0, 0))
    x = pk.pack((pk.limit - 1, 0, 0))
    assert (x + pk.pack((1, 0, 0))) & pk.guard


def test_normal_form_raises_instead_of_wrapping():
    # under lex, x -> y^2 doubles the exponent past an 8-bit field
    pk = kernel.packing(lex(), 2, 8)
    x, y2 = pk.pack((1, 0)), pk.pack((0, 2))
    red = kernel.reducer(x, {x: Fraction(1), y2: Fraction(-1)})
    f = {pk.pack((100, 0)): Fraction(1)}
    with pytest.raises(OverflowError):
        kernel.normal_form(f, [red], pk)
    pk = kernel.packing(lex(), 2, 16)
    red = kernel.reducer(pk.pack((1, 0)), {pk.pack((1, 0)): Fraction(1), pk.pack((0, 2)): Fraction(-1)})
    got = kernel.normal_form({pk.pack((100, 0)): Fraction(1)}, [red], pk)
    assert pk.unpack_terms(got) == {(0, 200): Fraction(1)}


# ------------------------------------------------------------ packed division


def packed_reducers(reds, pk):
    out = []
    for lead, t in reds:
        terms = pk.pack_terms(t)
        out.append(kernel.reducer(pk.pack(lead), terms))
    return out


@pytest.mark.parametrize("nvars, used", [
    (4, [0, 1, 2, 3]),
    (70, [0, 5, 63, 64, 65, 69]),
])
def test_masks_skip_no_divisor(nvars, used):
    # the guard-bit divisor test finds the same first reducer as a
    # componentwise comparison of exponent tuples
    rng = random.Random(nvars)
    order = grevlex()
    pk = kernel.packing(order, nvars, kernel.MIN_BITS)
    for _ in range(40):
        reds = rand_reducers(rng, nvars, used, order, rng.randint(1, 5), small_int)
        reds = [(lead, monic(lead, t)) for lead, t in reds]
        # a constant lead divides everything
        if rng.random() < 0.3:
            reds.append(((0,) * nvars, {(0,) * nvars: Fraction(1)}))
        f = rand_terms(rng, nvars, used, 5, 6, lambda r: Fraction(r.randint(-9, 9), r.randint(1, 4)))
        want = reference_nf(f, [(lead, [(e, c) for e, c in t.items() if e != lead]) for lead, t in reds], order)
        got = kernel.normal_form(pk.pack_terms(f), packed_reducers(reds, pk), pk)
        assert pk.unpack_terms(got) == want


def test_constant_lead_reduces_everything():
    pk = kernel.packing(grevlex(), 70, kernel.MIN_BITS)
    one = (0,) * 70
    f = {(1,) + (0,) * 69: Fraction(3), (0,) * 69 + (4,): Fraction(-1), one: Fraction(2)}
    reducers = packed_reducers([(one, {one: Fraction(1)})], pk)
    assert kernel.normal_form(pk.pack_terms(f), reducers, pk) == {}


# ------------------------------------------- fraction-free over Z, mod p


@pytest.mark.parametrize("order", [grevlex(), lex()])
@pytest.mark.parametrize("content_every", [1, kernel.CONTENT_EVERY])
def test_integer_remainder_is_a_multiple_of_the_fraction_remainder(order, content_every, monkeypatch):
    monkeypatch.setattr(kernel, "CONTENT_EVERY", content_every)
    rng = random.Random(7)
    pk = kernel.packing(order, 3, kernel.MIN_BITS)
    used = [0, 1, 2]
    nonzero = 0
    for _ in range(60):
        reds = rand_reducers(rng, 3, used, order, rng.randint(1, 4), small_int)
        # positive integer leads, as the Buchberger loop keeps them
        reds = [
            (lead, t if t[lead] > 0 else {e: -c for e, c in t.items()})
            for lead, t in reds
        ]
        f = rand_terms(rng, 3, used, 6, 8, small_int)
        exact = kernel.normal_form(
            pk.pack_terms({e: Fraction(c) for e, c in f.items()}),
            packed_reducers([(lead, monic(lead, t)) for lead, t in reds], pk),
            pk,
        )
        fraction_free = kernel.normal_form(pk.pack_terms(f), packed_reducers(reds, pk), pk)
        assert all(type(c) is int for c in fraction_free.values())
        assert is_multiple(fraction_free, exact)
        nonzero += bool(exact)
    assert nonzero > 30


def test_mod_p_remainder_equals_the_gfelement_remainder():
    rng = random.Random(11)
    field = GF(P)
    order = grevlex()
    pk = kernel.packing(order, 4, kernel.MIN_BITS)
    used = [0, 1, 2, 3]

    def residue(r):
        return r.randrange(P)

    for _ in range(60):
        reds = rand_reducers(rng, 4, used, order, rng.randint(1, 5), residue)
        as_ints = []
        as_gf = []
        for lead, t in reds:
            inv = pow(t[lead], -1, P)
            t = {e: c * inv % P for e, c in t.items()}
            as_ints.append((lead, t))
            as_gf.append((lead, {e: field(c) for e, c in t.items()}))
        f = pk.pack_terms(rand_terms(rng, 4, used, 6, 8, residue))
        got = kernel.normal_form(f, packed_reducers(as_ints, pk), pk, P)
        want = kernel.normal_form({e: field(c) for e, c in f.items()}, packed_reducers(as_gf, pk), pk)
        assert all(type(c) is int and 0 < c < P for c in got.values())
        assert {e: field(c) for e, c in got.items()} == want


@pytest.mark.parametrize("p", [P, (1 << 61) - 1], ids=["32003", "2^61-1"])
def test_lazy_residues_equal_the_gfelement_remainder(p):
    # tail updates leave sums unreduced; a coefficient is reduced when it
    # is popped, and dropped when that gives 0
    field = GF(p)
    order = grevlex()
    pk = kernel.packing(order, 4, kernel.MIN_BITS)

    def as_gf(terms):
        return {e: field(c) for e, c in terms.items()}

    # x + a, y + a, z + a with 3a = 1 mod p: the constant of x + y + z + 1
    # is 1 - a, 1 - 2a, then 1 - 3a, nonzero over Z but 0 mod p
    a = pow(3, -1, p)
    one = (0, 0, 0, 0)
    units = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    reds = [(u, {u: 1, one: a}) for u in units]
    f = pk.pack_terms({**{u: 1 for u in units}, one: 1})
    assert kernel.normal_form(f, packed_reducers(reds, pk), pk, p) == {}
    gf_reds = packed_reducers([(u, as_gf(t)) for u, t in reds], pk)
    assert kernel.normal_form(as_gf(f), gf_reds, pk) == {}

    rng = random.Random(p % 1000)
    used = [0, 1, 2, 3]

    def residue(r):
        return r.randrange(p)

    for _ in range(60):
        reds = rand_reducers(rng, 4, used, order, rng.randint(1, 5), residue)
        reds = [(lead, {e: c * pow(t[lead], -1, p) % p for e, c in t.items()}) for lead, t in reds]
        f = pk.pack_terms(rand_terms(rng, 4, used, 6, 8, residue))
        got = kernel.normal_form(f, packed_reducers(reds, pk), pk, p)
        gf_reds = packed_reducers([(lead, as_gf(t)) for lead, t in reds], pk)
        assert all(type(c) is int and 0 < c < p for c in got.values())
        assert as_gf(got) == kernel.normal_form(as_gf(f), gf_reds, pk)


# ------------------------------------------------------- signature bound


def signature_layout(pk, positions=2):
    """(top, lift) of signature ints over ``pk``, as the signature loop
    lays them out: u below bit ``width``, the position above it and the
    degree from bit ``lift``."""
    width = pk.guard.bit_length()
    return width - pk.bits, width + positions.bit_length()


def signature_key(m, top, lift):
    """The signature int of monomial m: m with its degree at ``lift``."""
    return m + (m >> top << lift)


def bounded_reducers(reds, pk, sigs, top, lift):
    """Packed reducers with rho = sig - key(lead) as their fourth entry."""
    return [r + (sig - signature_key(r[0], top, lift),) for r, sig in zip(packed_reducers(reds, pk), sigs)]


def rand_signature(rng, pk, lift, used, max_deg, positions=2):
    """A signature u*e_i of a random u and position, with a degree field
    up to two above deg u."""
    u = rand_exp(rng, len(pk.weights), used, max_deg)
    width = pk.guard.bit_length()
    return (sum(u) + rng.randint(0, 2)) << lift | rng.randrange(positions) << width | pk.pack(u)


@pytest.mark.parametrize("modulus", [None, P])
def test_divisor_memo_shared_across_calls_gives_the_fresh_remainders(modulus):
    # one divisor memo for a reducer list that grows by appending, as in
    # the signature loop: every call gives the remainder of a call with a
    # fresh memo, singular (None) ones included
    rng = random.Random(31)
    order = grevlex()
    pk = kernel.packing(order, 3, kernel.MIN_BITS)
    top, lift = signature_layout(pk)
    used = [0, 1, 2]
    coeff = small_int if modulus is None else (lambda r: r.randrange(P))
    resumed = singular = 0
    for _ in range(30):
        reds = rand_reducers(rng, 3, used, order, 6, coeff)
        if modulus:
            reds = [(lead, {e: c * pow(t[lead], -1, P) % P for e, c in t.items()}) for lead, t in reds]
        else:
            reds = [(lead, t if t[lead] > 0 else {e: -c for e, c in t.items()}) for lead, t in reds]
        sigs = [rand_signature(rng, pk, lift, used, 3) for _ in reds]
        reducers = []
        memo = {}
        for r in bounded_reducers(reds, pk, sigs, top, lift):
            reducers.append(r)
            for _ in range(3):
                f = pk.pack_terms(rand_terms(rng, 3, used, 5, 6, coeff))
                bound = (rand_signature(rng, pk, lift, used, 5), top, lift)
                resumed += sum(m in memo and memo[m][0] < len(reducers) for m in f)
                want = kernel.normal_form(f, reducers, pk, modulus, {}, bound)
                assert kernel.normal_form(f, reducers, pk, modulus, memo, bound) == want
                singular += want is None
    assert resumed > 50 and singular > 0


def test_divisor_at_the_bound_makes_a_leading_remainder_singular():
    # g = x + z with signature e_0 of degree 1: x*y*g has signature y*e_0,
    # so g may not cancel x*y below the bound y*e_0, and x*y is its lead
    order = grevlex()
    pk = kernel.packing(order, 3, kernel.MIN_BITS)
    top, lift = signature_layout(pk)
    x, y, z = (pk.pack(e) for e in [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    sig = 1 << lift
    [g] = bounded_reducers([((1, 0, 0), {(1, 0, 0): 1, (0, 0, 1): 1})], pk, [sig], top, lift)
    at = lambda t: (sig + signature_key(t, top, lift), top, lift)
    assert kernel.normal_form({x + y: 3}, [g], pk, None, {}, at(y)) is None
    # above the bound g reduces x*y to -y*z
    assert kernel.normal_form({x + y: 3}, [g], pk, None, {}, at(2 * y)) == {y + z: -3}
    # y^2 comes first and stays, so x*z, kept at its bound, leaves a
    # remainder that is not singular
    f = {2 * y: 2, x + z: 5}
    assert kernel.normal_form(f, [g], pk, None, {}, at(z)) == f


def test_call_without_a_bound_is_the_plain_division():
    # reducers that carry a rho and a memo passed along change nothing
    # without a bound: the first divisor in sequence order is used
    rng = random.Random(37)
    order = grevlex()
    pk = kernel.packing(order, 4, kernel.MIN_BITS)
    top, lift = signature_layout(pk)
    used = [0, 1, 2, 3]
    for _ in range(40):
        reds = rand_reducers(rng, 4, used, order, rng.randint(1, 5), small_int)
        reds = [(lead, monic(lead, t)) for lead, t in reds]
        sigs = [rand_signature(rng, pk, lift, used, 3) for _ in reds]
        f = rand_terms(rng, 4, used, 5, 6, lambda r: Fraction(r.randint(-9, 9), r.randint(1, 4)))
        want = reference_nf(f, [(lead, [(e, c) for e, c in t.items() if e != lead]) for lead, t in reds], order)
        memo = {}
        got = kernel.normal_form(pk.pack_terms(f), bounded_reducers(reds, pk, sigs, top, lift), pk, None, memo)
        assert pk.unpack_terms(got) == want
        assert not memo
