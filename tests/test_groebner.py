"""Groebner engine: bases, normal forms, membership, elimination,
saturation; the Buchberger criterion and confluence as self-checks, and
the pair criteria against an all-pairs Buchberger with no criteria."""

import hashlib
import random
from fractions import Fraction

import pytest

from conftest import corpus_ideals
from oracles import membership_by_linear_algebra, s_polynomial, substitute_eliminate_oracle

from brisk import groebner, kernel
from brisk.errors import BudgetExceededError
from brisk.fields import GF, poly_to_gf
from brisk.groebner import (
    Budget,
    GroebnerBasis,
    Ideal,
    buchberger,
    eliminate,
    membership,
    normal_form,
    saturate,
)
from brisk.kernel import mono_divides
from brisk.orders import elim, grevlex, lex
from brisk.polyring import MultiPoly, PolyRing


def rand_poly(ring, rng, max_deg=4, max_terms=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg // 2 + 1) for _ in range(ring.nvars))
        if sum(e) > max_deg:
            continue
        terms[e] = Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 3))
    return MultiPoly(ring, terms)


class TestBuchberger:
    def test_already_reduced(self):
        R = PolyRing(("x", "y"))
        x, y = R.gens()
        G = buchberger(Ideal(R, [x, y]))
        assert list(G) == [y, x] or set(G) == {x, y}

    def test_one_reduction(self):
        R = PolyRing(("x", "y"))
        x, y = R.gens()
        # oracle: S(x^2 - y, x) reduces to y, so the basis is {x, y}
        G = buchberger(Ideal(R, [x**2 - y, x]))
        assert set(G.basis) == {x, y}

    def test_cusp_with_axis(self):
        R = PolyRing(("z1", "z2"))
        z1, z2 = R.gens()
        G = buchberger(Ideal(R, [z2, z1**2 - z2**5]))
        assert set(G.basis) == {z2, z1**2}

    def test_determinism(self):
        R = PolyRing(("x", "y", "z"))
        x, y, z = R.gens()
        gens = [x * y - z, y * z - x, z * x - y]
        a = buchberger(Ideal(R, gens))
        b = buchberger(Ideal(R, gens))
        assert a.basis == b.basis

    def test_budget_exhaustion_is_an_error(self):
        R = PolyRing(("x", "y", "z"))
        x, y, z = R.gens()
        gens = [x**3 - 2 * x * y, x**2 * y - 2 * y**2 + x, y**3 - z**2 + x]
        with pytest.raises(BudgetExceededError):
            buchberger(Ideal(R, gens), budget=Budget(max_pairs=1))

    @pytest.mark.parametrize("idx", range(5))
    def test_buchberger_criterion_self_check(self, idx):
        # every S-polynomial of the returned basis reduces to zero
        ideal = corpus_ideals()[idx]
        G = buchberger(ideal)
        for i in range(len(G.basis)):
            for j in range(i + 1, len(G.basis)):
                s = s_polynomial(G.basis[i], G.basis[j], G.order)
                assert not G.normal_form(s)

    @pytest.mark.parametrize("idx", range(5))
    def test_reducedness(self, idx):
        G = buchberger(corpus_ideals()[idx])
        leads = G.leading_exponents()
        for k, g in enumerate(G.basis):
            lead, coeff = g.leading(G.order)
            assert coeff == 1  # monic
            for e in g.terms:
                for k2, l2 in enumerate(leads):
                    if k2 != k:
                        assert not mono_divides(l2, e)

    @pytest.mark.parametrize("idx", range(5))
    def test_generators_contained(self, idx):
        ideal = corpus_ideals()[idx]
        G = buchberger(ideal)
        for g in ideal.gens:
            assert G.contains(g)


class TestNormalForm:
    def test_single_step(self):
        R = PolyRing(("x", "y"))
        x, y = R.gens()
        G = buchberger(Ideal(R, [x**2 - y]))
        assert G.normal_form(x**2) == y

    def test_cusp_non_membership(self):
        R = PolyRing(("z1", "z2"))
        z1, z2 = R.gens()
        G = buchberger(Ideal(R, [z2, z1**2 - z2**5]))
        assert G.normal_form(z1) == z1
        assert not G.contains(z1)

    def test_ideal_absorption(self):
        rng = random.Random(7)
        for ideal in corpus_ideals():
            G = buchberger(ideal)
            for _ in range(5):
                g = ideal.gens[rng.randrange(len(ideal.gens))]
                h = rand_poly(ideal.ring, rng)
                assert not G.normal_form(g * h)

    def test_linearity(self):
        rng = random.Random(8)
        for ideal in corpus_ideals():
            G = buchberger(ideal)
            for _ in range(5):
                p, q = rand_poly(ideal.ring, rng), rand_poly(ideal.ring, rng)
                a, b = Fraction(rng.randint(1, 5)), Fraction(rng.randint(-5, -1))
                assert G.normal_form(a * p + b * q) == a * G.normal_form(
                    p
                ) + b * G.normal_form(q)

    def test_confluence_under_reducer_shuffles(self):
        # canonical remainder no matter how the basis list is permuted
        rng = random.Random(9)
        for ideal in corpus_ideals():
            G = buchberger(ideal)
            for _ in range(8):
                p = rand_poly(ideal.ring, rng)
                want = G.normal_form(p)
                perm = list(G.basis)
                rng.shuffle(perm)
                shuffled = GroebnerBasis(G.ring, G.order, perm)
                assert shuffled.normal_form(p) == want

    def test_non_monic_basis_is_made_monic(self):
        R = PolyRing(("x", "y"))
        x, y = R.gens()
        G = GroebnerBasis(R, grevlex(), [2 * x + 1])
        assert G.basis == (x + Fraction(1, 2),)
        assert G.normal_form(x) == R.const(Fraction(-1, 2))


class TestMembership:
    def test_cusp_examples(self):
        R = PolyRing(("z1", "z2"))
        z1, z2 = R.gens()
        ideal = Ideal(R, [z2, z1**2 - z2**5])
        assert not membership(z1, ideal)
        assert membership(z1**2, ideal)  # z1^2 = (z1^2 - z2^5) + z2^4 * z2
        assert membership(R.zero(), ideal)

    def test_against_linear_algebra_oracle(self):
        R = PolyRing(("z1", "z2"))
        z1, z2 = R.gens()
        gens = [z2]
        variety = [z1**2 - z2**5]
        assert not membership_by_linear_algebra(z1, gens, variety, deg_cap=12)
        assert membership_by_linear_algebra(z1**2, gens, variety, deg_cap=12)


class TestEliminate:
    def test_substitution_oracle_txy(self):
        R = PolyRing(("t", "x", "y"))
        t, x, y = R.gens()
        E = eliminate(Ideal(R, [t * x - 1, y - t]), 1)
        # oracle: substituting t = y turns t*x - 1 into x*y - 1
        assert substitute_eliminate_oracle(t * x - 1, 0, y) == x * y - 1
        assert len(E.gens) == 1 and E.gens[0].monic() == x * y - 1

    def test_eliminate_nothing(self):
        R = PolyRing(("x",))
        x = R.var(0)
        E = eliminate(Ideal(R, [x]), 0)
        assert E.gens == (x,)

    def test_substitution_oracle_parabola(self):
        R = PolyRing(("x", "y"))
        x, y = R.gens()
        E = eliminate(Ideal(R, [x - 1, y - x**2]), 1)
        # oracle: x = 1 forces y = 1
        assert substitute_eliminate_oracle(y - x**2, 0, R.one()) == y - 1
        assert len(E.gens) == 1 and E.gens[0].monic() == y - 1


class TestSaturate:
    def test_component_at_axis_removed(self):
        # (x z0, y z0) : z0^oo = (x, y); oracle: g in result iff g z0^k in I
        R = PolyRing(("x", "y", "z0"))
        x, y, z0 = R.gens()
        ideal = Ideal(R, [x * z0, y * z0])
        sat = saturate(ideal, z0)
        G = buchberger(sat)
        assert set(G.basis) == {x, y}
        for g in sat.gens:
            assert membership(g * z0, ideal)

    def test_everything_divisible_by_f(self):
        # (x z0, z0^2) : z0^oo = (1): already z0^2 in I, so 1 * z0^2 in I.
        # (The brute-force oracle: g in result iff g z0^k in I for some k <= 2
        #  admits g = 1 here.)
        R = PolyRing(("x", "z0"))
        x, z0 = R.gens()
        sat = saturate(Ideal(R, [x * z0, z0**2]), z0)
        assert buchberger(sat).contains(R.one())

    def test_nonzerodivisor_unchanged(self):
        R = PolyRing(("x", "y"))
        x, y = R.gens()
        sat = saturate(Ideal(R, [x]), y)
        assert set(buchberger(sat).basis) == {x}

    def test_cusp_closure_already_saturated(self):
        # principal homogeneous ideal: saturation by z0 changes nothing
        P = PolyRing(("z0", "z1", "z2"))
        cusp = P.parse("z1^2*z0^3 - z2^5")
        sat = saturate(Ideal(P, [cusp]), P.var(0))
        G = buchberger(sat)
        assert list(G.basis) == [cusp.monic()]

    def test_saturation_contains_ideal_and_absorbs(self):
        rng = random.Random(11)
        R = PolyRing(("x", "y"))
        x, y = R.gens()
        samples = [
            (Ideal(R, [x * y, y**2]), y),
            (Ideal(R, [x**2 * y - x]), x),
            (Ideal(R, [x**2, x * y]), x),
        ]
        for ideal, f in samples:
            sat = saturate(ideal, f)
            satgb = buchberger(sat)
            for g in ideal.gens:
                assert satgb.contains(g)  # I is contained in (I : f^oo)
            for _ in range(4):
                g = rand_poly(R, rng)
                if membership(f * g, ideal):
                    assert satgb.contains(g)


def test_normal_form_module_level(ring2):
    z1, z2 = ring2.gens()
    G = buchberger(Ideal(ring2, [z2, z1**2 - z2**5]))
    # z1^3 = z1 * z1^2 and z2 both reduce away
    assert normal_form(z1**3 + z2, G) == ring2.zero()
    assert normal_form(z1 + 1, G) == z1 + 1


class TestEdgeCases:
    def test_unit_ideal_basis(self):
        R = PolyRing(("x", "y"))
        G = buchberger(Ideal(R, [R.const(2)]))
        assert list(G.basis) == [R.one()]
        assert G.contains(R.parse("x^5 - y"))

    def test_zero_ideal_basis(self):
        R = PolyRing(("x", "y"))
        G = buchberger(Ideal(R, []))
        assert len(G) == 0
        p = R.parse("x - y^2")
        assert G.normal_form(p) == p

    def test_concurrent_normal_forms_share_a_basis(self):
        # completed bases are immutable; concurrent reads must agree
        import concurrent.futures

        rng = random.Random(21)
        ideal = corpus_ideals()[2]
        G = buchberger(ideal)
        polys = [rand_poly(ideal.ring, rng) for _ in range(40)]
        want = [G.normal_form(p) for p in polys]
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(G.normal_form, polys))
        assert got == want

    def test_concurrent_normal_forms_fill_one_memo(self):
        # threads that divide by one fresh basis at once, with a short
        # switch interval, get the answers of a separate basis per
        # polynomial: the basis holds no state that the calls change
        import concurrent.futures
        import sys

        rng = random.Random(22)
        ideal = corpus_ideals()[2]
        basis = buchberger(ideal).basis
        polys = [rand_poly(ideal.ring, rng, max_deg=6) for _ in range(60)]
        want = [GroebnerBasis(ideal.ring, grevlex(), basis).normal_form(p) for p in polys]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                G = GroebnerBasis(ideal.ring, grevlex(), basis)
                with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(G.normal_form, p) for p in polys]
                    got = [f.result(timeout=60) for f in futures]
                assert got == want
        finally:
            sys.setswitchinterval(interval)

    def test_basis_is_immutable(self):
        R = PolyRing(("x", "y"))
        G = buchberger(Ideal(R, [R.var(0)]))
        with pytest.raises(AttributeError):
            G.basis = ()
        with pytest.raises(AttributeError):
            Ideal(R, [R.var(0)]).gens = ()


class TestCanonicalForm:
    def test_reduced_basis_invariant_under_generator_permutation(self):
        import itertools

        for ideal in corpus_ideals():
            gens = list(ideal.gens)
            baseline = buchberger(ideal).basis
            rng = random.Random(55)
            perms = list(itertools.permutations(gens))
            rng.shuffle(perms)
            for perm in perms[:6]:
                assert buchberger(Ideal(ideal.ring, perm)).basis == baseline

    def test_normal_form_idempotent(self):
        rng = random.Random(56)
        for ideal in corpus_ideals():
            G = buchberger(ideal)
            for _ in range(6):
                p = rand_poly(ideal.ring, rng)
                nf = G.normal_form(p)
                assert G.normal_form(nf) == nf

    def test_scaled_generators_same_basis(self):
        for ideal in corpus_ideals():
            scaled = [Fraction(3, 7) * g for g in ideal.gens]
            assert (
                buchberger(Ideal(ideal.ring, scaled)).basis
                == buchberger(ideal).basis
            )


# ------------------------------------------------------- pair criteria


def _lead(terms, order):
    return max(terms, key=order.key)


def _monic(terms, order):
    lead = _lead(terms, order)
    c = terms[lead]
    return lead, {e: v / c for e, v in terms.items()}


def _ref_remainder(f, basis, order):
    """Full division of the dict ``f`` by the monic (lead, terms) pairs."""
    f, rem = dict(f), {}
    while f:
        m = _lead(f, order)
        c = f.pop(m)
        g = next((g for g in basis if mono_divides(g[0], m)), None)
        if g is None:
            rem[m] = c
            continue
        lead, terms = g
        shift = tuple(a - b for a, b in zip(m, lead))
        for e, v in terms.items():
            if e != lead:
                t = tuple(a + b for a, b in zip(e, shift))
                s = f.get(t, 0) - c * v
                if s:
                    f[t] = s
                else:
                    f.pop(t, None)
    return rem


def reference_basis(gens, order):
    """Reduced Groebner basis, as a set of frozen term sets, from the
    textbook loop: every pair of every basis element is reduced, with no
    criterion, in field arithmetic (Fraction or GFElement)."""
    basis = [_monic(g.terms, order) for g in gens]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop()
        (li, gi), (lj, gj) = basis[i], basis[j]
        lcm_exp = tuple(map(max, li, lj))
        s = {}
        for lead, terms, sign in ((li, gi, 1), (lj, gj, -1)):
            shift = tuple(a - b for a, b in zip(lcm_exp, lead))
            for e, v in terms.items():
                t = tuple(a + b for a, b in zip(e, shift))
                c = s.get(t, 0) + sign * v
                if c:
                    s[t] = c
                else:
                    s.pop(t, None)
        r = _ref_remainder(s, basis, order)
        if r:
            basis.append(_monic(r, order))
            pairs += [(k, len(basis) - 1) for k in range(len(basis) - 1)]
    minimal = []
    for lead, terms in basis:
        if not any(mono_divides(l2, lead) for l2, _ in minimal):
            minimal = [m for m in minimal if not mono_divides(lead, m[0])]
            minimal.append((lead, terms))
    return {
        frozenset(_ref_remainder(t, minimal[:k] + minimal[k + 1 :], order).items())
        | {(lead, t[lead])}
        for k, (lead, t) in enumerate(minimal)
    }


def oracle_cases():
    """Seeded ideals in 2 and 3 variables, most of them non-homogeneous,
    over Q and GF(32003) under grevlex, lex and elim(1).  In every other case a last
    generator's lead properly divides the first one's, so an older element
    stops getting pairs while it stays a reducer."""
    cases = []
    for seed in range(42):
        rng = random.Random(seed)
        order = (grevlex(), lex(), elim(1))[seed % 3]
        divisor = seed % 2
        nvars = 2 + (seed // 2) % 2
        over_gf = (seed // 4) % 2
        ring = PolyRing(("x", "y", "z")[:nvars])
        count = 1 if nvars == 2 and divisor else 2
        gens = []
        while len(gens) < count:
            g = rand_poly(ring, rng, max_deg=4, max_terms=4)
            if g.degree() > 0:
                gens.append(g)
        lead = _lead(gens[0].terms, order)
        if divisor:
            k = rng.choice([v for v in range(nvars) if lead[v]])
            m = tuple(x - (v == k) for v, x in enumerate(lead))
            lower = {
                e: c
                for e, c in rand_poly(ring, rng, sum(m), 3).terms.items()
                if order.key(e) < order.key(m)
            }
            gens.append(MultiPoly(ring, {**lower, m: Fraction(rng.randint(1, 4))}))
        if over_gf:
            gens = [poly_to_gf(g, GF(32003)) for g in gens]
        cases.append(pytest.param(ring, order, gens, id=f"seed{seed}"))
    return cases


@pytest.mark.parametrize("ring, order, gens", oracle_cases())
def test_pair_criteria_match_all_pairs_reference(ring, order, gens):
    got = buchberger(Ideal(ring, gens), order)
    assert {frozenset(g.terms.items()) for g in got} == reference_basis(gens, order)


@pytest.mark.parametrize(
    "gens, taken",
    [
        # (x2z, x2y) stays: lcm(x2z, xyz) equals it; of the two new pairs
        # with the same lcm x2yz only one is kept
        (["x^2*z", "x^2*y", "x*y*z"], 2),
        # the lcm x2y2 of (x2y, y2) is also reached by the coprime (x2, y2)
        (["x^2", "x^2*y", "y^2"], 1),
        # B_k: xyz divides lcm(x2z, y2z) = x2y2z, which differs from the
        # lcms x2yz and xy2z of the new pairs
        (["x^2*z", "y^2*z", "x*y*z"], 2),
    ],
)
def test_pairs_taken_count_against_max_pairs(gens, taken):
    R = PolyRing(("x", "y", "z"))
    ideal = Ideal(R, [R.parse(g) for g in gens])
    buchberger(ideal, budget=Budget(max_pairs=taken))
    with pytest.raises(BudgetExceededError):
        buchberger(ideal, budget=Budget(max_pairs=taken - 1))


def cyclic(n: int, field=None) -> Ideal:
    R = PolyRing(tuple(f"x{i}" for i in range(n)))
    x = R.gens()
    gens = []
    for k in range(1, n):
        total = R.zero()
        for i in range(n):
            term = R.one()
            for j in range(k):
                term = term * x[(i + j) % n]
            total = total + term
        gens.append(total)
    prod = R.one()
    for v in x:
        prod = prod * v
    gens.append(prod - R.one())
    if field is not None:
        gens = [poly_to_gf(g, field) for g in gens]
    return Ideal(R, gens)


def katsura(n: int) -> Ideal:
    R = PolyRing(tuple(f"u{i}" for i in range(n + 1)))
    u = R.gens()

    def at(k):
        k = abs(k)
        return u[k] if k <= n else R.zero()

    gens = []
    for m in range(n):
        total = R.zero()
        for l in range(-n, n + 1):
            total = total + at(l) * at(m - l)
        gens.append(total - u[m])
    total = u[0]
    for l in range(1, n + 1):
        total = total + u[l] * 2
    gens.append(total - R.one())
    return Ideal(R, gens)


@pytest.mark.parametrize(
    "ideal, taken",
    [
        (katsura(4), 30),
        (cyclic(5, GF(32003)), 112),
    ],
    ids=["katsura4.Q", "cyclic5.GF32003"],
)
def test_pairs_taken_on_real_ideals(ideal, taken):
    # pins the pair selection: a change to the criteria or the order in
    # which pairs are taken moves these counts
    buchberger(ideal, budget=Budget(max_pairs=taken))
    with pytest.raises(BudgetExceededError):
        buchberger(ideal, budget=Budget(max_pairs=taken - 1))


# ------------------------------------------------------- modular trace


def spy(monkeypatch, owner, name):
    """Record (args, result) of every call of ``owner.name``."""
    calls = []
    fn = getattr(owner, name)

    def wrapper(*args):
        result = fn(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def trace_reductions(calls):
    return sum(len(args) > 3 and args[3] == groebner.TRACE_PRIME for args, _ in calls)


def as_sets(G):
    return {frozenset(g.terms.items()) for g in G}


class TestModularTrace:
    """Over Q, pairs whose S-polynomial reduces to zero modulo
    ``TRACE_PRIME`` are skipped, and the basis is checked over Q."""

    def test_katsura2_skips_pairs(self, monkeypatch):
        checks = spy(monkeypatch, groebner, "_proves_basis")
        ideal = katsura(2)
        G = buchberger(ideal)
        assert [result for _, result in checks] == [True]
        assert as_sets(G) == reference_basis(ideal.gens, grevlex())

    def test_katsura4_skips_pairs_and_matches_the_plain_loop(self, monkeypatch):
        # reference_basis takes minutes here; the plain loop is the check
        checks = spy(monkeypatch, groebner, "_proves_basis")
        G = buchberger(katsura(4))
        assert [result for _, result in checks] == [True]
        loop = groebner._basis_loop
        monkeypatch.setattr(groebner, "_basis_loop", lambda *a: loop(*a[:4], False))
        assert list(G) == list(buchberger(katsura(4)))
        assert len(checks) == 1

    @pytest.mark.parametrize(
        "gens, images",
        [
            # the first lead coefficient other than 1 is divisible by p
            (["x^2 + y", "32749*x*y + z^2"], 0),
            # 2*w - 1 starts the trace; S(x^2 - y, x*y - 32749*z^2) has
            # the remainder 32749*x*z^2 - y^2, whose push ends it
            (["2*w - 1", "x^2 - y", "x*y - 32749*z^2"], 1),
        ],
        ids=["at_start", "at_a_later_push"],
    )
    def test_prime_dividing_a_lead_coefficient_drops_the_trace(
        self, monkeypatch, gens, images
    ):
        R = PolyRing(("x", "y", "z", "w"))
        gens = [R.parse(g) for g in gens]
        reductions = spy(monkeypatch, kernel, "normal_form")
        checks = spy(monkeypatch, groebner, "_proves_basis")
        G = buchberger(Ideal(R, gens))
        assert trace_reductions(reductions) == images
        assert checks == []
        assert as_sets(G) == reference_basis(gens, grevlex())

    def test_false_zero_fails_the_check_and_the_plain_loop_answers(self, monkeypatch):
        # 2*w - 1 starts the trace; S(x^2, x*y + 32749*z) = -32749*x*z is
        # 0 mod p but not over Q, so the traced basis misses x*z
        R = PolyRing(("x", "y", "z", "w"))
        gens = [R.parse(g) for g in ("2*w - 1", "x^2", "x*y + 32749*z")]
        loops = spy(monkeypatch, groebner, "_basis_loop")
        checks = spy(monkeypatch, groebner, "_proves_basis")
        G = buchberger(Ideal(R, gens))
        assert [result for _, result in checks] == [False]
        assert [(args[4], bool(skipped)) for args, (_, skipped) in loops] == [(True, True), (False, False)]
        assert as_sets(G) == reference_basis(gens, grevlex())
        assert R.parse("x*z") in G.basis

    def test_katsura4_check_reduces_only_the_skipped_pairs(self, monkeypatch):
        loops = spy(monkeypatch, groebner, "_basis_loop")
        nf_terms, proves = groebner._nf_terms, groebner._proves_basis
        checking, reduced = [False], []

        def counted(*args):
            if checking[0]:
                reduced.append(args[0])
            return nf_terms(*args)

        def check(*args):
            checking[0] = True
            try:
                return proves(*args)
            finally:
                checking[0] = False

        monkeypatch.setattr(groebner, "_nf_terms", counted)
        monkeypatch.setattr(groebner, "_proves_basis", check)
        buchberger(katsura(4))
        [((gens, *_), (_, skipped))] = loops
        assert skipped and len(reduced) == len(skipped)
        assert not any(terms == g for terms in reduced for g, _ in gens)

    def test_dropped_twin_pairs_as_itself(self):
        # x^2 and x^2 + y share a lead; minimalization keeps loop element
        # 0, so the skipped pair (0, 1) is S(x^2, x^2 + y) = -y, not 0
        R = PolyRing(("x", "y"))
        packing = kernel.packing(grevlex().spec(), 2, 8)
        loop = [
            packing.pack_terms(kernel.to_ints(R.parse(g).terms, None)) for g in ("x^2", "x^2 + y")
        ]
        reduced = groebner._reduce_basis(loop, packing, None)
        assert list(reduced) == [0]
        skipped = [(0, 1, packing.pack((2, 0)))]
        assert not groebner._proves_basis(reduced, loop, skipped, packing)
        # taking the survivor of the shared lead for element 1 would pass
        assert groebner._proves_basis(reduced, [loop[0]] * 2, skipped, packing)

    def test_false_zero_beside_a_dropped_element_fails_the_check(self, monkeypatch):
        # S(x^2*y - 32749*x, x*y) = -32749*x is 0 mod p but not over Q;
        # minimalization drops x^2*y - 32749*x, the first of the pair
        R = PolyRing(("x", "y", "z", "w"))
        gens = [R.parse(g) for g in ("2*w - 1", "x^2*y - 32749*x", "x*y")]
        checks = spy(monkeypatch, groebner, "_proves_basis")
        G = buchberger(Ideal(R, gens))
        [((reduced, _, skipped, _), result)] = checks
        assert [(i, j) for i, j, _ in skipped] == [(1, 2)]
        assert 1 not in reduced and result is False
        assert list(G) == [R.parse("w - 1/2"), R.parse("x")]


def test_negative_budget_caps_are_rejected():
    with pytest.raises(ValueError, match="max_pairs"):
        Budget(max_pairs=-1)
    with pytest.raises(ValueError, match="max_matrix_entries"):
        Budget(max_matrix_entries=-5)
    # a cap of 0 is valid: it admits only inputs that need no S-pair
    R = PolyRing(("x", "y"))
    x, y = R.gens()
    zero = Budget(max_pairs=0, max_matrix_entries=0)
    assert len(buchberger(Ideal(R, [x, y]), budget=zero)) == 2
    with pytest.raises(BudgetExceededError):
        buchberger(Ideal(R, [x**2, x * y + 1]), budget=zero)


CHAIN17_DIGEST = "68e188dcc347d8cfe37d24c17a6d0b0541ed77c4216ec90e447803a7e96caf62"


def chain(k: int):
    """The ring x0..xk and the generators x_i - x_{i+1}^2 (i < k)."""
    R = PolyRing(tuple(f"x{i}" for i in range(k + 1)))
    x = R.gens()
    return R, [x[i] - x[i + 1] ** 2 for i in range(k)]


class TestExponentGrowth:
    """Exponents far beyond the input degrees: the packed monomials must
    widen, never wrap."""

    def test_s_polynomial_past_the_field_width_raises(self):
        # S(x - y^120, x*y^10 - 1) = -y^130 + 1 under lex; 8-bit fields
        # hold exponents below 128
        pk = kernel.packing(lex().spec(), 2, 8)
        ri = kernel.reducer(pk.pack((1, 0)), {pk.pack((1, 0)): 1, pk.pack((0, 120)): -1})
        rj = kernel.reducer(pk.pack((1, 10)), {pk.pack((1, 10)): 1, pk.pack((0, 0)): -1})
        with pytest.raises(OverflowError):
            kernel.s_poly(ri, rj, pk.pack((1, 10)), pk.guard, None)
        pk = kernel.packing(lex().spec(), 2, 16)
        ri = kernel.reducer(pk.pack((1, 0)), {pk.pack((1, 0)): 1, pk.pack((0, 120)): -1})
        rj = kernel.reducer(pk.pack((1, 10)), {pk.pack((1, 10)): 1, pk.pack((0, 0)): -1})
        s = kernel.s_poly(ri, rj, pk.pack((1, 10)), pk.guard, None)
        assert pk.unpack_terms(s) == {(0, 130): -1, (0, 0): 1}

    def test_normal_form_of_x0_against_the_lex_chain(self):
        R, gens = chain(17)
        G = buchberger(Ideal(R, gens), lex())
        assert G.normal_form(R.var(0)) == R.var(17) ** 131072
        # recorded before the loop over Q was guided by a modular trace
        text = "\n".join(str(g) for g in G).encode()
        assert hashlib.sha256(text).hexdigest() == CHAIN17_DIGEST

    def test_lex_chain_closed_by_x0_minus_1(self):
        R, gens = chain(14)
        x = R.gens()
        G = buchberger(Ideal(R, gens + [x[0] - 1]), lex())
        want = [x[14] ** 16384 - 1]
        want += [x[i] - x[14] ** 2 ** (14 - i) for i in range(13, 0, -1)]
        want += [x[0] - 1]
        assert list(G) == want

    @pytest.mark.parametrize("order", [grevlex(), lex(), elim(1)], ids=str)
    def test_degree_70000_generator(self, order):
        R = PolyRing(("x", "y"))
        x, y = R.gens()
        G = buchberger(Ideal(R, [x**70000 - y, y**3 - 1]), order)
        assert list(G) == [y**3 - 1, x**70000 - y]
        assert G.normal_form(x**140001) == x * y**2
        # an input of more than twice the basis degree
        assert G.normal_form(x**600000) == x**40000 * y**2

    def test_remainder_past_the_basis_degree(self):
        R, gens = chain(5)
        x = R.gens()
        G = buchberger(Ideal(R, gens), lex())
        assert max(g.degree() for g in G) == 32
        assert G.normal_form(x[0] ** 5) == x[5] ** 160
        assert G.normal_form(x[0] ** 5 * x[1]) == x[5] ** 176

    def test_widened_normal_form_leaves_the_packed_basis(self):
        R, gens = chain(5)
        x = R.gens()
        G = buchberger(Ideal(R, gens), lex())
        packed = G._packed
        # x5^160 outgrows the fields sized for the basis degree 32
        assert G.normal_form(x[0] ** 5) == x[5] ** 160
        assert G._packed is packed

    def test_concurrent_widened_normal_forms(self):
        # eight threads whose normal forms all outgrow the packed fields
        import concurrent.futures
        import sys

        R, gens = chain(5)
        x = R.gens()
        basis = buchberger(Ideal(R, gens), lex()).basis
        polys = [x[0] ** a * x[i] ** b for a in (4, 5) for i in range(1, 6) for b in (1, 3)]
        want = [GroebnerBasis(R, lex(), basis).normal_form(p) for p in polys]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            G = GroebnerBasis(R, lex(), basis)
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(G.normal_form, p) for p in polys]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == want
