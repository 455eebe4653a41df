"""Groebner engine: bases, normal forms, membership, elimination,
saturation; the Buchberger criterion and confluence as self-checks, and
the pair criteria of both S-pair loops, Gebauer-Moeller and signature,
against an all-pairs Buchberger with no criteria and against each other."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from conftest import corpus_ideals, random_forms_ideal, twisted_cubic_ideal
from oracles import (
    key_of,
    lead_exponent,
    membership_by_linear_algebra,
    reference_basis,
    s_polynomial,
    substitute_eliminate_oracle,
)

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


@pytest.fixture
def gebauer_moeller(monkeypatch):
    """Send every ideal basis to ``_basis_loop``, the Gebauer-Moeller
    loop, for the tests that pin its pairs and normal forms; by default
    grevlex ideals of at most nvars generators take the signature loop."""
    loop_calls(monkeypatch, "gebauer_moeller")


class TestBuchberger:
    def test_already_reduced(self):
        R = PolyRing(("x", "y"))
        x, y = R.gens()
        G = buchberger(Ideal(R, [x, y]))
        assert list(G) == [y, x] or set(G) == {x, y}

    def test_ring_without_variables(self):
        # the zero ideal takes the signature loop (0 generators, 0
        # variables), whose field layout then has no fields
        R = PolyRing(())
        assert list(buchberger(Ideal(R, []))) == []
        assert list(buchberger(Ideal(R, [R.one()]))) == [R.one()]

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
        leads = G.lead_monomials()
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

    def test_ring_variable_named_t(self):
        # the Rabinowitsch variable takes a fresh name when t is taken
        with_t, with_s = PolyRing(("t", "x", "y")), PolyRing(("s", "x", "y"))
        gens = ["t*x^2 - x*y", "x*y^2"]
        sats = [
            saturate(Ideal(R, [R.parse(g.replace("t", R.names[0])) for g in gens]), R.var(1))
            for R in (with_t, with_s)
        ]
        renamed = tuple(MultiPoly(with_t, g.terms) for g in sats[1].gens)
        assert sats[0].gens and sats[0].gens == renamed

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

    def test_concurrent_normal_forms_on_one_fresh_basis(self):
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
        lead = lead_exponent(gens[0].terms, order)
        if divisor:
            k = rng.choice([v for v in range(nvars) if lead[v]])
            m = tuple(x - (v == k) for v, x in enumerate(lead))
            lower = {
                e: c
                for e, c in rand_poly(ring, rng, sum(m), 3).terms.items()
                if key_of(e, order) < key_of(m, order)
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
@pytest.mark.usefixtures("gebauer_moeller")
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
@pytest.mark.usefixtures("gebauer_moeller")
def test_pairs_taken_on_real_ideals(ideal, taken):
    # pins the pair selection: a change to the criteria or the order in
    # which pairs are taken moves these counts
    buchberger(ideal, budget=Budget(max_pairs=taken))
    with pytest.raises(BudgetExceededError):
        buchberger(ideal, budget=Budget(max_pairs=taken - 1))


# ---------------------------------- tail-reduced Gebauer-Moeller loop over Q


def spy(monkeypatch, owner, name):
    """Record (args, result) of every call of ``owner.name``."""
    calls = []
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def as_sets(G):
    return {frozenset(g.terms.items()) for g in G}


# reduced basis of katsura(4) over Q, recorded while the loop over Q was
# guided by a trace modulo 32749: (length, digest of the element texts)
KATSURA4 = (13, "ce5935dd4ded8c67065522b1e80bbd28eb6542928d6e66650de8e2d630e2d398")

# (calls, digest of the arguments) of ``kernel.normal_form`` in
# buchberger(cyclic(5) over GF(32003)), recorded before the loop over Q
# reduced its tails
CYCLIC5_GF_NORMAL_FORMS = (132, "51b6c5ad45be80f233cb04b8feb766fd3114fb99ce05a4a6518e50452878cfe9")


@pytest.mark.usefixtures("gebauer_moeller")
class TestInterreducedLoop:
    """Over Q the S-pair loop keeps the tails of its elements reduced."""

    @staticmethod
    def tail_reductions(monkeypatch):
        """Count the loop's tail reductions: the ``kernel.normal_form``
        calls that do not come through ``_nf_terms``."""
        fn, counts = kernel.normal_form, [0]

        def counted(*args, **kwargs):
            counts[0] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(kernel, "normal_form", counted)
        reductions = spy(monkeypatch, groebner, "_nf_terms")
        return lambda: counts[0] - len(reductions)

    # inputs whose loop meets a lead coefficient other than 1
    @pytest.mark.parametrize(
        "ideal",
        [katsura(3)] + [random_forms_ideal(random.Random(s)) for s in range(2, 6)],
        ids=["katsura3"] + [f"forms{s}" for s in range(2, 6)],
    )
    def test_no_tail_term_is_divisible_by_another_lead(self, monkeypatch, ideal):
        tail_reductions = self.tail_reductions(monkeypatch)
        calls = spy(monkeypatch, groebner, "_reduce_basis")
        buchberger(ideal)
        [((loop, packing, _), _)] = calls
        assert tail_reductions() > 0
        guard = packing.guard
        leads = [max(t) for t in loop]
        divides = lambda j, m: not (m - leads[j]) & guard
        for k, terms in enumerate(loop):
            others = [j for j in range(len(loop)) if j != k]
            if any(divides(j, leads[k]) for j in others):
                continue
            assert not any(divides(j, m) for m in terms if m != leads[k] for j in others)

    # inputs whose every lead coefficient is 1: no reduction rescales
    @pytest.mark.parametrize(
        "ideal",
        [twisted_cubic_ideal(), cyclic(4)] + [random_forms_ideal(random.Random(s)) for s in range(2)],
        ids=["cubic", "cyclic4", "forms0", "forms1"],
    )
    def test_leads_of_1_leave_the_tails_alone(self, monkeypatch, ideal):
        tail_reductions = self.tail_reductions(monkeypatch)
        G = buchberger(ideal)
        assert tail_reductions() == 0
        assert as_sets(G) == reference_basis(ideal.gens, grevlex())

    def test_katsura2(self):
        ideal = katsura(2)
        assert as_sets(buchberger(ideal)) == reference_basis(ideal.gens, grevlex())

    def test_katsura4_matches_its_recorded_digest(self, monkeypatch):
        # reference_basis takes minutes here
        reductions = spy(monkeypatch, groebner, "_nf_terms")
        G = buchberger(katsura(4))
        text = "\n".join(str(g) for g in G).encode()
        assert (len(G), hashlib.sha256(text).hexdigest()) == KATSURA4
        # 30 pairs taken (test_pairs_taken_on_real_ideals), each reduced
        # once through _nf_terms, and one tail reduction per element of the
        # reduced basis; the loop's tail reductions bypass _nf_terms
        assert len(reductions) == 30 + len(G)

    @pytest.mark.parametrize(
        "gens",
        [
            # two generators share a lead; neither may reduce the other's
            ["x^2", "x^2 + y"],
            # a lead coefficient divisible by 32749, first or at a later push
            ["x^2 + y", "32749*x*y + z^2"],
            ["2*w - 1", "x^2 - y", "x*y - 32749*z^2"],
            # S(x^2, x*y + 32749*z) = -32749*x*z is 0 mod 32749, not over Q
            ["2*w - 1", "x^2", "x*y + 32749*z"],
            # S(x^2*y - 32749*x, x*y) = -32749*x, and x^2*y - 32749*x is
            # not minimal
            ["2*w - 1", "x^2*y - 32749*x", "x*y"],
        ],
        ids=[
            "twin_leads",
            "lead_at_start",
            "lead_at_a_later_push",
            "zero_mod_p",
            "zero_mod_p_beside_a_dropped_element",
        ],
    )
    def test_edge_inputs_match_the_reference(self, gens):
        R = PolyRing(("x", "y", "z", "w"))
        gens = [R.parse(g) for g in gens]
        assert as_sets(buchberger(Ideal(R, gens))) == reference_basis(gens, grevlex())


@pytest.mark.usefixtures("gebauer_moeller")
def test_gf_path_makes_the_recorded_normal_forms(monkeypatch):
    # the terms, reducers, field width and modulus of each call, as made
    digest, calls = hashlib.sha256(), [0]
    fn = kernel.normal_form

    def recorded(terms, reducers, packing, modulus=None, *args, **kwargs):
        calls[0] += 1
        key = (sorted(terms.items()), tuple(reducers), packing.bits if packing else None, modulus)
        digest.update(repr(key).encode())
        return fn(terms, reducers, packing, modulus, *args, **kwargs)

    monkeypatch.setattr(kernel, "normal_form", recorded)
    buchberger(cyclic(5, GF(32003)))
    assert (calls[0], digest.hexdigest()) == CYCLIC5_GF_NORMAL_FORMS


def loop_calls(monkeypatch, loop):
    """The calls of the S-pair loop named by ``loop``; "gebauer_moeller"
    also routes every ideal basis to it."""
    if loop == "signature":
        return spy(monkeypatch, groebner, "_signature_loop")
    calls = spy(monkeypatch, groebner, "_basis_loop")
    monkeypatch.setattr(groebner, "_signature_loop", groebner._basis_loop)
    return calls


def degree_stop_cases():
    """Homogeneous ideals, each on its own loop, and those of at most
    nvars generators also on the Gebauer-Moeller loop."""
    ideals = [("cubic", twisted_cubic_ideal())]
    ideals += [(f"forms{s}", random_forms_ideal(random.Random(s))) for s in range(12)]
    cases = []
    for name, ideal in ideals:
        if len(ideal.gens) <= ideal.ring.nvars:
            cases.append(pytest.param(ideal, "signature", id=name))
            cases.append(pytest.param(ideal, "gebauer_moeller", id=f"{name}-gebauer_moeller"))
        else:
            cases.append(pytest.param(ideal, "gebauer_moeller", id=name))
    return cases


class TestDegreeStop:
    """A basis of homogeneous generators truncated at a degree D holds
    the elements of degree <= D of the reduced basis, and reduces no
    pair above D, on either loop."""

    @pytest.mark.parametrize("ideal, loop", degree_stop_cases())
    def test_truncated_basis_is_the_low_part_of_the_reduced_one(self, monkeypatch, ideal, loop):
        gens = [(kernel.to_ints(g.terms, None), int(g.degree())) for g in ideal.gens]
        packing = kernel.packing(grevlex(), ideal.ring.nvars, 16)
        degree = lambda terms: sum(packing.unpack(max(terms)))
        runs = loop_calls(monkeypatch, loop)
        full = groebner._packed_basis(gens, packing, None, Budget())
        assert len(runs) == 1
        # the Gebauer-Moeller loop builds each pair's S-polynomial with
        # s_poly; the signature loop passes _nf_terms a signature bound
        # with each multiple of an element it reduces, and of a generator
        s_polys = spy(monkeypatch, kernel, "s_poly")
        reduced = spy(monkeypatch, groebner, "_nf_terms")
        for stop in range(1, max(map(degree, full)) + 1):
            s_polys.clear()
            reduced.clear()
            cut = groebner._packed_basis(gens, packing, None, Budget(), stop)
            assert [t for t in cut if degree(t) <= stop] == [t for t in full if degree(t) <= stop]
            assert all(sum(packing.unpack(args[2])) <= stop for args, _ in s_polys)
            assert all(degree(args[0]) <= stop for args, _ in reduced if args[5:])


# ------------------------------------------------------- signature loop


def over_gf(ideal: Ideal) -> Ideal:
    return Ideal(ideal.ring, [poly_to_gf(g, GF(32003)) for g in ideal.gens])


def signature_cases(reference: bool):
    """Grevlex ideals of at most nvars generators, over Q and GF(32003):
    the grevlex oracle cases, random forms, katsura and cyclic.  With
    ``reference`` only those whose all-pairs reference runs in well
    under a second: katsura(2) and cyclic(4), not katsura(3..4) and
    cyclic(5)."""
    cases = [
        pytest.param(Ideal(ring, gens), id=case.id)
        for case in oracle_cases()
        for ring, order, gens in [case.values]
        if order == grevlex() and len(gens) <= ring.nvars
    ]
    forms = [(s, random_forms_ideal(random.Random(s))) for s in range(12)]
    named = [(f"forms{s}", ideal) for s, ideal in forms if len(ideal.gens) <= ideal.ring.nvars]
    named += [(f"katsura{n}", katsura(n)) for n in ((2,) if reference else (2, 3, 4))]
    named += [(f"cyclic{n}", cyclic(n)) for n in ((4,) if reference else (4, 5))]
    for name, ideal in named:
        cases.append(pytest.param(ideal, id=f"{name}.Q"))
        cases.append(pytest.param(over_gf(ideal), id=f"{name}.GF"))
    return cases


@pytest.mark.parametrize("ideal", signature_cases(reference=True))
def test_signature_loop_matches_the_all_pairs_reference(monkeypatch, ideal):
    runs = loop_calls(monkeypatch, "signature")
    assert as_sets(buchberger(ideal)) == reference_basis(ideal.gens, grevlex())
    assert len(runs) == 1


@pytest.mark.parametrize("ideal", signature_cases(reference=False))
def test_signature_loop_matches_the_gebauer_moeller_loop(monkeypatch, ideal):
    G = buchberger(ideal)
    loop_calls(monkeypatch, "gebauer_moeller")
    assert buchberger(ideal).basis == G.basis


def generic_forms(nvars: int, degrees, seed: int) -> Ideal:
    """Forms of the given degrees with every monomial and random
    coefficients: a regular sequence for almost every seed."""
    rng = random.Random(seed)
    R = PolyRing(tuple(f"x{i}" for i in range(nvars)))
    gens = []
    for d in degrees:
        monos = itertools.combinations_with_replacement(range(nvars), d)
        terms = {}
        for mono in monos:
            terms[tuple(mono.count(v) for v in range(nvars))] = Fraction(rng.randint(1, 9))
        gens.append(MultiPoly(R, terms))
    return Ideal(R, gens)


def loop_reductions(monkeypatch):
    """The remainders of the signature loop's reductions: the
    ``_nf_terms`` calls with a signature bound, {} for a reduction to
    zero and None for a singular discard."""
    calls = spy(monkeypatch, groebner, "_nf_terms")
    return lambda: [r for args, r in calls if args[5:]]


class TestSignatureCriteria:
    """The Koszul syzygies and the rewrite rule discard every pair of a
    regular sequence before it could reduce to zero."""

    @pytest.mark.parametrize("ideal", [katsura(4), over_gf(katsura(4))], ids=["katsura4.Q", "katsura4.GF"])
    def test_katsura_reduces_nothing_to_zero(self, monkeypatch, ideal):
        remainders = loop_reductions(monkeypatch)
        buchberger(ideal)
        # 5 generators and the 23 pairs of test_signature_pairs_taken
        assert len(remainders()) == 28
        assert {} not in remainders()

    def test_generic_forms_truncated_reduce_nothing_to_zero(self, monkeypatch):
        ideal = generic_forms(3, (2, 3, 3), seed=1)
        gens = [(kernel.to_ints(g.terms, None), int(g.degree())) for g in ideal.gens]
        packing = kernel.packing(grevlex(), 3, 16)
        for stop in (4, 5, 6):
            remainders = loop_reductions(monkeypatch)
            cut = groebner._packed_basis(gens, packing, None, Budget(), stop)
            assert cut and remainders()
            assert {} not in remainders()

    def test_a_syzygy_that_is_not_koszul_is_learned_once(self, monkeypatch):
        # the twisted cubic is no complete intersection: its two
        # non-Koszul syzygies each take one reduction to zero
        remainders = loop_reductions(monkeypatch)
        buchberger(twisted_cubic_ideal())
        assert remainders().count({}) == 2


@pytest.mark.parametrize(
    "gens, taken",
    [
        # monomials: each pair taken reduces to zero and teaches one
        # syzygy that is not Koszul; here the J-pairs z*e_1 and x*e_2,
        # both at the lcm x2yz
        (["x^2*z", "x^2*y", "x*y*z"], 2),
        # x2y reduces to zero as a generator, so its signature e_1 is a
        # syzygy that discards every pair of its position
        (["x^2", "x^2*y", "y^2"], 0),
        (["x^2*z", "y^2*z", "x*y*z"], 3),
        # 4 of the 11 remainders are singular
        (["x^3 - 2*x*y", "x^2*y - 2*y^2 + x", "y^3 - z^2 + x"], 11),
    ],
)
def test_signature_pairs_count_against_max_pairs(monkeypatch, gens, taken):
    # the pairs reduced after the syzygy criterion and the rewrite rule;
    # the Gebauer-Moeller loop takes 2, 1 and 2 of the first three
    # (test_pairs_taken_count_against_max_pairs)
    R = PolyRing(("x", "y", "z"))
    ideal = Ideal(R, [R.parse(g) for g in gens])
    runs = loop_calls(monkeypatch, "signature")
    buchberger(ideal, budget=Budget(max_pairs=taken))
    assert len(runs) == 1
    if taken:
        with pytest.raises(BudgetExceededError):
            buchberger(ideal, budget=Budget(max_pairs=taken - 1))


@pytest.mark.parametrize(
    "ideal, taken",
    [(katsura(4), 23), (cyclic(5, GF(32003)), 34), (cyclic(6, GF(32003)), 163)],
    ids=["katsura4.Q", "cyclic5.GF32003", "cyclic6.GF32003"],
)
def test_signature_pairs_taken_on_real_ideals(ideal, taken):
    # 30 and 112 on the Gebauer-Moeller loop (test_pairs_taken_on_real_ideals)
    buchberger(ideal, budget=Budget(max_pairs=taken))
    with pytest.raises(BudgetExceededError):
        buchberger(ideal, budget=Budget(max_pairs=taken - 1))


# (calls, digest) of the signature loop's reductions: the signature, the
# input terms and the remainder (None when singular) of every
# ``_nf_terms`` call with a signature bound, recorded before the loop
# cached its per-element keys and kept a syzygy divisor hint
SIGNATURE_REDUCTIONS = {
    "cyclic6.GF32003": (169, "12da10111ee0669f687500e35e374fbd9fa5085f7600c3a7c60e2a2b4f87d7d0"),
    "katsura5.Q": (56, "2520e5fc53db0cd6809c64261f9ed9d315d7b0890012b0f4075b6d6e3ec53b27"),
}


@pytest.mark.parametrize(
    "name, ideal",
    [("cyclic6.GF32003", cyclic(6, GF(32003))), ("katsura5.Q", katsura(5))],
    ids=["cyclic6.GF32003", "katsura5.Q"],
)
def test_signature_loop_makes_the_recorded_reductions(monkeypatch, name, ideal):
    # a change to the criteria, the heap order or the regular reduction
    # moves the sequence of reductions, and with it this digest
    digest, calls = hashlib.sha256(), spy(monkeypatch, groebner, "_nf_terms")
    buchberger(ideal)
    reductions = [(args, nf) for args, nf in calls if args[5:]]
    for (terms, *_, bound), nf in reductions:
        remainder = None if nf is None else sorted(nf.items())
        digest.update(repr((bound[0], sorted(terms.items()), remainder)).encode())
    assert (len(reductions), digest.hexdigest()) == SIGNATURE_REDUCTIONS[name]


def test_negative_budget_caps_are_rejected():
    with pytest.raises(ValueError, match="max_pairs"):
        Budget(max_pairs=-1)
    with pytest.raises(ValueError, match="max_matrix_entries"):
        Budget(max_matrix_entries=-5)
    # a cap of 0 is valid: it admits only inputs that need no S-pair.
    # Both ideals take the signature loop, where a generator's own
    # reduction is not a pair: [x, y] needs none, and [x^2, x*y + 1]
    # needs the pair at signature x*e_1, which yields x
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
        pk = kernel.packing(lex(), 2, 8)
        ri = kernel.reducer(pk.pack((1, 0)), {pk.pack((1, 0)): 1, pk.pack((0, 120)): -1})
        rj = kernel.reducer(pk.pack((1, 10)), {pk.pack((1, 10)): 1, pk.pack((0, 0)): -1})
        with pytest.raises(OverflowError):
            kernel.s_poly(ri, rj, pk.pack((1, 10)), pk.guard, None)
        pk = kernel.packing(lex(), 2, 16)
        ri = kernel.reducer(pk.pack((1, 0)), {pk.pack((1, 0)): 1, pk.pack((0, 120)): -1})
        rj = kernel.reducer(pk.pack((1, 10)), {pk.pack((1, 10)): 1, pk.pack((0, 0)): -1})
        s = kernel.s_poly(ri, rj, pk.pack((1, 10)), pk.guard, None)
        assert pk.unpack_terms(s) == {(0, 130): -1, (0, 0): 1}

    def test_normal_form_of_x0_against_the_lex_chain(self):
        R, gens = chain(17)
        G = buchberger(Ideal(R, gens), lex())
        assert G.normal_form(R.var(0)) == R.var(17) ** 131072
        # recorded with the plain loop over Q, before the modular trace and
        # the tail-reduced loop that replaced it
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

    def test_signature_loop_widens_past_its_fields(self, monkeypatch):
        # katsura(3) fits 3-bit fields (degrees up to 3) but its pairs
        # and signatures do not: the loop raises, and the run at 6 bits
        # makes the basis of a run at 16
        ideal = katsura(3)
        gens = [(kernel.to_ints(g.terms, None), int(g.degree())) for g in ideal.gens]
        widths, loop = [], groebner._signature_loop

        def recorded(gens, packing, *args):
            widths.append(packing.bits)
            return loop(gens, packing, *args)

        monkeypatch.setattr(groebner, "_signature_loop", recorded)
        packings = lambda bits: kernel.packing(grevlex(), ideal.ring.nvars, bits)
        run = lambda bits: groebner._packed_basis(gens, packings(bits), None, Budget())
        narrow = kernel.widening(run, 3)
        assert widths == [3, 6]
        unpacked = lambda basis, bits: [packings(bits).unpack_terms(t) for t in basis]
        assert unpacked(narrow, 6) == unpacked(run(16), 16)

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
