"""Acceptance suite: the seven exit criteria, each printed as a pass/fail
line with its runtime (run `pytest tests/test_acceptance.py -v -s` to see
the lines on passing runs).  All assertions are exact; the stated wall
limits are generous on commodity hardware.
"""

import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import corpus_ideals, skew_lines_ideal, twisted_cubic_ideal
from oracles import (
    s_polynomial,
    series_coefficient,
    standard_monomial_count,
    syzygy_dimension_at_degree,
)

from brisk.bounds import BoundInputs, CInf, hickel_bound_i, power_bound
from brisk.certificate import (
    MembershipInstance,
    minimal_degree,
    projective_lift,
    search_at_degree,
    verify,
)
from brisk.families import macaulay_generic
from brisk.groebner import (
    GroebnerBasis,
    Ideal,
    buchberger,
    membership,
)
from brisk.invariants import empty_at_infinity, hilbert_data
from brisk.localorder import BranchParam, bs_exponent_check
from brisk.polyring import MultiPoly, NEG_INF, PolyRing, dehomogenize, homogenize
from brisk.resolution import bef_codims, betti, minimal_resolution, regularity

R2 = PolyRing(("z1", "z2"))
Z1, Z2 = R2.gens()


@contextmanager
def criterion(number: int, name: str, limit_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL", file=sys.stderr)
        raise
    dt = time.perf_counter() - t0
    line = f"ACCEPTANCE {number} {name}: PASS ({dt:.2f}s / limit {limit_s:.0f}s)"
    print(line)
    assert dt < limit_s, f"criterion {number} exceeded its {limit_s}s limit ({dt:.2f}s)"


def kollar_instance():
    return MembershipInstance(
        R2, Ideal(R2, []), (Z1**2, Z1 * Z2 - 1), R2.one()
    )


def test_criterion_1_kollar_sharpness():
    with criterion(1, "kollar-sharpness", 5.0):
        inst = kollar_instance()
        found = minimal_degree(inst, 8)
        assert found is not None
        rho, cert = found
        assert rho == 4  # exactly d^m
        assert cert.verified and verify(inst, cert)
        # capping deg Q1 <= 1 makes the problem infeasible at any degree
        assert search_at_degree(inst, 8, {0: 1}) is None


def test_criterion_2_bound_conformance():
    with criterion(2, "bound-conformance", 1.0):
        inp = BoundInputs(
            ambient=2, dim=2, m=2, d=2, deg_phi=0, deg_x=1, reg_x=1,
            mu_zero=0, c_inf=CInf.explicit(2),
        )
        assert hickel_bound_i(inp) == 8
        assert 8 >= 4  # slack >= 0 against the criterion-1 minimum
        # 500-point sweep: at deg X = reg X = 1 (projective space, mu0 = 0,
        # an actual distinguished variety at infinity: c >= 1) the bound
        # equals max(deg Phi + mu d^c, d min(m, n+1) - n)
        rng = random.Random(99)
        for _ in range(500):
            m, n, d = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 5)
            deg_phi = rng.randint(0, 12)
            mu = min(m, n)
            c = rng.randint(1, mu)
            sweep = BoundInputs(
                ambient=n, dim=n, m=m, d=d, deg_phi=deg_phi, deg_x=1,
                reg_x=1, mu_zero=0, c_inf=CInf.explicit(c),
            )
            assert hickel_bound_i(sweep) == max(
                deg_phi + mu * d**c, d * min(m, n + 1) - n
            )


def test_criterion_3_macaulay_regime():
    with criterion(3, "macaulay-regime", 60.0):
        rng = random.Random(12345)
        bound = 2 * (2 + 1) - 2  # d(n+1) - n = 4
        for _ in range(20):
            fam = macaulay_generic(2, 2, rng)
            # the family guarantees emptiness at infinity by construction;
            # re-check it on the instance itself
            fs = [homogenize(g, 2, "z0") for g in fam.instance.gens]
            assert empty_at_infinity(fs, Ideal(fs[0].ring, []))
            found = minimal_degree(fam.instance, bound)
            assert found is not None, "no certificate within the classical bound"
            assert found[0] <= bound
        for d in range(1, 11):
            for n in range(1, 11):
                assert (d - 1) * (n + 1) + 1 == d * (n + 1) - n


def test_criterion_4_cusp_example():
    with criterion(4, "cusp-example", 10.0):
        for p in (3, 5, 7):
            variety = Ideal(R2, [Z1**2 - Z2**p])
            # (a) the target is not in the ideal on the curve
            assert not membership(Z1, Ideal(R2, [Z2, Z1**2 - Z2**p]))
            # (b) exponent check threshold on the origin branch
            branch = BranchParam.from_exponents(R2, {"z1": p, "z2": 2})
            k = Fraction(p - 1, 2)
            assert bs_exponent_check([Z2], Z1, k, [branch])
            assert not bs_exponent_check([Z2], Z1, k + 1, [branch])
            # (c) regularity of the projective cusp is p
            P = PolyRing(("z0", "z1", "z2"))
            proj = Ideal(P, [P.parse(f"z1^2*z0^{p - 2} - z2^{p}")])
            assert regularity(minimal_resolution(proj)) == p
            # (d) the projective degree is p
            assert hilbert_data(buchberger(proj)).proj_degree() == p


def test_criterion_5_regularity_resolution_suite():
    with criterion(5, "regularity-resolution", 30.0):
        # reg P^n = 1
        for nvars in (2, 3, 4):
            P = PolyRing(tuple(f"z{i}" for i in range(nvars + 1)))
            assert regularity(minimal_resolution(Ideal(P, []))) == 1
        # twisted cubic against the independent oracles
        cubic = twisted_cubic_ideal()
        res = minimal_resolution(cubic)
        assert betti(res) == {(1, 2): 3, (2, 3): 2}
        assert regularity(res) == 2
        quadrics = list(cubic.gens)
        assert syzygy_dimension_at_degree(quadrics, 2) == 0
        assert syzygy_dimension_at_degree(quadrics, 3) == 2
        # no new syzygy generators in degree 4: the free module on the two
        # degree-3 generators already accounts for the full kernel
        assert syzygy_dimension_at_degree(quadrics, 4) == 2 * 4
        gb = buchberger(cubic)
        data = hilbert_data(gb)
        for d in range(8):
            assert series_coefficient(data, d) == standard_monomial_count(
                gb.lead_monomials(), cubic.ring.nvars, d
            )
        # drop-rank codimension bounds over the homogeneous corpus
        P2 = PolyRing(("z0", "z1", "z2"))
        R3 = PolyRing(("x", "y", "z"))
        members = [
            (Ideal(P2, [P2.parse("z1^2*z0^3 - z2^5")]), 1, True),
            (cubic, 2, True),
            (skew_lines_ideal(), 2, True),
            (Ideal(R3, R3.gens()), 3, False),
        ]
        for ideal, codim, pure_radical in members:
            resm = minimal_resolution(ideal)
            resm.validate(check_exact=True)
            for k, c in bef_codims(resm):
                assert c >= k
                if pure_radical and k >= 1 + codim:
                    assert c >= k + 1


def test_criterion_6_power_ideal_version():
    with criterion(6, "power-ideal", 10.0):
        inst = MembershipInstance(
            R2, Ideal(R2, []), (Z1**2, Z1 * Z2 - 1), (Z1**2) ** 2, power=2
        )
        bound = power_bound(
            BoundInputs(
                ambient=2, dim=2, m=2, d=2, deg_phi=4, deg_x=1, reg_x=1,
                ell=2, mu_zero=0, c_inf=CInf.explicit(2),
            )
        )
        found = minimal_degree(inst, bound)
        assert found is not None
        rho, cert = found
        assert cert.verified and cert.rho <= bound
        # 500-point sweep: power bound at ell = 1 is the membership bound
        rng = random.Random(6)
        for _ in range(500):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            mu = min(m, n)
            mode = rng.choice([CInf.minus_infinity(), CInf.upper_bound_mu(),
                               CInf.explicit(rng.randint(0, mu))])
            sweep = BoundInputs(
                ambient=n + rng.randint(0, 2), dim=n, m=m, d=rng.randint(1, 6),
                deg_phi=rng.randint(0, 9), deg_x=rng.randint(1, 4),
                reg_x=rng.randint(1, 5), ell=1, mu_zero=rng.randint(0, 3),
                c_inf=mode,
            )
            assert power_bound(sweep) == hickel_bound_i(sweep)


def _rand_poly(ring, rng, max_deg=4, max_terms=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
        if sum(e) <= max_deg:
            terms[e] = Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 3))
    return MultiPoly(ring, terms)


def test_criterion_7_property_suites():
    with criterion(7, "property-suites", 60.0):
        rng = random.Random(7777)
        corpus = corpus_ideals()
        # Buchberger self-check on every corpus basis
        for ideal in corpus:
            G = buchberger(ideal)
            for i in range(len(G.basis)):
                for j in range(i + 1, len(G.basis)):
                    assert not G.normal_form(
                        s_polynomial(G.basis[i], G.basis[j], G.order)
                    )
        # normal-form confluence: 200 random polynomials over 5 corpus
        # ideals, randomized reducer order
        for trial in range(200):
            ideal = corpus[trial % len(corpus)]
            G = buchberger(ideal)
            p = _rand_poly(ideal.ring, rng)
            want = G.normal_form(p)
            perm = list(G.basis)
            rng.shuffle(perm)
            assert GroebnerBasis(G.ring, G.order, perm).normal_form(p) == want
        # certificate soundness + projective lift + monotone feasibility
        instances = [
            kollar_instance(),
            MembershipInstance(R2, Ideal(R2, []), (Z1**3, Z1 * Z2**2 - 1), R2.one()),
            MembershipInstance(
                R2, Ideal(R2, []), (Z1**2, Z1 * Z2 - 1), (Z1**2) ** 2, power=2
            ),
            MembershipInstance(R2, Ideal(R2, [Z1**2 - Z2**5]), (Z2,), Z2**4),
        ]
        for inst in instances:
            found = minimal_degree(inst, 12)
            assert found is not None
            rho, cert = found
            assert cert.verified and verify(inst, cert)
            projective_lift(
                inst, cert,
                max(rho, inst.power * max(int(g.degree()) for g in inst.gens)),
            )
            assert search_at_degree(inst, rho + 1) is not None  # monotone
            if rho > 0:
                assert search_at_degree(inst, rho - 1) is None
        # homogenize / dehomogenize round trip on random polynomials
        for _ in range(100):
            p = _rand_poly(R2, rng)
            d = p.degree()
            d = 0 if d == NEG_INF else int(d)
            assert dehomogenize(homogenize(p, d + rng.randint(0, 2))) == p
