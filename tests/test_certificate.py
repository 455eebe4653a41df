"""Certificate search: soundness, completeness cross-checks, minimality,
monotone feasibility, projective lifts."""

import random
from fractions import Fraction

import pytest

from oracles import dense_rank, monomials_up_to

from brisk.certificate import (
    Certificate,
    MembershipInstance,
    minimal_degree,
    multi_indices,
    projective_closure,
    projective_lift,
    search_at_degree,
    verify,
)
from brisk.errors import BudgetExceededError
from brisk.families import kollar
from brisk.groebner import Budget, Ideal, buchberger
from brisk.polyring import NEG_INF, PolyRing

R = PolyRing(("z1", "z2"))
Z1, Z2 = R.gens()


def kollar_instance(d=2):
    return MembershipInstance(
        R, Ideal(R, []), (Z1**d, Z1 * Z2 ** (d - 1) - 1), R.one()
    )


def cusp_instance(p=5):
    return MembershipInstance(R, Ideal(R, [Z1**2 - Z2**p]), (Z2,), Z1)


def oracle_feasible(inst, rho: int) -> bool:
    """Independent path: dense matrix of all basis products, feasibility by
    rank comparison rank(A) == rank([A | b])."""
    gb = buchberger(inst.variety)
    columns = []
    for index in multi_indices(inst.m, inst.power):
        base = R.one()
        for gpoly, e in zip(inst.gens, index):
            base = base * gpoly**e
        cap = rho - int(base.degree())
        if cap < 0:
            continue
        for alpha in monomials_up_to(inst.ring.nvars, cap):
            columns.append(gb.normal_form(inst.ring.monomial(alpha, 1) * base))
    target = gb.normal_form(inst.phi)
    monos = set(target.terms)
    for c in columns:
        monos.update(c.terms)
    basis = sorted(monos)
    ridx = {e: i for i, e in enumerate(basis)}
    a_rows = [[Fraction(0)] * len(columns) for _ in basis]
    ab_rows = [[Fraction(0)] * (len(columns) + 1) for _ in basis]
    for j, c in enumerate(columns):
        for e, v in c.terms.items():
            a_rows[ridx[e]][j] = v
            ab_rows[ridx[e]][j] = v
    for e, v in target.terms.items():
        ab_rows[ridx[e]][-1] = v
    if not columns:
        return not target
    return dense_rank(a_rows) == dense_rank(ab_rows)


class TestSearchAtDegree:
    def test_kollar_found_at_four(self):
        cert = search_at_degree(kollar_instance(), 4)
        assert cert is not None and cert.verified
        assert cert.rho == 4
        # the canonical certificate: Q1 = z2^2, Q2 = -1 - z1 z2, and the
        # identity z1^2 z2^2 - (z1 z2 - 1)(1 + z1 z2) = 1 holds on the nose
        q1, q2 = Z2**2, -1 * (R.one() + Z1 * Z2)
        assert Z1**2 * q1 + (Z1 * Z2 - 1) * q2 == R.one()
        assert cert.cofactor(0) == q1
        assert cert.cofactor(1) == q2

    def test_kollar_not_found_at_three(self):
        assert search_at_degree(kollar_instance(), 3) is None

    def test_per_generator_cap_blocks(self):
        # forcing deg Q1 <= 1 kills feasibility at any degree
        assert search_at_degree(kollar_instance(), 10, {0: 1}) is None

    def test_generator_membership_trivial(self):
        inst = MembershipInstance(R, Ideal(R, []), (Z1**2, Z2), Z1**2)
        cert = search_at_degree(inst, 2)
        assert cert is not None and cert.rho == 2
        assert cert.cofactor(0) == R.one() and cert.cofactor(1) is None

    def test_phi_in_variety_gives_zero_certificate(self):
        inst = MembershipInstance(R, Ideal(R, [Z1**2 - Z2**5]), (Z2,), Z1**2 - Z2**5)
        cert = search_at_degree(inst, 0)
        assert cert is not None and cert.cofactors == {} and cert.rho == NEG_INF

    def test_matrix_budget(self):
        with pytest.raises(BudgetExceededError):
            search_at_degree(
                kollar_instance(), 12, budget=Budget(max_matrix_entries=10)
            )

    def test_completeness_against_rank_oracle(self):
        for inst in (kollar_instance(), cusp_instance()):
            for rho in range(0, 7):
                got = search_at_degree(inst, rho)
                assert (got is not None) == oracle_feasible(inst, rho)


class TestMinimalDegree:
    def test_kollar_sharpness(self):
        rho, cert = minimal_degree(kollar_instance(), 10)
        assert rho == 4  # = d^m
        assert cert.verified

    def test_kollar_d3(self):
        rho, cert = minimal_degree(kollar_instance(d=3), 12)
        assert rho == 9
        assert cert.verified

    def test_kollar_333_sharp(self):
        # the sharp example: rho_min = d^m = 27; the rho = 27 system is
        # 4057x8775, past the default rows x cols cap
        inst = kollar(3, 3, 3).instance
        found = minimal_degree(inst, 27, budget=Budget(max_matrix_entries=10**9))
        assert found is not None
        rho, cert = found
        assert rho == 27 and cert.rho == 27
        assert cert.verified and verify(inst, cert)

    def test_cusp_never_found(self):
        assert minimal_degree(cusp_instance(), 12) is None

    def test_monotone_feasibility(self):
        inst = kollar_instance()
        rho, _ = minimal_degree(inst, 8)
        for later in range(rho, rho + 3):
            assert search_at_degree(inst, later) is not None
        for earlier in range(0, rho):
            assert search_at_degree(inst, earlier) is None


class TestVerify:
    def test_returned_certificates_reverify(self):
        rng = random.Random(3)
        inst = kollar_instance()
        _, cert = minimal_degree(inst, 6)
        assert verify(inst, cert)

    def test_perturbed_certificate_fails(self):
        inst = kollar_instance()
        _, cert = minimal_degree(inst, 6)
        index, q = next(iter(cert.cofactors.items()))
        bad = dict(cert.cofactors)
        bad[index] = q + 1
        assert not verify(
            inst, Certificate(power=1, cofactors=bad, rho=cert.rho, verified=True)
        )

    def test_power_generator_membership(self):
        inst = MembershipInstance(
            R, Ideal(R, []), (Z1**2, Z1 * Z2 - 1), (Z1**2) ** 2, power=2
        )
        cert = search_at_degree(inst, 4)
        assert cert is not None
        assert cert.cofactor((2, 0)) == R.one()
        assert verify(inst, cert)


class TestPowerCase:
    def test_multi_index_enumeration(self):
        assert multi_indices(2, 2) == [(2, 0), (1, 1), (0, 2)]
        assert multi_indices(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert len(multi_indices(4, 3)) == 20

    def test_power_certificate_and_bound(self):
        from brisk.bounds import BoundInputs, CInf, power_bound

        inst = MembershipInstance(
            R, Ideal(R, []), (Z1**2, Z1 * Z2 - 1), (Z1**2) ** 2, power=2
        )
        rho, cert = minimal_degree(inst, 16)
        bound = power_bound(
            BoundInputs(
                ambient=2, dim=2, m=2, d=2, deg_phi=4, deg_x=1, reg_x=1,
                ell=2, mu_zero=0, c_inf=CInf.explicit(2),
            )
        )
        assert cert.rho <= bound
        assert rho <= bound


class TestProjectiveLift:
    def test_kollar_lift_identity(self):
        inst = kollar_instance()
        rho, cert = minimal_degree(inst, 6)
        lift = projective_lift(inst, cert, rho)
        # z1^2 q1 + (z1 z2 - z0^2) q2 = z0^4 exactly
        P = lift.ring
        acc = P.zero()
        for index, q in lift.cofactors.items():
            prod = q
            for f, e in zip(lift.fs, index):
                prod = prod * f**e
            acc = acc + prod
        assert acc == P.var(0) ** lift.z0_power * lift.phi

    def test_trivial_generator_lift(self):
        inst = MembershipInstance(R, Ideal(R, []), (Z1**2 + Z2,), Z1**2 + Z2)
        rho, cert = minimal_degree(inst, 4)
        assert rho == 2 and cert.cofactor((1,)) == R.one()
        lift = projective_lift(inst, cert, 3)
        assert lift.cofactors[(1,)] == lift.ring.var(0)  # q = z0^(rho - d)

    def test_lift_on_variety(self):
        # z1^2 = z2^(p-1) * z2 + 1 * (z1^2 - z2^p) on the cusp
        p = 5
        inst = MembershipInstance(R, Ideal(R, [Z1**2 - Z2**p]), (Z2,), Z1**2)
        rho, cert = minimal_degree(inst, p + 1)
        assert rho == p
        lift = projective_lift(inst, cert, rho)
        assert lift.z0_power == rho - 2

    def test_all_found_certificates_lift(self):
        instances = [
            kollar_instance(),
            kollar_instance(d=3),
            MembershipInstance(R, Ideal(R, []), (Z1**2, Z1 * Z2 - 1), (Z1**2) ** 2, power=2),
            MembershipInstance(R, Ideal(R, [Z1**2 - Z2**5]), (Z2,), Z2**3),
        ]
        for inst in instances:
            found = minimal_degree(inst, 12)
            assert found is not None
            rho, cert = found
            projective_lift(inst, cert, max(rho, inst.power * max(int(g.degree()) for g in inst.gens)))


class TestProjectiveClosure:
    def test_cusp_closure(self):
        ideal = Ideal(R, [Z1**2 - Z2**5])
        closure = projective_closure(ideal)
        G = buchberger(closure)
        assert list(G.basis) == [G.ring.parse("z1^2*z0^3 - z2^5")]

    def test_twisted_cubic_from_affine(self):
        # affine twisted cubic (t, t^2, t^3): ideal (z2 - z1^2, z3 - z1 z2)
        A = PolyRing(("z1", "z2", "z3"))
        a1, a2, a3 = A.gens()
        closure = projective_closure(Ideal(A, [a2 - a1**2, a3 - a1 * a2]))
        G = buchberger(closure)
        assert len(G.basis) == 3  # the three quadrics
        assert all(g.degree() == 2 for g in G.basis)
