"""Hilbert data: numerators, dimension, degree, emptiness at infinity."""

import random

import pytest

from conftest import skew_lines_ideal, twisted_cubic_ideal
from oracles import hilbert_polynomial_value, series_coefficient, standard_monomial_count

from brisk.groebner import Ideal, buchberger
from brisk.invariants import (
    empty_at_infinity,
    hilbert_data,
    hilbert_numerator,
)
from brisk.orders import grevlex, lex
from brisk.polyring import PolyRing, homogenize

P2 = PolyRing(("z0", "z1", "z2"))


class TestNumerator:
    def test_zero_ideal(self):
        R = PolyRing(("x", "y", "z"))
        assert hilbert_numerator(buchberger(Ideal(R, []))) == (1,)

    def test_principal(self):
        gb = buchberger(Ideal(P2, [P2.parse("z1^2*z0^3 - z2^5")]))
        assert hilbert_numerator(gb) == (1, 0, 0, 0, 0, -1)

    def test_twisted_cubic(self):
        gb = buchberger(twisted_cubic_ideal())
        assert hilbert_numerator(gb) == (1, 0, -3, 2)

    def test_independent_of_groebner_basis(self):
        for order in (grevlex(), lex()):
            gb = buchberger(twisted_cubic_ideal(), order)
            data = hilbert_data(gb)
            assert data.proj_dimension() == 1
            assert data.proj_degree() == 3

    @pytest.mark.parametrize(
        "ideal",
        [twisted_cubic_ideal(), skew_lines_ideal()],
        ids=["cubic", "skew"],
    )
    def test_series_matches_standard_monomial_counts(self, ideal):
        gb = buchberger(ideal)
        data = hilbert_data(gb)
        leads = gb.lead_monomials()
        for d in range(9):
            assert series_coefficient(data, d) == standard_monomial_count(
                leads, ideal.ring.nvars, d
            )


class TestDimensionDegree:
    def test_projective_plane(self):
        data = hilbert_data(buchberger(Ideal(P2, [])))
        assert data.proj_dimension() == 2
        assert data.proj_degree() == 1

    def test_cusp_is_a_quintic_curve(self):
        data = hilbert_data(buchberger(Ideal(P2, [P2.parse("z1^2*z0^3 - z2^5")])))
        assert data.proj_dimension() == 1
        assert data.proj_degree() == 5

    def test_irrelevant_ideal_is_empty(self):
        data = hilbert_data(buchberger(Ideal(P2, P2.gens())))
        assert data.proj_dimension() == -1
        with pytest.raises(ValueError):
            data.proj_degree()

    def test_unit_ideal_rejected(self):
        data = hilbert_data(buchberger(Ideal(P2, [P2.one()])))
        with pytest.raises(ValueError):
            data.proj_dimension()

    def test_twisted_cubic(self):
        data = hilbert_data(buchberger(twisted_cubic_ideal()))
        assert (data.proj_dimension(), data.proj_degree()) == (1, 3)

    def test_degree_positive_on_corpus(self):
        for ideal in [twisted_cubic_ideal(), skew_lines_ideal()]:
            data = hilbert_data(buchberger(ideal))
            assert data.proj_degree() >= 1


class TestEmptyAtInfinity:
    def test_macaulay_type_pair(self):
        # f = (z1^2, (z1-z0)^2) on P^1: at z0 = 0 both force z1 = 0
        P1 = PolyRing(("z0", "z1"))
        z0, z1 = P1.gens()
        fs = [z1**2, (z1 - z0) ** 2]
        assert empty_at_infinity(fs, Ideal(P1, []))

    def test_kollar_family_fails(self):
        # the homogenized family vanishes on {z0 = z1 = 0} at infinity
        A = PolyRing(("z1", "z2"))
        z1, z2 = A.gens()
        fs = [homogenize(z1**2, 2), homogenize(z1 * z2 - 1, 2)]
        P = fs[0].ring
        assert not empty_at_infinity(fs, Ideal(P, []))

    def test_hyperplane_at_infinity(self):
        P1 = PolyRing(("z0", "z1"))
        z0, _ = P1.gens()
        assert not empty_at_infinity([z0], Ideal(P1, []))

    def test_unit_ideal_is_empty(self):
        # a nonzero constant vanishes nowhere, at infinity included
        P1 = PolyRing(("z0", "z1"))
        assert empty_at_infinity([P1.one() * 2], Ideal(P1, []))
        assert not empty_at_infinity([P1.zero()], Ideal(P1, []))

    def test_inhomogeneous_rejected(self):
        P1 = PolyRing(("z0", "z1"))
        z0, z1 = P1.gens()
        with pytest.raises(ValueError):
            empty_at_infinity([z0 + 1], Ideal(P1, []))

    def test_invariant_under_linear_changes(self):
        # random invertible integer substitutions among z1..zN fix z0
        rng = random.Random(31)
        P = PolyRing(("z0", "z1", "z2"))
        z0, z1, z2 = P.gens()
        fs = [z1**2 - z0 * z2, z2**2 + z0 * z1, z1 * z2 - z0**2]
        base = empty_at_infinity(fs, Ideal(P, []))
        for _ in range(6):
            a, b = rng.randint(-2, 2), rng.randint(-3, 3)
            # unimodular: z1 -> z1 + a z2, z2 -> z2; then shear the other way
            sub1 = {1: z1 + a * z2, 2: z2}
            fs1 = [f.substitute(sub1, target=P) for f in fs]
            sub2 = {1: z1, 2: b * z1 + z2}
            fs2 = [f.substitute(sub2, target=P) for f in fs1]
            assert empty_at_infinity(fs2, Ideal(P, [])) == base


class TestHilbertPolynomial:
    def test_polynomial_agrees_with_series_for_large_d(self):
        for ideal in [twisted_cubic_ideal(), skew_lines_ideal()]:
            data = hilbert_data(buchberger(ideal))
            reg_bound = len(data.numerator) + 2
            for d in range(reg_bound, reg_bound + 6):
                assert hilbert_polynomial_value(data, d) == series_coefficient(data, d)

    def test_twisted_cubic_values(self):
        # HP(d) = 3d + 1 for the cubic curve
        data = hilbert_data(buchberger(twisted_cubic_ideal()))
        assert [hilbert_polynomial_value(data, d) for d in (1, 2, 3)] == [4, 7, 10]
