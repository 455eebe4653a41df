"""Prime-field acceleration path: same invariants as over Q."""

import pytest

from conftest import skew_lines_ideal, twisted_cubic_ideal

from brisk.fields import GF, GFElement, poly_to_gf
from brisk.groebner import Ideal, buchberger, saturate
from brisk.invariants import hilbert_data
from brisk.polyring import PolyRing
from brisk.resolution import betti, minimal_resolution, regularity


def to_gf(ideal, p=32003):
    field = GF(p)
    return Ideal(ideal.ring, [poly_to_gf(g, field) for g in ideal.gens])


def test_gf_arithmetic_basics():
    F = GF(32003)
    a = F(5)
    assert a + F(31998) == 0
    assert a * a == 25
    assert (a / a) == 1
    assert bool(F(0)) is False
    from fractions import Fraction

    assert F(Fraction(1, 2)) * 2 == 1


def test_non_prime_rejected():
    with pytest.raises(ValueError):
        GF(32001)  # 3 * 10667


def test_denominator_divisible_by_p():
    from fractions import Fraction

    with pytest.raises(ZeroDivisionError):
        GF(5)(Fraction(1, 5))


@pytest.mark.parametrize(
    "ideal", [twisted_cubic_ideal(), skew_lines_ideal()], ids=["cubic", "skew"]
)
def test_invariants_match_rationals(ideal):
    gb_q = buchberger(ideal)
    gb_p = buchberger(to_gf(ideal))
    dq, dp = hilbert_data(gb_q), hilbert_data(gb_p)
    assert dq.numerator == dp.numerator
    assert dq.proj_dimension() == dp.proj_dimension()
    assert dq.proj_degree() == dp.proj_degree()


@pytest.mark.parametrize(
    "ideal", [twisted_cubic_ideal(), skew_lines_ideal()], ids=["cubic", "skew"]
)
def test_resolution_matches_rationals(ideal):
    res_q = minimal_resolution(ideal)
    res_p = minimal_resolution(to_gf(ideal))
    assert betti(res_q) == betti(res_p)
    assert regularity(res_q) == regularity(res_p)


def test_cusp_regularity_over_gf():
    P = PolyRing(("z0", "z1", "z2"))
    ideal = to_gf(Ideal(P, [P.parse("z1^2*z0^3 - z2^5")]))
    assert regularity(minimal_resolution(ideal)) == 5


def test_mixed_coefficients_give_the_gf_basis():
    # saturating by a variable built over Q hands buchberger Fraction
    # coefficients next to GFElements; every coefficient of the basis is
    # still a GFElement, and the basis is that of the GF(p) images
    F = GF(32003)
    R = PolyRing(("z0", "x", "y"))
    z0, x, y = R.gens()
    ideal = to_gf(Ideal(R, [x * y * z0 - 2 * x**2 * z0, x**3 - 3 * y * z0**2 + y**2 * x]))
    mixed = saturate(ideal, z0)
    assert mixed.gens == saturate(ideal, poly_to_gf(z0, F)).gens
    assert all(type(c) is GFElement for g in mixed.gens for c in g.terms.values())
    assert [str(g) for g in mixed.gens] == [
        "1*x*y + 16001*y^2", "1*x^2 + 24002*y^2", "1*z0^2*y + 9334*y^3"
    ]
