"""Polynomial arithmetic, parsing, homogenization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from brisk.errors import ParseError, RingMismatchError
from brisk.polyring import (
    NEG_INF,
    MultiPoly,
    PolyRing,
    dehomogenize,
    homogenize,
)

R2 = PolyRing(("x", "y"))
R3 = PolyRing(("z1", "z2", "z3"))


def poly_strategy(ring, max_terms=5, max_deg=4, max_coeff=8):
    exponent = st.tuples(
        *[st.integers(min_value=0, max_value=max_deg) for _ in range(ring.nvars)]
    )
    coeff = st.fractions(
        min_value=-max_coeff, max_value=max_coeff, max_denominator=6
    )
    terms = st.dictionaries(exponent, coeff, max_size=max_terms)
    return terms.map(lambda t: MultiPoly(ring, {e: Fraction(c) for e, c in t.items()}))


# --------------------------------------------------------------- arithmetic


class TestArithmetic:
    def test_difference_of_squares(self):
        x, y = R2.gens()
        assert (x + 1) * (x - 1) == x**2 - 1

    def test_additive_identity(self):
        p = R2.parse("3*x^2 - y + 1/2")
        assert p + R2.zero() == p

    def test_rational_coefficients(self):
        x, _ = R2.gens()
        assert Fraction(1, 2) * x * (Fraction(2, 3) * x) == Fraction(1, 3) * x**2

    def test_ring_mismatch_rejected(self):
        with pytest.raises(RingMismatchError):
            R2.var(0) + R3.var(0)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(poly_strategy(R2), poly_strategy(R2), poly_strategy(R2))
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(poly_strategy(R2), poly_strategy(R2))
    def test_degree_multiplicative(self, p, q):
        assert (p * q).degree() == p.degree() + q.degree()


class TestDegree:
    def test_basic(self):
        assert R3.parse("z1^2*z2 + z1").degree() == 3

    def test_zero_degree_sentinel(self):
        assert R3.zero().degree() == NEG_INF
        assert R3.zero().degree() == float("-inf")

    def test_homogenization_has_degree_d(self):
        p = R2.parse("x^2 + y")
        assert homogenize(p, 5, "h").degree() == 5


# ------------------------------------------------------------ homogenizing


class TestHomogenize:
    def test_forced_by_formula(self):
        F = R2.parse("x^2 + y")
        h = homogenize(F, 2, "z0")
        assert h == h.ring.parse("x^2 + y*z0")

    def test_constant(self):
        h = homogenize(R2.const(1), 3, "z0")
        assert h == h.ring.parse("z0^3")

    def test_cusp_form(self):
        C = PolyRing(("z1", "z2"))
        p = 5
        cusp = C.parse(f"z1^2 - z2^{p}")
        h = homogenize(cusp, p)
        assert h == h.ring.parse(f"z1^2*z0^{p - 2} - z2^{p}")
        assert dehomogenize(h) == cusp

    def test_degree_too_small_rejected(self):
        with pytest.raises(ValueError):
            homogenize(R2.parse("x^3"), 2)

    def test_dehomogenize_examples(self):
        P = PolyRing(("z0", "z1", "z2"))
        assert dehomogenize(P.parse("z1^2 + z2*z0")) == dehomogenize(P.parse("z1^2 + z2*z0"))
        assert str(dehomogenize(P.parse("z1^2 + z2*z0"))) == "z1^2 + z2"
        assert dehomogenize(P.parse("z0^3")) == PolyRing(("z1", "z2")).one()

    def test_fresh_name(self):
        # the preferred name while the ring lacks it, then name0_, name1_, ...
        assert R2.fresh_name("z0") == "z0"
        assert PolyRing(("z0", "x")).fresh_name("z0") == "z00_"
        assert PolyRing(("t", "t0_", "x")).fresh_name("t") == "t1_"

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(poly_strategy(R2), st.integers(min_value=0, max_value=4))
    def test_round_trip(self, p, extra):
        d = p.degree()
        d = 0 if d == NEG_INF else int(d)
        h = homogenize(p, d + extra, "z0")
        assert dehomogenize(h) == p
        if p:
            assert h.is_homogeneous()
            assert h.degree() == d + extra


# ----------------------------------------------------------------- parsing


class TestParsing:
    def test_three_term_example(self):
        R = PolyRing(("x", "y", "z"))
        p = R.parse("3/2*x^2*y - z + 1")
        assert p.terms == {
            (2, 1, 0): Fraction(3, 2),
            (0, 0, 1): Fraction(-1),
            (0, 0, 0): Fraction(1),
        }

    def test_cancellation(self):
        assert R2.parse("x - x") == R2.zero()

    def test_malformed(self):
        with pytest.raises(ParseError):
            R2.parse("(")

    def test_unknown_variable(self):
        with pytest.raises(ParseError) as ex:
            R2.parse("x + q")
        assert "q" in str(ex.value)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as ex:
            R2.parse("x + $")
        assert ex.value.col == 5

    def test_comments_and_whitespace(self):
        assert R2.parse(" x +  y  # trailing comment") == R2.parse("x+y")

    def test_power_one_optional(self):
        assert R2.parse("x^1*y") == R2.parse("x*y")

    def test_zero_exponent_rejected(self):
        with pytest.raises(ParseError):
            R2.parse("x^0")

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(poly_strategy(R3))
    def test_format_parse_round_trip(self, p):
        assert R3.parse(p.format()) == p

    def test_format_canonical_examples(self):
        assert str(R2.parse("y + x")) == "x + y"
        assert str(R2.parse("0*x + 0")) == "0" or R2.parse("x - x").format() == "0"
        assert str(R2.parse("2/4*x")) == "1/2*x"
        assert str(-R2.var(0)) == "-x"


class TestSubstitute:
    def test_linear_change(self):
        x, y = R2.gens()
        q = (x + y).substitute({0: x - y})
        assert q == x - y + y == x

    def test_into_other_ring(self):
        T = PolyRing(("t",))
        t = T.var(0)
        x, y = R2.gens()
        image = (x**2 - y**5).substitute({0: t**5, 1: t**2}, target=T)
        assert image == T.zero()
