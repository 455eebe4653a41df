"""Bound formulas: frozen example values, identities, monotonicity."""

import math
import random
from fractions import Fraction

import pytest
from oracles import multiplicity_cap

from brisk.bounds import (
    BoundInputs,
    CInf,
    comparison_bounds,
    cusp_mu_zero,
    hermann_bound,
    hickel_bound_i,
    hickel_bound_ii,
    jelonek_bound,
    macaulay_bound,
    power_bound,
)


def kollar_inputs(**over):
    base = dict(
        ambient=2, dim=2, m=2, d=2, deg_phi=0, deg_x=1, reg_x=1,
        mu_zero=0, mu_prime=0, c_inf=CInf.explicit(2),
    )
    base.update(over)
    return BoundInputs(**base)


class TestHickelI:
    def test_kollar_instance(self):
        assert hickel_bound_i(kollar_inputs()) == 8  # max(2*4*1, 1*3+1)

    def test_minus_infinity_mode(self):
        inp = kollar_inputs(deg_phi=5, c_inf=CInf.minus_infinity())
        assert hickel_bound_i(inp) == max(5, (2 - 1) * min(2, 3) + 1)

    def test_needs_mu_zero(self):
        inp = kollar_inputs(mu_zero=None)
        with pytest.raises(ValueError, match="mu_zero"):
            hickel_bound_i(inp)

    def test_cohen_macaulay_drops_second_entry(self):
        # m <= n and CM asserted: the resolution entry is omitted
        inp = kollar_inputs(reg_x=10, c_inf=CInf.explicit(1))
        assert hickel_bound_i(inp) == max(2 * 2, (2 - 1) * 2 + 10) == 12
        assert hickel_bound_i(inp, cohen_macaulay=True) == 4

    def test_affine_space_identity_sweep(self):
        # on X = P^n (deg X = reg X = 1, mu0 = 0) with some distinguished
        # variety at infinity (explicit c >= 1), the bound collapses to
        # max(deg Phi + mu d^c, d min(m, n+1) - n): 500-point sweep
        rng = random.Random(2024)
        for _ in range(500):
            m = rng.randint(1, 6)
            n = rng.randint(1, 6)
            d = rng.randint(1, 5)
            deg_phi = rng.randint(0, 10)
            mu = min(m, n)
            c = rng.randint(1, mu)
            inp = BoundInputs(
                ambient=n, dim=n, m=m, d=d, deg_phi=deg_phi,
                deg_x=1, reg_x=1, mu_zero=0, c_inf=CInf.explicit(c),
            )
            want = max(deg_phi + mu * d**c, d * min(m, n + 1) - n)
            assert hickel_bound_i(inp) == want


class TestHickelII:
    def test_smooth_coincides_with_first_form(self):
        inp = kollar_inputs()
        assert hickel_bound_ii(inp) == hickel_bound_i(inp)

    def test_mu_prime_three(self):
        inp = kollar_inputs(mu_prime=3)
        assert hickel_bound_ii(inp) == max(0 + 2 * 4 * 1 + 3, 4) == 11

    def test_minus_infinity(self):
        inp = kollar_inputs(mu_prime=2, deg_phi=1, c_inf=CInf.minus_infinity())
        # min(m, n+1) = min(2, 3) = 2 here
        assert hickel_bound_ii(inp) == max(1 + 2, (2 - 1) * 2 + 1) == 3

    def test_needs_mu_prime(self):
        with pytest.raises(ValueError, match="mu_prime"):
            hickel_bound_ii(kollar_inputs(mu_prime=None))


class TestPowerBound:
    def test_reduces_to_first_bound_at_ell_one(self):
        rng = random.Random(7)
        for _ in range(500):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            mu = min(m, n)
            mode = rng.choice(["minf", "mu", "exp"])
            if mode == "minf":
                cinf = CInf.minus_infinity()
            elif mode == "mu":
                cinf = CInf.upper_bound_mu()
            else:
                cinf = CInf.explicit(rng.randint(0, mu))
            inp = BoundInputs(
                ambient=n + rng.randint(0, 3), dim=n, m=m, d=rng.randint(1, 6),
                deg_phi=rng.randint(0, 8), deg_x=rng.randint(1, 5),
                reg_x=rng.randint(1, 6), ell=1, mu_zero=rng.randint(0, 4),
                c_inf=cinf,
            )
            assert power_bound(inp) == hickel_bound_i(inp)

    def test_kollar_ell_two(self):
        inp = kollar_inputs(ell=2)
        # max(0 + (2+0+1) * 4 * 1, 2*(2+1) - 2 + 1) = max(12, 5)
        assert power_bound(inp) == 12

    def test_minus_infinity_ell_two(self):
        inp = kollar_inputs(ell=2, c_inf=CInf.minus_infinity())
        # min(m, n+1) = 2 here, so the second entry is 2*3 - 2 + 1 = 5
        assert power_bound(inp) == 5


class TestMacaulay:
    def test_basic(self):
        inp = BoundInputs(ambient=1, dim=1, m=2, d=2, deg_phi=0, deg_x=1, reg_x=1)
        assert macaulay_bound(inp).no_zeros_in_pn == 3

    def test_projective_space_variants_agree(self):
        # reg X = 1: (d-1)(n+1) + 1 == d(n+1) - n
        for d in range(1, 11):
            for n in range(1, 11):
                inp = BoundInputs(
                    ambient=n, dim=n, m=n + 1, d=d, deg_phi=0, deg_x=1, reg_x=1
                )
                mac = macaulay_bound(inp)
                assert mac.no_zeros_in_pn == mac.no_zeros_on_x

    def test_dominated_by_deg_phi(self):
        inp = BoundInputs(ambient=2, dim=2, m=3, d=2, deg_phi=10, deg_x=1, reg_x=1)
        assert macaulay_bound(inp).no_zeros_in_pn == 10


class TestComparisons:
    def test_jelonek(self):
        assert jelonek_bound(kollar_inputs()) == 4  # c_m = 1, 2^2 * 1
        inp = BoundInputs(ambient=3, dim=2, m=3, d=2, deg_phi=0, deg_x=1, reg_x=1)
        assert jelonek_bound(inp) == 2 * 4 * 1  # m > n: c_m = 2

    def test_hermann_dominates_kollar_instance(self):
        inp = kollar_inputs()
        assert hermann_bound(inp) == 2 * 4**3 == 128
        assert hermann_bound(inp) > hickel_bound_i(inp)

    def test_hermann_arbitrary_precision(self):
        inp = BoundInputs(ambient=5, dim=5, m=2, d=3, deg_phi=0, deg_x=1, reg_x=1)
        assert hermann_bound(inp) == 2 * 6 ** (2**5 - 1)
        assert hermann_bound(inp) > 2**63  # overflows 64-bit arithmetic

    def test_multiplicity_cap(self):
        assert multiplicity_cap(2, 2, 1) == 4
        assert multiplicity_cap(5, 0, 7) == 7
        assert multiplicity_cap(3, 1, 2) == 6


class TestValidation:
    def test_c_inf_above_mu_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            kollar_inputs(c_inf=CInf.explicit(3))  # mu = 2

    def test_basic_ranges(self):
        with pytest.raises(ValueError):
            kollar_inputs(dim=0)
        with pytest.raises(ValueError):
            kollar_inputs(d=0)
        with pytest.raises(ValueError):
            kollar_inputs(ell=0)
        with pytest.raises(ValueError):
            BoundInputs(ambient=1, dim=2, m=1, d=1, deg_phi=0, deg_x=1, reg_x=1)


class TestMonotonicity:
    def test_nondecreasing_in_each_input(self):
        rng = random.Random(13)
        for _ in range(300):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            base = dict(
                ambient=n, dim=n, m=m, d=rng.randint(1, 5),
                deg_phi=rng.randint(0, 6), deg_x=rng.randint(1, 4),
                reg_x=rng.randint(1, 5), ell=rng.randint(1, 3),
                mu_zero=rng.randint(0, 3),
                c_inf=CInf.explicit(rng.randint(0, min(m, n))),
            )
            inp = BoundInputs(**base)
            for key in ("deg_phi", "deg_x", "reg_x", "mu_zero", "ell"):
                bumped = BoundInputs(**{**base, key: base[key] + 1})
                assert power_bound(bumped) >= power_bound(inp)
                assert hickel_bound_i(bumped) >= hickel_bound_i(inp)


class TestReport:
    def test_report_contents(self):
        rep = comparison_bounds(kollar_inputs(), macaulay_applicable=False)
        assert rep.value("hickel_i") == 8
        assert rep.value("jelonek") == 4
        assert rep.value("hermann") == 128
        assert rep.value("macaulay_pn") is None

    def test_missing_mu_zero_reported_not_raised(self):
        rep = comparison_bounds(kollar_inputs(mu_zero=None))
        assert rep.value("hickel_i") is None
        entry = next(e for e in rep.entries if e.name == "hickel_i")
        assert "muZero" in entry.note

    def test_records_carry_stable_hash(self):
        rep = comparison_bounds(kollar_inputs())
        records = rep.to_records().splitlines()
        digests = {line.split("\t")[-1] for line in records}
        assert len(digests) == 1
        rep2 = comparison_bounds(kollar_inputs())
        assert rep2.to_records() == rep.to_records()

    def test_bounds_containing_deg_phi_dominate_it(self):
        rng = random.Random(17)
        for _ in range(100):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            inp = BoundInputs(
                ambient=n, dim=n, m=m, d=rng.randint(1, 4),
                deg_phi=rng.randint(0, 9), deg_x=rng.randint(1, 3),
                reg_x=rng.randint(1, 4), mu_zero=rng.randint(0, 2),
                mu_prime=rng.randint(0, 2),
                c_inf=CInf.upper_bound_mu(),
            )
            assert hickel_bound_i(inp) >= inp.deg_phi
            assert hickel_bound_ii(inp) >= inp.deg_phi
            assert power_bound(inp) >= inp.deg_phi
            mac = macaulay_bound(inp)
            assert mac.no_zeros_in_pn >= inp.deg_phi
            assert mac.no_zeros_on_x >= inp.deg_phi


def test_cusp_mu_zero_values():
    assert cusp_mu_zero(3) == 1
    assert cusp_mu_zero(5) == 3
    assert cusp_mu_zero(7) == max(3, 5) == 5
    with pytest.raises(ValueError):
        cusp_mu_zero(4)


def test_cusp_mu_zero_is_the_float_formula_on_small_p():
    # below 2^53 the float quotient and its ceiling are exact
    for p in range(3, 2001, 2):
        assert cusp_mu_zero(p) == max((p - 1) // 2, math.ceil((p - 3) * (p - 1) / (p - 2)))


def test_cusp_mu_zero_is_exact_above_float_precision():
    # (p-3)(p-1) = (p-2)^2 - 1, so the ceiling is p - 2; a float
    # quotient rounds 2^61 - 3 - 1/(2^61 - 3) up to 2^61
    p = 2**61 - 1
    assert cusp_mu_zero(p) == math.ceil(Fraction((p - 3) * (p - 1), p - 2)) == 2**61 - 3
