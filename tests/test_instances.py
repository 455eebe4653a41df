"""Instance/ideal/certificate file formats."""

import pytest

from brisk.bounds import CInf
from brisk.certificate import minimal_degree
from brisk.errors import ParseError
from brisk.instances import (
    format_certificate,
    parse_certificate,
    parse_ideal_file,
    parse_instance,
)

KOLLAR = """
# sharpness instance
vars: z1, z2
generators:
  z1^2
  z1*z2 - 1
target: 1
params:
  dim = 2
  deg_x = 1
  reg_x = 1
  mu0 = 0
  c_inf = 2
"""

CUSP = """
vars: z1, z2
variety:
  z1^2 - z2^5
generators:
  z2
target: z1
power: 1
branches:
  branch: z1 = t^5; z2 = t^2
params:
  mu0 = 3
  c_inf = mu
"""


class TestInstanceParsing:
    def test_kollar_file(self):
        f = parse_instance(KOLLAR)
        assert f.ring.names == ("z1", "z2")
        assert f.variety.is_zero()
        assert len(f.gens) == 2
        assert f.phi == f.ring.one()
        inputs = f.bound_inputs()
        assert inputs.c_inf == CInf.explicit(2)
        assert inputs.mu_zero == 0

    def test_cusp_file(self):
        f = parse_instance(CUSP)
        assert len(f.variety.gens) == 1
        assert len(f.branches) == 1
        assert f.power == 1
        assert f.params["mu0"] == "3"
        assert f.c_inf() == CInf.upper_bound_mu()
        inst = f.membership_instance()
        assert inst.m == 1

    def test_minus_infinity_mode(self):
        f = parse_instance(KOLLAR.replace("c_inf = 2", "c_inf = -inf"))
        assert f.c_inf() == CInf.minus_infinity()

    def test_missing_vars_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("generators:\n  x\n")

    def test_unknown_variable_with_line(self):
        with pytest.raises(ParseError) as ex:
            parse_instance("vars: x\ngenerators:\n  x\n  y\n")
        assert ex.value.line == 4

    def test_duplicate_section_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("vars: x\ntarget: x\ntarget: x\n")

    def test_content_before_header_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("x + 1\nvars: x\n")

    def test_missing_params_reported_for_nontrivial_variety(self):
        f = parse_instance(
            "vars: x, y\nvariety:\n x^2 - y^3\ngenerators:\n x\ntarget: y\n"
        )
        with pytest.raises(ParseError, match="dim"):
            f.bound_inputs()

    def test_trivial_variety_defaults_to_projective_space(self):
        f = parse_instance("vars: x, y\ngenerators:\n x\ntarget: x\n")
        inputs = f.bound_inputs()
        assert (inputs.dim, inputs.deg_x, inputs.reg_x) == (2, 1, 1)


class TestIdealFile:
    def test_round_trip(self):
        ideal = parse_ideal_file("vars: x, y\nx^2 - y\nx*y  # comment\n")
        assert len(ideal.gens) == 2

    def test_header_required(self):
        with pytest.raises(ParseError):
            parse_ideal_file("x^2 - y\n")


class TestCertificateFormat:
    def test_round_trip(self):
        f = parse_instance(KOLLAR)
        inst = f.membership_instance()
        rho, cert = minimal_degree(inst, 6)
        text = format_certificate(inst, cert)
        lines = text.splitlines()
        assert lines[0] == "vars: z1, z2"
        assert lines[-2] == f"rho: {rho}"
        assert lines[-1] == "verified: true"
        back = parse_certificate(text, inst)
        assert back.cofactors == cert.cofactors
        assert back.rho == cert.rho
        assert back.verified

    def test_stable_ordering(self):
        f = parse_instance(KOLLAR)
        inst = f.membership_instance()
        _, cert = minimal_degree(inst, 6)
        assert format_certificate(inst, cert) == format_certificate(inst, cert)

    def test_power_certificate_round_trip(self):
        from brisk.certificate import MembershipInstance, search_at_degree
        from brisk.groebner import Ideal
        from brisk.polyring import PolyRing

        R = PolyRing(("z1", "z2"))
        z1, z2 = R.gens()
        inst = MembershipInstance(
            R, Ideal(R, []), (z1**2, z1 * z2 - 1), (z1**2) ** 2, power=2
        )
        cert = search_at_degree(inst, 4)
        text = format_certificate(inst, cert)
        assert len([l for l in text.splitlines() if not l.startswith(("vars", "rho", "verified"))]) == 3
        back = parse_certificate(text, inst)
        assert back.cofactors == cert.cofactors

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# a comment\nvars: z1, 2x\n", r"invalid variable name '2x' \(line 2, column 7\)"),
            ("vars: z1, z2\nz1 $ 2\n0\n", r"unexpected character '\$' \(line 2, column 4\)"),
        ],
        ids=["header", "cofactor"],
    )
    def test_errors_name_their_line_and_column(self, text, message):
        # as in instance files: comment lines count, and a position is
        # the one in the file
        inst = parse_instance(KOLLAR).membership_instance()
        with pytest.raises(ParseError, match=message):
            parse_certificate(text, inst)
