"""Golden outputs of the sparse solver, the certificate search and the
resolution commands of the CLI.

The solver values were recorded with the full-rescan pivot selection that
the incremental Markowitz bookkeeping in ``linalg.solve_sparse`` replaced.
Any change to the pivot rule (fewest live rows, then lowest column;
shortest row, then lowest index) changes which free variables are set
to 0, and so changes these exact vectors and cofactors.  The CLI outputs
were recorded with the all-pairs Schreyer frame that the minimal-pair
frame replaced; both must give the same minimal resolutions.  The reduced
Groebner bases were recorded with the Buchberger loop on ``Fraction`` and
``GFElement`` coefficients that the integer engine replaced: a reduced
basis is canonical, so its text and coefficient types must not move.
The digests of the bases over Q (katsura, cyclic-5, an elimination, a
projective closure and exponent growth with lead coefficients other
than 1) were recorded with the plain loop over Q, before a trace modulo
a prime guided it and before the tail-reduced loop replaced that trace.
The resolution goldens (every step matrix, the drop-rank codimensions
and two syzygy steps, over Q and GF(32003)) were recorded with the
module engine on ``Fraction`` and ``GFElement`` coefficients that the
packed-int one replaced.
The module basis goldens (every element of ``module_groebner`` on the
transposed steps of those resolutions, in the order found) were recorded
while module bases still had an S-pair loop of their own, before they
ran on the loop of the ideal bases.
The ``brisk bench`` CSV goldens were recorded while ``minimal_degree``
picked rho_min with a span mod a prime, before the exact pick from a
truncated homogeneous Groebner basis replaced it.
"""

import hashlib
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import random_forms_ideal, skew_lines_ideal

from brisk.certificate import (
    MembershipInstance,
    minimal_degree,
    projective_closure,
    search_at_degree,
)
from brisk.cli import main
from brisk.families import kollar, macaulay_generic
from brisk.fields import GF, poly_to_gf
from brisk import kernel
from brisk.groebner import Ideal, buchberger, eliminate, saturate
from brisk.linalg import solve_sparse
from brisk.modules import Layout, columns_to_elements, module_groebner
from brisk.orders import elim, grevlex, lex
from brisk.polyring import PolyRing, format_poly
from brisk.resolution import bef_codims, minimal_resolution, syzygies


def _cofactor_strings(cert):
    return {index: format_poly(q) for index, q in sorted(cert.cofactors.items())}


def test_kollar_233_cofactors_at_rho_8():
    cert = search_at_degree(kollar(2, 3, 3).instance, 8)
    assert cert is not None and cert.verified
    assert cert.rho == 8
    assert _cofactor_strings(cert) == {
        (0, 0, 1): "-z1*z2*z3^4 - z1*z3^3 - z2*z3 - 1",
        (0, 1, 0): "-z1*z3^5 - z3^2",
        (1, 0, 0): "z3^6",
    }


def test_macaulay_generic_d3_n2_seed3_cofactors():
    inst = macaulay_generic(3, 2, random.Random(3)).instance
    rho, cert = minimal_degree(inst, 7)
    assert rho == 7 and cert.verified
    den = "/22901338728017*"
    assert _cofactor_strings(cert) == {
        (0, 0, 1): (
            f"-25720284825712{den}z2^4 + 1434517759008{den}z1*z2^2"
            f" + 44560661263332{den}z2^3 - 33121640542059{den}z1^2"
            f" + 4438018984709{den}z1*z2 + 46453387966080{den}z2^2"
            f" - 21061906043735{den}z1 - 112690709497255{den}z2"
            " + 58280911424637/22901338728017"
        ),
        (0, 1, 0): (
            f"-28935320428926{den}z1^2*z2^2 + 6430071206428{den}z1*z2^3"
            f" - 19290213619284{den}z2^4 + 14140908104967{den}z1^2*z2"
            f" - 66327400052822{den}z1*z2^2 + 1801769397710{den}z2^3"
            f" + 44109279515629{den}z1^2 - 91497397692160{den}z1*z2"
            f" - 36996458814706{den}z2^2 - 7336195811920{den}z1"
            f" - 64989777552913{den}z2 + 17390864496922/22901338728017"
        ),
        (1, 0, 0): (
            f"-19290213619284{den}z1*z2^3 + 29673830861934{den}z1*z2^2"
            f" - 41795462841782{den}z2^3 - 22081093694706{den}z1^2"
            f" + 37658322726718{den}z1*z2 - 5559853502302{den}z2^2"
            " - 1569004020638/995710379479*z1"
            f" - 14312563835126{den}z2 + 26385218596771/22901338728017"
        ),
    }


class TestCertificatePaths:
    """Certificates on the paths the benchmark families never take: a
    nontrivial variety, Fraction coefficients in F, Phi and the variety,
    the power case and a per-generator cap.  Recorded with the builder
    that formed every column x^alpha NF(F^I) as a ``MultiPoly`` product
    and reduced it through ``GroebnerBasis.normal_form``."""

    def test_cusp_variety(self):
        R = PolyRing(("z1", "z2"))
        z1, z2 = R.gens()
        inst = MembershipInstance(R, Ideal(R, [z1**2 - z2**5]), (z2,), z1**2)
        rho, cert = minimal_degree(inst, 6)
        assert (rho, cert.rho) == (5, 5)
        assert _cofactor_strings(cert) == {(1,): "z2^4"}

    def test_twisted_cubic_variety(self):
        R = PolyRing(("x", "y", "z"))
        x, y, z = R.gens()
        variety = Ideal(R, [y - x**2, z - x**3])
        inst = MembershipInstance(R, variety, (x * y - 1, z + y), x**4 + 2)
        rho, cert = minimal_degree(inst, 6)
        assert (rho, cert.rho) == (3, 3)
        assert _cofactor_strings(cert) == {
            (0, 1): "3/2*x - 1/2*y + 1/2",
            (1, 0): "1/2*y - 2",
        }

    def test_fraction_coefficients(self):
        R = PolyRing(("z1", "z2"))
        z1, z2 = R.gens()
        half, two_thirds = F(1, 2), F(2, 3)
        inst = MembershipInstance(
            R,
            Ideal(R, [z1**2 + two_thirds * z2**2 - half]),
            (half * z1 - z2, two_thirds * z2**2 + half * z1),
            two_thirds * z1 * z2 + half,
        )
        rho, cert = minimal_degree(inst, 6)
        assert (rho, cert.rho) == (3, 3)
        assert _cofactor_strings(cert) == {
            (0, 1): "63/10*z2 - 9/20",
            (1, 0): "9/5*z1*z2 + 18/5*z2^2 + 2*z1 - 29/30*z2 + 9/20",
        }

    def test_power_two(self):
        R = PolyRing(("z1", "z2"))
        z1, z2 = R.gens()
        inst = MembershipInstance(
            R, Ideal(R, []), (z1**2, z1 * z2 - 1), R.one(), power=2
        )
        rho, cert = minimal_degree(inst, 12)
        assert (rho, cert.rho) == (8, 8)
        assert _cofactor_strings(cert) == {
            (0, 2): "2*z1*z2 + 1",
            (1, 1): "-z1*z2^3 - 3*z2^2",
            (2, 0): "z2^4",
        }

    def test_per_generator_cap(self):
        R = PolyRing(("z1", "z2"))
        z1, z2 = R.gens()
        inst = MembershipInstance(
            R,
            Ideal(R, []),
            (z1**2 - z2, z1 * z2 - 1, z2**2 + z1),
            z1**3 * z2 + 2 * z2**2 - 1,
        )
        assert search_at_degree(inst, 5, {1: 1}) is None
        cert = search_at_degree(inst, 5, {0: 1})
        assert cert.rho == 4
        assert _cofactor_strings(cert) == {
            (0, 0, 1): "-1/2*z1^2 + 1/2*z1 + 1",
            (0, 1, 0): "z1^2 + 1/2*z1*z2 + z1 - 1/2*z2 + 1",
            (1, 0, 0): "1/2*z1 - z2 + 1/2",
        }
        # without the cap the solver settles on other cofactors
        assert _cofactor_strings(search_at_degree(inst, 5)) == {
            (0, 0, 1): "1/2*z1 - 1/2*z2 + 1",
            (0, 1, 0): "1/2*z1*z2 + z1 + 1/2*z2 + 1",
            (1, 0, 0): "z1*z2 - 1/2*z2^2 - z2 - 1/2",
        }


def _rows(spec):
    return [{c: F(v) for c, v in row.items()} for row in spec]


class TestTiedPivots:
    """Underdetermined systems with ties in every pivot rule: each rule
    reversed (highest column first, most live rows first, longest row
    first, highest row index first, row index alone) gives another
    solution vector."""

    def test_column_and_row_ties(self):
        rows = _rows([
            {5: 2, 2: 1},
            {1: 1, 2: -1, 4: -1, 6: 1},
            {6: -1, 5: -1, 3: 1, 1: 1},
            {3: 2, 5: 1, 2: 1, 4: -1},
            {1: -1, 5: 2, 6: 1, 3: 2},
        ])
        rhs = [F(5), F(4), F(4), F(2), F(1)]
        assert solve_sparse(rows, rhs, 7) == [
            F(0), F(53, 6), F(5), F(5, 3), F(19, 3), F(0), F(13, 2),
        ]

    def test_shortest_row_before_lowest_index(self):
        rows = _rows([
            {5: 1, 2: -1, 4: 1, 1: 2},
            {4: 1, 2: 2, 6: 1, 0: -1},
            {5: 2, 3: -1, 4: -1, 6: 2},
            {6: 1, 3: 1, 1: -1, 0: 2},
            {6: -1, 5: 2, 1: 2},
            {1: 1, 2: 1, 0: 1, 3: 2},
        ])
        rhs = [F(2), F(5), F(2), F(3), F(3), F(3)]
        assert solve_sparse(rows, rhs, 8) == [
            F(-17, 4), F(-19, 4), F(-3, 2), F(27, 4),
            F(15, 4), F(25, 4), F(0), F(0),
        ]


INSTANCES = Path(__file__).resolve().parent.parent / "instances"

CUBIC_RESOLUTION = (
    "           0     1     2\n"
    "    0:     1     .     .\n"
    "    1:     .     3     2\n"
    "regularity: 2\n"
    "drop-rank codimensions: k=1: 2, k=2: 2\n"
)

NA_MACAULAY = "caller did not assert the no-common-zeros hypothesis"


@pytest.mark.parametrize("argv, stdout", [
    (["resolve", "twisted_cubic.txt"], CUBIC_RESOLUTION),
    (["resolve", "twisted_cubic.txt", "--char", "32003"], CUBIC_RESOLUTION),
    (["resolve", "cusp5.txt", "--homogenize-saturate"], (
        "           0     1\n"
        "    0:     1     .\n"
        "    4:     .     1\n"
        "regularity: 5\n"
        "drop-rank codimensions: k=1: 1\n"
    )),
    (["bounds", "cusp5.txt", "--compute-invariants"], (
        "inputs: N=2;n=1;m=1;d=1;degPhi=1;degX=5;regX=5;ell=1;mu0=3;mu'=None;cinf=mu\n"
        "  hickel_i     21\n"
        "  power        21\n"
        "  hickel_ii    n/a (needs muPrime (smooth: 0))\n"
        f"  macaulay_pn  n/a ({NA_MACAULAY})\n"
        f"  macaulay_x   n/a ({NA_MACAULAY})\n"
        "  jelonek      5\n"
        "  hermann      17  (asymptotic comparison only)\n"
        "\n"
        "hickel_i\t21\t-\td61b91b1d5f3\n"
        "power\t21\t-\td61b91b1d5f3\n"
        "hickel_ii\tNA\tneeds muPrime (smooth: 0)\td61b91b1d5f3\n"
        f"macaulay_pn\tNA\t{NA_MACAULAY}\td61b91b1d5f3\n"
        f"macaulay_x\tNA\t{NA_MACAULAY}\td61b91b1d5f3\n"
        "jelonek\t5\t-\td61b91b1d5f3\n"
        "hermann\t17\tasymptotic comparison only\td61b91b1d5f3\n"
    )),
    (["invariants", "twisted_cubic.txt"], (
        "hilbert numerator: 1 - 3*t^2 + 2*t^3\n"
        "projective dimension: 1\n"
        "projective degree: 3\n"
    )),
    # certificates are printed by format_poly in the display order
    (["membership", "kollar.txt", "--min"], (
        "rho_min: 4\n"
        "vars: z1, z2\n"
        "z2^2  # Q1 (1, 0)\n"
        "-z1*z2 - 1  # Q2 (0, 1)\n"
        "rho: 4\n"
        "verified: true\n"
    )),
    (["membership", "macaulay_pair.txt", "--min"], (
        "rho_min: 3\n"
        "vars: z1\n"
        "-2*z1 + 3  # Q1 (1, 0)\n"
        "2*z1 + 1  # Q2 (0, 1)\n"
        "rho: 3\n"
        "verified: true\n"
    )),
    (["membership", "cusp5.txt", "--rho", "20"], "not in ideal at rho<=20\n"),
    (["invariants", "cusp5.txt"], (
        "hilbert numerator: 1 - t^5\n"
        "projective dimension: 1\n"
        "projective degree: 5\n"
        "regularity: 5\n"
        "empty at infinity: false\n"
    )),
])
def test_cli_resolution_output(argv, stdout, capsys):
    command, name, *flags = argv
    assert main([command, str(INSTANCES / name), *flags]) == 0
    assert capsys.readouterr().out == stdout


# ------------------------------------------------------- reduced bases


def _cyclic(n):
    ring = PolyRing(tuple(f"x{i}" for i in range(n)))
    x = ring.gens()
    gens = []
    for k in range(1, n):
        total = ring.zero()
        for i in range(n):
            term = ring.one()
            for j in range(k):
                term = term * x[(i + j) % n]
            total = total + term
        gens.append(total)
    prod = ring.one()
    for v in x:
        prod = prod * v
    return Ideal(ring, gens + [prod - ring.one()])


def _katsura(n):
    ring = PolyRing(tuple(f"u{i}" for i in range(n + 1)))
    u = ring.gens()

    def at(k):
        return u[abs(k)] if abs(k) <= n else ring.zero()

    gens = []
    for m in range(n):
        total = ring.zero()
        for l in range(-n, n + 1):
            total = total + at(l) * at(m - l)
        gens.append(total - u[m])
    total = ring.zero()
    for l in range(-n, n + 1):
        total = total + at(l)
    return Ideal(ring, gens + [total - ring.one()])


GF_P = GF(32003)
R3 = PolyRing(("x", "y", "z"))
_x, _y, _z = R3.gens()
NONLINEAR = Ideal(R3, [_x**2 + _y * _z - 2, _y**2 - _x * _z + _y, _x * _y * _z - 1])


def _basis_lines(polys):
    """``str(g) :: coefficient types`` for every element, in order."""
    return [
        f"{g} :: {','.join(sorted({type(c).__name__ for c in g.terms.values()}))}"
        for g in polys
    ]


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_katsura4_q_basis():
    lines = _basis_lines(buchberger(_katsura(4), grevlex()))
    assert len(lines) == 13
    assert lines[-1].startswith("u4^5 - 18341/42588*u4^4 + 34646/351351*u1*u4^2")
    assert _digest(lines) == "bcb4daffeed0ec448e59f458a1db30ae3d476f95619428d6932d3cff19f93638"


def test_cyclic5_gf32003_basis():
    c5 = _cyclic(5)
    ideal = Ideal(c5.ring, [poly_to_gf(g, GF_P) for g in c5.gens])
    lines = _basis_lines(buchberger(ideal, grevlex()))
    assert len(lines) == 20
    assert all(line.endswith(" :: GFElement") for line in lines)
    assert _digest(lines) == "11c78528cbeb07eab2ad19aa36907c8600aa97e949d5547b6100b6aebb77b1a3"


def test_lex_basis():
    assert _basis_lines(buchberger(NONLINEAR, lex())) == [
        "z^9 - 4*z^7 - 5*z^6 + 4*z^5 + 8*z^4 + 2*z^3 - 2*z^2 + 1 :: Fraction",
        "-20/49*z^8 + 12/49*z^7 + 9/7*z^6 + 72/49*z^5 - 12/7*z^4 - 90/49*z^3"
        " - 12/7*z^2 + y + 12/49*z + 32/49 :: Fraction",
        "23/49*z^8 - 32/49*z^7 - 8/7*z^6 - 3/49*z^5 + 18/7*z^4 - 68/49*z^3"
        " - z^2 + x + 52/49*z + 64/49 :: Fraction",
    ]


def test_eliminate_basis():
    assert _basis_lines(eliminate(NONLINEAR, 1).gens) == [
        "y^3 + y^2 - 1 :: Fraction",
        "z^4 + y^2*z - 4*y*z^2 + 2*y^2 + y*z - 4*z^2 + 4*y + z + 2 :: Fraction",
        "y*z^3 - 2*z^2 + y + 1 :: Fraction",
        "y^2*z^2 + y*z^2 - 1/2*z^3 - 1/2*y^2 - 1/2*y - 1/2 :: Fraction",
    ]


def test_fraction_inputs_with_negative_leads():
    ideal = Ideal(R3, [
        F(-3, 4) * _x**2 * _y + F(5, 6) * _z**2,
        F(-7, 2) * _y**2 + F(1, 3) * _x * _z - 2,
        F(-2, 5) * _x * _z**2 + _y,
    ])
    assert _basis_lines(buchberger(ideal, grevlex())) == [
        "y^2 - 2/21*x*z + 4/7 :: Fraction",
        "y*z^2 + 18/35*x^2 - 5/21*z :: Fraction",
        "x*z^2 - 5/2*y :: Fraction",
        "x^2*y - 10/9*z^2 :: Fraction",
        "x^3 - 25/9 :: Fraction",
        "z^4 - 3/14*x^2*z + 9/7*x :: Fraction",
    ]


def test_saturation_over_gf32003():
    # saturate hands buchberger 1 - t*f: a Fraction(1) next to GFElements
    gens = [_x * _y**2 - 2 * _x * _z + _x**2, _x * _z**2 + 3 * _x * _y - 5 * _x]
    ideal = Ideal(R3, [poly_to_gf(g, GF_P) for g in gens])
    assert _basis_lines(saturate(ideal, poly_to_gf(_x, GF_P)).gens) == [
        "1*z^2 + 3*y + 31998 :: GFElement",
        "1*y^2 + 1*x + 32001*z :: GFElement",
    ]



def _affine_rnc(d):
    """The affine rational normal curve z_k = z_1^k, k = 2..d."""
    ring = PolyRing(tuple(f"z{i}" for i in range(1, d + 1)))
    z = ring.gens()
    return Ideal(ring, [z[k] - z[0] * z[k - 1] for k in range(1, d)])


def _scaled_chain(k):
    """2 x_i - 3 x_{i+1}^2 (i < k) and 3 x0 - 1: exponents far past the
    input degrees, with lead coefficients that are not 1."""
    ring = PolyRing(tuple(f"x{i}" for i in range(k + 1)))
    x = ring.gens()
    return Ideal(ring, [2 * x[i] - 3 * x[i + 1] ** 2 for i in range(k)] + [3 * x[0] - 1])


R_TXY = PolyRing(("t", "x", "y"))
_t, _tx, _ty = R_TXY.gens()
R_XY = PolyRing(("x", "y"))
_X, _Y = R_XY.gens()


# reduced bases over Q, recorded with the plain Buchberger loop over Q,
# before the trace modulo a prime and the tail-reduced loop that replaced
# it: (length, digest of _basis_lines)
Q_BASES = {
    "katsura5": (
        lambda: buchberger(_katsura(5), grevlex()),
        22, "cbfe1729ed4529590f97182bdf2066285b0280a06b46007dde27dc9dc41d04c3",
    ),
    "katsura6": (
        lambda: buchberger(_katsura(6), grevlex()),
        41, "01a0289e9b06d5035de8383f630b0cf47027bd35a60291fde5ff59a5f058abfb",
    ),
    "cyclic5": (
        lambda: buchberger(_cyclic(5), grevlex()),
        20, "c7c4b09620df72948da38e5ff48e1206a747d0e8600762b9c34ef7aa1fc843c1",
    ),
    "eliminate_t": (
        lambda: eliminate(Ideal(R_TXY, [3 * _tx - 2 * _t**2 + _t, 5 * _ty - _t**3 + 2]), 1).gens,
        1, "0f81e6f933c9e0fc2cf81bf390a62293a2ef4ec4ef0d86c8d6d7a4df8ab11bd5",
    ),
    "closure_rnc5": (
        lambda: projective_closure(_affine_rnc(5)).gens,
        10, "c7fb9da6b2755babb6695f79a517caccd1f094ed974e7f2d10991aee2090731a",
    ),
    "scaled_chain10_lex": (
        lambda: buchberger(_scaled_chain(10), lex()),
        11, "127a02345cb3e6c0fb94fcae63bb8d9203394939906c404e72803598daf5468d",
    ),
}
for _order in (grevlex(), lex(), elim(1)):
    Q_BASES[f"degree70000_{_order}"] = (
        lambda order=_order: buchberger(Ideal(R_XY, [_X**70000 - 2 * _Y, 3 * _Y**3 - 1]), order),
        2, "fa2bec72236ee3be68f8ffa1752dbf2b45e24302fc1bce019e48136a4b339312",
    )


@pytest.mark.parametrize("name", sorted(Q_BASES))
def test_q_basis_golden(name):
    compute, length, digest = Q_BASES[name]
    lines = _basis_lines(compute())
    assert len(lines) == length
    assert all(line.endswith(" :: Fraction") for line in lines)
    assert _digest(lines) == digest


# ------------------------------------------------------- resolutions


def _rnc(d):
    ring = PolyRing(tuple(f"z{i}" for i in range(d + 1)))
    z = ring.gens()
    return Ideal(ring, [z[i] * z[j + 1] - z[i + 1] * z[j] for i in range(d) for j in range(i + 1, d)])


def _resolution_cases():
    rng = random.Random(5)
    cases = {
        "rnc3": _rnc(3),
        "rnc4": _rnc(4),
        "skew_lines": skew_lines_ideal(),
        "powers50": Ideal(R3, [_x**50, _y**50, _z**50]),
    }
    for k in range(6):
        cases[f"random5_{k}"] = random_forms_ideal(rng)
    for name, ideal in list(cases.items()):
        cases[f"{name}_gf"] = Ideal(ideal.ring, [poly_to_gf(g, GF_P) for g in ideal.gens])
    return cases


def _step_lines(label, step):
    lines = [f"{label}: {step.source.twists} -> {step.target.twists}"]
    return lines + [" | ".join(str(p) for p in row) for row in step.matrix]


def _resolution_lines(ideal):
    """Every step matrix of the minimal resolution, its drop-rank
    codimensions, and the syzygies of the generators and of step 1."""
    res = minimal_resolution(ideal)
    lines = []
    for k, step in enumerate(res.steps, start=1):
        lines += _step_lines(f"step {k}", step)
    lines.append(f"codims: {bef_codims(res)}")
    lines += _step_lines("syzygies of gens", syzygies(ideal.gens))
    lines += _step_lines("syzygies of step 1", syzygies(res.steps[0]))
    return lines


RESOLUTION_CASES = _resolution_cases()

# name -> (drop-rank codimensions, digest of _resolution_lines)
RESOLUTION_GOLDENS = {
    "powers50": ([(1, 3), (2, 3), (3, 3)], "390c270e8a30ed69148a8e6ff2ea6d1e0d9310c56fc038edfeac882d66566253"),
    "powers50_gf": ([(1, 3), (2, 3), (3, 3)], "195b452982c3dc4d8fd1da23c3d04da9d9f83e28e7ffaafe405ea19afd0e20c2"),
    "random5_0": ([(1, 2), (2, 2)], "587d4942485267caedd76503321b855a39eb415a93171465d31e214edda805da"),
    "random5_0_gf": ([(1, 2), (2, 2)], "6a32e316482ca847b79bcf0b8121517e72fa04a7a24d62d6b2202366ebd45cbf"),
    "random5_1": ([(1, 1), (2, 2)], "f2fc0f47d40ca496ffd089f3a5738b982fe941f690107c7585813dc9f1ce6105"),
    "random5_1_gf": ([(1, 1), (2, 2)], "b3351c0c153488736e27a0bfc4314fe966e6fa8074ed2a42f7b0df42d7ea53c0"),
    "random5_2": ([(1, 1), (2, 2)], "e540ddd69d2382a753ab43a52689123d5983bf05ef3485355f1bd165467b47e0"),
    "random5_2_gf": ([(1, 1), (2, 2)], "e5f2a57fafc5d793a847af74a592da92bc406f5dc4e2996095619e577227e6a3"),
    "random5_3": ([(1, 2), (2, 2)], "2ec45fabd9fe9950cf2e6e006caad8c2500c9feffc91ee846f2c82061bbdb423"),
    "random5_3_gf": ([(1, 2), (2, 2)], "12fe62e90e77686fbf3faea5592fa67bf33b57afd20662fb92010b8e53b90619"),
    "random5_4": ([(1, 3), (2, 3), (3, 3)], "51675662719857673da8220c46a2ab9e88316384e72dfd8293087ac4288e88af"),
    "random5_4_gf": ([(1, 3), (2, 3), (3, 3)], "728f6c2617bdb74ecdc346c79522242d0659ba3a4c7cd016fc22751df6487794"),
    "random5_5": ([(1, 2), (2, 2), (3, 3)], "dd31e03f5152885fc6c39c8fdf3f9171d8612ad55f4e258e765e8bed3ec7fb8b"),
    "random5_5_gf": ([(1, 2), (2, 2), (3, 3)], "83ff66858236a21b6573d83e09794b266ad19223f68f71a99197e2684d0cd1fd"),
    "rnc3": ([(1, 2), (2, 2)], "5574088df50b8161bc28d12c220f9bdbea68b76ff95a5c807cda93da0b027c09"),
    "rnc3_gf": ([(1, 2), (2, 2)], "dd99f2aa6fa25df08677ed79768d2ca54202ad0647f2a79ea13219fc11053676"),
    "rnc4": ([(1, 3), (2, 3), (3, 3)], "c84efde8d45af10a3097cb1182536204d0aa01c208e6f6b97185f26365af168b"),
    "rnc4_gf": ([(1, 3), (2, 3), (3, 3)], "be8c51b1d205add544194224022fd16a1ec9ed90485a5ced6c2e1238ce57fde1"),
    "skew_lines": ([(1, 2), (2, 2), (3, 4)], "115bb0de78ba75cb4562d436808b17d268fcd9ce4640c2052f6dac38364e9014"),
    "skew_lines_gf": ([(1, 2), (2, 2), (3, 4)], "1435bea6fce19d486945d89a781ca91b5ed75ff03c26ec65a4b03802605a2dbc"),
}


@pytest.mark.parametrize("name", sorted(RESOLUTION_CASES))
def test_resolution_golden(name):
    lines = _resolution_lines(RESOLUTION_CASES[name])
    codims, digest = RESOLUTION_GOLDENS[name]
    assert f"codims: {codims}" in lines
    assert _digest(lines) == digest


def _module_basis_lines(ideal):
    """``module_groebner`` on the columns of each transposed step of the
    minimal resolution, on the untracked free layout with dual twists of
    ``bef_codims``: every element in the order found, each term as
    (position, exponent) and int coefficient, highest term first."""
    res = minimal_resolution(ideal)
    modulus = kernel.field_modulus(ideal.gens)

    def run(bits):
        lines = []
        for k, step in enumerate(res.steps, start=1):
            dual = tuple(-b for b in step.source.twists)
            layout = Layout.free(grevlex(), res.ring.nvars, bits, dual)
            columns = columns_to_elements(list(zip(*step.matrix)), layout)
            basis = module_groebner([kernel.to_ints(c, modulus) for c in columns], layout, modulus)
            lines.append(f"step {k}: {dual}, {len(basis)} elements")
            for g in basis:
                lines.append(" ".join(f"{c}{layout.unpack(t)}" for t, c in sorted(g.items(), reverse=True)))
        return lines

    return kernel.widening(run, kernel.MIN_BITS)


# name -> digest of _module_basis_lines
MODULE_BASIS_GOLDENS = {
    "powers50": "15d1337a1fca1dcef1614066b2e1f77009ed7a679a116cbed7917356692bf814",
    "powers50_gf": "837f0a462903da33daad0c17ac676e6acae4eaf3054862fdd5cd4d39e7a121e8",
    "random5_0": "e27644484ad73add787ab87601c0e281b9243c4da49971654822cdfa307cd443",
    "random5_0_gf": "83f1b997bc3247d8ba03c95af16a5a6943ad9ffb7c9de2f29f6d095158faa427",
    "random5_1": "0c9f43ad66ede8c37b0d7dd5de2af51252547b1eccb94c2dedd1233a493552fc",
    "random5_1_gf": "0c9f43ad66ede8c37b0d7dd5de2af51252547b1eccb94c2dedd1233a493552fc",
    "random5_2": "c5deebbba2cacd0bbd989408a7012fa9c451f0016fe3faeb25e0d931e3a05f3c",
    "random5_2_gf": "c5deebbba2cacd0bbd989408a7012fa9c451f0016fe3faeb25e0d931e3a05f3c",
    "random5_3": "9009f352c21af199903f814dac4df9e1de45022a29531d41b61c4989d68d74bf",
    "random5_3_gf": "4403db057bdc8f7d692433a0ad0f835a96c5c8b949e5693b118d9a5043b4a8ef",
    "random5_4": "a3952c578b3c9524eecb700acaa86f2734553c0cd6ca91ef335b10e7faf0f3b3",
    "random5_4_gf": "4682512bdcfba61a60a007ff50bbc196e20dc7e37b46e6f605c92316b8ac18c9",
    "random5_5": "44d549c19308d99b8d065f8e2077765897d8b6c3979fe316714c5139f83829ce",
    "random5_5_gf": "97beca3831badeb522eb07b2d57252238aa7e46123fecf027fe9516f694fcb58",
    "rnc3": "4f2a899f505a4acb85bcbcc5cc2eee91149382b020b81393401bcf0d5182ca56",
    "rnc3_gf": "576dedf622bbf35dda20711beb1571706dd0f018a39438cee4c1a0139723c438",
    "rnc4": "b8d3e57807bb2f504f277ce6b6ebf85e2825afa78ad05dad37f4832b3b6e1ebc",
    "rnc4_gf": "3d39274868a599eed617ae693f7f94ed1d49f12279ff4de0362e565897744a2a",
    "skew_lines": "a6a283266aea6fb9de8f26c202b5a937f487479f1a9aabe636d03d9d32d8b38b",
    "skew_lines_gf": "56abf724a9d498aa14510e3caf842ed6b3fd46174d6a65822e491ab13824a6ba",
}


@pytest.mark.parametrize("name", sorted(RESOLUTION_CASES))
def test_module_basis_golden(name):
    assert _digest(_module_basis_lines(RESOLUTION_CASES[name])) == MODULE_BASIS_GOLDENS[name]


# the CSV rows of ``brisk bench`` with the ms field blanked
BENCH_CSV_GOLDENS = {
    ("kollar", "--d", "2:7", "--m", "2:4"): """
        kollar,d=2;expected_min=4;m=2;n=2,4,8,,4,128,4,
        kollar,d=2;expected_min=8;m=3;n=3,8,24,,8,32768,16,
        kollar,d=2;expected_min=16;m=4;n=4,budget_exhausted,64,,16,2147483648,,
        kollar,d=3;expected_min=9;m=2;n=2,9,18,,9,432,9,
        kollar,d=3;expected_min=27;m=3;n=3,budget_exhausted,81,,27,559872,,
        kollar,d=3;expected_min=81;m=4;n=4,budget_exhausted,324,,81,940369969152,,
        kollar,d=4;expected_min=16;m=2;n=2,16,32,,16,1024,16,
        kollar,d=4;expected_min=64;m=3;n=3,budget_exhausted,192,,64,4194304,,
        kollar,d=4;expected_min=256;m=4;n=4,budget_exhausted,1024,,256,70368744177664,,
        kollar,d=5;expected_min=25;m=2;n=2,25,50,,25,2000,25,
        kollar,d=5;expected_min=125;m=3;n=3,budget_exhausted,375,,125,20000000,,
        kollar,d=5;expected_min=625;m=4;n=4,budget_exhausted,2500,,625,2000000000000000,,
        kollar,d=6;expected_min=36;m=2;n=2,budget_exhausted,72,,36,3456,,
        kollar,d=6;expected_min=216;m=3;n=3,budget_exhausted,648,,216,71663616,,
        kollar,d=6;expected_min=1296;m=4;n=4,budget_exhausted,5184,,1296,30814043149172736,,
        kollar,d=7;expected_min=49;m=2;n=2,budget_exhausted,98,,49,5488,,
        kollar,d=7;expected_min=343;m=3;n=3,budget_exhausted,1029,,343,210827008,,
        kollar,d=7;expected_min=2401;m=4;n=4,budget_exhausted,9604,,2401,311136191115624448,,
""",
    ("macaulay-generic", "--d", "2:4", "--n", "2", "--count", "3"): """
        macaulay-generic,d=2;n=2,4,4,4,8,128,0,
        macaulay-generic,d=2;n=2,4,4,4,8,128,0,
        macaulay-generic,d=2;n=2,4,4,4,8,128,0,
        macaulay-generic,d=3;n=2,7,7,7,18,432,0,
        macaulay-generic,d=3;n=2,7,7,7,18,432,0,
        macaulay-generic,d=3;n=2,7,7,7,18,432,0,
        macaulay-generic,d=4;n=2,10,10,10,32,1024,0,
        macaulay-generic,d=4;n=2,10,10,10,32,1024,0,
        macaulay-generic,d=4;n=2,10,10,10,32,1024,0,
""",
    ("macaulay-generic", "--d", "2:3", "--n", "3", "--count", "3"): """
        macaulay-generic,d=2;n=3,5,5,5,16,32768,0,
        macaulay-generic,d=2;n=3,5,5,5,16,32768,0,
        macaulay-generic,d=2;n=3,5,5,5,16,32768,0,
        macaulay-generic,d=3;n=3,9,9,9,54,559872,0,
        macaulay-generic,d=3;n=3,9,9,9,54,559872,0,
        macaulay-generic,d=3;n=3,9,9,9,54,559872,0,
""",
    ("cusp", "--p", "3:13"): """
        cusp,mu0=1;p=3;scan_cap=10;bs_exp=3/2,notfound<=7,7,,3,17,,
        cusp,mu0=3;p=5;scan_cap=14;bs_exp=5/2,notfound<=14,21,,5,17,,
        cusp,mu0=5;p=7;scan_cap=18;bs_exp=7/2,notfound<=18,43,,7,17,,
        cusp,mu0=7;p=9;scan_cap=22;bs_exp=9/2,notfound<=22,73,,9,17,,
        cusp,mu0=9;p=11;scan_cap=26;bs_exp=11/2,notfound<=26,111,,11,17,,
        cusp,mu0=11;p=13;scan_cap=30;bs_exp=13/2,notfound<=30,157,,13,17,,
""",
}


@pytest.mark.parametrize("args", list(BENCH_CSV_GOLDENS), ids=" ".join)
def test_bench_csv_golden(args, tmp_path, capsys):
    path = tmp_path / "bench.csv"
    assert main(["bench", *args, "--csv", str(path)]) == 0
    capsys.readouterr()
    header, columns, *rows = path.read_text(encoding="utf-8").splitlines()
    assert header == "# brisk bench CSV v1"
    assert columns == "family,params,rho_min,hickel_i,macaulay,jelonek,hermann,slack,ms"
    blanked = []
    for row in rows:
        row, ms = row.rsplit(",", 1)
        assert ms.isdigit()
        blanked.append(row + ",")
    assert blanked == BENCH_CSV_GOLDENS[args].split()
