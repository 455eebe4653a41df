"""Golden outputs of the sparse solver and the certificate search.

The values were recorded with the full-rescan pivot selection that the
incremental Markowitz bookkeeping in ``linalg.solve_sparse`` replaced.
Any change to the pivot rule (fewest live rows, then lowest column;
shortest row, then lowest index) changes which free variables are set
to 0, and so changes these exact vectors and cofactors.
"""

import random
from fractions import Fraction as F

from brisk.certificate import minimal_degree, search_at_degree
from brisk.families import kollar, macaulay_generic
from brisk.linalg import solve_sparse
from brisk.polyring import format_poly


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
