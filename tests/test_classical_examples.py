"""Extended validation batch: classical resolutions with known shapes,
higher Nullstellensatz sharpness cases, implicitization round trips, and
parser fuzzing."""

import random

from brisk.certificate import MembershipInstance, minimal_degree, search_at_degree
from brisk.errors import ParseError
from brisk.families import kollar
from brisk.groebner import Budget, Ideal, buchberger, eliminate
from brisk.invariants import hilbert_data
from brisk.polyring import PolyRing
from brisk.resolution import bef_codims, betti, minimal_resolution, regularity


class TestClassicalResolutions:
    def test_complete_intersection_of_two_quadrics(self):
        P3 = PolyRing(("z0", "z1", "z2", "z3"))
        a, b, c, d = P3.gens()
        ci = Ideal(P3, [a * b - c * d, a**2 + b**2 - c**2])
        res = minimal_resolution(ci)
        res.validate(check_exact=True)
        assert betti(res) == {(1, 2): 2, (2, 4): 1}  # Koszul on a regular pair
        assert regularity(res) == 3  # (2-1) + (2-1) + 1

    def test_rational_normal_quartic(self):
        P4 = PolyRing(tuple(f"z{i}" for i in range(5)))
        z = P4.gens()
        minors = [
            z[i] * z[j + 1] - z[j] * z[i + 1]
            for i in range(4)
            for j in range(i + 1, 4)
        ]
        ideal = Ideal(P4, minors)
        res = minimal_resolution(ideal)
        res.validate(check_exact=True)
        assert betti(res) == {(1, 2): 6, (2, 3): 8, (3, 4): 3}
        assert regularity(res) == 2
        data = hilbert_data(buchberger(ideal))
        assert (data.proj_dimension(), data.proj_degree()) == (1, 4)
        for k, c in bef_codims(res):
            assert c >= k

    def test_veronese_surface(self):
        P5 = PolyRing(tuple(f"w{i}" for i in range(6)))
        w = P5.gens()
        m = [[w[0], w[1], w[2]], [w[1], w[3], w[4]], [w[2], w[4], w[5]]]
        dets = []
        for r1 in range(3):
            for r2 in range(r1 + 1, 3):
                for c1 in range(3):
                    for c2 in range(c1 + 1, 3):
                        dets.append(m[r1][c1] * m[r2][c2] - m[r1][c2] * m[r2][c1])
        ideal = Ideal(P5, dets)
        res = minimal_resolution(ideal)
        res.validate(check_exact=True)
        assert betti(res) == {(1, 2): 6, (2, 3): 8, (3, 4): 3}
        assert regularity(res) == 2
        data = hilbert_data(buchberger(ideal))
        assert (data.proj_dimension(), data.proj_degree()) == (2, 4)

    def test_three_coordinate_points(self):
        P2 = PolyRing(("x", "y", "z"))
        x, y, z = P2.gens()
        ideal = Ideal(P2, [x * y, x * z, y * z])
        res = minimal_resolution(ideal)
        res.validate(check_exact=True)
        assert betti(res) == {(1, 2): 3, (2, 3): 2}
        assert regularity(res) == 2
        data = hilbert_data(buchberger(ideal))
        assert (data.proj_dimension(), data.proj_degree()) == (0, 3)


class TestSharpnessBeyondTwoVariables:
    def test_kollar_three_generators(self):
        fam = kollar(2, 3, 3)
        budget = Budget(max_matrix_entries=500_000)
        assert search_at_degree(fam.instance, 7, budget=budget) is None
        cert = search_at_degree(fam.instance, 8, budget=budget)
        assert cert is not None and cert.verified
        assert cert.rho == 8 == 2**3

    def test_kollar_wide_ambient(self):
        # m = 2 in three variables still forces d^m
        fam = kollar(2, 2, 3)
        found = minimal_degree(fam.instance, 6)
        assert found is not None and found[0] == 4


class TestImplicitization:
    def test_eliminated_generators_vanish_on_the_curve(self):
        # parametrized curves: every generator of the elimination ideal
        # must vanish under the substitution x -> f(t), y -> g(t)
        rng = random.Random(404)
        T = PolyRing(("t",))
        R = PolyRing(("t", "x", "y"))
        t, x, y = R.gens()
        for _ in range(6):
            f = sum(rng.randint(-2, 2) * t**k for k in range(1, rng.randint(2, 4)))
            g = sum(rng.randint(-2, 2) * t**k for k in range(1, rng.randint(2, 4)))
            if f.is_constant() or g.is_constant():
                continue
            ideal = Ideal(R, [x - f, y - g])
            eliminated = eliminate(ideal, 1)
            assert eliminated.gens, "a plane parametrized curve has a relation"
            ft = f.substitute({0: T.var(0)}, target=T)
            gt = g.substitute({0: T.var(0)}, target=T)
            for h in eliminated.gens:
                image = h.substitute(
                    {0: T.zero(), 1: ft, 2: gt}, target=T
                )
                assert not image

    def test_twisted_cubic_implicitization(self):
        R = PolyRing(("t", "x", "y", "z"))
        t, x, y, z = R.gens()
        ideal = Ideal(R, [x - t, y - t**2, z - t**3])
        eliminated = eliminate(ideal, 1)
        G = buchberger(Ideal(R, list(eliminated.gens)))
        for rel in (y - x**2, z - x * y, x * z - y**2):
            assert G.contains(rel)


class TestParserFuzz:
    def test_garbage_never_crashes_differently(self):
        rng = random.Random(500)
        R = PolyRing(("x", "y"))
        alphabet = "xy01+-*/^ ()#\t."
        for _ in range(400):
            s = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 25)))
            try:
                R.parse(s)
            except ParseError:
                pass  # the only acceptable failure mode

    def test_valid_roundtrip_fuzz(self):
        rng = random.Random(501)
        R = PolyRing(("x", "y", "z"))
        for _ in range(200):
            terms = {}
            for _ in range(rng.randint(1, 6)):
                e = tuple(rng.randint(0, 5) for _ in range(3))
                from fractions import Fraction

                terms[e] = Fraction(rng.randint(-20, 20) or 3, rng.randint(1, 9))
            from brisk.polyring import MultiPoly

            p = MultiPoly(R, terms)
            assert R.parse(p.format()) == p


class TestMembershipOnVarietiesRandomized:
    def test_search_agrees_with_direct_expansion(self):
        # random certificates planted on the cusp: search must find a
        # certificate at the planted degree (or lower)
        rng = random.Random(606)
        R = PolyRing(("z1", "z2"))
        z1, z2 = R.gens()
        variety = Ideal(R, [z1**2 - z2**5])
        gens = (z2, z1 * z2)
        for _ in range(8):
            q1 = sum(rng.randint(-2, 2) * z1**a * z2**b
                     for a in range(2) for b in range(2)) + 1
            q2 = sum(rng.randint(-2, 2) * z1**a * z2**b
                     for a in range(2) for b in range(2))
            phi = gens[0] * q1 + gens[1] * q2
            planted = max(
                int((gens[0] * q1).degree()),
                int((gens[1] * q2).degree()) if q2 else 0,
            )
            inst = MembershipInstance(R, variety, gens, phi)
            found = minimal_degree(inst, planted)
            assert found is not None
            rho, cert = found
            assert rho <= planted


class TestLargerSharpness:
    def test_kollar_degree_four(self):
        fam = kollar(4, 2, 2)
        budget = Budget(max_matrix_entries=500_000)
        assert search_at_degree(fam.instance, 15, budget=budget) is None
        cert = search_at_degree(fam.instance, 16, budget=budget)
        assert cert is not None and cert.verified and cert.rho == 16 == 4**2
