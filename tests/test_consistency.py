"""Cross-cutting consistency: kernels, solvers, and order choices must
never disagree."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from oracles import dense_solve

from brisk.certificate import MembershipInstance, minimal_degree, search_at_degree
from brisk.errors import BudgetExceededError
from brisk.groebner import Ideal, buchberger, eliminate
from brisk.kernel import implementations
from brisk.linalg import solve_sparse
from brisk.orders import lex
from brisk.polyring import PolyRing

R = PolyRing(("z1", "z2"))
Z1, Z2 = R.gens()


@pytest.mark.skipif(len(implementations()) < 2, reason="compiled kernel not built")
def test_cli_output_identical_across_kernels(tmp_path):
    f = tmp_path / "inst.txt"
    f.write_text(
        "vars: z1, z2\ngenerators:\n  z1^2\n  z1*z2 - 1\ntarget: 1\n"
    )
    outputs = []
    for pure in ("0", "1"):
        env = dict(os.environ, BRISK_PURE=pure)
        r = subprocess.run(
            [sys.executable, "-m", "brisk.cli", "membership", str(f), "--min"],
            env=env, capture_output=True, text=True,
        )
        assert r.returncode == 0
        outputs.append(r.stdout)
    assert outputs[0] == outputs[1]


class TestSparseSolverAgainstDenseOracle:
    def test_random_systems(self):
        rng = random.Random(808)
        for trial in range(150):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
            dense = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
                for _ in range(nrows)
            ]
            if trial % 3 == 0:
                # planted feasible system
                x = [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
                rhs = [sum(a * b for a, b in zip(row, x)) for row in dense]
            else:
                rhs = [Fraction(rng.randint(-5, 5)) for _ in range(nrows)]
            sparse_rows = [
                {j: v for j, v in enumerate(row) if v} for row in dense
            ]
            self._check(sparse_rows, rhs, ncols)

    def test_sparse_systems_with_fill_and_cancellation(self):
        # up to 40x50 with 2-4 entries per row, plus duplicated rows and
        # combinations of two rows that cancel a shared column: pivots
        # fill rows in, counts go stale, and earlier pivot rows lose
        # columns during the Gauss-Jordan sweeps
        rng = random.Random(4150)
        for trial in range(60):
            nrows, ncols = rng.randint(2, 40), rng.randint(2, 50)
            rows: list[dict[int, Fraction]] = []
            while len(rows) < nrows:
                kind = rng.random() if rows else 1.0
                if kind < 0.15:
                    rows.append(dict(rng.choice(rows)))
                elif kind < 0.35:
                    rows.append(self._combination(rng, rows))
                else:
                    cols = rng.sample(range(ncols), min(ncols, rng.randint(2, 4)))
                    rows.append({
                        c: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))
                        for c in cols
                    })
            if trial % 2 == 0:
                x = [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
                rhs = [sum(v * x[c] for c, v in row.items()) for row in rows]
            else:
                rhs = [Fraction(rng.randint(-4, 4)) for _ in range(nrows)]
            self._check(rows, rhs, ncols)

    @staticmethod
    def _combination(rng, rows):
        """a*r + b*s for two earlier rows, with b chosen so that a column
        the two share cancels when there is one."""
        r, s = rng.choice(rows), rng.choice(rows)
        a = Fraction(rng.choice([-2, -1, 1, 3]))
        shared = sorted(set(r) & set(s))
        if shared:
            c = rng.choice(shared)
            b = -a * r[c] / s[c]
        else:
            b = Fraction(rng.choice([-1, 1, 2]))
        out = {c: a * v for c, v in r.items()}
        for c, v in s.items():
            out[c] = out.get(c, 0) + b * v
        return {c: v for c, v in out.items() if v}

    @staticmethod
    def _check(sparse_rows, rhs, ncols):
        dense = [[row.get(j, Fraction(0)) for j in range(ncols)] for row in sparse_rows]
        got = solve_sparse(sparse_rows, list(rhs), ncols)
        want = dense_solve(dense, list(rhs))
        assert (got is None) == (want is None)
        if got is not None:
            for row, b in zip(dense, rhs):
                assert sum(a * v for a, v in zip(row, got)) == b


class TestEliminationAgainstLex:
    def test_block_and_lex_agree(self):
        # classical: the t-free part of a lex basis (t first) generates the
        # same elimination ideal as the block order
        T = PolyRing(("t", "x", "y"))
        t, x, y = T.gens()
        ideals = [
            Ideal(T, [t * x - 1, y - t]),
            Ideal(T, [x - t**2, y - t**3]),
            Ideal(T, [t**2 - x, t * y - x**2, y**2 - t * x]),
        ]
        for ideal in ideals:
            block = eliminate(ideal, 1)
            lex_gb = buchberger(ideal, lex())
            lex_free = [g for g in lex_gb if all(e[0] == 0 for e in g.terms)]
            a = Ideal(T, block.gens)
            b = Ideal(T, lex_free)
            ga, gb_ = buchberger(a), buchberger(b)
            for g in a.gens:
                assert gb_.contains(g)
            for g in b.gens:
                assert ga.contains(g)


class TestPowerThree:
    def test_cube_membership(self):
        inst = MembershipInstance(
            R, Ideal(R, []), (Z1**2, Z1 * Z2 - 1),
            Z1**4 * (Z1 * Z2 - 1) ** 2, power=3,
        )
        found = minimal_degree(inst, 8)
        assert found is not None
        rho, cert = found
        assert cert.verified
        assert rho <= 8
        assert sum(i for index in cert.cofactors for i in index) >= 3

    def test_not_in_cube_at_low_degree(self):
        inst = MembershipInstance(
            R, Ideal(R, []), (Z1**2, Z1 * Z2 - 1), Z1**2, power=3
        )
        # z1^2 has degree 2 < any F^I with |I| = 3, so nothing fits at 5
        assert search_at_degree(inst, 5) is None


def test_cofactor_count_cap():
    R10 = PolyRing(tuple(f"v{i}" for i in range(3)))
    gens = tuple(R10.var(i) + 1 for i in range(3))
    big = MembershipInstance(
        R10, Ideal(R10, []), gens * 4, R10.one(), power=5
    )
    with pytest.raises(BudgetExceededError, match="cofactor"):
        search_at_degree(big, 6)
