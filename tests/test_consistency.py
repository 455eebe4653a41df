"""Cross-cutting consistency: solvers and order choices must never
disagree."""

import random
import time
from fractions import Fraction
from itertools import islice, pairwise
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oracles import block, dense_solve, markowitz_solve, whole_system

from brisk import certificate, linalg
from brisk.certificate import MembershipInstance, minimal_degree, search_at_degree
from brisk.errors import BudgetExceededError
from brisk.families import cusp, kollar
from brisk.groebner import Budget, Ideal, buchberger, eliminate
from brisk.linalg import P, _primes, infeasibility_witness, solve_sparse
from brisk.orders import lex
from brisk.polyring import MultiPoly, PolyRing

R = PolyRing(("z1", "z2"))
Z1, Z2 = R.gens()


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

    def test_pivot_row_tie_break(self):
        # every pivot column has live rows of equal length: column 3 is
        # held by rows 2 and 3, then column 0 by rows 0, 1 and 3 (or 0, 1
        # and 2).  Lowest index first pivots on rows 2 and 0, and the fill
        # leaves column 2 free; highest first pivots on rows 3 and 2 and
        # leaves column 4 free
        rows = [
            {2: -1, 4: 1, 1: 2, 0: -1},
            {4: -2, 2: -2, 1: -1, 0: 2},
            {4: 2, 1: -1, 3: 3, 2: -2},
            {1: 1, 3: -1, 0: 2, 4: 1},
        ]
        rows = [{c: Fraction(v) for c, v in row.items()} for row in rows]
        rhs = [Fraction(v) for v in (5, 3, 4, 5)]
        want = [Fraction(86, 33), Fraction(13, 3), Fraction(0), Fraction(115, 33), Fraction(-35, 33)]
        assert solve_sparse(rows, rhs, 5) == want
        assert markowitz_solve(rows, rhs, 5) == want

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

    def test_explicit_zero_entries(self):
        # an explicit zero is no entry: it must never be chosen as a pivot,
        # and a row of zeros with a nonzero rhs is infeasible
        assert solve_sparse([{0: Fraction(0), 1: Fraction(1)}], [Fraction(1)], 2) == [0, 1]
        assert solve_sparse([{0: Fraction(0)}], [Fraction(1)], 1) is None
        self._check([{0: Fraction(0), 1: Fraction(1)}], [Fraction(1)], 2)
        self._check([{0: Fraction(0)}], [Fraction(1)], 1)
        rng = random.Random(5150)
        for trial in range(80):
            nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
            rows = [
                {
                    c: Fraction(rng.choice([0, 0, -2, -1, 1, 3]), rng.randint(1, 2))
                    for c in rng.sample(range(ncols), rng.randint(1, ncols))
                }
                for _ in range(nrows)
            ]
            if trial % 2 == 0:
                x = [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
                rhs = [sum(v * x[c] for c, v in row.items()) for row in rows]
            else:
                rhs = [Fraction(rng.randint(-4, 4)) for _ in range(nrows)]
            self._check(rows, rhs, ncols)

    def test_int_entries_give_the_fraction_answer(self):
        # the certificate search passes whole coefficients as ints
        def whole(v):
            return v.numerator if v.denominator == 1 else v

        rng = random.Random(6262)
        for trial in range(60):
            nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
            rows = [
                {
                    c: Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 1, 2]))
                    for c in rng.sample(range(ncols), rng.randint(1, ncols))
                }
                for _ in range(nrows)
            ]
            if trial % 2 == 0:
                x = [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
                rhs = [sum(v * x[c] for c, v in row.items()) for row in rows]
            else:
                rhs = [Fraction(rng.randint(-4, 4)) for _ in range(nrows)]
            mixed = [{c: whole(v) for c, v in row.items()} for row in rows]
            mixed_rhs = [whole(b) for b in rhs]
            got = solve_sparse(mixed, mixed_rhs, ncols)
            assert got == self._check(rows, rhs, ncols)
            assert got is None or all(isinstance(v, Fraction) for v in got)
            assert infeasibility_witness(mixed, mixed_rhs, ncols) == (
                infeasibility_witness(rows, rhs, ncols)
            )

    def test_int_rows_are_shared_and_left_unchanged(self):
        # a row of nonzero ints with content 1 is used as it is, one with
        # content 2 loses it; entries at or past P make a reduced copy
        rows = [{0: 1, 1: 2}, {0: 2, 2: 4}, {1: P + 3, 2: 1}, {0: 3, 1: 1, 2: 5}]
        rhs = [1, 6, 1, 8]  # x = (1, 0, 1)
        kept = [dict(row) for row in rows]
        irows = [linalg._integerize(row, b) for row, b in zip(rows, rhs)]
        assert irows[0][0] is rows[0]
        assert irows[1] == ({0: 1, 2: 2}, 3)
        fractions = [{c: Fraction(v) for c, v in row.items()} for row in rows]
        got = self._check(rows, rhs, 3)
        assert got == [1, 0, 1] == self._check(fractions, [Fraction(b) for b in rhs], 3)
        assert rows == kept
        rhs[3] = 9
        assert solve_sparse(rows, rhs, 3) is None
        assert_witness(rows, rhs, 3, infeasibility_witness(rows, rhs, 3))
        assert rows == kept

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
        # the modular solve returns what the elimination over Q returns
        assert got == markowitz_solve(sparse_rows, rhs, ncols)
        witness = infeasibility_witness(sparse_rows, list(rhs), ncols)
        if got is not None:
            for row, b in zip(dense, rhs):
                assert sum(a * v for a, v in zip(row, got)) == b
            assert witness is None
        else:
            assert_witness(sparse_rows, rhs, ncols, witness)
        return got


def assert_witness(rows, rhs, ncols, y):
    """y^T A = 0 and y^T b != 0 over Fraction, on the caller's rows."""
    assert y is not None and len(y) == len(rows)
    assert all(isinstance(v, Fraction) for v in y)
    total = [Fraction(0)] * ncols
    for yr, row in zip(y, rows):
        for c, v in row.items():
            total[c] += yr * v
    assert not any(total)
    assert sum(yr * b for yr, b in zip(y, rhs)) != 0


class TestPrimeFailures:
    """Systems built to defeat primes of the modular solve: each returns
    exactly what the elimination over Q returns."""

    @staticmethod
    def _same(rows, rhs, ncols):
        rows = [{c: Fraction(v) for c, v in row.items()} for row in rows]
        rhs = [Fraction(b) for b in rhs]
        return TestSparseSolverAgainstDenseOracle._check(rows, rhs, ncols)

    def test_coefficient_equal_to_the_prime(self):
        assert self._same([{0: P}], [1], 1) == [Fraction(1, P)]
        assert self._same([{0: 2 * P, 1: 1}, {1: 1}], [3, 1], 2) == [Fraction(1, P), 1]

    def test_pivot_block_with_determinant_the_prime(self):
        rows = [{0: 1, 1: 1}, {0: 1, 1: 1 + P}]
        assert self._same(rows, [1, 1], 2) == [1, 0]
        # consistent over Q, but inconsistent mod P
        assert self._same(rows, [1, 2], 2) == [1 - Fraction(1, P), Fraction(1, P)]
        # infeasible; mod P the second row vanishes, the third takes its
        # pivot, and the witness found mod P holds over Q
        self._same(rows + [{0: 2, 1: 3}], [1, 2, 5], 2)

    def test_infeasible_over_q_but_consistent_mod_p(self):
        start = time.process_time()
        assert self._same([{0: 1}, {0: 1}], [0, P], 1) is None
        assert self._same([{0: 2}, {0: 2}], [1, 1 + 2 * P], 1) is None
        assert time.process_time() - start < 0.5

    def test_solution_needs_several_lifting_steps(self):
        rng = random.Random(61)
        n = 4
        for _ in range(5):
            rows = [{c: rng.randint(-(2**40), 2**40) for c in range(n)} for _ in range(n)]
            rhs = [rng.randint(-(2**40), 2**40) for _ in range(n)]
            x = self._same(rows, rhs, n)
            assert x is not None
            # one step lifts mod P, reconstruction needs modulus > 2 N D
            assert max(max(abs(v.numerator), v.denominator) for v in x) > P**2

    def test_witness_needs_several_lifting_steps(self):
        # the last row is a combination of the others with coefficients
        # of about 120 bits, and its right-hand side is off by one
        rng = random.Random(62)
        n = 4
        rows = [{c: rng.randint(-(2**40), 2**40) for c in range(n + 2)} for _ in range(n)]
        rhs = [rng.randint(-(2**40), 2**40) for _ in range(n)]
        coeffs = [Fraction(rng.randint(1, 2**60), rng.randint(1, 2**60)) for _ in range(n)]
        last = {c: sum(k * row[c] for k, row in zip(coeffs, rows)) for c in range(n + 2)}
        rows.append(last)
        rhs.append(sum(k * b for k, b in zip(coeffs, rhs)) + 1)
        assert self._same(rows, rhs, n + 2) is None

    def test_system_that_defeats_two_primes(self, monkeypatch):
        # q is the next prime: an entry P*q and a pivot minor P*q (from the
        # entry 1 + P*q) vanish mod P and mod q, and the third prime answers
        q, third = list(islice(_primes(), 3))[1:]
        tried = []
        solve_modular = linalg._solve_modular

        def spy(irows, ncols, p):
            answer = solve_modular(irows, ncols, p)
            tried.append((p, answer is None))
            return answer

        monkeypatch.setattr(linalg, "_solve_modular", spy)
        cases = [
            ([{0: P * q, 1: 1}, {1: 1}], [3, 1], 2, [Fraction(2, P * q), 1]),
            ([{0: 1, 1: 1}, {0: 1, 1: 1 + P * q}], [1, 2], 2,
             [1 - Fraction(1, P * q), Fraction(1, P * q)]),
            # infeasible over Q, consistent mod P and mod q
            ([{0: 1}, {0: 1}], [0, P * q], 1, None),
        ]
        for rows, rhs, ncols, want in cases:
            tried.clear()
            assert self._same(rows, rhs, ncols) == want
            # solve_sparse and infeasibility_witness each run the sequence
            assert tried == [(P, True), (q, True), (third, False)] * 2

    def test_prime_sequence(self):
        primes = list(islice(_primes(), 40))
        assert primes[0] == P
        assert all(a > b for a, b in zip(primes, primes[1:]))
        # each listed number passes Fermat's test, and every odd number
        # between two of them has a Fermat witness (so none of them is prime)
        bases = (2, 3, 5, 7, 11, 13)
        assert all(pow(w, p - 1, p) == 1 for p in primes for w in bases)
        for a, b in zip(primes, primes[1:]):
            for n in range(b + 2, a, 2):
                assert any(pow(w, n - 1, n) != 1 for w in bases)

    def test_length_mismatch_is_an_error(self):
        rows = [{0: Fraction(1)}, {0: Fraction(1)}]
        with pytest.raises(ValueError):
            solve_sparse(rows, [Fraction(1)], 1)
        with pytest.raises(ValueError):
            solve_sparse(rows[:1], [Fraction(1), Fraction(2)], 1)
        with pytest.raises(ValueError):
            infeasibility_witness(rows, [Fraction(1)], 1)


class TestBlock:
    """A search solves only the block of NF(Phi): the rows and columns
    that the rows with a nonzero right-hand side reach.  The oracle walks
    the whole system for that block, whose answers, padded with 0, are
    the whole system's."""

    @staticmethod
    def _same_as_the_whole_system(rows, rhs, ncols):
        ris, cols, brows = block(rows, rhs, ncols)
        brhs = [rhs[ri] for ri in ris]
        solution = solve_sparse(rows, rhs, ncols)
        witness = infeasibility_witness(rows, rhs, ncols)
        on_block = solve_sparse(brows, brhs, len(cols))
        assert (on_block is None) == (solution is None)
        if on_block is not None:
            padded = [Fraction(0)] * ncols
            for c, v in zip(cols, on_block):
                padded[c] = v
            assert padded == solution
        y = infeasibility_witness(brows, brhs, len(cols))
        assert (y is None) == (witness is None)
        if y is not None:
            padded = [Fraction(0)] * len(rows)
            for ri, v in zip(ris, y):
                padded[ri] = v
            assert padded == witness
            assert_witness(rows, rhs, ncols, witness)
        return solution

    @staticmethod
    def _blocks(rng):
        """Up to five independent blocks on disjoint, shuffled columns,
        their rows interleaved; a block's right-hand side is 0, planted
        feasible or random."""
        nblocks = rng.randint(1, 5)
        ncols = rng.randint(nblocks, 30)
        cols = rng.sample(range(ncols), ncols)
        cuts = sorted(rng.sample(range(1, ncols), nblocks - 1))
        rows, rhs = [], []
        for own in (cols[a:b] for a, b in pairwise([0, *cuts, ncols])):
            kind = rng.choice(["zero", "planted", "random"])
            x = {c: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for c in own}
            for _ in range(rng.randint(1, len(own) + 2)):
                row = {
                    c: Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 3))
                    for c in rng.sample(own, rng.randint(1, min(3, len(own))))
                }
                if kind == "zero":
                    b = Fraction(0)
                elif kind == "planted":
                    b = sum(v * x[c] for c, v in row.items())
                else:
                    b = Fraction(rng.randint(-4, 4))
                at = rng.randint(0, len(rows))
                rows.insert(at, row)
                rhs.insert(at, b)
        return rows, rhs, ncols

    def test_random_block_systems(self):
        rng = random.Random(3131)
        found = infeasible = 0
        for _ in range(300):
            rows, rhs, ncols = self._blocks(rng)
            if self._same_as_the_whole_system(rows, rhs, ncols) is None:
                infeasible += 1
            else:
                found += 1
        assert found > 50 and infeasible > 50

    def test_dense_systems(self):
        # one block, or rows of zeros and a zero right-hand side off it
        rng = random.Random(3132)
        for trial in range(100):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
            rows = [
                {c: Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)) for c in range(ncols)}
                for _ in range(nrows)
            ]
            if trial % 3 == 0:
                x = [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
                rhs = [sum(v * x[c] for c, v in row.items()) for row in rows]
            else:
                rhs = [Fraction(rng.choice([0, 0, -2, 1, 3])) for _ in range(nrows)]
            if trial % 4 == 0:
                rows.insert(rng.randint(0, nrows), {})
                rhs.insert(rng.randint(0, nrows), Fraction(0))
            self._same_as_the_whole_system(rows, rhs, ncols)

    def test_all_right_hand_sides_zero(self):
        rows = [{0: 1, 1: 2}, {1: 3}]
        assert self._same_as_the_whole_system(rows, [0, 0], 3) == [0, 0, 0]

    @staticmethod
    def _spy(monkeypatch):
        sizes = []  # (rows, columns) of each system the modular solve eliminates
        solve_modular = linalg._solve_modular

        def spy(irows, ncols, p):
            sizes.append((len(irows), ncols))
            return solve_modular(irows, ncols, p)

        monkeypatch.setattr(linalg, "_solve_modular", spy)
        return sizes

    def test_kollar_system_is_solved_on_its_block(self, monkeypatch):
        sizes = self._spy(monkeypatch)
        inst = kollar(3, 3, 3).instance
        budget = Budget(max_matrix_entries=10**9)
        source = certificate._Columns(inst, 27, None, budget)
        labels, _, rows, rhs = whole_system(source, 27)
        want = solve_sparse(rows, rhs, len(labels))
        assert sizes == [(4057, 8775)]
        sizes.clear()
        got = search_at_degree(inst, 27, budget=budget)
        assert sizes == [(22, 31)]
        assert got.cofactors == cofactors_of(inst, source, labels, want) and got.verified

    def test_kollar_533_block_at_its_minimal_degree(self, monkeypatch):
        # the whole system at rho = 125 is 341371 x 907863
        sizes = self._spy(monkeypatch)
        cert = search_at_degree(kollar(5, 3, 3).instance, 125, budget=Budget(max_matrix_entries=10**12))
        assert sizes == [(81, 131)]
        assert cert.verified and cert.rho == 125

    def test_cusp_row_holding_no_column(self, monkeypatch):
        # NF(Phi) = z1, and every column is a multiple of z2 or of z1^2
        sizes = self._spy(monkeypatch)
        inst = cusp(5).instance
        assert search_at_degree(inst, 6) is None
        assert sizes == [(1, 0)]
        labels, _, rows, rhs = whole_system(certificate._Columns(inst, 6, None, Budget()), 6)
        ncols = len(labels)
        assert ncols > 0
        r, = (ri for ri, b in enumerate(rhs) if b)
        assert not rows[r]
        y = infeasibility_witness(rows, rhs, ncols)
        assert y == [Fraction(ri == r) for ri in range(len(rows))]
        assert_witness(rows, rhs, ncols, y)
        ris, cols, brows = block(rows, rhs, ncols)
        assert (ris, cols, brows) == ([r], [], [{}])
        assert infeasibility_witness(brows, [rhs[r]], 0) == [1]


def cofactors_of(inst, source, labels, solution):
    """The cofactors {I: MultiPoly} that ``solution`` gives the columns
    ``labels``, or None for no solution."""
    if solution is None:
        return None
    terms: dict = {}
    for (index, shift), c in zip(labels, solution):
        if c:
            terms.setdefault(index, {})[source.packing.unpack(shift)] = c
    return {index: MultiPoly(inst.ring, t) for index, t in terms.items()}


def _random_poly(rng, ring, degree, terms, constant=True):
    exps = [e for e in ring.exponents_up_to(degree) if constant or any(e)]
    poly = ring.zero()
    for e in rng.sample(exps, min(terms, len(exps))):
        poly = poly + ring.monomial(e, Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)))
    return poly


def _search_cases():
    """(name, instance, rho, caps): random sparse instances over C^N with
    Fraction coefficients, per-generator caps and power 2, one whose
    NF(Phi) has a row no column holds, and instances on the cusp and the
    twisted cubic."""
    rng = random.Random(3434)
    cases = []
    for k in range(24):
        ring = PolyRing(tuple(f"z{i}" for i in range(1, rng.randint(2, 3) + 1)))
        gens = tuple(
            _random_poly(rng, ring, rng.randint(1, 3), rng.randint(1, 3)) or ring.var(0)
            for _ in range(rng.randint(1, 3))
        )
        power = 2 if k % 4 == 3 else 1
        if k % 2:
            phi = _random_poly(rng, ring, 3, 3)
        else:
            phi = sum(
                (g * _random_poly(rng, ring, 2, 2) for g in gens), ring.zero()
            ) ** power or ring.one()
        caps = None
        if k % 3 == 1:
            caps = {j: rng.randint(0, 3) for j in range(len(gens))} if power == 1 else None
        inst = MembershipInstance(ring, Ideal(ring, []), gens, phi, power)
        cases.append((f"random{k}", inst, rng.randint(2, 5 + 2 * power), caps))
    z1, z2 = R.gens()
    unheld = MembershipInstance(R, Ideal(R, []), (z1**2, z1 * z2), z1 * z2**2 + z2)
    cases += [("unheld_row", unheld, rho, None) for rho in (1, 3, 4)]
    S = PolyRing(("z1",))
    (s,) = S.gens()
    line = MembershipInstance(S, Ideal(S, []), (s**2 - 1, s**3), s**4 - s**2 + s**3)
    cases += [("one_variable", line, rho, None) for rho in (2, 3, 4)]
    cusp_ideal = cusp(5).instance.variety
    for rho in (3, 6, 10):
        cases.append(("cusp5", cusp(5).instance, rho, None))
        cases.append(("cusp3_caps", cusp(3).instance, rho, {0: 2}))
        gens = (z1 + z2, z2**2 - 1)
        inst = MembershipInstance(R, cusp_ideal, gens, gens[0] * z1 + gens[1] * z2**2)
        cases.append(("cusp5_two_gens", inst, rho, None))
    T = PolyRing(("z1", "z2", "z3"))
    t1, t2, t3 = T.gens()
    cubic = Ideal(T, [t2 - t1**2, t3 - t1**3])
    for phi in (t1, t2 * t3 + t1 - 1, t1 * t3 - t2**2 + t3):
        inst = MembershipInstance(T, cubic, (t1 - 1, t2 + t3), phi)
        cases += [("twisted_cubic", inst, rho, None) for rho in (1, 2, 4)]
    inst = MembershipInstance(T, cubic, (t1, t3 - 1), t1 * t3 + t2, power=2)
    cases += [("twisted_cubic_power2", inst, rho, None) for rho in (2, 4)]
    return cases


@pytest.mark.parametrize(
    "name, inst, rho, caps", _search_cases(), ids=lambda v: v if isinstance(v, str) else ""
)
def test_search_builds_the_block_of_the_whole_system(name, inst, rho, caps):
    # the search's block is the oracle's block of the whole system: same
    # rows, same columns, same order, and the certificate (or None) that
    # the whole system gives
    budget = Budget(max_matrix_entries=10**12)
    source = certificate._Columns(inst, rho, caps, budget)
    labels, keys, rows, rhs = whole_system(source, rho)
    ris, cols, brows = block(rows, rhs, len(labels))
    tops = source.tops(rho)
    if not tops:
        assert not labels
        assert search_at_degree(inst, rho, caps, budget) is None
        return
    got_labels, got_rows = certificate._reach(
        certificate._Columns(inst, rho, caps, budget), rho, tops
    )
    assert got_labels == [labels[c] for c in cols]
    assert list(got_rows) == [keys[ri] for ri in ris]
    assert [list(row.items()) for row in got_rows.values()] == [list(row.items()) for row in brows]
    cert = search_at_degree(inst, rho, caps, budget)
    want = cofactors_of(inst, source, labels, solve_sparse(rows, rhs, len(labels)))
    assert (cert and cert.cofactors) == want


@pytest.mark.parametrize(
    "inst, rho, caps",
    [
        (kollar(3, 2, 2).instance, 9, None),
        (kollar(2, 3, 3).instance, 8, {0: 3}),
        (cusp(5).instance, 12, None),
        (_search_cases()[-1][1], 4, None),  # power 2 on the twisted cubic
    ],
    ids=["kollar322", "kollar233_caps", "cusp5", "twisted_cubic_power2"],
)
def test_meter_refuses_at_the_first_column_past_the_cap(inst, rho, caps):
    # the whole system built column by column: after column c the rows
    # number sizes[c - 1], and a cap refuses at the first c with
    # sizes[c - 1] * c over it.  Every cap at and below each such
    # product is tried, so every batch boundary and every column inside
    # a batch
    source = certificate._Columns(inst, rho, caps, Budget())
    rows, sizes = set(source.phi), []
    for _, col in source.columns(rho):
        rows.update(col)
        sizes.append(len(rows))
    tops = source.tops(rho)
    products = [n * c for c, n in enumerate(sizes, 1)]
    for cap in sorted({p - d for p in products for d in (0, 1)}):
        c = next((c for c, p in enumerate(products, 1) if p > cap), None)
        if c is None:
            certificate._meter(source, rho, tops, cap)
            continue
        with pytest.raises(BudgetExceededError) as err:
            certificate._meter(source, rho, tops, cap)
        assert f"reaches {sizes[c - 1]}x{c}, over {cap} entries" in str(err.value)


@st.composite
def wide_systems(draw):
    """Small integer systems with at least twice as many columns as rows,
    so most pivot rows hold free columns, and a vector to solve for."""
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(2 * nrows, 2 * nrows + 3))
    entry = st.integers(-9, 9).filter(bool)
    rows = [
        draw(st.dictionaries(st.integers(0, ncols - 1), entry, min_size=1, max_size=4))
        for _ in range(nrows)
    ]
    rhs = draw(st.lists(st.integers(-9, 9), min_size=nrows, max_size=nrows))
    u = draw(st.lists(st.integers(-(10**6), 10**6), min_size=nrows, max_size=nrows))
    return rows, rhs, ncols, u


class TestRestrictedFactors:
    """``_Factors`` holds L, U and B on the pivot columns only.  Its
    solves are B^-1 u and B^-T u mod P for the pivot block B over Z, and
    a solution and a witness that each take three lifting steps keep
    their exact values."""

    @staticmethod
    def _factors(rows, rhs, ncols):
        irows = [linalg._integerize(row, b) for row, b in zip(rows, rhs)]
        caught = []

        def catch(irows, *rest):
            caught.append(rest[-1])
            return True, None

        with mock.patch.object(linalg, "_lift_solution", catch), mock.patch.object(
            linalg, "_lift_witness", catch
        ):
            linalg._solve_modular(irows, ncols, P)
        return irows, caught[0]

    @staticmethod
    def _mod_p(values):
        return [v.numerator * pow(v.denominator, -1, P) % P for v in values]

    @settings(max_examples=150, deadline=None)
    @given(wide_systems())
    def test_solves_against_the_dense_block(self, system):
        rows, rhs, ncols, u = system
        irows, factors = self._factors(rows, rhs, ncols)
        block = [
            [Fraction(irows[ri][0].get(col, 0)) for col, _ in factors.pivots]
            for _, ri in factors.pivots
        ]
        u = [Fraction(e) for e in u[: len(block)]]
        assert factors.solve(u) == self._mod_p(dense_solve(block, u))
        transposed = [list(col) for col in zip(*block)]
        assert factors.solve_transposed(u) == self._mod_p(dense_solve(transposed, u))

    @staticmethod
    def _system(seed):
        """Five rows on ten columns with four entries of up to 12 bits, and
        a sixth row that combines them with 16-bit fractions and whose
        right-hand side is off by one."""
        rng = random.Random(seed)
        rows = [
            {c: rng.choice([-1, 1]) * rng.randint(1, 4095) for c in rng.sample(range(10), 4)}
            for _ in range(5)
        ]
        rhs = [rng.randint(-4095, 4095) for _ in range(5)]
        k = [Fraction(rng.randint(1, 2**16), rng.randint(1, 2**16)) for _ in range(5)]
        last: dict[int, Fraction] = {}
        for kk, row in zip(k, rows):
            for c, v in row.items():
                last[c] = last.get(c, 0) + kk * v
        return rows, rhs, rows + [last], rhs + [sum(a * b for a, b in zip(k, rhs)) + 1]

    @staticmethod
    def _count_steps(monkeypatch):
        steps = []
        for name in ("solve", "solve_transposed"):
            real = getattr(linalg._Factors, name)

            def counted(self, u, real=real):
                steps.append(None)
                return real(self, u)

            monkeypatch.setattr(linalg._Factors, name, counted)
        return steps

    def test_found_after_three_lifting_steps(self, monkeypatch):
        rows, rhs, _, _ = self._system(2202)
        steps = self._count_steps(monkeypatch)
        F = Fraction
        assert solve_sparse(rows, rhs, 10) == [
            F(184287, 240956), F(-2027, 3063), 0, F(-67, 88), F(-3206125, 1517206),
            0, F(918796585, 1116108192), 0, 0, 0,
        ]
        assert len(steps) == 3

    def test_not_found_after_three_lifting_steps(self, monkeypatch):
        _, _, rows, rhs = self._system(2202)
        steps = self._count_steps(monkeypatch)
        assert infeasibility_witness(rows, rhs, 10) == [
            -1306282563227693832330, -77944847890139993180, -97606626663377476040,
            -60590646889104212496, -1111099987090141200855, 121372995202836114210,
        ]
        assert len(steps) == 3
        assert_witness(rows, rhs, 10, infeasibility_witness(rows, rhs, 10))


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
