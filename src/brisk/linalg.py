"""Sparse linear algebra over Q: one solution of A x = b or a proof that
there is none.  The solver takes any system it is given; a caller that
caps the size of its systems meters them while it builds them.

Rows are dicts {column index: coefficient}; the coefficients, and the
right-hand sides, may be ints or Fractions.  ``_integerize`` scales each
row and its right-hand side to integers with their content divided out,
so the integer system A' x = b' has the solutions of A x = b.  A row of
nonzero ints with content 1 is used as it is; the elimination copies a
row before it changes it.

``solve_sparse`` eliminates A' modulo a prime p, lifts the answer to Q,
and checks it exactly before it returns it.

- **Block.**  Before ``_integerize``, ``_block`` keeps the rows and
  columns that the rows with a nonzero right-hand side reach in the
  row-column graph, in their original order, and renumbers the columns
  0..k-1; only that block is integerized and solved.  The rest of the
  system is homogeneous and shares no row or column with the block, so
  the solution and the witness are 0 there.  The answer is the whole
  system's: a pivot's Markowitz count, fill and ties read only the rows
  that hold its column, and the renumbering keeps the lowest-index
  ties, so the block's pivots are those the whole elimination picks; B
  is block-diagonal, so the lifting digits, the reconstruction, the bad
  row and lambda are the same.  A system that is one block pays only
  the O(nnz) search.
- **Pivots.**  Markowitz's rule in its simplest form: the next pivot
  column is one held by the fewest live (not yet pivot) rows, lowest
  index first; within it the pivot row is the shortest, lowest index
  first.  So the computation, and the returned solution, is
  deterministic.  The counts are kept incrementally instead of being
  recounted at every pivot.  ``where[c]`` lists the rows that hold
  column c, ``live[c]`` says how many of them are live, and a heap holds
  the keys ``live[c] * ncols + c``; a key whose count no longer matches
  ``live[c]`` is stale and skipped when popped.  Clearing the pivot
  column from a row adds a multiple of the pivot row, so only the pivot
  row's columns can appear in a row (fill-in) or cancel out of it; a
  pivot updates the bookkeeping, and pushes a fresh heap key, for those
  columns alone.  The choice reads only the live rows' zero patterns.
- **Elimination mod p.**  Each pivot row is made monic and its column is
  cleared from the live rows only.  Each reduction ``v[t] -= f * v[s]``
  is recorded with its row t as (pivot position of s, f), and the
  factor that made each pivot row monic is kept in pivot order.  The
  pivot rows on the pivot columns form a square block B = L U,
  invertible mod p.  After the elimination ``_Factors`` builds L, U and
  B over Z once, indexed by pivot position, and the rows as eliminated
  are freed.  L is lower triangular; its entries are the reductions
  recorded for the rows that became pivots.  U is the pivot rows as
  they were chosen, unit upper triangular in pivot order.  U and B are
  held on the pivot columns only: their entries in free columns, which
  hold 0 in every solution, are dropped.  So B^-1 u is a forward and a
  back substitution, and B^-T u the same with the transposes in reverse.
- **Found.**  Dixon lifting: x_k = B^-1 r_k mod p in balanced digits and
  r_{k+1} = (r_k - B x_k) / p from r_0 = b' on the pivot rows, so that
  sum x_k p^k = B^-1 b' mod p^(k+1).  No step reads a free column.
  After each step the sum goes through rational reconstruction with one
  common denominator; a zero residual means the sum is exact.  A
  candidate is returned only when A' x = b' holds exactly on every row.
  Free columns are 0.
- **NotFound.**  A row that is no pivot and whose right-hand side is
  nonzero mod p reads 0 = c.  Over Q the row combination behind it is
  y = e_i - lambda, with B^T lambda = (row i on the pivot columns);
  lambda is lifted in the same way from B^-T and B^T.  ``None`` is
  returned only when y^T A' = 0 on every column and y^T b' != 0
  exactly.
- **Lifting bound.**  By Hadamard's inequality the Cramer numerators and
  the denominator of B^-1 b' are at most N, N^2 = prod_k (|A'_k|^2 +
  b'_k^2) over the pivot rows (for lambda, N^2 = |a|^2 prod_k |A'_k|^2),
  and the reconstruction is unique once p^k > 2 N^2.  Lifting stops
  there.  The bound is the block's, at most the whole system's; past
  it the reconstruction only repeats the candidate already checked.
- **Primes.**  A prime fails when it divides an entry of the block,
  when lifting passes the bound without a checked answer, or when the
  exact solution of the pivot block fails the check.  The solve then
  starts again with the next prime of one fixed sequence: P = 2^30 -
  35, the largest prime below 2^30, then the primes below it in
  descending order.  Below 2^30 every residue is one CPython digit, so
  the elimination's products and remainders take the interpreter's
  single-digit fast paths.  A prime that divides no nonzero entry or
  minor of the block's [A' | b'] sees the zero patterns, and so the
  pivots, of the elimination over Q; its lifted answer is exact and
  passes the check, and a Found answer is the solution of the
  elimination over Q.  Only finitely many primes divide one of those
  finitely many nonzero integers, so the sequence reaches an answer.
  An entry off the block that a prime divides does not fail the prime:
  that is the one way the primes tried differ from a solve of the whole
  system.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate, pairwise
from math import gcd, isqrt
from operator import mul

from .fields import _is_probable_prime

P = (1 << 30) - 35  # the largest prime below 2^30


def _primes(start: int = P):
    """The primes from ``start`` (odd) down, in descending order.  Below
    2^30 the deterministic Miller-Rabin test is a few one-digit powers."""
    p = start
    while True:
        if _is_probable_prime(p):
            yield p
        p -= 2


def _integerize(row: dict[int, Fraction | int], rhs: Fraction | int):
    """(row, rhs) scaled to integers with their content divided out.  A
    row of nonzero ints with an int right-hand side only loses its
    content, and comes back as it is (shared) when that is 1."""
    if type(rhs) is int and all(type(v) is int and v for v in row.values()):
        content = gcd(rhs, *row.values())
        if content <= 1:
            return row, rhs
        return {c: v // content for c, v in row.items()}, rhs // content
    denom = rhs.denominator
    for v in row.values():
        denom = denom * v.denominator // gcd(denom, v.denominator)
    irow = {c: v.numerator * (denom // v.denominator) for c, v in row.items() if v}
    irhs = rhs.numerator * (denom // rhs.denominator)
    content = abs(irhs)
    for v in irow.values():
        content = gcd(content, abs(v))
    if content > 1:
        irow = {c: v // content for c, v in irow.items()}
        irhs //= content
    return irow, irhs


def _check_lengths(rows, rhs) -> None:
    if len(rows) != len(rhs):
        raise ValueError(f"{len(rows)} rows but {len(rhs)} right-hand sides")


def _block(rows, rhs, ncols):
    """(row indices, column indices, rows on the block) for the block of
    A x = b: the rows and columns that the rows with a nonzero right-hand
    side reach in the row-column graph, both in their original order, and
    those rows with their columns renumbered 0..k-1 in that order.  Off
    the block the system is homogeneous and shares no row or column with
    it, so there x = 0 and y = 0."""
    holders: list[list[int]] = [[] for _ in range(ncols)]
    for ri, row in enumerate(rows):
        for c in row:
            holders[c].append(ri)
    reached = [bool(b) for b in rhs]
    todo = [ri for ri, b in enumerate(reached) if b]
    seen = bytearray(ncols)
    while todo:
        for c in rows[todo.pop()]:
            if not seen[c]:
                seen[c] = 1
                for ri in holders[c]:
                    if not reached[ri]:
                        reached[ri] = True
                        todo.append(ri)
    ris = [ri for ri, r in enumerate(reached) if r]
    cols = [c for c, s in enumerate(seen) if s]
    if len(cols) == ncols:  # one block: the columns keep their numbers
        return ris, cols, [rows[ri] for ri in ris]
    index = dict(zip(cols, range(len(cols))))
    return ris, cols, [{index[c]: v for c, v in rows[ri].items()} for ri in ris]


def _solve_block(rows, rhs, ncols):
    """``_block``'s row and column indices, the block's integer rows, and
    ``_solve``'s answer for them."""
    _check_lengths(rows, rhs)
    ris, cols, brows = _block(rows, rhs, ncols)
    irows = [_integerize(row, rhs[ri]) for ri, row in zip(ris, brows)]
    return ris, cols, irows, _solve(irows, len(cols), _primes())


def solve_sparse(
    rows: list[dict[int, Fraction | int]],
    rhs: list[Fraction | int],
    ncols: int,
) -> list[Fraction] | None:
    """One exact solution of A x = b (free variables set to 0), or None
    when the system is infeasible.  The entries of ``rows`` and ``rhs``
    may be ints or Fractions; the solution holds Fractions.

    Only the block that the nonzero right-hand sides reach is solved; the
    solution is 0 off it.  The block is eliminated modulo a prime and the
    answer lifted to Q (see the module docstring).  A solution has passed
    A' x = b' on every row of the block, and every other row holds only
    columns where x = 0 and has right-hand side 0; a None has passed
    y^T A' = 0 and y^T b' != 0 for a witness y, which
    ``infeasibility_witness`` returns.  A length mismatch between
    ``rows`` and ``rhs`` is a ValueError.
    """
    _, cols, _, (feasible, value) = _solve_block(rows, rhs, ncols)
    if not feasible:
        return None
    solution = [Fraction(0)] * ncols
    for c, v in zip(cols, value):
        solution[c] = v
    return solution


def infeasibility_witness(
    rows: list[dict[int, Fraction]], rhs: list[Fraction], ncols: int
) -> list[Fraction] | None:
    """A y with y^T A = 0 and y^T b != 0 on the given rows, which proves
    that A x = b has no solution, or None when it has one.

    The witness is the checked one that ``solve_sparse`` finds on the
    block, scaled back from the integer rows to these; it is 0 off the
    block.
    """
    ris, cols, irows, (feasible, value) = _solve_block(rows, rhs, ncols)
    if feasible:
        return None
    y = [Fraction(0)] * len(rows)
    for r, v in value.items():
        # A'_r = s * A_r, so y'_r A'_r = (y'_r s) A_r
        (irow, ib), ri = irows[r], ris[r]
        c = next(iter(irow), None)
        s = Fraction(irow[c]) / rows[ri][cols[c]] if c is not None else Fraction(ib) / rhs[ri]
        y[ri] = v * s
    return y


def _solve(irows, ncols, primes):
    """(True, solution) or (False, witness {row: int}) for the integer
    system ``irows`` from the first of ``primes`` that does not fail."""
    for p in primes:
        answer = _solve_modular(irows, ncols, p)
        if answer is not None:
            return answer


def _solve_modular(irows, ncols, p):
    """(True, solution) or (False, witness {row: int} on the integer
    rows) for the integer system ``irows``, each answer checked over Q;
    None when the prime ``p`` fails."""
    # a row whose entries lie strictly between -p and p is its own
    # reduction mod p: it is shared with ``irows`` until an operation
    # changes it
    work = []
    for irow, _ in irows:
        if not all(-p < v < p for v in irow.values()):
            irow = {c: v % p for c, v in irow.items()}
            if not all(irow.values()):
                return None  # p divides an entry: the pattern mod p differs
        work.append(irow)
    wb = [b % p for _, b in irows]

    where: list[list[int]] = [[] for _ in range(ncols)]
    for ri, row in enumerate(work):
        for c in row:
            where[c].append(ri)
    live = [len(holders) for holders in where]
    heap = [n * ncols + c for c, n in enumerate(live) if n]
    heapify(heap)

    # the reductions of each row as flat (pivot position, factor) pairs,
    # and the factor that made each pivot row monic, in pivot order
    reductions: defaultdict[int, list[int]] = defaultdict(list)
    scales: list[int] = []
    pivots: list[tuple[int, int]] = []  # (column, row index)
    assigned = [False] * len(work)
    while heap:
        n, col = divmod(heappop(heap), ncols)
        if n != live[col]:
            continue  # stale key; the column was pivoted or recounted
        holders = where[col]
        if n == 1:
            prow = next(ri for ri in holders if not assigned[ri])
        else:
            prow = min(
                (ri for ri in holders if not assigned[ri]),
                key=lambda ri: (len(work[ri]), ri),
            )
        k = len(pivots)
        pivots.append((col, prow))
        assigned[prow] = True
        pr = work[prow]
        a = pr[col]
        inv = 1
        if a != 1:
            inv = pow(a, -1, p)
            pr = work[prow] = {c: v * inv % p for c, v in pr.items()}
            wb[prow] = wb[prow] * inv % p
        scales.append(inv)
        pb = wb[prow]
        others = [(c, v) for c, v in pr.items() if c != col]
        for c, _ in others:
            live[c] -= 1
        # a column held by its pivot row alone has no live row to clear
        for ri in holders if n > 1 else ():
            if assigned[ri]:
                continue  # pivot rows stay as they were chosen: they are U
            row = work[ri]
            if row is irows[ri][0]:
                row = work[ri] = dict(row)
            t = row.pop(col)
            reductions[ri] += k, t
            t = p - t  # the update adds (p - t) v
            wb[ri] = (wb[ri] + t * pb) % p
            for c, v in others:
                s = row.get(c)
                if s is None:
                    row[c] = t * v % p  # nonzero, as p is prime
                    where[c].append(ri)
                    live[c] += 1
                else:
                    s = (s + t * v) % p
                    if s:
                        row[c] = s
                    else:
                        del row[c]
                        where[c].remove(ri)
                        live[c] -= 1
        where[col] = [prow]
        live[col] = 0
        for c, _ in others:
            if live[c]:
                heappush(heap, live[c] * ncols + c)
    bad = next((ri for ri, b in enumerate(wb) if b and not assigned[ri]), None)
    # the factors and the lifting allocate; free what they do not read
    del where, heap, live, assigned, wb
    factors = _Factors(p, irows, pivots, ncols, work, reductions, scales)
    del work, reductions, scales
    if bad is None:
        return _lift_solution(irows, factors)
    return _lift_witness(irows, bad, factors)


class _Factors:
    """B = L U mod p, and B over Z, for the pivot block B: the pivot rows
    on the pivot columns, with rows and columns indexed by pivot
    position.  The rows that never became pivots, and every entry in a
    free column, are left out.

    Pivot row i as chosen is its original row less the multiples f_is of
    the earlier pivot rows s it was reduced by, scaled by ``scale[i]`` to
    be monic; so L has the diagonal 1 / scale[i] and the entries f_is,
    which ``reductions`` holds by row as flat (s, f_is) pairs.
    ``lower`` holds (i, earlier pivots s, f_is, scale[i]) for each row of
    L with an entry off the diagonal, and ``upper`` (i, later pivots,
    entries) for each row of U with one: pivot row i as chosen, on the
    pivot columns other than its own, which are all later pivots.  Both
    are in pivot order.  ``block`` is B over Z in compressed rows:
    (bounds, positions, entries), row i at ``bounds[i]:bounds[i + 1]``."""

    def __init__(self, p, irows, pivots, ncols, work, reductions, scale):
        self.p = p
        self.pivots = pivots
        self.ncols = ncols
        self.scale = scale
        # the pivot position of each column, -1 for none
        position = array("q", [-1]) * ncols
        for i, (col, _) in enumerate(pivots):
            position[col] = i
        self.upper, self.lower = [], []
        bounds, bjs, bvs = array("q", [0]), [], []
        for i, (_, ri) in enumerate(pivots):
            js = None
            for c, f in work[ri].items():
                j = position[c]
                if j <= i:  # the pivot's own column is at i, a free one at -1
                    continue
                if js is None:
                    js, fs = [j], [f]
                    self.upper.append((i, js, fs))
                else:
                    js.append(j)
                    fs.append(f)
            # a pivot row was reduced by earlier pivots only
            row = reductions.get(ri)
            if row:
                self.lower.append((i, row[::2], row[1::2], scale[i]))
            for c, v in irows[ri][0].items():
                j = position[c]
                if j >= 0:
                    bjs.append(j)
                    bvs.append(v)
            bounds.append(len(bvs))
        self.block = bounds, bjs, bvs

    def solve(self, u):
        """B^-1 u mod p.  u holds one entry per pivot row and the result
        one per pivot column, both in pivot order."""
        p = self.p
        # forward substitution with L, then back substitution with U, in
        # place: each row reads only entries already final
        v = [e * scale % p for e, scale in zip(u, self.scale)]
        for i, js, fs, scale in self.lower:
            v[i] = (v[i] - scale * sum(map(mul, fs, map(v.__getitem__, js)))) % p
        for i, js, fs in reversed(self.upper):
            v[i] = (v[i] - sum(map(mul, fs, map(v.__getitem__, js)))) % p
        return v

    def solve_transposed(self, u):
        """B^-T u mod p: forward substitution with U^T, then back
        substitution with L^T, each entry pushed, once final, into the
        entries it feeds.  u holds one entry per pivot column and the
        result one per pivot row, both in pivot order."""
        p = self.p
        v = list(u)
        for i, js, fs in self.upper:
            w = v[i] = v[i] % p
            for j, f in zip(js, fs):
                v[j] -= f * w
        for i, js, fs, scale in reversed(self.lower):
            w = v[i] % p * scale % p
            for j, f in zip(js, fs):
                v[j] -= f * w
        return [e * scale % p for e, scale in zip(v, self.scale)]

    def multiply(self, x):
        """B x over Z, x and the result in pivot order."""
        bounds, js, vs = self.block
        # row sums as differences of the running sum over all entries
        sums = [0, *accumulate(map(mul, vs, map(x.__getitem__, js)))]
        return [sums[b] - sums[a] for a, b in pairwise(bounds)]

    def multiply_transposed(self, y):
        """B^T y over Z, y and the result in pivot order."""
        bounds, js, vs = self.block
        out = [0] * len(y)
        for e, (a, b) in zip(y, pairwise(bounds)):
            if e:
                for j, v in zip(js[a:b], vs[a:b]):
                    out[j] += v * e
        return out


def _dixon(p, residual, solve_mod, multiply, bound, accept):
    """Lift the rational solution z of M z = residual from the solutions
    mod the prime p that ``solve_mod`` gives, where ``multiply`` applies M
    over Z.  Returns ``accept``'s value for the first reconstructed
    candidate it takes, or None once the modulus passes ``bound`` or the
    exact solution is rejected."""
    half = p // 2
    total = [0] * len(residual)
    modulus = 1
    rejected = None
    while True:
        digits = [d - p if d > half else d for d in solve_mod(residual)]
        total = [z + d * modulus for z, d in zip(total, digits)]
        modulus *= p
        residual = [(r - m) // p for r, m in zip(residual, multiply(digits))]
        exact = not any(residual)
        candidate = (total, 1) if exact else _reconstruct(total, modulus)
        if candidate is not None and candidate != rejected:
            result = accept(*candidate)
            if result is not None:
                return result
            rejected = candidate
        if exact or modulus > bound:
            return None


def _reconstruct(values, modulus):
    """(numerators, d) with values[i] = numerators[i] / d mod ``modulus``
    and every |numerator| and d at most sqrt(modulus / 2), or None."""
    bound = isqrt(modulus // 2)
    half = modulus // 2
    den = 1
    for v in values:
        u = v * den % modulus
        if u <= bound or modulus - u <= bound:
            continue
        # Wang's half extended Euclid on (modulus, u)
        r0, r1, t0, t1 = modulus, u, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            t0, t1 = t1, t0 - q * t1
        d = abs(t1)
        if d > bound or gcd(r1, d) != 1:
            return None
        den *= d
        if den > bound:
            return None
    nums = []
    for v in values:
        u = v * den % modulus
        if u > half:
            u -= modulus
        if abs(u) > bound:
            return None
        nums.append(u)
    return nums, den


def _lift_solution(irows, factors):
    pivots, ncols = factors.pivots, factors.ncols
    prows = [irows[ri] for _, ri in pivots]
    bound = 2
    for irow, b in prows:
        bound *= sum(v * v for v in irow.values()) + b * b

    def accept(nums, den):
        x = [0] * ncols
        for (col, _), v in zip(pivots, nums):
            x[col] = v
        for irow, ib in irows:
            if sum(v * x[c] for c, v in irow.items()) != den * ib:
                return None
        solution = [Fraction(0)] * ncols
        for col, _ in pivots:
            solution[col] = Fraction(x[col], den)
        return True, solution

    return _dixon(factors.p, [b for _, b in prows], factors.solve, factors.multiply, bound, accept)


def _lift_witness(irows, bad, factors):
    pivots, ncols = factors.pivots, factors.ncols
    brow = irows[bad][0]
    a = [brow.get(col, 0) for col, _ in pivots]
    bound = 2 * max(1, sum(v * v for v in a))
    for _, ri in pivots:
        bound *= sum(v * v for v in irows[ri][0].values())

    def accept(nums, den):
        # y = den e_bad - nums on the pivot rows
        y = {bad: den}
        for (_, ri), v in zip(pivots, nums):
            if v:
                y[ri] = -v
        total = [0] * ncols
        yb = 0
        for ri, yr in y.items():
            irow, ib = irows[ri]
            yb += yr * ib
            for c, v in irow.items():
                total[c] += yr * v
        if yb == 0 or any(total):
            return None
        return False, y

    return _dixon(
        factors.p, a, factors.solve_transposed, factors.multiply_transposed, bound, accept
    )

