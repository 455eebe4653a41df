"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately written from scratch against the plain
definitions (dense linear algebra, monomial enumeration, substitution),
sharing no code path with the package internals it cross-checks.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, prod

from brisk.polyring import MultiPoly, PolyRing


def monomials_of_degree(nvars: int, d: int) -> list[tuple[int, ...]]:
    out = []
    for combo in combinations_with_replacement(range(nvars), d):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return sorted(set(out))


def monomials_up_to(nvars: int, d: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for k in range(d + 1):
        out.extend(monomials_of_degree(nvars, k))
    return out


def s_polynomial(g1: MultiPoly, g2: MultiPoly, order) -> MultiPoly:
    """S(g1, g2) = (lcm / lt(g1)) g1 - (lcm / lt(g2)) g2, with the lead
    terms under ``order``, written out on exponent tuples."""
    (e1, c1), (e2, c2) = g1.leading(order), g2.leading(order)
    lcm = tuple(max(a, b) for a, b in zip(e1, e2))
    out: dict[tuple[int, ...], Fraction] = {}
    for g, e, c, sign in ((g1, e1, c1, 1), (g2, e2, c2, -1)):
        shift = tuple(a - b for a, b in zip(lcm, e))
        for exp, v in g.terms.items():
            key = tuple(a + b for a, b in zip(exp, shift))
            out[key] = out.get(key, 0) + sign * v / c
    return MultiPoly(g1.ring, out)


def dense_solve(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Plain dense Gauss-Jordan; returns a solution or None if infeasible."""
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    nrows = len(m)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if m[i][-1]:
            return None
    x = [Fraction(0)] * ncols
    for r_, c_ in pivots:
        x[c_] = m[r_][-1]
    return x


def markowitz_solve(rows: list[dict[int, Fraction]], rhs: list[Fraction], ncols: int):
    """Gauss-Jordan over Q on sparse rows with the pivot rule of the
    sparse solver, counted afresh at every pivot: the next pivot column is
    one held by the fewest live (not yet pivot) rows, lowest index first,
    and its pivot row the shortest live row holding it, lowest index
    first.  Explicit zeros are no entries.  Returns the solution with the
    free columns 0, or None if infeasible."""
    work = [
        ({c: Fraction(v) for c, v in row.items() if v}, Fraction(b))
        for row, b in zip(rows, rhs)
    ]
    live = set(range(len(work)))
    pivots = []
    while True:
        counts: dict[int, int] = {}
        for ri in live:
            for c in work[ri][0]:
                counts[c] = counts.get(c, 0) + 1
        if not counts:
            break
        col = min(counts, key=lambda c: (counts[c], c))
        prow = min(
            (ri for ri in live if col in work[ri][0]),
            key=lambda ri: (len(work[ri][0]), ri),
        )
        live.remove(prow)
        pivots.append((col, prow))
        pr, pb = work[prow]
        for ri, (row, b) in enumerate(work):
            if ri == prow or col not in row:
                continue
            f = row[col] / pr[col]
            out = dict(row)
            for c, v in pr.items():
                s = out.get(c, 0) - f * v
                if s:
                    out[c] = s
                else:
                    del out[c]
            work[ri] = (out, b - f * pb)
    # the live rows are empty now: each reads 0 = b
    if any(work[ri][1] for ri in live):
        return None
    x = [Fraction(0)] * ncols
    for col, ri in pivots:
        row, b = work[ri]
        x[col] = b / row[col]
    return x


def dense_rank(rows: list[list[Fraction]]) -> int:
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][c]
        for i in range(nrows):
            if i != rank and m[i][c]:
                f = m[i][c] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def minors(matrix, ring: PolyRing, size: int):
    """Every size x size minor of a MultiPoly matrix, row sets then column
    sets in lexicographic order, by Laplace expansion along the first row
    with one memo shared by all of them."""
    memo: dict = {}

    def rec(rows: tuple[int, ...], cols: tuple[int, ...]) -> MultiPoly:
        if len(rows) == 1:
            return matrix[rows[0]][cols[0]]
        key = (rows, cols)
        if key not in memo:
            acc = ring.zero()
            for t, j in enumerate(cols):
                if matrix[rows[0]][j]:
                    term = matrix[rows[0]][j] * rec(rows[1:], cols[:t] + cols[t + 1 :])
                    acc = acc + term if t % 2 == 0 else acc - term
            memo[key] = acc
        return memo[key]

    nr, nc = len(matrix), len(matrix[0]) if matrix else 0
    for rows in combinations(range(nr), size):
        for cols in combinations(range(nc), size):
            yield rec(rows, cols)


def evaluate(p: MultiPoly, point: list[int]):
    """The value of p at an integer point."""
    return sum((c * prod(v**x for v, x in zip(point, e)) for e, c in p.terms.items()), Fraction(0))


def generic_rank(matrix, ring: PolyRing) -> int:
    """Rank over the fraction field: the largest rank at four random
    integer points, a lower bound, raised while some larger minor is
    nonzero."""
    if not matrix or not matrix[0]:
        return 0
    rng = random.Random(0xB125C)
    rank = 0
    for _ in range(4):
        point = [rng.randint(-40, 40) or 1 for _ in range(ring.nvars)]
        rank = max(rank, dense_rank([[evaluate(p, point) for p in row] for row in matrix]))
    while rank < min(len(matrix), len(matrix[0])) and any(minors(matrix, ring, rank + 1)):
        rank += 1
    return rank


def fitting_ideal_gens(matrix, ring: PolyRing) -> list[MultiPoly]:
    """The distinct monic r x r minors of a MultiPoly matrix of generic
    rank r > 0, or [1] when r = 0: generators of the Fitting ideal whose
    zero set is the locus where the map drops rank."""
    r = generic_rank(matrix, ring)
    if r == 0:
        return [ring.one()]
    return list(dict.fromkeys(m.monic() for m in minors(matrix, ring, r) if m))


def poly_coeff_vector(p: MultiPoly, basis: list[tuple[int, ...]]) -> list[Fraction]:
    idx = {e: i for i, e in enumerate(basis)}
    out = [Fraction(0)] * len(basis)
    for e, c in p.terms.items():
        out[idx[e]] = c
    return out


def membership_by_linear_algebra(
    phi: MultiPoly,
    gens: list[MultiPoly],
    variety_gens: list[MultiPoly],
    deg_cap: int,
) -> bool:
    """Is phi = sum g_j h_j + sum v_k w_k with deg(g_j h_j), deg(v_k w_k)
    <= deg_cap?  Complete enumeration; a sufficient-cap membership oracle."""
    ring = phi.ring
    nv = ring.nvars
    columns: list[MultiPoly] = []
    for g in list(gens) + list(variety_gens):
        cap = deg_cap - int(g.degree())
        if cap < 0:
            continue
        for e in monomials_up_to(nv, cap):
            columns.append(ring.monomial(e, 1) * g)
    basis_set = set(phi.terms)
    for col in columns:
        basis_set.update(col.terms)
    basis = sorted(basis_set)
    rows = [[Fraction(0)] * len(columns) for _ in basis]
    ridx = {e: i for i, e in enumerate(basis)}
    for j, col in enumerate(columns):
        for e, c in col.terms.items():
            rows[ridx[e]][j] = c
    rhs = poly_coeff_vector(phi, basis)
    return dense_solve(rows, rhs) is not None


def syzygy_dimension_at_degree(
    polys: list[MultiPoly], degree: int
) -> int:
    """Dimension of { (h_1..h_s) homogeneous : sum h_j polys_j = 0 } with
    deg(h_j polys_j) = degree, by dense kernel computation."""
    ring = polys[0].ring
    nv = ring.nvars
    columns = []
    for p in polys:
        d = degree - int(p.degree())
        if d < 0:
            columns.append([])  # no monomials available
            continue
        columns.append([ring.monomial(e, 1) * p for e in monomials_of_degree(nv, d)])
    flat = [q for group in columns for q in group]
    if not flat:
        return 0
    basis_set = set()
    for q in flat:
        basis_set.update(q.terms)
    basis = sorted(basis_set)
    rows = [[Fraction(0)] * len(flat) for _ in basis]
    ridx = {e: i for i, e in enumerate(basis)}
    for j, q in enumerate(flat):
        for e, c in q.terms.items():
            rows[ridx[e]][j] = c
    return len(flat) - dense_rank(rows)


def standard_monomial_count(
    lead_exponents: list[tuple[int, ...]], nvars: int, degree: int
) -> int:
    """Number of degree-d monomials divisible by no leading exponent."""
    count = 0
    for e in monomials_of_degree(nvars, degree):
        if not any(all(x >= y for x, y in zip(e, l)) for l in lead_exponents):
            count += 1
    return count


def series_coefficient(data, d: int) -> int:
    """Coefficient of t^d in the Hilbert series of ``invariants.HilbertData``
    ``data``, that is dim_k (S/J)_d, from its numerator over (1-t)^nvars."""
    if d < 0:
        return 0
    v = data.nvars
    return sum(
        c * comb(d - i + v - 1, v - 1)
        for i, c in enumerate(data.numerator)
        if d - i >= 0
    )


def hilbert_polynomial_value(data, d: int) -> int:
    """Value at d of the Hilbert polynomial of ``invariants.HilbertData``
    ``data`` (agrees with the series for large d)."""
    dim = data.cone_dim
    if dim == 0:
        return 0
    total = 0
    for i, c in enumerate(data.reduced):
        total += c * _binom_poly(d - i + dim - 1, dim - 1)
    return total


def _binom_poly(top: int, k: int) -> int:
    """binomial(top, k) as a polynomial in top (valid for negative top)."""
    num = 1
    for j in range(k):
        num *= top - j
    for j in range(2, k + 1):
        num //= j
    return num


def multiplicity_cap(d: int, codim_z: int, deg_x: int) -> int:
    """Upper bound d^codim * deg X for the multiplicity of a distinguished
    variety of codimension codim."""
    if codim_z < 0:
        raise ValueError("codimension must be >= 0")
    return d**codim_z * deg_x


def substitute_eliminate_oracle(
    poly: MultiPoly, var_index: int, replacement: MultiPoly
) -> MultiPoly:
    """Substitution oracle for elimination tests."""
    return poly.substitute({var_index: replacement}, target=replacement.ring)


def base_module_key(ring_order, twists, m):
    """Tuple key of the module monomial m = (pos, e) in a free module with
    generator twists ``twists``: degree, then the ring order, then the
    lower position."""
    pos, e = m
    return (sum(e) + twists[pos], ring_order.key(e), -pos)


def schreyer_key(prev_key, images, m):
    """Tuple key of m = (i, u) in the Schreyer order induced by
    images[i] = (pos, lead) under ``prev_key``: the key of u*lead in
    position pos, then the lower index."""
    i, u = m
    pos, lead = images[i]
    return (prev_key((pos, tuple(a + b for a, b in zip(u, lead)))), -i)


def module_divides(a, b) -> bool:
    """True if the module monomial a divides b: same position and
    componentwise <= exponents."""
    return a[0] == b[0] and all(x <= y for x, y in zip(a[1], b[1]))
