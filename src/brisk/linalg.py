"""Exact sparse linear algebra over Q.

Rows are dicts {column index: coefficient}.  Rows are scaled to integers
with their content divided out, and elimination uses integer cross
multiplication, so no fractions appear until the final back substitution.

Pivoting follows Markowitz's rule in its simplest form: the next pivot
column is one held by the fewest live (not yet pivot) rows, lowest index
first; within it the pivot row is the shortest, lowest index first.  So
the computation, and the returned solution, is deterministic.

The counts are kept incrementally instead of being recounted at every
pivot.  ``where[c]`` lists the rows that hold column c, ``live[c]`` says
how many of them are live, and a heap holds the keys
``live[c] * ncols + c``; a key whose count no longer matches ``live[c]``
is stale and skipped when popped.  Eliminating column ``col`` from a row
replaces it by ``row * a - t * pivot`` with ``a = pivot[col] != 0``, so
every column outside the pivot row keeps a nonzero entry: only the
pivot row's columns can appear in a row (fill-in) or cancel out of it.
A pivot therefore updates the bookkeeping, and pushes a fresh heap key,
for the pivot row's columns alone.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

from .errors import BudgetExceededError


def _integerize(row: dict[int, Fraction], rhs: Fraction):
    denom = rhs.denominator
    for v in row.values():
        denom = denom * v.denominator // gcd(denom, v.denominator)
    irow = {c: int(v * denom) for c, v in row.items()}
    irhs = int(rhs * denom)
    content = abs(irhs)
    for v in irow.values():
        content = gcd(content, abs(v))
    if content > 1:
        irow = {c: v // content for c, v in irow.items()}
        irhs //= content
    return irow, irhs


def _combine(target, trhs, pivot, prhs, col):
    """target*a - t*pivot with a = pivot[col], t = target[col]; content
    normalized.  Afterwards target[col] = 0."""
    a = pivot[col]
    t = target[col]
    out = {}
    for c, v in target.items():
        out[c] = v * a
    for c, v in pivot.items():
        s = out.get(c, 0) - t * v
        if s:
            out[c] = s
        else:
            out.pop(c, None)
    orhs = trhs * a - t * prhs
    content = abs(orhs)
    for v in out.values():
        content = gcd(content, abs(v))
        if content == 1:
            break
    if content > 1:
        out = {c: v // content for c, v in out.items()}
        orhs //= content
    return out, orhs


def solve_sparse(
    rows: list[dict[int, Fraction]],
    rhs: list[Fraction],
    ncols: int,
    max_entries: int | None = None,
) -> list[Fraction] | None:
    """One exact solution of A x = b (free variables set to 0), or None
    when the system is infeasible.

    Infeasibility is definitive: the elimination runs to completion and
    exhibits an inconsistent row.
    """
    if max_entries is not None and len(rows) * ncols > max_entries:
        raise BudgetExceededError(
            f"budget exhausted: linear system {len(rows)}x{ncols} exceeds "
            f"{max_entries} entries (raise max_matrix_entries / --budget-matrix)"
        )
    work = []
    for row, b in zip(rows, rhs):
        irow, ib = _integerize(dict(row), b)
        work.append((irow, ib))

    where: list[list[int]] = [[] for _ in range(ncols)]
    for ri, (row, _) in enumerate(work):
        for c in row:
            where[c].append(ri)
    live = [len(holders) for holders in where]
    heap = [n * ncols + c for c, n in enumerate(live) if n]
    heapify(heap)

    pivots: list[tuple[int, int]] = []  # (column, row index)
    assigned = [False] * len(work)
    while heap:
        n, col = divmod(heappop(heap), ncols)
        if n != live[col]:
            continue  # stale key; the column was pivoted or recounted
        holders = where[col]
        prow = min(
            (ri for ri in holders if not assigned[ri]),
            key=lambda ri: (len(work[ri][0]), ri),
        )
        pivots.append((col, prow))
        assigned[prow] = True
        pr, pb = work[prow]
        others = [c for c in pr if c != col]
        for c in others:
            live[c] -= 1
        for ri in holders:
            if ri == prow:
                continue
            row, b = work[ri]
            work[ri] = _combine(row, b, pr, pb, col)
            out = work[ri][0]
            step = 0 if assigned[ri] else 1  # pivot rows are not live
            for c in others:
                if c in row:
                    if c not in out:
                        where[c].remove(ri)
                        live[c] -= step
                elif c in out:
                    where[c].append(ri)
                    live[c] += step
        where[col] = [prow]
        live[col] = 0
        for c in others:
            if live[c]:
                heappush(heap, live[c] * ncols + c)

    for ri, (row, b) in enumerate(work):
        if not assigned[ri] and not row and b != 0:
            return None
        if not assigned[ri] and row:
            raise AssertionError("elimination left an unassigned nonzero row")

    solution = [Fraction(0)] * ncols
    for col, ri in pivots:
        row, b = work[ri]
        solution[col] = Fraction(b, row[col])
    return solution


def rank_dense(rows: list[list[Fraction]]) -> int:
    """Plain dense row-echelon rank, the one dense rank of the package
    (``resolution.generic_rank`` evaluates its matrices at points)."""
    mat = [list(r) for r in rows]
    rank = 0
    col = 0
    ncols = len(mat[0]) if mat else 0
    while rank < len(mat) and col < ncols:
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][col]
        for i in range(rank + 1, len(mat)):
            if mat[i][col]:
                f = mat[i][col] / pv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        col += 1
    return rank
