"""Answer checks that share no code path with brisk.

Polynomials here are plain dicts {exponent tuple: coefficient}, with
``Fraction`` coefficients over Q and ``int`` residues over GF(p).  The
only thing read from brisk's answers is their data (terms, cofactors,
twists); every product, division, elimination and count is redone here.
Each check raises ``CheckFailed`` with a reason when an answer is wrong.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd


class CheckFailed(AssertionError):
    """An answer from brisk disagrees with the independent computation."""


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


# ------------------------------------------------------------ polynomials


def terms_of(poly, p: int | None = None) -> dict:
    """Plain dict copy of a brisk polynomial's terms (residues mod p when
    the coefficients are prime-field elements)."""
    out = {}
    for e, c in poly.terms.items():
        if p is None:
            out[tuple(e)] = Fraction(c)
        else:
            out[tuple(e)] = int(getattr(c, "v", c)) % p
    return out


def _norm(c, p):
    return c % p if p is not None else c


def add_scaled(acc: dict, poly: dict, scale, shift=None, p: int | None = None) -> None:
    """acc += scale * x^shift * poly, in place."""
    for e, c in poly.items():
        if shift is not None:
            e = tuple(a + b for a, b in zip(e, shift))
        v = _norm(acc.get(e, 0) + scale * c, p)
        if v:
            acc[e] = v
        else:
            acc.pop(e, None)


def mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e, c in a.items():
        add_scaled(out, b, c, e)
    return out


def degree(poly: dict) -> int:
    return max((sum(e) for e in poly), default=-1)


def monomials_up_to(nvars: int, cap: int) -> list[tuple[int, ...]]:
    if cap < 0:
        return []
    if nvars == 0:
        return [()]
    return [
        (k,) + rest for k in range(cap + 1) for rest in monomials_up_to(nvars - 1, cap - k)
    ]


# ------------------------------------------------------------ certificates


def gen_products(gens: list[dict], index: tuple[int, ...], nvars: int) -> dict:
    out = {(0,) * nvars: Fraction(1)}
    for g, k in zip(gens, index):
        for _ in range(k):
            out = mul(out, g)
    return out


def check_certificate(gens: list[dict], phi: dict, cofactors: dict, rho: int, nvars: int) -> None:
    """Expand Phi - sum F^I Q_I on V = C^N and require it to be 0, with
    every deg(F^I Q_I) <= rho."""
    residual = dict(phi)
    for index, q in cofactors.items():
        prod = mul(gen_products(gens, index, nvars), q)
        require(degree(prod) <= rho, f"deg F^{index} Q = {degree(prod)} exceeds rho = {rho}")
        add_scaled(residual, prod, -1)
    require(not residual, f"Phi - sum F^I Q_I leaves {len(residual)} terms")


def dense_rank(rows: list[list[Fraction]]) -> int:
    """Row-echelon rank over Q by fraction-free Gaussian elimination: rows
    are cleared of denominators, and each combined row is divided by the
    gcd of its entries."""
    mat = []
    for r in rows:
        den = 1
        for v in r:
            den = den * v.denominator // gcd(den, v.denominator)
        mat.append([int(v * den) for v in r])
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pr = mat[rank]
        a = pr[col]
        for i in range(rank + 1, len(mat)):
            t = mat[i][col]
            if t:
                row = [x * a - t * y for x, y in zip(mat[i], pr)]
                g = 0
                for x in row:
                    g = gcd(g, x)
                mat[i] = [x // g for x in row] if g > 1 else row
        rank += 1
    return rank


def dense_infeasible(gens: list[dict], phi: dict, rho: int, nvars: int) -> bool:
    """True when no Q_j with deg(F_j Q_j) <= rho solves sum F_j Q_j = Phi
    on C^N: the augmented coefficient matrix has larger rank than the
    matrix itself."""
    columns = []
    for g in gens:
        for alpha in monomials_up_to(nvars, rho - degree(g)):
            columns.append({tuple(a + b for a, b in zip(e, alpha)): c for e, c in g.items()})
    monos = sorted({e for col in columns for e in col} | set(phi))
    rows = [[col.get(m, Fraction(0)) for col in columns] for m in monos]
    augmented = [row + [phi.get(m, Fraction(0))] for row, m in zip(rows, monos)]
    return dense_rank(augmented) > dense_rank(rows)


# ------------------------------------------------------------ Groebner bases


def grevlex_key(e: tuple[int, ...]):
    """Larger key = larger monomial in graded reverse lexicographic order."""
    return (sum(e), tuple(-x for x in reversed(e)))


def leading(poly: dict) -> tuple[int, ...]:
    return max(poly, key=grevlex_key)


def divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def remainder(f: dict, basis: list[dict], p: int | None = None) -> dict:
    """Remainder of multivariate division of f by basis in grevlex."""
    leads = [(leading(g), g) for g in basis]
    work = dict(f)
    rem: dict = {}
    while work:
        m = leading(work)
        c = work[m]
        for lm, g in leads:
            if divides(lm, m):
                lc = g[lm]
                scale = -c * (pow(lc, -1, p) if p is not None else 1 / lc)
                shift = tuple(x - y for x, y in zip(m, lm))
                add_scaled(work, g, scale, shift, p)
                break
        else:
            rem[m] = work.pop(m)
    return rem


def standard_monomials(leads: list[tuple[int, ...]], nvars: int) -> int:
    """Number of monomials divisible by no leading term; requires a pure
    power of every variable among the leads (zero-dimensional ideal)."""
    tops = []
    for i in range(nvars):
        pure = [e[i] for e in leads if e[i] and all(x == 0 for j, x in enumerate(e) if j != i)]
        require(bool(pure), f"no pure power of variable {i} among the leading terms")
        tops.append(min(pure))
    count = 0
    stack = [(0,) * nvars]
    seen = {stack[0]}
    while stack:
        e = stack.pop()
        if any(divides(lt, e) for lt in leads):
            continue
        count += 1
        for i in range(nvars):
            nxt = e[:i] + (e[i] + 1,) + e[i + 1 :]
            if nxt[i] < tops[i] and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return count


def check_groebner(gens: list[dict], basis: list[dict], nvars: int, solutions: int, p: int | None = None) -> None:
    """A reduced basis of a zero-dimensional ideal: monic, no term of an
    element divisible by another element's leading term, every input
    generator reduces to 0, and the standard monomials number the known
    count of solutions."""
    require(bool(basis), "empty basis")
    leads = [leading(g) for g in basis]
    for i, g in enumerate(basis):
        require(g[leads[i]] == 1, f"basis element {i} is not monic")
        for j, lt in enumerate(leads):
            if j != i:
                require(
                    not any(divides(lt, e) for e in g),
                    f"basis element {i} has a term divisible by leading term {j}",
                )
    for k, f in enumerate(gens):
        require(not remainder(f, basis, p), f"input generator {k} does not reduce to 0")
    count = standard_monomials(leads, nvars)
    require(count == solutions, f"{count} standard monomials, expected {solutions}")


# ------------------------------------------------------------ resolutions


def eagon_northcott(d: int) -> dict[tuple[int, int], int]:
    """Betti numbers {(k, twist): count} of the rational normal curve of
    degree d: k * C(d, k+1) in twist k + 1, for k = 1 .. d-1."""
    return {(k, k + 1): k * comb(d, k + 1) for k in range(1, d)}


def betti_of(steps) -> dict[tuple[int, int], int]:
    """Betti table read off the source twists of each resolution step."""
    table: dict[tuple[int, int], int] = {}
    for k, step in enumerate(steps, start=1):
        for t in step.source.twists:
            table[(k, t)] = table.get((k, t), 0) + 1
    return table


def check_resolution(steps, expected: dict[tuple[int, int], int]) -> None:
    table = betti_of(steps)
    require(table == expected, f"Betti table {sorted(table.items())}, expected {sorted(expected.items())}")
