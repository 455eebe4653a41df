"""Graded free resolutions over the polynomial ring.

``minimal_resolution`` resolves S/J for a homogeneous ideal J by iterated
syzygy steps in the induced Schreyer orders, then cancels unit entries by
exact row/column operations until the resolution is minimal.  From the
minimal twists come the Betti table and the regularity

    reg = max over steps k and twists d of (d - k) + 1,

with the convention that the zero ideal (empty resolution) has
regularity 1.  The module also computes generic ranks, Fitting ideals of
the step matrices, and the codimensions of their drop-rank loci.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import invariants, modules
from .errors import BudgetExceededError
from .groebner import DEFAULT_BUDGET, Budget, Ideal, buchberger
from .linalg import rank_dense
from .orders import MonomialOrder, grevlex
from .polyring import MultiPoly, PolyRing


@dataclass(frozen=True)
class GradedFreeModule:
    """⊕_i S(-twists[i]); the i-th generator sits in degree twists[i]."""

    twists: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.twists)


@dataclass(frozen=True)
class ResolutionStep:
    """A graded map F_source -> F_target given by a polynomial matrix.

    matrix[i][j] (row i, column j) is zero or homogeneous of degree
    source.twists[j] - target.twists[i].
    """

    source: GradedFreeModule
    target: GradedFreeModule
    matrix: tuple[tuple[MultiPoly, ...], ...]

    def entry(self, i: int, j: int) -> MultiPoly:
        return self.matrix[i][j]

    def columns(self) -> list[dict]:
        return modules.columns_to_elements([list(r) for r in self.matrix])

    def is_graded(self) -> bool:
        for i, row in enumerate(self.matrix):
            for j, p in enumerate(row):
                want = self.source.twists[j] - self.target.twists[i]
                if p and (not p.is_homogeneous() or p.degree() != want):
                    return False
        return True


@dataclass(frozen=True)
class FreeResolution:
    """... -> F_2 -> F_1 -> S -> S/J -> 0 as a sequence of steps.

    steps[k-1] is the map F_k -> F_{k-1}; an empty tuple resolves S itself
    (the zero ideal).
    """

    ring: PolyRing
    ideal: Ideal
    steps: tuple[ResolutionStep, ...]
    minimal: bool

    @property
    def length(self) -> int:
        return len(self.steps)

    def module(self, k: int) -> GradedFreeModule:
        if k == 0:
            return GradedFreeModule((0,))
        return self.steps[k - 1].source

    def validate(self, check_ranks: bool = False) -> None:
        """Assert gradedness, composition zero and (optionally) that the
        generic ranks add up to the free ranks, slot by slot."""
        for step in self.steps:
            if not step.is_graded():
                raise AssertionError("resolution step is not graded-compatible")
        for a, b in zip(self.steps, self.steps[1:]):
            prod = _mat_mul(a.matrix, b.matrix, self.ring)
            if any(p for row in prod for p in row):
                raise AssertionError("consecutive resolution steps do not compose to zero")
        if self.minimal:
            for step in self.steps:
                for row in step.matrix:
                    for p in row:
                        if p and p.is_constant():
                            raise AssertionError("minimal resolution has a unit entry")
        if check_ranks:
            ranks = [generic_rank(step.matrix, self.ring) for step in self.steps]
            for k in range(len(self.steps)):
                middle = self.steps[k].source.rank
                nxt = ranks[k + 1] if k + 1 < len(ranks) else 0
                if ranks[k] + nxt != middle:
                    raise AssertionError(
                        f"rank bookkeeping fails at slot {k + 1}: "
                        f"{ranks[k]} + {nxt} != {middle}"
                    )


def _mat_mul(a, b, ring: PolyRing):
    rows = len(a)
    mid = len(b)
    cols = len(b[0]) if mid else 0
    out = [[ring.zero() for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = ring.zero()
            for t in range(mid):
                if a[i][t] and b[t][j]:
                    acc = acc + a[i][t] * b[t][j]
            out[i][j] = acc
    return out


# ------------------------------------------------------------- syzygies


def syzygies(
    source,
    order: MonomialOrder = grevlex(),
    budget: Budget = DEFAULT_BUDGET,
) -> ResolutionStep:
    """Syzygy step of a homogeneous matrix (or of a tuple of polynomials,
    read as a single-row matrix).

    The returned step's columns generate all relations among the columns
    of the input and compose with it to zero.
    """
    if isinstance(source, ResolutionStep):
        if not source.matrix:
            raise ValueError("cannot take syzygies of an empty matrix")
        ring = source.matrix[0][0].ring
        ambient_twists = source.target.twists   # where the columns live
        column_twists = source.source.twists    # where the relations live
        elems = source.columns()
    else:
        polys = list(source)
        if not polys:
            raise ValueError("no polynomials given")
        ring = polys[0].ring
        ambient_twists = (0,)
        elems = modules.columns_to_elements([polys])
        column_twists = None
    ambient = modules.FreeModule(ring, ambient_twists)
    for e in elems:
        if not ambient.is_homogeneous(e):
            raise ValueError("input matrix is not homogeneous")
    if column_twists is None:
        column_twists = tuple(
            ambient.degree_of(e) if e else 0 for e in elems
        )
    base = modules.BaseModuleOrder(order, ambient_twists)
    syz = modules.syzygies_of_columns(elems, base, budget)
    # a zero column is its own relation
    zero_len = ring.nvars
    for j, e in enumerate(elems):
        if not e:
            syz.append({(j, (0,) * zero_len): Fraction(1)})
    syz_module = modules.FreeModule(ring, column_twists)
    syz_order = modules.BaseModuleOrder(order, column_twists)
    syz = _canonical_elements(syz, syz_order, syz_module)
    src = GradedFreeModule(tuple(syz_module.degree_of(s) for s in syz))
    cols = modules.elements_to_columns(syz, ring, syz_module.rank)
    return ResolutionStep(
        source=src,
        target=GradedFreeModule(column_twists),
        matrix=tuple(tuple(row) for row in cols),
    )


def _canonical_elements(elems: list[dict], order, mod: modules.FreeModule):
    """Monic, deduplicated, sorted by (degree, leading monomial)."""
    seen = set()
    out = []
    for e in elems:
        if not e:
            continue
        m = modules.mod_monic(e, order)
        key = frozenset((mm, str(c)) for mm, c in m.items())
        if key in seen:
            continue
        seen.add(key)
        out.append(m)
    out.sort(key=lambda e: (mod.degree_of(e), order.key(modules.mod_leading(e, order))))
    return out


# ---------------------------------------------------- minimal resolution


def minimal_resolution(
    ideal: Ideal,
    order: MonomialOrder = grevlex(),
    budget: Budget = DEFAULT_BUDGET,
    max_steps: int | None = None,
) -> FreeResolution:
    """Minimal graded free resolution of S/ideal (ideal homogeneous)."""
    ring = ideal.ring
    if not ideal.is_homogeneous():
        raise ValueError("minimal_resolution needs a homogeneous ideal")
    if ideal.is_zero():
        return FreeResolution(ring, ideal, (), True)
    gb = buchberger(ideal, order, budget)
    if any(g.is_constant() for g in gb):
        raise ValueError("unit ideal has no resolution of S/J (S/J = 0)")

    cap = max_steps if max_steps is not None else ring.nvars + 2

    # Schreyer chain: step 1 is the Groebner basis, each further step the
    # syzygies of the previous one (already a basis in the induced order).
    gb_elems = [{(0, e): c for e, c in g.terms.items()} for g in gb]
    twists = [0]
    current_order = modules.BaseModuleOrder(order, (0,))
    current = [modules.mod_monic(e, current_order) for e in gb_elems]
    leads = [modules.mod_leading(e, current_order) for e in current]

    twist_lists: list[list[int]] = [[0]]
    matrices: list[list[list[MultiPoly]]] = []

    while current:
        cols = modules.elements_to_columns(current, ring, len(twists))
        matrices.append(cols)
        step_twists = [modules.FreeModule(ring, tuple(twists)).degree_of(e) for e in current]
        twist_lists.append(list(step_twists))
        if len(matrices) > cap:
            raise BudgetExceededError(
                f"budget exhausted: resolution exceeded {cap} steps"
            )
        syz = modules.syzygies_of_groebner(current, leads, current_order)
        next_order = modules.SchreyerOrder(current_order, tuple(leads))
        next_mod = modules.FreeModule(ring, tuple(step_twists))
        syz = _canonical_elements(syz, next_order, next_mod)
        twists = step_twists
        current_order = next_order
        current = syz
        leads = [modules.mod_leading(e, current_order) for e in current]

    steps = _assemble_steps(ring, twist_lists, matrices)
    steps = _minimalize(ring, steps)
    return FreeResolution(ring, ideal, tuple(steps), True)


def _assemble_steps(ring, twist_lists, matrices) -> list[ResolutionStep]:
    steps = []
    for k, mat in enumerate(matrices):
        target = GradedFreeModule(tuple(twist_lists[k]))
        source = GradedFreeModule(tuple(twist_lists[k + 1]))
        steps.append(
            ResolutionStep(source=source, target=target, matrix=tuple(tuple(r) for r in mat))
        )
    return steps


def _minimalize(ring: PolyRing, steps: list[ResolutionStep]) -> list[ResolutionStep]:
    """Cancel unit entries by exact row/column operations (Schur
    complements) until no step matrix contains a nonzero constant."""
    twists = [list(steps[0].target.twists)] + [list(s.source.twists) for s in steps]
    mats = [[list(row) for row in s.matrix] for s in steps]

    def find_unit():
        for k, mat in enumerate(mats):
            for i, row in enumerate(mat):
                for j, p in enumerate(row):
                    if p and p.is_constant():
                        return k, i, j
        return None

    while True:
        hit = find_unit()
        if hit is None:
            break
        k, i, j = hit
        mat = mats[k]
        a = next(iter(mat[i][j].terms.values()))
        inv = (a / a) / a
        # Schur complement on the pivot, then delete row i and column j.
        for i2 in range(len(mat)):
            if i2 == i or not mat[i2][j]:
                continue
            factor = mat[i2][j] * inv
            for j2 in range(len(mat[0])):
                if j2 == j or not mat[i][j2]:
                    continue
                mat[i2][j2] = mat[i2][j2] - factor * mat[i][j2]
        for row in mat:
            del row[j]
        del mat[i]
        del twists[k + 1][j]
        del twists[k][i]
        if k + 1 < len(mats):  # F_k lost generator j: drop row j upstairs
            del mats[k + 1][j]
        if k - 1 >= 0:  # F_{k-1} lost generator i: drop column i downstairs
            for row in mats[k - 1]:
                del row[i]

    # prune empty trailing modules
    cut = len(mats)
    for k in range(len(mats)):
        if not twists[k + 1]:
            cut = k
            break
    mats = mats[:cut]
    twists = twists[: cut + 1]
    out = []
    for k, mat in enumerate(mats):
        out.append(
            ResolutionStep(
                source=GradedFreeModule(tuple(twists[k + 1])),
                target=GradedFreeModule(tuple(twists[k])),
                matrix=tuple(tuple(row) for row in mat),
            )
        )
    return out


# --------------------------------------------------- betti / regularity


def betti(res: FreeResolution) -> dict[tuple[int, int], int]:
    """{(homological index k >= 1, twist d): multiplicity}."""
    if not res.minimal:
        raise ValueError("betti table needs a minimal resolution")
    table: dict[tuple[int, int], int] = {}
    for k, step in enumerate(res.steps, start=1):
        for d in step.source.twists:
            table[(k, d)] = table.get((k, d), 0) + 1
    return table


def betti_table_text(res: FreeResolution) -> str:
    """Fixed text layout: rows are strata j = d - k, columns homological
    degree (column 0 is the free rank of S itself)."""
    table = betti(res)
    max_k = res.length
    strata = sorted({d - k for (k, d) in table} | {0})
    header = ["      "] + [f"{k:>6}" for k in range(max_k + 1)]
    lines = ["".join(header)]
    for j in strata:
        row = [f"{j:>5}:"]
        for k in range(max_k + 1):
            if k == 0:
                v = 1 if j == 0 else 0
            else:
                v = table.get((k, j + k), 0)
            row.append(f"{v:>6}" if v else "     .")
        lines.append("".join(row))
    return "\n".join(lines)


def regularity(res: FreeResolution) -> int:
    """max (twist - homological index) + 1 over the minimal resolution of
    S/J; equals 1 for the zero ideal."""
    if not res.minimal:
        raise ValueError("regularity needs a minimal resolution")
    best = 0
    for k, step in enumerate(res.steps, start=1):
        for d in step.source.twists:
            best = max(best, d - k)
    return best + 1


# ------------------------------------------------ ranks, minors, fitting


def _eval_entry(p: MultiPoly, point: list[int]):
    total = None
    for e, c in p.terms.items():
        v = c
        for i, x in enumerate(e):
            if x:
                v = v * point[i] ** x
        total = v if total is None else total + v
    if total is None:
        return Fraction(0)
    return total


def _rank_at_point(matrix, point) -> int:
    return rank_dense([[_eval_entry(p, point) for p in row] for row in matrix])


def determinant(matrix, ring: PolyRing) -> MultiPoly:
    """Exact determinant of a square MultiPoly matrix (Laplace with memo)."""
    n = len(matrix)
    if n == 0:
        return ring.one()
    memo: dict = {}

    def rec(rows: tuple[int, ...], cols: tuple[int, ...]) -> MultiPoly:
        if len(rows) == 1:
            return matrix[rows[0]][cols[0]]
        key = (rows, cols)
        got = memo.get(key)
        if got is not None:
            return got
        i = rows[0]
        rest = rows[1:]
        acc = ring.zero()
        for t, j in enumerate(cols):
            entry = matrix[i][j]
            if not entry:
                continue
            sub = rec(rest, cols[:t] + cols[t + 1 :])
            if sub:
                term = entry * sub
                acc = acc + term if t % 2 == 0 else acc - term
        memo[key] = acc
        return acc

    return rec(tuple(range(n)), tuple(range(n)))


def _all_minors(matrix, ring: PolyRing, size: int):
    from itertools import combinations

    nr, nc = len(matrix), len(matrix[0]) if matrix else 0
    for rows in combinations(range(nr), size):
        for cols in combinations(range(nc), size):
            sub = [[matrix[i][j] for j in cols] for i in rows]
            yield determinant(sub, ring)


def generic_rank(matrix, ring: PolyRing) -> int:
    """Rank over the fraction field: a random integer specialization gives
    a fast lower bound, confirmed by checking that all larger minors
    vanish symbolically."""
    if not matrix or not matrix[0]:
        return 0
    nr, nc = len(matrix), len(matrix[0])
    rng = random.Random(0xB125C)
    r0 = 0
    for _ in range(4):
        point = [rng.randint(-40, 40) or 1 for _ in range(ring.nvars)]
        r0 = max(r0, _rank_at_point(matrix, point))
    while r0 < min(nr, nc):
        nonzero = next((m for m in _all_minors(matrix, ring, r0 + 1) if m), None)
        if nonzero is None:
            break
        r0 += 1
    return r0


def fitting_ideal(
    res: FreeResolution, k: int, minor_cap: int = 6
) -> Ideal:
    """Ideal of r_k x r_k minors of the k-th step matrix (r_k = generic
    rank); its zero set is the locus where the map drops rank."""
    if not 1 <= k <= res.length:
        raise ValueError(f"no step {k} in a length-{res.length} resolution")
    step = res.steps[k - 1]
    matrix = [list(row) for row in step.matrix]
    r = generic_rank(matrix, res.ring)
    if r > minor_cap:
        raise BudgetExceededError(
            f"budget exhausted: rank {r} exceeds the {minor_cap}x{minor_cap} minor cap"
        )
    if r == 0:
        # a zero map never drops below its generic rank
        return Ideal(res.ring, [res.ring.one()])
    seen = set()
    gens = []
    for m in _all_minors(matrix, res.ring, r):
        if not m:
            continue
        m = m.monic()
        key = frozenset((e, str(c)) for e, c in m.terms.items())
        if key not in seen:
            seen.add(key)
            gens.append(m)
    return Ideal(res.ring, gens)


def bef_codims(
    res: FreeResolution,
    budget: Budget = DEFAULT_BUDGET,
    minor_cap: int = 6,
) -> list[tuple[int, float]]:
    """Per step k, the codimension of the drop-rank locus of the k-th map
    (infinity when the minors generate the unit ideal)."""
    out = []
    for k in range(1, res.length + 1):
        fitt = fitting_ideal(res, k, minor_cap)
        if any(g.is_constant() and g for g in fitt.gens):
            out.append((k, float("inf")))
            continue
        gb = buchberger(fitt, grevlex(), budget)
        data = invariants.hilbert_data(gb)
        out.append((k, res.ring.nvars - data.cone_dim))
    return out
