"""Graded free resolutions over the polynomial ring.

``minimal_resolution`` resolves S/J for a homogeneous ideal J by iterated
syzygy steps in the induced Schreyer orders, then cancels unit entries by
exact row/column operations until the resolution is minimal.  Syzygies
and module bases come from ``modules`` on packed ints, restarted with
wider fields when a value outgrows them (``kernel.widening``).  From the
minimal twists come the Betti table and the regularity

    reg = max over steps k and twists d of (d - k) + 1,

with the convention that the zero ideal (empty resolution) has
regularity 1.  Both the exactness check of ``FreeResolution.validate``
and the codimensions of the drop-rank loci Z_k of the step matrices come
from Hilbert series of cokernels, one module Groebner basis per map, and
take no minors.  Z_k is the union of the supports of Ext^j(S/J, S) over
j >= k (Buchsbaum-Eisenbud 1973; Eisenbud-Huneke-Vasconcelos 1992), and
each codim Ext^j is read off Hilbert series of the dual complex.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import invariants, kernel, modules
from .errors import BudgetExceededError
from .groebner import DEFAULT_BUDGET, Budget, Ideal, buchberger
from .modules import FreeModule
from .orders import grevlex
from .polyring import MultiPoly, PolyRing


@dataclass(frozen=True)
class ResolutionStep:
    """A graded map F_source -> F_target given by a polynomial matrix.

    matrix[i][j] (row i, column j) is zero or homogeneous of degree
    source.twists[j] - target.twists[i].
    """

    source: FreeModule
    target: FreeModule
    matrix: tuple[tuple[MultiPoly, ...], ...]

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

    ideal: Ideal
    steps: tuple[ResolutionStep, ...]

    @property
    def ring(self) -> PolyRing:
        return self.ideal.ring

    @property
    def length(self) -> int:
        return len(self.steps)

    def validate(self, check_exact: bool = False) -> None:
        """Assert gradedness, composition zero, minimality (no unit entry)
        and (optionally) exactness: every homology H_k vanishes and
        coker(phi_1) = S/J.

        The exactness check reads Hilbert series.  From the exact sequence
        0 -> H_k -> coker(phi_{k+1}) -> F_{k-1} -> coker(phi_k) -> 0,

            HS(H_k) = HS(coker phi_{k+1}) + HS(coker phi_k) - HS(F_{k-1}),

        with coker(phi_{n+1}) = F_n, and a graded module is zero exactly
        when its Hilbert series is.  coker(phi_1) = S/(entries of phi_1),
        which is S/J when every entry lies in J and the two Hilbert
        series agree.
        """
        for step in self.steps:
            if not step.is_graded():
                raise AssertionError("resolution step is not graded-compatible")
        for a, b in zip(self.steps, self.steps[1:]):
            prod = _mat_mul(a.matrix, b.matrix, self.ring)
            if any(p for row in prod for p in row):
                raise AssertionError("consecutive resolution steps do not compose to zero")
        for step in self.steps:
            if any(p and p.is_constant() for row in step.matrix for p in row):
                raise AssertionError("minimal resolution has a unit entry")
        if check_exact:
            self._check_exact()

    def _check_exact(self) -> None:
        if not self.steps:
            if not self.ideal.is_zero():
                raise AssertionError("empty resolution of a nonzero ideal")
            return
        coker = _coker_numerators(
            self.ring,
            [step.matrix for step in self.steps],
            [step.target.twists for step in self.steps],
            DEFAULT_BUDGET,
        )
        coker.append(invariants.module_hilbert_numerator((), self.steps[-1].source.twists))
        for k, step in enumerate(self.steps, start=1):
            free = invariants.module_hilbert_numerator((), step.target.twists)
            homology = kernel.poly_sub(kernel.poly_add(coker[k], coker[k - 1]), free)
            if homology:
                raise AssertionError(
                    f"resolution is not exact at F_{k}: Hilbert numerator of H_{k} is {homology}"
                )
        gb = buchberger(self.ideal)
        if not all(gb.contains(p) for p in self.steps[0].matrix[0]):
            raise AssertionError("an entry of the first map is not in the ideal")
        leads = [(0, e) for e in gb.lead_monomials()]
        quotient = invariants.module_hilbert_numerator(leads, (0,))
        if coker[0] != quotient:
            raise AssertionError("the first map's cokernel is not S/J: Hilbert series differ")


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


def _coker_numerators(ring, matrices, twists, budget):
    """Hilbert numerators of coker(M) on F = ⊕ S(-twists[i]), one per
    matrix M whose row i lives in degree twists[i], each from one module
    Groebner basis of the columns of M; the fields are widened together."""
    modulus = kernel.field_modulus(p for matrix in matrices for row in matrix for p in row)

    def run(bits):
        out = []
        for matrix, tw in zip(matrices, twists):
            layout = modules.Layout.free(grevlex(), ring.nvars, bits, tw)
            columns = modules.columns_to_elements(matrix, layout)
            columns = [kernel.to_ints(c, modulus) for c in columns]
            basis = modules.module_groebner(columns, layout, modulus, budget)
            leads = [layout.unpack(max(g)) for g in basis]
            out.append(invariants.module_hilbert_numerator(leads, tw))
        return out

    return kernel.widening(run, kernel.MIN_BITS)


def syzygies(source, budget: Budget = DEFAULT_BUDGET) -> ResolutionStep:
    """Syzygy step of a homogeneous matrix (or of a tuple of polynomials,
    read as a single-row matrix), in grevlex.

    The returned step's columns generate all relations among the columns
    of the input and compose with it to zero.
    """
    if isinstance(source, ResolutionStep):
        if not source.matrix:
            raise ValueError("cannot take syzygies of an empty matrix")
        matrix = [list(r) for r in source.matrix]
        ambient_twists = source.target.twists   # where the columns live
        column_twists = source.source.twists    # where the relations live
    else:
        matrix = [list(source)]
        if not matrix[0]:
            raise ValueError("no polynomials given")
        ambient_twists = (0,)
        column_twists = None
    ring = matrix[0][0].ring
    modulus = kernel.field_modulus(p for row in matrix for p in row)

    def run(bits):
        ambient = modules.Layout.free(grevlex(), ring.nvars, bits, ambient_twists)
        columns = modules.columns_to_elements(matrix, ambient)
        if any(len({ambient.degree(t) for t in c}) > 1 for c in columns):
            raise ValueError("input matrix is not homogeneous")
        twists = column_twists or tuple(ambient.degree(max(c)) if c else 0 for c in columns)
        relations = modules.Layout.free(grevlex(), ring.nvars, bits, twists)
        syz = modules.syzygies_of_columns(columns, ambient, relations, modulus, budget)
        return twists, relations, syz

    twists, relations, syz = kernel.widening(run, kernel.MIN_BITS)
    cols = modules.elements_to_columns(syz, relations, modulus, ring, len(twists))
    return ResolutionStep(
        source=FreeModule(tuple(relations.degree(max(s)) for s in syz)),
        target=FreeModule(twists),
        matrix=tuple(tuple(row) for row in cols),
    )


# ---------------------------------------------------- minimal resolution


def minimal_resolution(
    ideal: Ideal,
    budget: Budget = DEFAULT_BUDGET,
    max_steps: int | None = None,
) -> FreeResolution:
    """Minimal graded free resolution of S/ideal (ideal homogeneous), in
    grevlex."""
    ring = ideal.ring
    if not ideal.is_homogeneous():
        raise ValueError("minimal_resolution needs a homogeneous ideal")
    if ideal.is_zero():
        return FreeResolution(ideal, ())
    gb = buchberger(ideal, budget=budget)
    if any(g.is_constant() for g in gb):
        raise ValueError("unit ideal has no resolution of S/J (S/J = 0)")

    cap = max_steps if max_steps is not None else ring.nvars + 2
    modulus = kernel.field_modulus(gb)

    def frame(bits):
        # Schreyer chain: step 1 is the Groebner basis (monic, so its
        # cleared ints are primitive), each further step the syzygies of
        # the previous one (already a basis in the induced order), each
        # element tracking lc(g_k) e_k of the next layout
        layout = modules.Layout.free(grevlex(), ring.nvars, bits, (0,))
        current = modules.columns_to_elements([gb.basis], layout)
        current = [kernel.to_ints(c, modulus) for c in current]
        target = FreeModule((0,))
        steps: list[ResolutionStep] = []
        while current:
            if len(steps) == cap:
                raise BudgetExceededError(
                    f"budget exhausted: resolution exceeded {cap} steps"
                )
            source = FreeModule(tuple(layout.degree(max(e)) for e in current))
            cols = modules.elements_to_columns(current, layout, modulus, ring, target.rank)
            steps.append(ResolutionStep(source, target, tuple(tuple(r) for r in cols)))
            nxt = layout.extend([max(e) for e in current])
            tracked, elems = nxt.track(layout, current, [e[max(e)] for e in current])
            current = modules.syzygies_of_groebner(elems, tracked, modulus)
            layout, target = nxt, source
        return steps

    steps = kernel.widening(frame, kernel.MIN_BITS)
    return FreeResolution(ideal, tuple(_minimalize(ring, steps)))


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
                source=FreeModule(tuple(twists[k + 1])),
                target=FreeModule(tuple(twists[k])),
                matrix=tuple(tuple(row) for row in mat),
            )
        )
    return out


# --------------------------------------------------- betti / regularity


def betti(res: FreeResolution) -> dict[tuple[int, int], int]:
    """{(homological index k >= 1, twist d): multiplicity}."""
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
    best = 0
    for k, step in enumerate(res.steps, start=1):
        for d in step.source.twists:
            best = max(best, d - k)
    return best + 1


# ----------------------------------------------- drop-rank codimensions


def bef_codims(
    res: FreeResolution,
    budget: Budget = DEFAULT_BUDGET,
) -> list[tuple[int, float]]:
    """Per step k, the codimension of the drop-rank locus Z_k of the k-th
    map, read off Hilbert series of the dual complex; no minor is taken.

    Z_k = V(I_{r_k}(phi_k)) is the set of primes P with pd M_P >= k
    (Buchsbaum-Eisenbud 1973, "What makes a complex exact?";
    Eisenbud-Huneke-Vasconcelos 1992, "Direct methods for primary
    decomposition"), that is the union of Supp Ext^j(M, S) over j >= k,
    so codim Z_k = min over j >= k of codim Ext^j(M, S).  With
    C_k = coker(phi_k^T) on F_k^* (C_0 = F_0^*, C_{n+1} = F_{n+1}^* = 0),

        HS(Ext^j) = HS(C_j) + HS(C_{j+1}) - HS(F_{j+1}^*),

    and each HS(C_k) comes from one module Groebner basis of the rows of
    phi_k.  Infinity only when every Ext^j, j >= k, vanishes.
    """
    # Hilbert numerators of F_k^* and C_k at index k - 1, zero at k = n + 1
    duals = [tuple(-b for b in step.source.twists) for step in res.steps]
    transposes = [list(zip(*step.matrix)) for step in res.steps]
    coker = _coker_numerators(res.ring, transposes, duals, budget) + [{}]
    free = [invariants.module_hilbert_numerator((), dual) for dual in duals] + [{}]
    out = []
    best = float("inf")
    for j in range(res.length, 0, -1):
        ext = kernel.poly_sub(kernel.poly_add(coker[j - 1], coker[j]), free[j])
        e, q = invariants.factor_one_minus_t(ext)
        if q:  # Ext^j != 0, of codimension e
            best = min(best, e)
        out.append((j, best))
    return out[::-1]
