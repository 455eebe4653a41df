"""Graded free resolutions over the polynomial ring.

``minimal_resolution`` resolves S/J for a homogeneous ideal J by iterated
syzygy steps in the induced Schreyer orders, then cancels unit entries by
fraction-free column operations until the resolution is minimal.
Syzygies and module bases come from ``modules`` on packed ints,
restarted with wider fields when a value outgrows them
(``kernel.widening``).  A step keeps the packed int columns that
computed it, and every check below reads them; its polynomial matrix is
built only when it is read (``ResolutionStep.matrix``).  From the
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
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from . import invariants, kernel, modules
from .errors import BudgetExceededError
from .groebner import DEFAULT_BUDGET, Budget, Ideal, buchberger
from .modules import FreeModule, Layout
from .orders import grevlex
from .polyring import MultiPoly, PolyRing


@dataclass(frozen=True, eq=False)
class ResolutionStep:
    """A graded map F_source -> F_target.

    Column j is scales[j] (a Fraction over Q, an int mod ``modulus``)
    times the int element columns[j] of ``layout``, whose positions are
    the generators of the target.  ``matrix[i][j]`` (row i, column j) is
    zero or homogeneous of degree source.twists[j] - target.twists[i].
    Two steps are equal when their twists and matrices are.
    """

    source: FreeModule
    target: FreeModule
    ring: PolyRing
    layout: Layout
    modulus: int | None
    columns: tuple[dict, ...]
    scales: tuple

    @classmethod
    def from_matrix(cls, ring: PolyRing, source: FreeModule, target: FreeModule, matrix) -> ResolutionStep:
        """The step of a polynomial matrix, given row by row."""
        rows = [list(row) for row in matrix]
        modulus = kernel.field_modulus(p for row in rows for p in row)

        def run(bits):
            layout = Layout.free(grevlex(), ring.nvars, bits, target.twists)
            return layout, modules.columns_to_elements(rows, layout)

        layout, cols = kernel.widening(run, kernel.MIN_BITS)
        columns = tuple(kernel.to_ints(c, modulus) for c in cols)
        scales = tuple(1 if modulus else Fraction(1, kernel.cleared(c)[1]) for c in cols)
        return cls(source, target, ring, layout, modulus, columns, scales)

    @cached_property
    def matrix(self) -> tuple[tuple[MultiPoly, ...], ...]:
        rows = modules.elements_to_columns(
            self.columns, self.scales, self.layout, self.modulus, self.ring, self.target.rank
        )
        return tuple(tuple(row) for row in rows)

    def __eq__(self, other):
        if not isinstance(other, ResolutionStep):
            return NotImplemented
        return (self.source, self.target, self.matrix) == (other.source, other.target, other.matrix)

    def __hash__(self):
        return hash((self.source, self.target))

    def is_graded(self) -> bool:
        layout, source, target = self.layout, self.source.twists, self.target.twists
        for j, col in enumerate(self.columns):
            for t in col:
                i = layout.position(t)
                if layout.degree(t) - layout.degree(layout.bases[i]) != source[j] - target[i]:
                    return False
        return True


def _first_unit(layout: Layout, columns, source_twists, target_twists):
    """(row i, column j, key) of the first nonzero constant entry in
    row-major order, or None.  In a graded step, entry (i, j) is a
    nonzero constant exactly when column j has a term in row i and
    source_twists[j] == target_twists[i]."""
    targets = set(target_twists)
    best = None
    for j, col in enumerate(columns):
        if source_twists[j] in targets:
            for t in col:
                i = layout.position(t)
                if target_twists[i] == source_twists[j] and (best is None or (i, j) < best[:2]):
                    best = (i, j, t)
    return best


def _moved(step: ResolutionStep, layout: Layout, dual: bool = False) -> list[dict]:
    """The int columns of ``step`` in the free layout ``layout`` of its
    target or, with ``dual``, its rows (row i as the element
    sum_j entry_ij e_j) in that of the dual of its source."""
    inner = step.layout
    if not dual:
        return [{inner.move(t, layout, inner.position(t)): c for t, c in col.items()} for col in step.columns]
    rows = [{} for _ in step.target.twists]
    for j, col in enumerate(step.columns):
        for t, c in col.items():
            rows[inner.position(t)][inner.move(t, layout, j)] = c
    return rows


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
            if any(_compose(a, b)[1]):
                raise AssertionError("consecutive resolution steps do not compose to zero")
        for step in self.steps:
            if _first_unit(step.layout, step.columns, step.source.twists, step.target.twists):
                raise AssertionError("minimal resolution has a unit entry")
        if check_exact:
            self._check_exact()

    def _check_exact(self) -> None:
        if not self.steps:
            if not self.ideal.is_zero():
                raise AssertionError("empty resolution of a nonzero ideal")
            return
        coker = _coker_numerators(self.steps, False, DEFAULT_BUDGET)
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


def _compose(a: ResolutionStep, b: ResolutionStep):
    """(layout, elements, scales) of a∘b: its column j is scales[j] times
    elements[j], an int element of the free layout of a's target.  That
    element is one product, the sum over the terms c*u*e_m of b's column
    of c*u*w_m*(column m of a), with w_m a's scale over Q times the
    common denominator of a's scales."""
    modulus = a.modulus
    den = lcm(*(s.denominator for s in a.scales))
    weights = [s.numerator * (den // s.denominator) for s in a.scales]

    def run(bits):
        layout = Layout.free(grevlex(), a.ring.nvars, bits, a.target.twists)
        cols = [list(col.items()) for col in _moved(a, layout)]
        out = []
        for col in b.columns:
            acc: dict = {}
            for t, c in col.items():
                m = b.layout.position(t)
                u, cw = b.layout.monomial(t, layout), c * weights[m]
                for key, v in cols[m]:
                    s = acc.pop(key + u, 0) + cw * v
                    if modulus:
                        s %= modulus
                    if s:
                        acc[key + u] = s
            if any(key & layout.guard for key in acc):
                raise OverflowError("module monomial exceeds the packed field width")
            out.append(acc)
        return layout, out

    layout, out = kernel.widening(run, a.layout.packing.bits)
    return layout, out, b.scales if modulus else [s / den for s in b.scales]


# ------------------------------------------------------------- syzygies


def _coker_numerators(steps, dual: bool, budget):
    """Hilbert numerators of coker(phi) on F_target, one per step phi, or
    with ``dual`` of coker(phi^T) on the dual of F_source, each from one
    module Groebner basis of the int columns (rows) of phi; the fields are
    widened together.  The scales are left out: a column scaled by a unit
    spans the same module, and scaling rows of phi^T keeps every leading
    term."""

    def run(bits):
        out = []
        for step in steps:
            twists = tuple(-b for b in step.source.twists) if dual else step.target.twists
            layout = Layout.free(grevlex(), step.ring.nvars, bits, twists)
            basis = modules.module_groebner(_moved(step, layout, dual), layout, step.modulus, budget)
            leads = [layout.unpack(max(g)) for g in basis]
            out.append(invariants.module_hilbert_numerator(leads, twists))
        return out

    return kernel.widening(run, kernel.MIN_BITS)


def _monic_scales(elems, modulus: int | None) -> tuple:
    """The scales that make normalized elements monic: 1 mod p, where
    they are monic already, and 1/lc over Q."""
    return tuple(1 if modulus else Fraction(1, e[max(e)]) for e in elems)


def syzygies(source, budget: Budget = DEFAULT_BUDGET) -> ResolutionStep:
    """Syzygy step of a homogeneous matrix (or of a tuple of polynomials,
    read as a single-row matrix), in grevlex.

    The returned step's columns generate all relations among the columns
    of the input and compose with it to zero.
    """
    if not isinstance(source, ResolutionStep):
        polys = list(source)
        if not polys:
            raise ValueError("no polynomials given")
        degrees = FreeModule(tuple(p.degree() if p else 0 for p in polys))
        source = ResolutionStep.from_matrix(polys[0].ring, degrees, FreeModule((0,)), [polys])
    if not source.target.rank:
        raise ValueError("cannot take syzygies of an empty matrix")
    if not source.is_graded():
        raise ValueError("input matrix is not homogeneous")
    ring, modulus = source.ring, source.modulus

    def run(bits):
        ambient = Layout.free(grevlex(), ring.nvars, bits, source.target.twists)
        relations = Layout.free(grevlex(), ring.nvars, bits, source.source.twists)
        columns = _moved(source, ambient)
        syz = modules.syzygies_of_columns(columns, source.scales, ambient, relations, modulus, budget)
        return relations, syz

    relations, syz = kernel.widening(run, kernel.MIN_BITS)
    found = FreeModule(tuple(relations.degree(max(s)) for s in syz))
    scales = _monic_scales(syz, modulus)
    return ResolutionStep(found, source.source, ring, relations, modulus, tuple(syz), scales)


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
        layout = Layout.free(grevlex(), ring.nvars, bits, (0,))
        current = modules.columns_to_elements([gb.basis], layout)
        current = [kernel.to_ints(c, modulus) for c in current]
        target = FreeModule((0,))
        steps: list[ResolutionStep] = []
        while current:
            if len(steps) == cap:
                raise BudgetExceededError(
                    f"budget exhausted: resolution exceeded {cap} steps"
                )
            leads = [max(e) for e in current]
            source = FreeModule(tuple(layout.degree(t) for t in leads))
            scales = _monic_scales(current, modulus)
            steps.append(ResolutionStep(source, target, ring, layout, modulus, tuple(current), scales))
            nxt = layout.extend(leads)
            tracked, elems = nxt.track(layout, current, [e[t] for e, t in zip(current, leads)])
            current = modules.syzygies_of_groebner(elems, tracked, modulus)
            layout, target = nxt, source
        return steps

    steps = kernel.widening(frame, kernel.MIN_BITS)
    return FreeResolution(ideal, tuple(_minimalize(ring, steps)))


def _minimalize(ring: PolyRing, steps: list[ResolutionStep]) -> list[ResolutionStep]:
    """Cancel unit entries until no step has a nonzero constant entry,
    the first in step, row and column order first.

    A unit a at (i, j) is cancelled fraction-free, by the Schur
    complement on a: each other column with a term in row i becomes a
    times itself minus its row i times column j, and its scale is divided
    by a.  Then row i and column j go, with row j of the step above and
    column i of the step below."""
    modulus = steps[0].modulus
    twists = [list(steps[0].target.twists)] + [list(s.source.twists) for s in steps]
    layouts = [s.layout for s in steps]
    cols = [list(s.columns) for s in steps]
    scales = [list(s.scales) for s in steps]

    def find_unit():
        for k in range(len(cols)):
            hit = _first_unit(layouts[k], cols[k], twists[k + 1], twists[k])
            if hit:
                return k, hit
        return None

    while hit := find_unit():
        k, (i, j, pivot) = hit
        layout, col = layouts[k], cols[k][j]
        for j2, other in enumerate(cols[k]):
            row = [(t - pivot, c) for t, c in other.items() if layout.position(t) == i]
            if row and j2 != j:
                cols[k][j2], scales[k][j2] = _cancel(other, row, col, col[pivot], scales[k][j2], modulus)
        del cols[k][j], scales[k][j], twists[k + 1][j], twists[k][i]
        layouts[k], cols[k] = _drop_position(layout, cols[k], i)
        if k + 1 < len(cols):  # F_k lost generator j: drop row j upstairs
            layouts[k + 1], cols[k + 1] = _drop_position(layouts[k + 1], cols[k + 1], j)
        if k - 1 >= 0:  # F_{k-1} lost generator i: drop column i downstairs
            del cols[k - 1][i], scales[k - 1][i]

    # prune empty trailing modules
    cut = next((k for k in range(len(cols)) if not twists[k + 1]), len(cols))
    return [
        ResolutionStep(
            FreeModule(tuple(twists[k + 1])), FreeModule(tuple(twists[k])), ring,
            layouts[k], modulus, tuple(cols[k]), tuple(scales[k]),
        )
        for k in range(cut)
    ]


def _cancel(other: dict, row, col: dict, a: int, scale, modulus):
    """(a*other - sum of c*u*col over the terms (u, c) of ``row``, and
    the scale of the result): the row of ``other`` where ``col`` holds
    the constant a, each term as its monomial u and coefficient c.  That
    row cancels.  Over Q the result is made primitive."""
    out = {t: a * c for t, c in other.items()}
    for u, c2 in row:
        for t, c in col.items():
            s = out.pop(t + u, 0) - c2 * c
            if s:
                out[t + u] = s
    if modulus:
        out = {t: c % modulus for t, c in out.items() if c % modulus}
        return out, scale * pow(a, -1, modulus) % modulus
    content = gcd(*out.values()) or 1
    return {t: c // content for t, c in out.items()}, scale * content / a


def _drop_position(layout: Layout, columns: list[dict], i: int):
    """(layout, columns) without position i: its terms go, and the other
    positions are renumbered."""
    keep = [p for p in range(len(layout.bases)) if p != i]
    smaller = layout.restrict(keep)
    shift = {p: smaller.bases[k] - layout.bases[p] for k, p in enumerate(keep)}
    return smaller, [
        {t + shift[p]: c for t, c in col.items() if (p := layout.position(t)) != i} for col in columns
    ]


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
    coker = _coker_numerators(res.steps, True, budget) + [{}]
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
