"""Submodules of graded free modules: Groebner bases and syzygies.

Module elements run on the ideal engine: packed int monomials, int
coefficients (primitive over Q, reduced mod p over GF(p)) and the S-pair
loop of ``groebner``, whose Gebauer-Moeller update works within each
lead's position and leaves out the coprimality criterion, which holds
only for ideals.  Field coefficients appear only at the boundary:
``columns_to_elements`` packs matrix columns, and ``elements_to_columns``
turns int elements, each with a field scale, back into matrix entries.
Between the two, ``Layout.move`` carries a term from one layout to a
position of another, and ``Layout.restrict`` drops positions.

A ``Layout`` packs the module monomial u*e_i as

    bases[i] + (mono(u) << shift),

where mono(u) is the ring ``kernel.Packing`` of u with one more field on
top holding deg u, all fields w bits wide.  Two module orders are used:

  * ``Layout.free(..., twists)``: degree first (twists[i] plus an offset
    that keeps dual twists nonnegative sits in the top field of
    bases[i]), then the ring order, then the lower position.  The pair
    of fields (n - i, i + 1) sits below the monomial, above two empty
    fields.
  * ``layout.extend(leads)``: the Schreyer order induced by the leading
    monomials of a Groebner basis one step down the resolution.  It
    packs u*e_i as (key of u*lead_i) << 2w plus the pair (n - i, i + 1)
    in the two lowest fields, so ties go to the lower index.

Each pair sums to n + 1, so for two different positions one field of
their difference is negative and sets its guard bit: as for ideals,
``(m - lead) & guard == 0`` exactly when ``lead`` divides ``m`` in the
same position, and int comparison is the module order.

Relations are tracked as terms.  ``relations.track(layout, elems,
scales)`` appends scales[k] e_k of ``relations`` to element k, and gives
every term of ``layout`` a flag bit above all relation terms (which keeps
them below every module term, as ``normal_form`` needs) and the pair
(0, n + 1) in its two lowest fields (so that no lead divides a relation
term).  Division then carries the relations along.  With lc(g_k) e_k,
which stands for the monic g_k, appended to each element of a Groebner
basis g_1..g_t, the normal form of the S-element of a same-position pair
(i, j) has no module term left and is the syzygy

    sigma_ij = (lcm/lt_i) e_i - (lcm/lt_j) e_j - sum_k q_k e_k,

already packed in ``layout.extend(leads)``.  Over all pairs these form a
Groebner basis of the syzygy module for the induced Schreyer order
(Schreyer's theorem); only the pairs whose leading terms (lcm/lt_i) e_i
minimally generate that leading module are kept, which is what makes
iterated resolution steps cheap.

Any packing step raises OverflowError when a value outgrows its field;
the caller starts again with wider fields.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import kernel
from .fields import GFElement
from .groebner import DEFAULT_BUDGET, Budget, _basis_loop
from .polyring import MultiPoly, PolyRing


@dataclass(frozen=True)
class FreeModule:
    """⊕_i S(-twists[i]): generator i in degree twists[i]."""

    twists: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.twists)


def _pair(n: int, i: int, packing) -> int:
    """The two fields (n - i, i + 1) of position i among n."""
    if n + 1 >= packing.limit:
        raise OverflowError("module rank exceeds the packed field width")
    return ((n - i) << packing.bits) + i + 1


def _low_guard(packing, fields: int) -> int:
    """Guard bits of the ``fields`` lowest fields."""
    return sum(1 << (k * packing.bits + packing.bits - 1) for k in range(fields))


@dataclass(frozen=True, slots=True)
class Layout:
    """Module monomials of one free module and order as ints.

    ``where`` is the shift of the pair that holds the position, ``flag``
    the bit every module term carries above tracked relation terms (0
    when none are tracked), ``offset`` the amount added to every degree
    field."""

    packing: kernel.Packing
    bases: tuple[int, ...]
    shift: int
    guard: int
    where: int
    flag: int
    offset: int

    @property
    def ring_bits(self) -> int:
        """The width of the ring packing, below the degree field."""
        return self.packing.guard.bit_length()

    @classmethod
    def free(cls, order, nvars: int, bits: int, twists) -> Layout:
        """⊕ S(-twists[i]) under degree, then the ring order ``order``,
        then the lower position."""
        packing = kernel.packing(order, nvars, bits)
        ring_bits = packing.guard.bit_length()
        offset = max(0, -min(twists, default=0))
        bases = []
        for i, twist in enumerate(twists):
            if twist + offset >= packing.limit:
                raise OverflowError("twist exceeds the packed field width")
            pair = _pair(len(twists), i, packing) << 2 * bits
            bases.append(((twist + offset) << (ring_bits + 4 * bits)) + pair)
        mono_guard = packing.guard | packing.limit << ring_bits
        guard = (mono_guard << 4 * bits) | _low_guard(packing, 4)
        return cls(packing, tuple(bases), 4 * bits, guard, 2 * bits, 0, offset)

    def extend(self, leads) -> Layout:
        """The Schreyer order on ⊕ S(-deg lead_k) induced by ``leads``, keys
        of this layout: u*e_k packs as (u*leads[k]) << 2w + (n - k, k + 1)."""
        step = 2 * self.packing.bits
        n = len(leads)
        bases = tuple((lead << step) + _pair(n, k, self.packing) for k, lead in enumerate(leads))
        guard = (self.guard << step) | _low_guard(self.packing, 2)
        return Layout(self.packing, bases, self.shift + step, guard, 0, 0, self.offset)

    def track(self, inner: Layout, elems, scales):
        """(layout, elements): each of ``elems``, terms of ``inner``, with
        scales[k] * e_k of this layout appended.  In the returned layout
        the terms of ``inner`` keep their order and divisibility, carry a
        flag bit above every term of this layout, and the pair (0, n + 1)
        in their two lowest fields, which no relation term matches.  This
        layout's two lowest fields must be free in ``inner``: ``inner`` is
        free, or this layout extends it."""
        bits = self.packing.bits
        d = self.shift - inner.shift
        flag = 1 << (self.shift + self.ring_bits + bits)
        tag = flag + _pair(len(self.bases), len(self.bases), self.packing)
        tracked = Layout(
            self.packing,
            tuple((b << d) + tag for b in inner.bases),
            self.shift,
            (inner.guard << d) | _low_guard(self.packing, 2),
            inner.where + d,
            flag,
            inner.offset,
        )
        out = []
        for k, elem in enumerate(elems):
            terms = {(t << d) + tag: c for t, c in elem.items()}
            terms[self.bases[k]] = scales[k]
            out.append(terms)
        return tracked, out

    def pack(self, pos: int, exp) -> int:
        mono = self.packing.pack(exp) + (sum(exp) << self.ring_bits)
        key = self.bases[pos] + (mono << self.shift)
        if key & self.guard:
            raise OverflowError("module monomial exceeds the packed field width")
        return key

    def unpack(self, key: int) -> tuple[int, tuple[int, ...]]:
        """(position, exponent) of a key."""
        pos = self.position(key)
        return pos, self.packing.unpack((key - self.bases[pos]) >> self.shift)

    def position(self, key: int) -> int:
        return (key >> self.where & (1 << self.packing.bits) - 1) - 1

    def monomial(self, key: int, to: Layout) -> int:
        """The ring monomial u of the term u*e_i ``key`` as ``to`` adds it:
        ``to``'s key of u*e_k is ``to.bases[k]`` plus this."""
        mono = (key - self.bases[self.position(key)]) >> self.shift
        if to.packing is not self.packing:
            exp = self.packing.unpack(mono)
            mono = to.packing.pack(exp) + (sum(exp) << to.ring_bits)
        return mono << to.shift

    def move(self, key: int, to: Layout, pos: int) -> int:
        """The term u*e_i ``key`` as u*e_pos of ``to``."""
        out = to.bases[pos] + self.monomial(key, to)
        if out & to.guard:
            raise OverflowError("module monomial exceeds the packed field width")
        return out

    def restrict(self, keep) -> Layout:
        """This layout on the positions ``keep`` alone, renumbered in
        order: only the pair of fields that holds each position changes,
        so terms keep their order and divisibility."""
        n, m = len(self.bases), len(keep)
        bases = tuple(
            self.bases[i] + (_pair(m, k, self.packing) - _pair(n, i, self.packing) << self.where)
            for k, i in enumerate(keep)
        )
        return replace(self, bases=bases)

    def degree(self, key: int) -> int:
        """Degree of a module monomial, twist included."""
        field = key >> (self.shift + self.ring_bits) & (1 << self.packing.bits) - 1
        return field - self.offset


# ---------------------------------------------------------- Groebner bases


def _minimal_pairs(leads):
    """The pairs (i, j), i < j in the same position, whose quotient
    lcm(lt_i, lt_j)/lt_i minimally generates the monomial ideal of those
    quotients over all such j (the smallest j on ties)."""
    for i, (pos, ei) in enumerate(leads):
        first: dict = {}
        for j in range(i + 1, len(leads)):
            if leads[j][0] == pos:
                q = kernel.mono_div(kernel.mono_lcm(ei, leads[j][1]), ei)
                first.setdefault(q, j)
        for q in kernel.minimal_generators(first):
            yield i, first[q]


def module_groebner(
    inputs: list[dict],
    layout: Layout,
    modulus: int | None,
    budget: Budget = DEFAULT_BUDGET,
) -> list[dict]:
    """Groebner basis of the submodule generated by ``inputs``, packed int
    elements of ``layout``; tracked relation terms ride along.

    Returns normalized elements in the order found.  Inputs without a
    module term are skipped.  The basis comes from the Gebauer-Moeller
    S-pair loop (``groebner._basis_loop``), which over Q keeps tails
    reduced as it does for ideals.  Pairs are taken smallest lcm first
    (the normal strategy, which completes a homogeneous module degree by
    degree), and each new element goes through the Gebauer-Moeller
    update within its position, criteria B_k, M and F.  The coprimality
    criterion does not hold for modules and is not used.  The sugar of an
    element is its degree.
    """
    gens = [(elem, layout.degree(max(elem))) for elem in inputs if elem]
    key = lambda pos, lcm_exp, sugar: layout.pack(pos, lcm_exp)
    return _basis_loop(gens, layout, modulus, budget, pair_key=key)


def _canonical(elems, modulus: int | None) -> list[dict]:
    """Normalized, without repeats, sorted by leading monomial (degree
    first, as every layout's top field is the degree)."""
    unique: dict = {}
    for e in elems:
        e = kernel.normalized(e, max(e), modulus)
        unique.setdefault(frozenset(e.items()), e)
    return sorted(unique.values(), key=max)


def _relations(elems, reducers, layout: Layout, modulus, what: str) -> list[dict]:
    """The relation terms left when ``elems`` reduce to zero."""
    out = []
    for elem in elems:
        nf = kernel.normal_form(elem, reducers, layout, modulus)
        if nf and max(nf) >= layout.flag:
            raise AssertionError(f"{what} did not reduce to zero")
        if nf:
            out.append(nf)
    return out


def syzygies_of_groebner(basis: list[dict], layout: Layout, modulus: int | None) -> list[dict]:
    """The relations that the S-elements of the Groebner basis ``basis``
    (of a tracking layout) leave, one per pair of ``_minimal_pairs``,
    canonical.  With lc(g_k) e_k of ``extend(leads)`` tracked they are the
    sigma_ij of the module docstring: the Schreyer order breaks ties by
    the lower index, so sigma_ij leads with (lcm/lt_i) e_i, and the kept
    pairs have the leading monomials of all same-position pairs up to
    divisibility."""
    reducers = [kernel.reducer(max(g), g) for g in basis]
    leads = [layout.unpack(r[0]) for r in reducers]

    def s_elements():
        for i, j in _minimal_pairs(leads):
            pos, ei = leads[i]
            lcm_key = layout.pack(pos, kernel.mono_lcm(ei, leads[j][1]))
            yield kernel.s_poly(reducers[i], reducers[j], lcm_key, layout.guard, modulus)

    syz = _relations(s_elements(), reducers, layout, modulus, "S-element of a Groebner basis")
    return _canonical(syz, modulus)


def syzygies_of_columns(
    columns: list[dict],
    scales,
    layout: Layout,
    relations: Layout,
    modulus: int | None,
    budget: Budget = DEFAULT_BUDGET,
) -> list[dict]:
    """Generating set for the relations sum_j h_j * v_j = 0 among the
    vectors v_j = scales[j] * columns[j], as canonical int elements of
    the free layout ``relations`` (generator j for column j).

    ``columns`` are packed int terms of the free layout ``layout``, and
    ``scales`` nonzero Fractions over Q, ints mod p.  Each column tracks
    its own generator, e_j / scales[j], so the result combines the
    Groebner-basis syzygies, mapped back to the columns by the tracked
    relations, with the relation each column leaves when it reduces to
    zero modulo the basis (a zero column is its own relation).
    """
    tracked, inputs = relations.track(layout, columns, [1 / Fraction(s) for s in scales])
    inputs = [kernel.to_ints(e, modulus) for e in inputs]
    basis = module_groebner(inputs, tracked, modulus, budget)
    reducers = [kernel.reducer(max(g), g) for g in basis]
    syz = syzygies_of_groebner(basis, tracked, modulus)
    syz += _relations(inputs, reducers, tracked, modulus, "input column")
    return _canonical(syz, modulus)


# ------------------------------------------------- matrix <-> module glue


def columns_to_elements(matrix: list[list[MultiPoly]], layout: Layout) -> list[dict]:
    """Matrix columns (rows = generators of ``layout``) as packed terms
    with their field coefficients."""
    ncols = len(matrix[0]) if matrix else 0
    return [
        {layout.pack(i, e): c for i, row in enumerate(matrix) for e, c in row[j].terms.items()}
        for j in range(ncols)
    ]


def elements_to_columns(
    elems: list[dict], scales, layout: Layout, modulus: int | None, ring: PolyRing, target_rank: int
) -> list[list[MultiPoly]]:
    """Int elements as matrix columns, column j scaled by scales[j] (a
    Fraction over Q, an int mod p); result[i][j] = entry (row i, col j)."""
    rows = [[ring.zero() for _ in elems] for _ in range(target_rank)]
    for j, (elem, scale) in enumerate(zip(elems, scales)):
        per_row: dict[int, dict] = {}
        for key, v in elem.items():
            pos, e = layout.unpack(key)
            per_row.setdefault(pos, {})[e] = GFElement(v * scale, modulus) if modulus else v * scale
        for pos, terms in per_row.items():
            rows[pos][j] = MultiPoly(ring, terms)
    return rows
