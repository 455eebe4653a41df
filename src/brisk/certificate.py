"""Degree-bounded membership certificates F_1 Q_1 + ... + F_m Q_m = Phi
on an affine variety V, and their power-ideal generalization

    Phi = sum over |I| = ell of F^I Q_I,   F^I = F_1^I_1 ... F_m^I_m.

``search_at_degree`` parametrizes every admissible cofactor completely
(all monomials up to the degree cap) and solves the resulting linear
system with ``linalg.solve_sparse``: elimination modulo a prime below
2^30 (the next prime when one fails), lifted to Q and checked exactly.
It builds and solves only the block of NF(Phi): the rows and columns
that the rows of NF(Phi) reach through shared columns.  The rest of the
system is homogeneous and shares no row or column with the block, so
every other column's cofactor coefficient is 0.  The block keeps the
system's order of rows and columns, and a pivot's Markowitz count, fill
and ties read only the rows that hold its column, so its pivots, and
the answer, are those of an elimination of the whole system.
A solution satisfies every row over Q, and a NotFound answer (None)
rests on a left-kernel witness checked over Q, so it is a proof of
infeasibility at that degree, not a heuristic failure.  Every returned
certificate has passed ``verify``, which recomputes Phi - sum F^I Q_I
from the instance alone, on integers.

The system is built on packed monomials (``kernel.Packing``), whose int
order is grevlex, the order of the columns and of the rows.  NF(Phi)
and each NF(F^I) modulo a Groebner basis of the variety ideal are
computed once per scan; the column of x^alpha F^I is NF(F^I) shifted by
the key of alpha, reduced again (``kernel.normal_form``) only when V is
not the whole space.  Whole coefficients enter the rows as ints.  The
block is found by a walk from the rows of NF(Phi).  Over C^N the
columns that hold row r are the x^alpha F^I with key(alpha) = r - m for
a term m of NF(F^I), where r - m sets no guard bit (m divides r) and
deg alpha is at most rho - deg F^I and the cap of I.  On a variety each
column is reduced once per scan, and the column source indexes the rows
of each reduced column as it caches it.

The matrix budget caps rows x columns of the whole system, checked as
if its columns entered one by one in order: rows and columns only grow,
so the first column that takes rows x columns past the cap refuses the
system.  A ``minimal_degree`` scan also checks it at the degree that
its basis refutes, where it builds no system, so a scan refuses what a
search at that degree would.  The meter reads row keys only.  A row is
a term of NF(Phi) or a monomial of degree <= rho, so when
(|NF(Phi)| + C(n + rho, n)) times the number of columns is within the
cap nothing is counted; otherwise the keys are counted a batch at a time
(one per I and degree of alpha over C^N, one per column on a variety),
and a batch that passes the cap is replayed column by column to name the
column that refuses.

``minimal_degree`` picks rho_min exactly, from one Groebner basis over Q
(``_pick_degree``): homogenize with a new last variable h, and rho_min
is deg NF(Phi) plus the least k with h^k NF(Phi)^h in the ideal K of the
homogenized F^I and variety basis, read off the basis truncated at
rho_max.  The columns at rho are among those at rho + 1, so feasibility
is monotone in rho, and one degree below the pick proves every lower
one.  The exact search runs at rho_min only; the degree below it
(rho_min - 1, or rho_max when the pick names none) is refuted by the
pick's own truncated basis, checked on integers (``_refutes``): the
generators of K reduce to 0 by it, its S-pairs up to that degree reduce
to 0 (Buchberger's criterion truncated there), and h^k NF(Phi)^h does
not.  So a None, and the minimality of rho_min, rest on that check, or
on deg NF(Phi) alone, with no tracked cofactors.  Per-generator caps do
not homogenize, so a capped scan searches each degree in turn.

``projective_lift`` rechecks a found certificate as the equivalent
homogeneous identity  sum f^I q_I = z0^(rho - deg Phi) phi  on the
projective closure, by ``verify`` on the lifted instance.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import comb, lcm

from . import kernel
from .errors import BudgetExceededError
from .groebner import (
    DEFAULT_BUDGET,
    Budget,
    GroebnerBasis,
    Ideal,
    _check_pairs,
    _packed_basis,
    buchberger,
    saturate,
)
from .linalg import solve_sparse
from .orders import grevlex
from .polyring import NEG_INF, MultiPoly, PolyRing, homogenize

MAX_COFACTORS = 500


@dataclass(frozen=True)
class MembershipInstance:
    """The data of one membership problem on V = V(variety) in affine
    space: generators F, target Phi, and the power ell."""

    ring: PolyRing
    variety: Ideal
    gens: tuple[MultiPoly, ...]
    phi: MultiPoly
    power: int = 1

    def __post_init__(self):
        if not self.gens:
            raise ValueError("need at least one generator")
        for g in self.gens:
            if not g:
                raise ValueError("generators must be nonzero")
            if g.ring != self.ring:
                raise ValueError("generator outside the instance ring")
        if self.phi.ring != self.ring:
            raise ValueError("target outside the instance ring")
        if self.variety.ring != self.ring:
            raise ValueError("variety ideal outside the instance ring")
        if self.power < 1:
            raise ValueError("power must be >= 1")

    @property
    def m(self) -> int:
        return len(self.gens)

    def groebner(self, budget: Budget = DEFAULT_BUDGET) -> GroebnerBasis:
        return buchberger(self.variety, grevlex(), budget)


@dataclass(frozen=True)
class Certificate:
    """Exact cofactors, indexed by multi-index I (|I| = power).

    rho is the achieved degree max deg(F^I Q_I) over nonzero cofactors
    (NEG_INF when every cofactor is zero, i.e. Phi lies in the variety
    ideal itself)."""

    power: int
    cofactors: dict[tuple[int, ...], MultiPoly] = field(default_factory=dict)
    rho: int | float = NEG_INF
    verified: bool = False

    def cofactor(self, index) -> MultiPoly | None:
        if isinstance(index, int):
            width = len(next(iter(self.cofactors), ()))
            index = [int(j == index) for j in range(width)]
        return self.cofactors.get(tuple(index))


def multi_indices(m: int, ell: int) -> list[tuple[int, ...]]:
    """All multi-indices of length m and weight ell, lexicographically
    descending, so (ell, 0, ..) labels the first generator's power."""
    out: list[tuple[int, ...]] = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for v in range(remaining, -1, -1):
            rec(prefix + (v,), remaining - v, slots - 1)

    rec((), ell, m)
    return out


def _gen_power(inst: MembershipInstance, index: tuple[int, ...]) -> MultiPoly:
    out = inst.ring.one()
    for g, e in zip(inst.gens, index):
        if e:
            out = out * g**e
    return out


def _whole(c: Fraction) -> Fraction | int:
    return c.numerator if c.denominator == 1 else c


def _normalize_caps(per_gen_caps, m: int, ell: int) -> dict[tuple[int, ...], int]:
    caps: dict[tuple[int, ...], int] = {}
    if not per_gen_caps:
        return caps
    for key, cap in per_gen_caps.items():
        if isinstance(key, int):
            if not 0 <= key < m:
                raise ValueError(f"cap key {key} is not a generator index in 0..{m - 1}")
            key = [int(j == key) for j in range(m)]
        key = tuple(key)
        if len(key) != m or sum(key) != ell:
            raise ValueError(f"cap key {key} is not a weight-{ell} multi-index")
        caps[key] = int(cap)
    return caps


class _Columns:
    """The columns of a ``minimal_degree`` scan, or of one search, up to
    ``rho_max``, with their basis, caps, packing and packed NF(Phi).  The
    shifts of degree k are made once, from those of degree k - 1 plus
    ``packing.weights``.  On a variety each column is reduced once, and
    ``holders`` indexes the rows of the reduced columns: a row key maps
    to the (I, key of alpha) of each one that holds it."""

    def __init__(self, inst, rho_max, per_gen_caps, budget):
        self.inst = inst
        self.gb = inst.groebner(budget)
        nf_phi = self.gb.normal_form(inst.phi)
        self.caps = _normalize_caps(per_gen_caps, inst.m, inst.power)
        top = max([rho_max, *(int(p.degree()) for p in (nf_phi, *self.gb) if p)])
        self.packing, self.reducers = self.gb.reducers(kernel.bits_for(top))
        self.phi = self._pack(nf_phi)
        self.shifts, self.bases, self.reduced = [[0]], {}, {}
        self.holders = defaultdict(list)

    def indices(self):
        """(I, deg F^I) for each multi-index I, lexicographically
        descending; a budget error past ``MAX_COFACTORS``."""
        indices = multi_indices(self.inst.m, self.inst.power)
        if len(indices) > MAX_COFACTORS:
            raise BudgetExceededError(
                f"budget exhausted: {len(indices)} cofactors exceed the "
                f"{MAX_COFACTORS} cap"
            )
        degrees = [int(g.degree()) for g in self.inst.gens]
        return [(index, sum(e * d for e, d in zip(index, degrees))) for index in indices]

    def tops(self, rho):
        """(I, the largest degree of alpha) for each I whose x^alpha F^I
        has a column at rho: of degree <= rho and within the cap of I."""
        out = []
        for index, degree in self.indices():
            top = rho - degree
            top = min(top, self.caps.get(index, top))
            if top >= 0:
                out.append((index, top))
        return out

    def columns(self, rho):
        """((I, key of alpha), column) for each column of the system at
        rho, by I then key."""
        for index, top in self.tops(rho):
            for k in range(top + 1):
                for shift in self._shifts(k):
                    yield (index, shift), self._column(index, shift)

    def batches(self, tops):
        """The row keys of each column of the system at ``tops``, in
        column order and in batches: one per (I, degree of alpha) over
        C^N, one per column on a variety, reduced as it is read."""
        for index, top in tops:
            for k in range(top + 1):
                if self.reducers:
                    for shift in self._shifts(k):
                        yield [self._column(index, shift)]
                else:
                    base = self.base(index)
                    yield [[m + shift for m in base] for shift in self._shifts(k)]

    def base(self, index):
        """NF(F^I), packed."""
        base = self.bases.get(index)
        if base is None:
            nf = self.gb.normal_form(_gen_power(self.inst, index))
            base = self.bases[index] = self._pack(nf)
        return base

    def _pack(self, poly: MultiPoly) -> dict[int, Fraction | int]:
        return {self.packing.pack(e): _whole(c) for e, c in poly.terms.items()}

    def _shifts(self, k):
        """The keys of the monomials of degree k, ascending."""
        step = self.packing.weights
        while len(self.shifts) <= k:
            self.shifts.append(sorted({s + w for s in self.shifts[-1] for w in step}))
        return self.shifts[k]

    def _column(self, index, shift):
        col = self.reduced.get((index, shift))
        if col is None:
            col = {k + shift: c for k, c in self.base(index).items()}
            if self.reducers:
                col = kernel.normal_form(col, self.reducers, self.packing)
                self.reduced[index, shift] = col
                for k in col:
                    self.holders[k].append((index, shift))
        return col


def _meter(source: _Columns, rho, tops, cap):
    """Refuse the system at ``tops`` when its rows x columns pass
    ``cap``, naming the first column, in column order, that takes them
    past it.  Every column has degree <= rho, so a row is a term of
    NF(Phi) or a monomial of degree <= rho; when that bound times the
    number of columns is within the cap nothing is counted.  Otherwise
    the row keys are counted a batch at a time, and a batch that passes
    the cap is replayed column by column."""
    n = source.inst.ring.nvars
    ncols = sum(comb(n + top, n) for _, top in tops)
    if (len(source.phi) + comb(n + rho, n)) * ncols <= cap:
        return
    rows, ncols = set(source.phi), 0
    for batch in source.batches(tops):
        new = {k for keys in batch for k in keys if k not in rows}
        if (len(rows) + len(new)) * (ncols + len(batch)) > cap:
            # rows and columns only grow: the first excess refuses the system
            for keys in batch:
                rows.update(keys)
                ncols += 1
                if len(rows) * ncols > cap:
                    raise BudgetExceededError(
                        f"budget exhausted: the linear system at rho = {rho} reaches "
                        f"{len(rows)}x{ncols}, over {cap} entries "
                        "(raise max_matrix_entries / --budget-matrix)"
                    )
        rows |= new
        ncols += len(batch)


def _reach(source: _Columns, rho, tops):
    """(labels, rows) of the block of NF(Phi) in the system at ``tops``:
    the columns and rows that the rows of NF(Phi) reach through shared
    columns.  ``labels`` holds the (I, key of alpha) of its columns, by I
    then key, and ``rows`` maps each of its row keys, descending, to
    {column position: coefficient}.

    Over C^N column x^alpha F^I holds the rows key(alpha) + m for the
    terms m of NF(F^I), so the columns that hold row r are the r - m
    that are monomials (no guard bit set) of degree at most the top of
    I.  On a variety every column of the system is reduced first, and
    ``holders`` names the columns that hold r."""
    guard = source.packing.guard
    # a packed key shifted down by this is its degree, grevlex's top field
    field = guard.bit_length() - source.packing.bits
    if source.reducers:
        for _ in source.columns(rho):
            pass  # every column of the system reduced and indexed
        at = {index: (pos, top) for pos, (index, top) in enumerate(tops)}

        def holding(r):
            for index, shift in source.holders.get(r, ()):
                if index in at and shift >> field <= at[index][1]:
                    yield at[index][0], shift
    else:
        terms = [
            [(m, m >> field) for m in source.base(index)] for index, _ in tops
        ]

        def holding(r):
            d = r >> field
            for pos, (_, top) in enumerate(tops):
                for m, dm in terms[pos]:
                    if d - dm <= top and not (r - m) & guard:
                        yield pos, r - m

    reached = dict.fromkeys(source.phi)
    todo = list(reached)
    cols = {}  # (position of I, key of alpha) -> column
    while todo:
        for label in holding(todo.pop()):
            if label not in cols:
                col = cols[label] = source._column(tops[label[0]][0], label[1])
                for k in col:
                    if k not in reached:
                        reached[k] = None
                        todo.append(k)
    labels = sorted(cols)
    rows: dict[int, dict[int, Fraction | int]] = {k: {} for k in sorted(reached, reverse=True)}
    for ci, label in enumerate(labels):
        for k, c in cols[label].items():
            rows[k][ci] = c
    return [(tops[pos][0], shift) for pos, shift in labels], rows


def search_at_degree(
    inst: MembershipInstance,
    rho: int,
    per_gen_caps: dict | None = None,
    budget: Budget = DEFAULT_BUDGET,
    _source: _Columns | None = None,
) -> Certificate | None:
    """A verified certificate with deg(F^I Q_I) <= rho, or None when no
    such certificate exists (definitive: the cofactor space is enumerated
    completely).  A ``minimal_degree`` scan passes its column source, built
    for its rho_max and caps, as ``_source``."""
    source = _Columns(inst, rho, per_gen_caps, budget) if _source is None else _source
    if not source.phi:
        cert = Certificate(power=inst.power, cofactors={}, rho=NEG_INF, verified=False)
        if not verify(inst, cert, budget=budget, _gb=source.gb):
            raise AssertionError("zero certificate failed to verify")
        return replace(cert, verified=True)

    tops = source.tops(rho)
    if not tops:
        return None  # no admissible cofactor
    _meter(source, rho, tops, budget.max_matrix_entries)
    labels, rows = _reach(source, rho, tops)
    solution = solve_sparse(
        list(rows.values()), [source.phi.get(k, 0) for k in rows], len(labels)
    )
    if solution is None:
        return None

    cof_terms: dict[tuple[int, ...], dict] = {}
    for (index, shift), c in zip(labels, solution):
        if c:
            cof_terms.setdefault(index, {})[source.packing.unpack(shift)] = c
    cofactors = {
        index: MultiPoly(inst.ring, terms) for index, terms in cof_terms.items()
    }
    achieved = NEG_INF
    for index, q in cofactors.items():
        deg_fi = sum(e * int(g.degree()) for g, e in zip(inst.gens, index))
        achieved = max(achieved, deg_fi + q.degree())
    cert = Certificate(
        power=inst.power, cofactors=cofactors, rho=achieved, verified=False
    )
    if not verify(inst, cert, budget=budget, _gb=source.gb):
        raise AssertionError("solver produced a certificate that fails verification")
    return replace(cert, verified=True)


def verify(
    inst: MembershipInstance,
    cert: Certificate,
    budget: Budget = DEFAULT_BUDGET,
    _gb: GroebnerBasis | None = None,
) -> bool:
    """Recompute Phi - sum F^I Q_I from scratch and check that it lies in
    the variety ideal; independent of how the certificate was produced.

    The arithmetic is on integers: Phi, each F_j and each Q_I are cleared
    to one denominator, and the residual is formed as an integer multiple
    of the one over Q (``kernel.poly_mul``, ``poly_scale``, ``poly_sub``).
    A zero residual passes; a nonzero one is reduced modulo the Groebner
    basis of the variety ideal when V is not the whole space."""
    if cert.power != inst.power:
        return False
    for index, q in cert.cofactors.items():
        if len(index) != inst.m or sum(index) != inst.power or q.ring != inst.ring:
            return False
    phi, den = kernel.cleared(inst.phi.terms)
    gens = [kernel.cleared(g.terms) for g in inst.gens]
    cofactors = []  # (I, integer terms, d) with F^I Q_I = F'^I terms / d
    for index, q in cert.cofactors.items():
        terms, d = kernel.cleared(q.terms)
        for (_, dg), e in zip(gens, index):
            d *= dg**e
        cofactors.append((index, terms, d))
    common = lcm(den, *(d for *_, d in cofactors))
    residual = kernel.poly_scale(phi, common // den)
    for index, terms, d in cofactors:
        terms = kernel.poly_scale(terms, common // d)
        for (g, _), e in zip(gens, index):
            for _ in range(e):
                terms = kernel.poly_mul(terms, g)
        residual = kernel.poly_sub(residual, terms)
    if not residual or inst.variety.is_zero():
        return not residual
    gb = _gb if _gb is not None else inst.groebner(budget)
    return not gb.normal_form(MultiPoly(inst.ring, residual))


def minimal_degree(
    inst: MembershipInstance,
    rho_max: int,
    per_gen_caps: dict | None = None,
    budget: Budget = DEFAULT_BUDGET,
):
    """(rho_min, certificate) for the smallest feasible degree <= rho_max,
    or None when there is none (NotFound below rho_max).

    Feasibility is monotone in rho, so one degree below the answer of
    ``_pick_degree`` proves every lower one: rho_min - 1, or rho_max when
    the pick names none.  The pick's truncated basis refutes that degree
    (``_refutes``), and the exact search runs only at rho_min.  The
    matrix budget is still checked at the refuted degree (``_meter``), so
    a scan refuses the systems that a search there would refuse.  A
    refutation that fails, or a search that finds nothing at the pick, is
    a bug (AssertionError).  Per-generator caps do not homogenize, so a
    capped scan searches each degree in turn."""
    if rho_max < 0:
        raise ValueError("rho_max must be >= 0")
    source = _Columns(inst, rho_max, per_gen_caps, budget)

    def search(rho):
        return search_at_degree(inst, rho, budget=budget, _source=source)

    if not source.phi:
        return 0, search(0)
    if source.caps:
        for rho in range(rho_max + 1):
            cert = search(rho)
            if cert is not None:
                return rho, cert
        return None
    rho, proof = _pick_degree(source, rho_max, budget)
    below = rho_max if rho is None else rho - 1
    if below >= 0 and (tops := source.tops(below)):
        _meter(source, below, tops, budget.max_matrix_entries)
    if not _refutes(proof, below):
        raise AssertionError(f"the basis does not refute rho = {below} below the pick {rho}")
    if rho is None:
        return None
    cert = search(rho)
    if cert is None:
        raise AssertionError(f"the exact search finds nothing at the pick rho_min = {rho}")
    return rho, cert


@dataclass(frozen=True)
class _Proof:
    """What ``_pick_degree`` builds, kept for ``_refutes``: the packing
    with h last (None when no basis was built), the generators of K and
    the truncated basis as (primitive integer reducer, degree), h^0 Phi'^h
    packed on integers, deg Phi', and the budget whose pair cap counts
    the check's S-pairs."""

    packing: kernel.Packing | None
    gens: tuple
    basis: tuple
    phi: dict
    degree: int
    budget: Budget


def _pick_degree(source: _Columns, rho_max: int, budget: Budget):
    """(rho_min up to ``rho_max`` or None when no degree up to it has a
    certificate, the ``_Proof`` of that answer), from a homogeneous
    Groebner basis over Q.

    With a new last variable h, K is generated by each NF(F^I)
    homogenized at deg F^I and the homogenized grevlex basis of the
    variety ideal, which generates its homogenization (Cox, Little and
    O'Shea, ch. 8 section 4).  For rho >= deg Phi', Phi' = NF(Phi), a
    certificate of degree rho homogenizes into h^(rho - deg Phi') Phi'^h
    in K, and h = 1 takes one back: rho_min is deg Phi' plus the least k
    with h^k Phi'^h in K.  The basis stops at degree ``rho_max``
    (``groebner._packed_basis``), which decides membership up to there.
    The proof keeps the generators, the basis and Phi'^h, so that
    ``_refutes`` can check the degree below the answer from them alone."""
    nvars = source.inst.ring.nvars
    unpack = source.packing.unpack_terms

    def homogenized(terms, degree):
        # on integers, which scale each generator and Phi'
        return {e + (degree - sum(e),): c for e, c in kernel.cleared(terms)[0].items()}

    phi = unpack(source.phi)
    deg_phi = max(map(sum, phi))
    if deg_phi > rho_max:
        return None, _Proof(None, (), (), {}, deg_phi, budget)
    gens = [
        (homogenized(unpack(base), degree), degree)
        for index, degree in source.indices()
        if degree <= rho_max and (base := source.base(index))
    ]
    gens += [
        (homogenized(g.terms, degree), degree)
        for g in source.gb
        if (degree := int(g.degree())) <= rho_max
    ]

    # no element passes degree rho_max, so the fields never overflow
    packing = kernel.packing(grevlex(), nvars + 1, kernel.bits_for(rho_max))
    basis = _packed_basis(gens, packing, None, budget, rho_max)
    proof = _Proof(
        packing,
        tuple((packing.pack_terms(t), degree) for t, degree in gens),
        tuple((kernel.reducer(max(t), t), sum(packing.unpack(max(t)))) for t in basis),
        packing.pack_terms(homogenized(phi, deg_phi)),
        deg_phi,
        budget,
    )
    reducers = [r for r, _ in proof.basis]
    rest = proof.phi
    for degree in range(deg_phi, rho_max + 1):
        rest = kernel.normal_form(rest, reducers, packing)
        if not rest:
            return degree, proof
        rest = {k + packing.weights[nvars]: c for k, c in rest.items()}
    return None, proof


def _refutes(proof: _Proof, rho: int) -> bool:
    """Whether ``proof`` shows that no certificate has degree ``rho``,
    on integers and from its generators, basis and Phi'^h alone.

    No certificate has degree below deg Phi'.  Otherwise, with G the
    basis elements of degree <= rho, the check is Buchberger's criterion
    truncated at rho (Becker and Weispfenning, "Groebner Bases", 1993,
    section 5.5) and one normal form.  The labels are those of a
    truncated-basis proof; its check (a), that G lies in K, matters only
    for membership, so a refutation does without it:

    (b) every generator of K of degree <= rho reduces to 0 by G, so K
        lies in the ideal of G up to degree rho;
    (c) every S-pair of G with an lcm of degree <= rho reduces to 0 by G,
        so G is a Groebner basis of its ideal up to degree rho.  A pair
        with coprime leads is skipped, and so is a pair (i, j) with a
        lead k that divides lcm(i, j) while lcm(i, k) and lcm(j, k) both
        differ from it: those lcms strictly divide lcm(i, j), so the
        rule rests on pairs of smaller lcm and never on itself;
    (d) h^(rho - deg Phi') Phi'^h does not reduce to 0 by G, so it is
        not in the ideal of G, nor in K, and no certificate of degree
        rho homogenizes into it.

    Each S-pair reduced counts against the budget's ``max_pairs``.  The
    divisor and chain tests read packed leads: a lead divides a packed
    lcm when their difference sets no guard bit, and the lcm of each
    pair is packed once."""
    if rho < proof.degree:
        return True
    packing = proof.packing
    guard = packing.guard
    kept = [r for r, degree in proof.basis if degree <= rho]
    if any(kernel.normal_form(t, kept, packing) for t, degree in proof.gens if degree <= rho):
        return False

    leads = [r[0] for r in kept]
    exps = [packing.unpack(lead) for lead in leads]
    degrees = [sum(e) for e in exps]
    # lcms[i][j], packed, for each pair of lcm degree <= rho; a lead that
    # divides lcm(i, j) has an lcm with i and with j of no higher degree
    lcms = [[None] * len(kept) for _ in kept]
    pairs = []
    for j, b in enumerate(exps):
        for i in range(j):
            e = tuple(map(max, exps[i], b))
            degree = sum(e)
            if degree <= rho:
                lcms[i][j] = lcms[j][i] = t = packing.pack(e)
                if degree < degrees[i] + degrees[j]:  # else coprime: skipped
                    pairs.append((i, j, t))
    taken = 0
    for i, j, t in pairs:
        row_i, row_j = lcms[i], lcms[j]
        # row_j[i] and row_i[j] are t, so k is never i or j
        for k, lead in enumerate(leads):
            if not (t - lead) & guard and row_i[k] != t and row_j[k] != t:
                break  # the chain through k
        else:
            taken += 1
            _check_pairs(taken, proof.budget)
            s = kernel.s_poly(kept[i], kept[j], t, guard, None)
            if kernel.normal_form(s, kept, packing):
                return False

    shift = (rho - proof.degree) * packing.weights[-1]
    return bool(kernel.normal_form({k + shift: c for k, c in proof.phi.items()}, kept, packing))


@dataclass(frozen=True)
class ProjectiveLift:
    """The homogeneous form of a certificate: forms f_j of degree d, q_I of
    degree rho - ell*d, with sum f^I q_I = z0^(rho - deg Phi) phi modulo
    the ideal of the projective closure."""

    ring: PolyRing
    degree: int
    fs: tuple[MultiPoly, ...]
    cofactors: dict[tuple[int, ...], MultiPoly]
    phi: MultiPoly
    z0_power: int


class LiftError(AssertionError):
    """The homogeneous identity failed; this signals a bookkeeping bug in
    the caller (the affine certificate was already verified)."""


def projective_closure(ideal: Ideal, budget: Budget = DEFAULT_BUDGET, var: str = "z0") -> Ideal:
    """Ideal of the projective closure: homogenize the generators and
    saturate by the homogenizing variable; the zero ideal closes to zero."""
    ring = ideal.ring.extend_front(var)
    if ideal.is_zero():
        return Ideal(ring, [])
    hom = [homogenize(g, int(g.degree()), var) for g in ideal.gens]
    return saturate(Ideal(ring, hom), ring.var(0), budget)


def projective_lift(
    inst: MembershipInstance,
    cert: Certificate,
    rho: int,
    budget: Budget = DEFAULT_BUDGET,
) -> ProjectiveLift:
    """Homogenize a verified certificate with ``z0`` and check the identity
    sum f^I q_I = z0^(rho - deg Phi) phi exactly by ``verify`` on the
    lifted instance, modulo J_X, the ideal of the projective closure."""
    if not cert.verified or not verify(inst, cert, budget=budget):
        raise LiftError("certificate does not verify; cannot lift")
    if cert.rho != NEG_INF and cert.rho > rho:
        raise LiftError(f"achieved degree {cert.rho} exceeds rho = {rho}")
    d = max(int(g.degree()) for g in inst.gens)
    ell = inst.power
    if rho < ell * d and cert.cofactors:
        raise LiftError(f"rho = {rho} below the generator degree {ell * d}")
    ring = inst.ring.extend_front("z0")
    fs = tuple(homogenize(g, d, "z0") for g in inst.gens)
    deg_phi = 0 if not inst.phi else int(inst.phi.degree())
    phi_h = homogenize(inst.phi, deg_phi, "z0")
    qs: dict[tuple[int, ...], MultiPoly] = {}
    for index, q in cert.cofactors.items():
        if q.degree() > rho - ell * d:
            raise LiftError(
                "cofactor degree exceeds rho - ell*d; certificate not liftable "
                "at this rho"
            )
        qs[index] = homogenize(q, rho - ell * d, "z0")
    z0_power = rho - deg_phi
    closure = projective_closure(inst.variety, budget)
    lifted = MembershipInstance(ring, closure, fs, ring.var(0) ** z0_power * phi_h, ell)
    if not verify(lifted, Certificate(ell, qs), budget):
        raise LiftError("homogeneous identity failed")
    return ProjectiveLift(
        ring=ring,
        degree=rho,
        fs=fs,
        cofactors=qs,
        phi=phi_h,
        z0_power=z0_power,
    )
