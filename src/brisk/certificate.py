"""Degree-bounded membership certificates F_1 Q_1 + ... + F_m Q_m = Phi
on an affine variety V, and their power-ideal generalization

    Phi = sum over |I| = ell of F^I Q_I,   F^I = F_1^I_1 ... F_m^I_m.

``search_at_degree`` parametrizes every admissible cofactor completely
(all monomials up to the degree cap) and solves the resulting linear
system with ``linalg.solve_sparse``: elimination modulo a prime below
2^30 (the next prime when one fails), lifted to Q and checked exactly.
The solver sees only the block of NF(Phi): the rows and columns that
the rows of NF(Phi) reach through shared columns; every other column's
cofactor coefficient is 0.
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
matrix budget is checked as each column enters: rows and columns only
grow, so the first column that takes rows x columns past the cap
refuses the system, and no refused system is built whole.

``minimal_degree`` picks rho_min exactly, from one Groebner basis over Q
(``_pick_degree``): homogenize with a new last variable h, and rho_min
is deg NF(Phi) plus the least k with h^k NF(Phi)^h in the ideal K of the
homogenized F^I and variety basis, read off the basis truncated at
rho_max.  The columns at rho are among those at rho + 1, so feasibility
is monotone in rho, and two searches prove the pick: Found at rho_min
and NotFound at rho_min - 1, or NotFound at rho_max.  So a None, and the
minimality of rho_min, rest on a witness checked over Q, or on a degree
with no admissible column.  Per-generator caps do not homogenize, so a
capped scan searches each degree in turn.

``projective_lift`` rechecks a found certificate as the equivalent
homogeneous identity  sum f^I q_I = z0^(rho - deg Phi) phi  on the
projective closure, by ``verify`` on the lifted instance.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm

from . import kernel
from .errors import BudgetExceededError
from .groebner import (
    DEFAULT_BUDGET,
    Budget,
    GroebnerBasis,
    Ideal,
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
    ``packing.weights``; columns reduced on a variety are kept."""

    def __init__(self, inst, rho_max, per_gen_caps, budget):
        self.inst = inst
        self.gb = inst.groebner(budget)
        nf_phi = self.gb.normal_form(inst.phi)
        self.caps = _normalize_caps(per_gen_caps, inst.m, inst.power)
        top = max([rho_max, *(int(p.degree()) for p in (nf_phi, *self.gb) if p)])
        self.packing, self.reducers = self.gb.reducers(kernel.bits_for(top))
        self.phi = self._pack(nf_phi)
        self.shifts, self.bases, self.reduced = [[0]], {}, {}

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

    def columns(self, rho):
        """((I, key of alpha), column) for each x^alpha F^I of degree <= rho
        within the caps, by I then key."""
        for index, degree in self.indices():
            top = rho - degree
            for k in range(min(top, self.caps.get(index, top)) + 1):
                for shift in self._shifts(k):
                    yield (index, shift), self._column(index, shift)

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
        return col


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

    # rows[key][column] = coefficient; a row for each term of NF(Phi)
    labels: list[tuple[tuple[int, ...], int]] = []  # (I, key of alpha)
    rows: dict[int, dict[int, Fraction | int]] = defaultdict(dict, {k: {} for k in source.phi})
    cap = budget.max_matrix_entries
    for ci, (label, col) in enumerate(source.columns(rho)):
        labels.append(label)
        for k, c in col.items():
            rows[k][ci] = c
        # rows and columns only grow: the first excess refuses the system
        if len(rows) * len(labels) > cap:
            raise BudgetExceededError(
                f"budget exhausted: the linear system at rho = {rho} reaches "
                f"{len(rows)}x{len(labels)}, over {cap} entries "
                "(raise max_matrix_entries / --budget-matrix)"
            )
    if not labels:
        return None  # no admissible cofactor
    row_keys = sorted(rows, reverse=True)
    solution = solve_sparse(
        [rows[k] for k in row_keys],
        [source.phi.get(k, 0) for k in row_keys],
        len(labels),
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

    Feasibility is monotone in rho, so two exact searches prove the
    answer of ``_pick_degree``: a Found at rho_min and a NotFound at
    rho_min - 1, or a NotFound at rho_max.  A search that contradicts the
    pick is a bug (AssertionError).  Per-generator caps do not
    homogenize, so a capped scan searches each degree in turn."""
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
    rho = _pick_degree(source, rho_max, budget)
    below = search(rho - 1) if rho else None
    cert = search(rho_max if rho is None else rho)
    if below is not None or (cert is None) != (rho is None):
        raise AssertionError(f"the exact searches contradict the pick rho_min = {rho}")
    return None if rho is None else (rho, cert)


def _pick_degree(source: _Columns, rho_max: int, budget: Budget):
    """rho_min up to ``rho_max``, or None when no degree up to it has a
    certificate, from a homogeneous Groebner basis over Q.

    With a new last variable h, K is generated by each NF(F^I)
    homogenized at deg F^I and the homogenized grevlex basis of the
    variety ideal, which generates its homogenization (Cox, Little and
    O'Shea, ch. 8 section 4).  For rho >= deg Phi', Phi' = NF(Phi), a
    certificate of degree rho homogenizes into h^(rho - deg Phi') Phi'^h
    in K, and h = 1 takes one back: rho_min is deg Phi' plus the least k
    with h^k Phi'^h in K.  The basis stops at degree ``rho_max``
    (``groebner._packed_basis``), which decides membership up to there."""
    nvars = source.inst.ring.nvars
    unpack = source.packing.unpack_terms

    def homogenized(terms, degree):
        # on integers, which scale each generator and Phi'
        return {e + (degree - sum(e),): c for e, c in kernel.cleared(terms)[0].items()}

    phi = unpack(source.phi)
    deg_phi = max(map(sum, phi))
    if deg_phi > rho_max:
        return None
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
    reducers = [kernel.reducer(max(t), t) for t in basis]
    rest = packing.pack_terms(homogenized(phi, deg_phi))
    for degree in range(deg_phi, rho_max + 1):
        rest = kernel.normal_form(rest, reducers, packing)
        if not rest:
            return degree
        rest = {k + packing.weights[nvars]: c for k, c in rest.items()}
    return None


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
