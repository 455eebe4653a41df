"""Degree-bounded membership certificates F_1 Q_1 + ... + F_m Q_m = Phi
on an affine variety V, and their power-ideal generalization

    Phi = sum over |I| = ell of F^I Q_I,   F^I = F_1^I_1 ... F_m^I_m.

``search_at_degree`` parametrizes every admissible cofactor completely
(all monomials up to the degree cap) and solves the resulting linear
system with ``linalg.solve_sparse``: elimination modulo a prime below
2^30 (the next prime when one fails), lifted to Q and checked exactly.
A solution satisfies every row over Q, and a NotFound answer (None)
rests on a left-kernel witness checked over Q, so it is a proof of
infeasibility at that degree, not a heuristic failure.

The system is built on packed monomials (``kernel.Packing``), whose int
order is grevlex, the order of the columns and of the rows.  NF(F^I)
modulo a Groebner basis of the variety ideal is computed once per
multi-index; the column of x^alpha F^I is that normal form shifted by
the key of alpha, reduced again (``kernel.normal_form``) only when V is
not the whole space.  Whole coefficients enter the rows as ints.

``minimal_degree`` rests on two such searches.  The columns at rho are
among those at rho + 1, so feasibility is monotone in rho, and a
``linalg.Span`` mod a prime, grown by each degree's new columns, names
the candidate rho_min: the first degree whose span holds NF(Phi).  The
search there must be Found and the one at rho_min - 1 NotFound (with no
candidate, the one at rho_max NotFound); otherwise every degree is
searched in turn.  So a None, and the minimality of rho_min, rest on a
witness checked over Q, or on a degree with no admissible column.

``projective_lift`` rechecks a found certificate as the equivalent
homogeneous identity  sum f^I q_I = z0^(rho - deg Phi) phi  on the
projective closure.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

from . import kernel
from .errors import BudgetExceededError
from .groebner import (
    DEFAULT_BUDGET,
    Budget,
    GroebnerBasis,
    Ideal,
    buchberger,
    saturate,
)
from .linalg import Span, exceeds, solve_sparse
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


def _singleton(j: int, m: int) -> tuple[int, ...]:
    e = [0] * m
    e[j] = 1
    return tuple(e)


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
            key = _singleton(key, m)
        key = tuple(key)
        if len(key) != m or sum(key) != ell:
            raise ValueError(f"cap key {key} is not a weight-{ell} multi-index")
        caps[key] = int(cap)
    return caps


def _packed(gb: GroebnerBasis, nf_phi: MultiPoly, rho: int):
    """(packing, variety reducers, packed NF(Phi)) for columns up to rho."""
    top = max(rho, int(nf_phi.degree()), *(int(g.degree()) for g in gb))
    packing, reducers = gb.reducers(kernel.bits_for(top))
    return packing, reducers, {packing.pack(e): _whole(c) for e, c in nf_phi.terms.items()}


def _columns(inst, gb, rho, caps, packing, reducers, reduced, bases, seen=()):
    """((I, key of alpha), column) for each x^alpha F^I of degree <= rho,
    within ``caps`` and not in ``seen``, by I then key: NF(F^I) (kept in
    ``bases``) shifted by alpha, reduced again on a variety (kept in
    ``reduced``)."""
    indices = multi_indices(inst.m, inst.power)
    if len(indices) > MAX_COFACTORS:
        raise BudgetExceededError(
            f"budget exhausted: {len(indices)} cofactors exceed the "
            f"{MAX_COFACTORS} cap"
        )
    for index in indices:
        cap = rho - sum(e * int(g.degree()) for g, e in zip(inst.gens, index))
        if index in caps:
            cap = min(cap, caps[index])
        if cap < 0:
            continue
        base = bases.get(index)
        if base is None:
            nf = gb.normal_form(_gen_power(inst, index))
            base = bases[index] = [(packing.pack(e), _whole(c)) for e, c in nf.terms.items()]
        for shift in sorted(map(packing.pack, inst.ring.exponents_up_to(cap))):
            if (index, shift) in seen:
                continue
            col = reduced.get((index, shift))
            if col is None:
                col = {k + shift: c for k, c in base}
                if reducers:
                    col = reduced[index, shift] = kernel.normal_form(col, reducers, packing)
            yield (index, shift), col


def search_at_degree(
    inst: MembershipInstance,
    rho: int,
    per_gen_caps: dict | None = None,
    budget: Budget = DEFAULT_BUDGET,
    _gb: GroebnerBasis | None = None,
    _reduced: dict | None = None,
) -> Certificate | None:
    """A verified certificate with deg(F^I Q_I) <= rho, or None when no
    such certificate exists (definitive: the cofactor space is enumerated
    completely).

    ``minimal_degree`` shares one ``_reduced`` dict between its span and
    its searches: the columns {(I, key of alpha): terms} reduced on the
    variety, by field width (none over C^N, where a column is a shift)."""
    gb = _gb if _gb is not None else inst.groebner(budget)
    nf_phi = gb.normal_form(inst.phi)
    if not nf_phi:
        cert = Certificate(power=inst.power, cofactors={}, rho=NEG_INF, verified=False)
        if not verify(inst, cert, budget=budget, _gb=gb):
            raise AssertionError("zero certificate failed to verify")
        return _mark_verified(cert)

    caps = _normalize_caps(per_gen_caps, inst.m, inst.power)
    packing, reducers, rhs = _packed(gb, nf_phi, rho)
    reduced = {} if _reduced is None else _reduced.setdefault(packing.bits, {})
    # rows[key][column] = coefficient
    labels: list[tuple[tuple[int, ...], int]] = []  # (I, key of alpha)
    rows: dict[int, dict[int, Fraction | int]] = defaultdict(dict)
    columns = _columns(inst, gb, rho, caps, packing, reducers, reduced, {})
    for ci, (label, col) in enumerate(columns):
        labels.append(label)
        for k, c in col.items():
            rows[k][ci] = c
    if not labels:
        return None  # no admissible cofactor
    row_keys = sorted(rows.keys() | rhs.keys(), reverse=True)
    solution = solve_sparse(
        [rows.get(k, {}) for k in row_keys],
        [rhs.get(k, 0) for k in row_keys],
        len(labels),
        budget.max_matrix_entries,
    )
    if solution is None:
        return None

    cof_terms: dict[tuple[int, ...], dict] = {}
    for (index, shift), c in zip(labels, solution):
        if c:
            cof_terms.setdefault(index, {})[packing.unpack(shift)] = c
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
    if not verify(inst, cert, budget=budget, _gb=gb):
        raise AssertionError("solver produced a certificate that fails verification")
    return _mark_verified(cert)


def _mark_verified(cert: Certificate) -> Certificate:
    return Certificate(
        power=cert.power, cofactors=dict(cert.cofactors), rho=cert.rho, verified=True
    )


def verify(
    inst: MembershipInstance,
    cert: Certificate,
    budget: Budget = DEFAULT_BUDGET,
    _gb: GroebnerBasis | None = None,
) -> bool:
    """Recompute NF(Phi - sum F^I Q_I) from scratch; independent of how
    the certificate was produced."""
    if cert.power != inst.power:
        return False
    residual = inst.phi
    for index, q in cert.cofactors.items():
        if len(index) != inst.m or sum(index) != inst.power:
            return False
        if q.ring != inst.ring:
            return False
        residual = residual - _gen_power(inst, index) * q
    gb = _gb if _gb is not None else inst.groebner(budget)
    return not gb.normal_form(residual)


def minimal_degree(
    inst: MembershipInstance,
    rho_max: int,
    per_gen_caps: dict | None = None,
    budget: Budget = DEFAULT_BUDGET,
):
    """(rho_min, certificate) for the smallest feasible degree <= rho_max,
    or None when there is none (NotFound below rho_max).

    Feasibility is monotone in rho, so two exact searches decide the
    scan: a Found at rho_min and a NotFound at rho_min - 1, or a NotFound
    at rho_max.  ``_span_degree`` picks rho_min mod a prime, or the first
    degree over the budget, where the search raises its error once the
    degree below is proven NotFound.  If the prime lied, every degree is
    searched in turn."""
    if rho_max < 0:
        raise ValueError("rho_max must be >= 0")
    gb = inst.groebner(budget)
    nf_phi = gb.normal_form(inst.phi)
    if not nf_phi:
        return 0, search_at_degree(inst, 0, per_gen_caps, budget, _gb=gb)
    caps = _normalize_caps(per_gen_caps, inst.m, inst.power)
    reduced: dict = {}

    def search(rho):
        return search_at_degree(inst, rho, per_gen_caps, budget, _gb=gb, _reduced=reduced)

    rho = _span_degree(inst, gb, nf_phi, rho_max, caps, budget, reduced)
    if rho is None:
        if search(rho_max) is None:
            return None
    elif rho == 0 or search(rho - 1) is None:
        # rho - 1 is proven infeasible, so a Found at rho is minimal, and
        # a budget error at rho is the one the ascending scan would raise
        cert = search(rho)
        if cert is not None:
            return rho, cert
    for rho in range(rho_max + 1):
        cert = search(rho)
        if cert is not None:
            return rho, cert
    return None


def _span_degree(inst, gb, nf_phi, rho_max, caps, budget, reduced):
    """The first degree up to ``rho_max`` whose columns span NF(Phi) mod
    ``linalg.P``, or whose system is over the matrix budget; None when
    there is none.  Each degree adds only its new columns."""
    packing, reducers, phi = _packed(gb, nf_phi, rho_max)
    reduced = reduced.setdefault(packing.bits, {})
    span, bases, seen, keys = Span(), {}, set(), set(phi)
    for rho in range(rho_max + 1):
        new = dict(_columns(inst, gb, rho, caps, packing, reducers, reduced, bases, seen))
        seen.update(new)
        keys.update(*new.values())
        # the rows (supports and NF(Phi)) and columns solve_sparse meters
        if exceeds(len(keys), len(seen), budget.max_matrix_entries):
            return rho
        for col in new.values():
            span.add(col)
        if phi in span:
            return rho
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
    saturate by the homogenizing variable."""
    ring = ideal.ring.extend_front(var)
    hom = [homogenize(g, int(g.degree()), var) for g in ideal.gens]
    return saturate(Ideal(ring, hom), ring.var(0), budget)


def projective_lift(
    inst: MembershipInstance,
    cert: Certificate,
    rho: int,
    j_x: Ideal | None = None,
    budget: Budget = DEFAULT_BUDGET,
    var: str = "z0",
) -> ProjectiveLift:
    """Homogenize a verified certificate and check the identity
    sum f^I q_I = z0^(rho - deg Phi) phi exactly (modulo J_X when the
    variety is nonzero; J_X is computed from the variety ideal when not
    supplied)."""
    if not cert.verified or not verify(inst, cert, budget=budget):
        raise LiftError("certificate does not verify; cannot lift")
    if cert.rho != NEG_INF and cert.rho > rho:
        raise LiftError(f"achieved degree {cert.rho} exceeds rho = {rho}")
    d = max(int(g.degree()) for g in inst.gens)
    ell = inst.power
    if rho < ell * d and cert.cofactors:
        raise LiftError(f"rho = {rho} below the generator degree {ell * d}")
    ring = inst.ring.extend_front(var)
    fs = tuple(homogenize(g, d, var) for g in inst.gens)
    deg_phi = 0 if not inst.phi else int(inst.phi.degree())
    phi_h = homogenize(inst.phi, deg_phi, var)
    qs: dict[tuple[int, ...], MultiPoly] = {}
    for index, q in cert.cofactors.items():
        if q.degree() > rho - ell * d:
            raise LiftError(
                "cofactor degree exceeds rho - ell*d; certificate not liftable "
                "at this rho"
            )
        qs[index] = homogenize(q, rho - ell * d, var)
    lhs = ring.zero()
    for index, q_h in qs.items():
        prod = q_h
        for f, e in zip(fs, index):
            if e:
                prod = prod * f**e
        lhs = lhs + prod
    z0_power = rho - deg_phi
    rhs = ring.var(0) ** z0_power * phi_h
    residual = lhs - rhs
    if inst.variety.is_zero():
        if residual:
            raise LiftError("homogeneous identity failed over the full ring")
    else:
        closure = j_x if j_x is not None else projective_closure(inst.variety, budget, var)
        if not buchberger(closure, grevlex(), budget).contains(residual):
            raise LiftError("homogeneous identity failed modulo the closure ideal")
    return ProjectiveLift(
        ring=ring,
        degree=rho,
        fs=fs,
        cofactors=qs,
        phi=phi_h,
        z0_power=z0_power,
    )
