"""Degree-bounded membership certificates F_1 Q_1 + ... + F_m Q_m = Phi
on an affine variety V, and their power-ideal generalization

    Phi = sum over |I| = ell of F^I Q_I,   F^I = F_1^I_1 ... F_m^I_m.

``search_at_degree`` parametrizes every admissible cofactor completely
(all monomials up to the degree cap), reduces modulo a Groebner basis of
the variety ideal, and solves the resulting linear system exactly, so a
NotFound answer (None) is a proof of infeasibility at that degree, not a
heuristic failure.  ``minimal_degree`` scans upward; feasibility is
monotone in the degree because the cap sets only grow.

``projective_lift`` rechecks a found certificate as the equivalent
homogeneous identity  sum f^I q_I = z0^(rho - deg Phi) phi  on the
projective closure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BudgetExceededError
from .groebner import (
    DEFAULT_BUDGET,
    Budget,
    GroebnerBasis,
    Ideal,
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
            index = _singleton(index, self._width())
        return self.cofactors.get(tuple(index))

    def _width(self) -> int:
        for key in self.cofactors:
            return len(key)
        return 0


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


def _monomials_up_to(ring: PolyRing, cap: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree <= cap, sorted ascending in grevlex."""
    out: list[tuple[int, ...]] = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            out.append(prefix)
            return
        for v in range(remaining + 1):
            rec(prefix + (v,), remaining - v, slots - 1)

    rec((), cap, ring.nvars)
    order = grevlex()
    out.sort(key=order.key)
    return out


def _normalize_caps(per_gen_caps, m: int, ell: int) -> dict[tuple[int, ...], int]:
    caps: dict[tuple[int, ...], int] = {}
    if not per_gen_caps:
        return caps
    for key, cap in per_gen_caps.items():
        if isinstance(key, int):
            key = _singleton(key, m)
        key = tuple(key)
        if len(key) != m or sum(key) != ell:
            raise ValueError(f"cap key {key} is not a weight-{ell} multi-index")
        caps[key] = int(cap)
    return caps


def search_at_degree(
    inst: MembershipInstance,
    rho: int,
    per_gen_caps: dict | None = None,
    budget: Budget = DEFAULT_BUDGET,
    _gb: GroebnerBasis | None = None,
) -> Certificate | None:
    """A verified certificate with deg(F^I Q_I) <= rho, or None when no
    such certificate exists (definitive: the cofactor space is enumerated
    completely)."""
    gb = _gb if _gb is not None else inst.groebner(budget)
    nf_phi = gb.normal_form(inst.phi)
    if not nf_phi:
        cert = Certificate(power=inst.power, cofactors={}, rho=NEG_INF, verified=False)
        if not verify(inst, cert, budget=budget, _gb=gb):
            raise AssertionError("zero certificate failed to verify")
        return _mark_verified(cert)

    caps = _normalize_caps(per_gen_caps, inst.m, inst.power)
    indices = multi_indices(inst.m, inst.power)
    if len(indices) > MAX_COFACTORS:
        raise BudgetExceededError(
            f"budget exhausted: {len(indices)} cofactors exceed the "
            f"{MAX_COFACTORS} cap"
        )
    admissible: list[tuple[tuple[int, ...], int, int]] = []  # (I, degFI, cap)
    for index in indices:
        deg_fi = sum(e * int(g.degree()) for g, e in zip(inst.gens, index))
        cap = rho - deg_fi
        if index in caps:
            cap = min(cap, caps[index])
        if cap >= 0:
            admissible.append((index, deg_fi, cap))
    if not admissible:
        return None

    # columns: NF(F^I x^alpha); rows indexed by the monomials appearing
    columns: list[tuple[tuple[int, ...], tuple[int, ...], dict]] = []
    for index, _, cap in admissible:
        base = gb.normal_form(_gen_power(inst, index))
        for alpha in _monomials_up_to(inst.ring, cap):
            shifted = MultiPoly(inst.ring, {alpha: Fraction(1)}) * base
            col = gb.normal_form(shifted)
            columns.append((index, alpha, col.terms))

    row_monos = set(nf_phi.terms)
    for _, _, terms in columns:
        row_monos.update(terms)
    order = grevlex()
    row_list = sorted(row_monos, key=order.key, reverse=True)
    row_index = {mono: i for i, mono in enumerate(row_list)}

    rows: list[dict[int, Fraction]] = [dict() for _ in row_list]
    for ci, (_, _, terms) in enumerate(columns):
        for mono, c in terms.items():
            rows[row_index[mono]][ci] = c
    rhs = [nf_phi.terms.get(mono, Fraction(0)) for mono in row_list]
    # the rows hold every entry now; keep only the labels of the columns
    labels = [(index, alpha) for index, alpha, _ in columns]
    del columns

    solution = solve_sparse(rows, rhs, len(labels), budget.max_matrix_entries)
    if solution is None:
        return None

    cof_terms: dict[tuple[int, ...], dict] = {}
    for ci, (index, alpha) in enumerate(labels):
        c = solution[ci]
        if c:
            cof_terms.setdefault(index, {})[alpha] = c
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

    Feasibility is monotone in rho, so the ascending scan is exact."""
    if rho_max < 0:
        raise ValueError("rho_max must be >= 0")
    gb = inst.groebner(budget)
    if not gb.normal_form(inst.phi):
        cert = search_at_degree(inst, 0, per_gen_caps, budget, _gb=gb)
        return 0, cert
    start = min(
        sum(e * int(g.degree()) for g, e in zip(inst.gens, index))
        for index in multi_indices(inst.m, inst.power)
    )
    for rho in range(start, rho_max + 1):
        cert = search_at_degree(inst, rho, per_gen_caps, budget, _gb=gb)
        if cert is not None:
            return rho, cert
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
