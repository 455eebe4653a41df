"""Vanishing orders along curve branches and Newton-region membership.

A branch is a monomial-coefficient curve germ t -> (g_1(t), .., g_N(t));
substituting it into a polynomial and reading off the t-adic order turns
the analytic inequality |Phi| <= C |F|^k near the branch point into the
exact arithmetic test

    ord(Phi) >= k * min_j ord(F_j)   on every branch.

For curves through the supplied branches this is the integral-closure
criterion on the nose; in general it is a necessary condition, so results
are branch-certified only.

For monomial ideals, membership of a monomial in the integral closure of
the k-th power is decided exactly: the exponent vector must dominate a
point of k * conv(generators), a rational linear feasibility problem
solved by a small simplex with Bland's rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf

from .errors import ParseError
from .polyring import MultiPoly, PolyRing

_T_RING = PolyRing(("t",))


@dataclass(frozen=True)
class BranchParam:
    """A curve germ into affine N-space with polynomial components in t."""

    ring: PolyRing
    components: tuple[MultiPoly, ...]

    def __post_init__(self):
        if len(self.components) != self.ring.nvars:
            raise ValueError(
                f"branch has {len(self.components)} components for "
                f"{self.ring.nvars} variables"
            )
        for c in self.components:
            if c.ring != _T_RING:
                raise ValueError("branch components must be polynomials in t")
        if all(c.is_constant() for c in self.components):
            raise ValueError("branch must have a nonconstant component")

    @classmethod
    def from_exponents(cls, ring: PolyRing, exps: dict[str, int]) -> "BranchParam":
        """Convenience: pure monomial branch z_i = t^e_i (e = 0 -> 1)."""
        comps = []
        for name in ring.names:
            e = exps.get(name, 0)
            comps.append(_T_RING.monomial((e,), 1))
        return cls(ring, tuple(comps))

    @classmethod
    def parse(cls, ring: PolyRing, text: str) -> "BranchParam":
        """Parse ``branch: z1 = t^5; z2 = t^2`` (components in any order;
        unlisted variables map to 0)."""
        body = text.strip()
        if body.startswith("branch:"):
            body = body[len("branch:") :]
        comps = {name: _T_RING.zero() for name in ring.names}
        for piece in body.split(";"):
            piece = piece.strip()
            if not piece:
                continue
            if "=" not in piece:
                raise ParseError(f"branch component {piece!r} lacks '='")
            name, expr = piece.split("=", 1)
            name = name.strip()
            if name not in ring.names:
                raise ParseError(f"unknown branch variable {name!r}")
            comps[name] = _T_RING.parse(expr)
        return cls(ring, tuple(comps[name] for name in ring.names))


def vanishing_order(p: MultiPoly, branch: BranchParam):
    """t-adic order of p composed with the branch; inf when the
    composition is identically zero."""
    if p.ring != branch.ring:
        raise ValueError("polynomial and branch live in different rings")
    images = {i: branch.components[i] for i in range(branch.ring.nvars)}
    composed = p.substitute(images, target=_T_RING)
    if not composed:
        return inf
    return min(e[0] for e in composed.terms)


def _branch_orders(gens, phi, branch):
    ords_f = [vanishing_order(g, branch) for g in gens]
    return min(ords_f), vanishing_order(phi, branch)


def bs_exponent_check(gens, phi: MultiPoly, k, branches) -> bool:
    """Branch-certified test of |Phi| <= C |F|^k: on every branch,
    ord(Phi) >= k * min_j ord(F_j).  k may be rational; comparisons are
    exact."""
    branches = list(branches)
    if not branches:
        raise ValueError("need at least one branch")
    k = Fraction(k)
    if k < 0:
        raise ValueError("exponent must be >= 0")
    for b in branches:
        fmin, op = _branch_orders(gens, phi, b)
        if op == inf:
            continue
        if fmin == inf:
            return False  # F vanishes identically but Phi does not
        if Fraction(op) < k * Fraction(fmin):
            return False
    return True


def max_bs_exponent(gens, phi: MultiPoly, branches):
    """Largest k passing bs_exponent_check: min over branches of
    ord(Phi) / min_j ord(F_j).

    Branches where Phi vanishes identically impose no constraint; if that
    happens on every branch the result is unbounded (inf)."""
    branches = list(branches)
    if not branches:
        raise ValueError("need at least one branch")
    best = None
    for b in branches:
        fmin, op = _branch_orders(gens, phi, b)
        if fmin == inf or fmin <= 0:
            raise ValueError(
                "every generator order must be finite and positive on each branch"
            )
        if op == inf:
            continue
        ratio = Fraction(op, fmin)
        best = ratio if best is None else min(best, ratio)
    return inf if best is None else best


# ------------------------------------------------ Newton-region membership


@dataclass(frozen=True)
class NewtonRegion:
    """Exponent vectors generating a monomial ideal."""

    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.generators:
            raise ValueError("need at least one generator")
        width = len(self.generators[0])
        for g in self.generators:
            if len(g) != width or any(x < 0 for x in g):
                raise ValueError("generators must be nonnegative vectors of equal length")

    @property
    def dim(self) -> int:
        return len(self.generators[0])


def monomial_integral_closure(phi, region: NewtonRegion, k: int = 1) -> bool:
    """Is x^phi in the integral closure of the k-th power of the monomial
    ideal?  Exactly when phi dominates (componentwise) a convex
    combination of k * generators: a rational feasibility problem."""
    if k < 1:
        raise ValueError("power k must be >= 1")
    phi = tuple(phi)
    if len(phi) != region.dim:
        raise ValueError("exponent vector has the wrong length")
    gens = region.generators
    n, g = region.dim, len(gens)
    # variables: lambda_1..lambda_g, slack_1..slack_n, artificial z
    # rows: k * sum lam_a a_i + s_i = phi_i  (i < n);  sum lam_a [+ z] = 1
    ncols = g + n + 1
    rows = []
    rhs = []
    for i in range(n):
        row = [Fraction(k * a[i]) for a in gens] + [Fraction(0)] * (n + 1)
        row[g + i] = Fraction(1)
        rows.append(row)
        rhs.append(Fraction(phi[i]))
    last = [Fraction(1)] * g + [Fraction(0)] * n + [Fraction(1)]
    rows.append(last)
    rhs.append(Fraction(1))
    basis = [g + i for i in range(n)] + [g + n]
    cost = [Fraction(0)] * ncols
    cost[g + n] = Fraction(1)
    value = _simplex_min(rows, rhs, basis, cost)
    return value == 0


def _simplex_min(rows, rhs, basis, cost):
    """Minimize cost.x over Ax = b, x >= 0 from the given basic feasible
    basis, with Bland's rule; returns the optimal value."""
    m = len(rows)
    ncols = len(rows[0])
    obj = list(cost)
    obj_val = Fraction(0)
    for r in range(m):
        b = basis[r]
        if obj[b]:
            f = obj[b]
            obj = [o - f * a for o, a in zip(obj, rows[r])]
            obj_val -= f * rhs[r]
    for _ in range(10_000):
        entering = next((j for j in range(ncols) if obj[j] < 0), None)
        if entering is None:
            return -obj_val
        ratios = [
            (rhs[r] / rows[r][entering], basis[r], r)
            for r in range(m)
            if rows[r][entering] > 0
        ]
        if not ratios:
            raise ArithmeticError("unbounded phase-one problem (cannot happen)")
        _, _, leave = min(ratios)
        piv = rows[leave][entering]
        rows[leave] = [a / piv for a in rows[leave]]
        rhs[leave] = rhs[leave] / piv
        for r in range(m):
            if r != leave and rows[r][entering]:
                f = rows[r][entering]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[leave])]
                rhs[r] = rhs[r] - f * rhs[leave]
        if obj[entering]:
            f = obj[entering]
            obj = [a - f * b for a, b in zip(obj, rows[leave])]
            obj_val -= f * rhs[leave]
        basis[leave] = entering
    raise ArithmeticError("simplex did not terminate")
