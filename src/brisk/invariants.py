"""Numerical invariants of projective closures via Hilbert series.

For a homogeneous ideal J in S = k[x_0..x_V-1], the Hilbert series of
S/J is n(t) / (1-t)^V where n(t) is computed from the monomial ideal of
leading terms by the standard colon recursion

    num(I + (m)) = num(I) - t^deg(m) * num(I : m).

Writing n(t) = (1-t)^e q(t) with q(1) != 0, the Krull dimension of S/J
is D = V - e, the projective dimension is D - 1, and the degree of the
projective scheme is q(1).  The same recursion, run per component on
leading module monomials, gives the numerator of a graded module F/U
(``module_hilbert_numerator``); ``factor_one_minus_t`` splits off the
(1-t)^e of either.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernel
from .groebner import DEFAULT_BUDGET, Budget, GroebnerBasis, Ideal, buchberger
from .orders import grevlex
from .polyring import MultiPoly


def _poly_shift_mul(a: dict[int, int], shift: int) -> dict[int, int]:
    return {k + shift: v for k, v in a.items()}


def _numerator(gens: tuple[tuple[int, ...], ...], memo: dict) -> dict[int, int]:
    got = memo.get(gens)
    if got is not None:
        return got
    if not gens:
        out = {0: 1}
    elif any(sum(g) == 0 for g in gens):
        out = {}
    else:
        # split on the last (largest) generator
        rest, m = gens[:-1], gens[-1]
        rest_min = tuple(kernel.minimal_generators(rest))
        colon = tuple(
            kernel.minimal_generators([kernel.mono_div(kernel.mono_lcm(g, m), m) for g in rest])
        )
        out = kernel.poly_sub(
            _numerator(rest_min, memo),
            _poly_shift_mul(_numerator(colon, memo), sum(m)),
        )
    memo[gens] = out
    return out


def hilbert_numerator(gb: GroebnerBasis) -> tuple[int, ...]:
    """Coefficients of the Hilbert-series numerator of S/J, from the
    leading-term ideal of any Groebner basis of J (coefficient list,
    index = power of t)."""
    num = module_hilbert_numerator([(0, e) for e in gb.leading_exponents()], (0,))
    if not num:
        return ()
    degree = max(num)
    return tuple(num.get(i, 0) for i in range(degree + 1))


def module_hilbert_numerator(leads, twists: tuple[int, ...]) -> dict[int, int]:
    """Hilbert-series numerator, over (1-t)^nvars, of F/U for the graded
    free module F = ⊕ S(-twists[i]) and a submodule U, from the leading
    module monomials (pos, exponent) of any Groebner basis of U.

    F/U is the direct sum over i of S(-twists[i])/L_i, L_i the monomial
    ideal of the leads in position i, so each component contributes its
    ideal numerator shifted by t^twists[i].  Twists may be negative, so
    the result is a Laurent polynomial {power of t: coefficient}.
    """
    per_pos: dict[int, list] = {}
    for pos, e in leads:
        per_pos.setdefault(pos, []).append(e)
    memo: dict = {}
    out: dict[int, int] = {}
    for pos, twist in enumerate(twists):
        gens = tuple(kernel.minimal_generators(per_pos.get(pos, ())))
        for k, v in _numerator(gens, memo).items():
            out[k + twist] = out.get(k + twist, 0) + v
    return {k: v for k, v in out.items() if v}


def factor_one_minus_t(num: dict[int, int]) -> tuple[int, dict[int, int]]:
    """(e, q) with num = (1-t)^e q and q(1) != 0, for a Laurent polynomial
    {power of t: coefficient}; (0, {}) for the zero polynomial.

    For a Hilbert numerator over (1-t)^nvars, e is the codimension of the
    module's support (its Krull dimension is nvars - e).
    """
    q = {k: v for k, v in num.items() if v}
    e = 0
    while q and sum(q.values()) == 0:
        # divide by (1 - t): if q = (1-t) m then m_i = q_lo + ... + q_i
        acc = 0
        div = {}
        for i in range(min(q), max(q)):
            acc += q.get(i, 0)
            if acc:
                div[i] = acc
        q = div
        e += 1
    return e, q


@dataclass(frozen=True)
class HilbertData:
    """Hilbert series data of S/J: numerator over (1-t)^nvars."""

    nvars: int
    numerator: tuple[int, ...]
    reduced: tuple[int, ...]  # numerator with all (1-t) factors removed
    cone_dim: int  # Krull dimension of S/J

    @property
    def is_unit_ideal(self) -> bool:
        return not self.numerator

    def proj_dimension(self) -> int:
        """Dimension of the projective scheme (-1 when empty)."""
        if self.is_unit_ideal:
            raise ValueError("unit ideal: the scheme is not defined")
        return self.cone_dim - 1

    def proj_degree(self) -> int:
        """Degree of the projective scheme (reduced numerator at t = 1)."""
        if self.is_unit_ideal or self.cone_dim == 0:
            raise ValueError("empty projective scheme has no degree")
        return sum(self.reduced)


def hilbert_data(gb: GroebnerBasis) -> HilbertData:
    num = hilbert_numerator(gb)
    e, q = factor_one_minus_t(dict(enumerate(num)))
    return HilbertData(
        nvars=gb.ring.nvars,
        numerator=num,
        reduced=tuple(q.get(i, 0) for i in range(max(q) + 1)) if q else (),
        cone_dim=gb.ring.nvars - e if num else 0,
    )


def empty_at_infinity(
    fs: list[MultiPoly],
    j_x: Ideal,
    budget: Budget = DEFAULT_BUDGET,
) -> bool:
    """True iff the projective zero set of J_X + (f_1..f_m) + (z0) is
    empty, i.e. the homogenized system has no common zeros at infinity.

    Decided by checking that the leading-term ideal of a Groebner basis
    contains a pure power of every variable (the affine cone is a point),
    or 1 = x_i^0 (the unit ideal, with no zero at all).  The first ring
    variable is the homogenizing one.
    """
    ring = j_x.ring
    for f in fs:
        if f.ring != ring:
            raise ValueError("homogenized generators must live in the projective ring")
        if not f.is_homogeneous():
            raise ValueError("generators must be homogeneous")
    z0 = ring.var(0)
    big = Ideal(ring, tuple(j_x.gens) + tuple(fs) + (z0,))
    gb = buchberger(big, grevlex(), budget)
    leads = gb.leading_exponents()
    for i in range(ring.nvars):
        if not any(
            all(x == 0 for j, x in enumerate(e) if j != i)
            for e in leads
        ):
            return False
    return True
