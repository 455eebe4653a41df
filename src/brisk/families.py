"""Benchmark instance families.

  * kollar(d, m, n): the sharpness family z1^d, z1 zm^(d-1) - z2^d, ...,
    z_{m-1} zm^(d-1) - 1 with Phi = 1; the minimal certificate degree is
    d^m, met with equality, while the first cofactor alone must have
    degree at least d^m - d.
  * macaulay_generic(d, n, rng): n+1 random degree-d polynomials whose
    homogenizations have no common zeros at infinity (resampled until the
    emptiness test passes), Phi = 1.
  * cusp(p): the plane cusp z1^2 = z2^p with F = (z2), Phi = z1, the
    non-member target with its branch data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .bounds import BoundInputs, CInf, cusp_mu_zero
from .certificate import MembershipInstance
from .errors import BudgetExceededError
from .groebner import DEFAULT_BUDGET, Budget, Ideal
from .invariants import empty_at_infinity
from .localorder import BranchParam
from .polyring import MultiPoly, PolyRing, homogenize

# samples macaulay_generic draws before it gives up
RETRIES = 50


@dataclass(frozen=True)
class FamilyInstance:
    name: str
    params: dict
    instance: MembershipInstance
    bound_inputs: BoundInputs | None
    macaulay_applicable: bool = False
    branches: tuple[BranchParam, ...] = ()


def _affine_ring(n: int) -> PolyRing:
    return PolyRing(tuple(f"z{i}" for i in range(1, n + 1)))


def kollar(d: int, m: int, n: int) -> FamilyInstance:
    """The chained-monomials family in n variables (2 <= m <= n)."""
    if not 2 <= m <= n:
        raise ValueError("kollar family needs 2 <= m <= n")
    if d < 2:
        raise ValueError("kollar family needs d >= 2")
    ring = _affine_ring(n)
    z = ring.gens()
    gens = [z[0] ** d]
    for k in range(m - 2):
        gens.append(z[k] * z[m - 1] ** (d - 1) - z[k + 1] ** d)
    gens.append(z[m - 2] * z[m - 1] ** (d - 1) - ring.one())
    inst = MembershipInstance(
        ring=ring,
        variety=Ideal(ring, []),
        gens=tuple(gens),
        phi=ring.one(),
    )
    # the common zero set at infinity has codimension exactly m
    inputs = BoundInputs(
        ambient=n,
        dim=n,
        m=m,
        d=d,
        deg_phi=0,
        deg_x=1,
        reg_x=1,
        mu_zero=0,
        mu_prime=0,
        c_inf=CInf.explicit(m),
    )
    return FamilyInstance(
        name="kollar",
        params={"d": d, "m": m, "n": n, "expected_min": d**m},
        instance=inst,
        bound_inputs=inputs,
    )


def _random_poly(ring: PolyRing, d: int, rng: random.Random) -> MultiPoly:
    """Random polynomial of degree exactly d with small integer
    coefficients and full quota of degree-d monomials likely present."""
    terms: dict = {}
    for e in ring.exponents_up_to(d):
        c = rng.randint(-3, 3)
        if c:
            terms[e] = Fraction(c)
    p = MultiPoly(ring, terms)
    if p.degree() != d:
        # force a top-degree term so the homogenization is honest
        lead = (d,) + (0,) * (ring.nvars - 1)
        terms[lead] = Fraction(rng.choice([1, 2, -1, -2, 3, -3]))
        p = MultiPoly(ring, terms)
    return p


def macaulay_generic(
    d: int,
    n: int,
    rng: random.Random,
    budget: Budget = DEFAULT_BUDGET,
) -> FamilyInstance:
    """n+1 random degree-d generators with Phi = 1, resampled until the
    homogenized system is empty at infinity.  The classical bound
    d(n+1) - n applies when the system has no affine zero either, which
    a certificate of 1 shows; a sample may have one."""
    if d < 1 or n < 1:
        raise ValueError("macaulay-generic family needs d >= 1 and n >= 1")
    ring = _affine_ring(n)
    proj = ring.extend_front("z0")
    for _ in range(RETRIES):
        gens = [_random_poly(ring, d, rng) for _ in range(n + 1)]
        if any(not g for g in gens):
            continue
        fs = [homogenize(g, d, "z0") for g in gens]
        if empty_at_infinity(fs, Ideal(proj, []), budget):
            inst = MembershipInstance(ring, Ideal(ring, []), tuple(gens), ring.one())
            inputs = BoundInputs(
                ambient=n,
                dim=n,
                m=n + 1,
                d=d,
                deg_phi=0,
                deg_x=1,
                reg_x=1,
                mu_zero=0,
                mu_prime=0,
                c_inf=CInf.minus_infinity(),
            )
            return FamilyInstance(
                name="macaulay-generic",
                params={"d": d, "n": n},
                instance=inst,
                bound_inputs=inputs,
                macaulay_applicable=True,
            )
    raise BudgetExceededError(
        f"budget exhausted: no empty-at-infinity sample found in {RETRIES} draws"
    )


def cusp(p: int) -> FamilyInstance:
    """Plane cusp z1^2 = z2^p with the classical non-member target
    Phi = z1 over F = (z2)."""
    if p <= 2 or p % 2 == 0:
        raise ValueError("cusp family needs odd p > 2")
    ring = _affine_ring(2)
    z1, z2 = ring.gens()
    inst = MembershipInstance(
        ring=ring,
        variety=Ideal(ring, [z1**2 - z2**p]),
        gens=(z2,),
        phi=z1,
    )
    origin = BranchParam.from_exponents(ring, {"z1": p, "z2": 2})
    inputs = BoundInputs(
        ambient=2,
        dim=1,
        m=1,
        d=1,
        deg_phi=1,
        deg_x=p,
        reg_x=p,
        mu_zero=cusp_mu_zero(p),
        c_inf=CInf.upper_bound_mu(),
    )
    return FamilyInstance(
        name="cusp",
        params={"p": p, "mu0": cusp_mu_zero(p), "scan_cap": 2 * p + 4},
        instance=inst,
        bound_inputs=inputs,
        branches=(origin,),
    )
