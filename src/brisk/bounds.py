"""Degree-bound formulas, evaluated exactly in arbitrary precision.

The membership bound for F_1 Q_1 + ... + F_m Q_m = Phi on an affine
variety V (closure X in projective space) reads

    max( deg Phi + (mu + mu0) d^c deg X , (d-1) min(m, n+1) + reg X )

with mu = min(m, n) and c the maximal codimension of distinguished
varieties at infinity; c = -infinity (no such varieties) makes d^c = 0.
The analytic inputs mu0 (the local Briancon-Skoda number of X; 0 when X
is smooth) and mu' (singularities of X at infinity; 0 when X is smooth)
are not computable here and must be supplied; ``cusp_mu_zero`` documents
the known values for the plane cusp family z1^2 = z2^p.

Alongside live the classical comparison bounds (Macaulay, Hermann,
Jelonek) and the version for powers of the ideal.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CInf:
    """Codimension-at-infinity mode: explicit value, the safe upper bound
    mu = min(m, n), or minus infinity (no distinguished varieties at
    infinity, so d^c = 0)."""

    mode: str
    value: int | None = None

    MINUS_INFINITY = "minus_infinity"
    EXPLICIT = "explicit"
    MU = "mu"

    @classmethod
    def minus_infinity(cls) -> "CInf":
        return cls(cls.MINUS_INFINITY)

    @classmethod
    def explicit(cls, c: int) -> "CInf":
        return cls(cls.EXPLICIT, int(c))

    @classmethod
    def upper_bound_mu(cls) -> "CInf":
        return cls(cls.MU)

    def describe(self) -> str:
        if self.mode == self.MINUS_INFINITY:
            return "-inf"
        if self.mode == self.MU:
            return "mu"
        return str(self.value)


@dataclass(frozen=True)
class BoundInputs:
    """Numeric inputs shared by all bounds.

    ambient = N, dim = n (projective dimension of X), m generators of
    degree <= d, target degree deg Phi, plus the projective invariants
    deg X and reg X and the analytic parameters.
    """

    ambient: int
    dim: int
    m: int
    d: int
    deg_phi: int
    deg_x: int
    reg_x: int
    ell: int = 1
    mu_zero: int | None = None
    mu_prime: int | None = None
    c_inf: CInf = field(default_factory=CInf.upper_bound_mu)

    def __post_init__(self):
        if not 1 <= self.dim <= self.ambient:
            raise ValueError(f"need 1 <= n <= N, got n={self.dim}, N={self.ambient}")
        if self.m < 1 or self.d < 1 or self.ell < 1:
            raise ValueError("need m >= 1, d >= 1, ell >= 1")
        if self.deg_phi < 0 or self.deg_x < 1:
            raise ValueError("need deg_phi >= 0 and deg_x >= 1")
        if self.mu_zero is not None and self.mu_zero < 0:
            raise ValueError("mu_zero must be >= 0")
        if self.mu_prime is not None and self.mu_prime < 0:
            raise ValueError("mu_prime must be >= 0")
        if self.c_inf.mode == CInf.EXPLICIT and not self.c_inf.value <= self.mu:
            raise ValueError(
                f"explicit codimension at infinity {self.c_inf.value} exceeds "
                f"mu = min(m, n) = {self.mu}"
            )

    @property
    def mu(self) -> int:
        return min(self.m, self.dim)

    def d_pow_cinf(self) -> int:
        """d^c with the convention d^(-infinity) = 0."""
        if self.c_inf.mode == CInf.MINUS_INFINITY:
            return 0
        c = self.mu if self.c_inf.mode == CInf.MU else self.c_inf.value
        return self.d**c

    def _canonical(self) -> str:
        return (
            f"N={self.ambient};n={self.dim};m={self.m};d={self.d};"
            f"degPhi={self.deg_phi};degX={self.deg_x};regX={self.reg_x};"
            f"ell={self.ell};mu0={self.mu_zero};mu'={self.mu_prime};"
            f"cinf={self.c_inf.describe()}"
        )

    def digest(self) -> str:
        return hashlib.sha256(self._canonical().encode()).hexdigest()[:12]


def hickel_bound_i(inp: BoundInputs, cohen_macaulay: bool = False) -> int:
    """Membership bound: max(deg Phi + (mu+mu0) d^c deg X,
    (d-1) min(m, n+1) + reg X).

    Requires mu_zero.  With ``cohen_macaulay`` asserted by the caller and
    m <= n, the second entry is dropped.
    """
    if inp.mu_zero is None:
        raise ValueError(
            "hickel_bound_i needs mu_zero (0 for smooth X; see cusp_mu_zero "
            "for the documented cusp values)"
        )
    first = inp.deg_phi + (inp.mu + inp.mu_zero) * inp.d_pow_cinf() * inp.deg_x
    if cohen_macaulay and inp.m <= inp.dim:
        return first
    second = (inp.d - 1) * min(inp.m, inp.dim + 1) + inp.reg_x
    return max(first, second)


def hickel_bound_ii(inp: BoundInputs, cohen_macaulay: bool = False) -> int:
    """Smooth-V variant: max(deg Phi + mu d^c deg X + mu',
    (d-1) min(m, n+1) + reg X).  Requires mu_prime (0 for smooth X)."""
    if inp.mu_prime is None:
        raise ValueError("hickel_bound_ii needs mu_prime (0 for smooth X)")
    first = inp.deg_phi + inp.mu * inp.d_pow_cinf() * inp.deg_x + inp.mu_prime
    if cohen_macaulay and inp.m <= inp.dim:
        return first
    second = (inp.d - 1) * min(inp.m, inp.dim + 1) + inp.reg_x
    return max(first, second)


def power_bound(inp: BoundInputs) -> int:
    """Bound for certificates of Phi in the ell-th power of the ideal:
    max(deg Phi + (mu+mu0+ell-1) d^c deg X,
        d (min(m,n+1)+ell-1) - min(m,n+1) + reg X).
    Coincides with hickel_bound_i at ell = 1."""
    if inp.mu_zero is None:
        raise ValueError("power_bound needs mu_zero (0 for smooth X)")
    k = min(inp.m, inp.dim + 1)
    first = inp.deg_phi + (inp.mu + inp.mu_zero + inp.ell - 1) * inp.d_pow_cinf() * inp.deg_x
    second = inp.d * (k + inp.ell - 1) - k + inp.reg_x
    return max(first, second)


@dataclass(frozen=True)
class MacaulayBounds:
    """Both variants, labeled: generators without common zeros anywhere in
    projective space, and without common zeros on X only."""

    no_zeros_in_pn: int
    no_zeros_on_x: int


def macaulay_bound(inp: BoundInputs) -> MacaulayBounds:
    """Macaulay regime (the caller asserts the no-common-zeros hypothesis):
    max(deg Phi, d(n+1) - n), resp. max(deg Phi, (d-1)(n+1) + reg X)."""
    return MacaulayBounds(
        no_zeros_in_pn=max(inp.deg_phi, inp.d * (inp.dim + 1) - inp.dim),
        no_zeros_on_x=max(inp.deg_phi, (inp.d - 1) * (inp.dim + 1) + inp.reg_x),
    )


def jelonek_bound(inp: BoundInputs) -> int:
    """Nullstellensatz bound c_m d^mu deg V with c_m = 1 for m <= n, else 2."""
    c_m = 1 if inp.m <= inp.dim else 2
    return c_m * inp.d**inp.mu * inp.deg_x


def hermann_bound(inp: BoundInputs) -> int:
    """Doubly exponential comparison column deg Phi + 2 (2d)^(2^N - 1);
    the classical general bound, in its asymptotic large-d form."""
    return inp.deg_phi + 2 * (2 * inp.d) ** (2**inp.ambient - 1)


def cusp_mu_zero(p: int) -> int:
    """Documented value of mu_zero for the plane cusp z1^2 = z2^p (odd
    p > 2): max((p-1)/2, ceil((p-3)(p-1)/(p-2))), in integer
    arithmetic, so exact for every p."""
    if p <= 2 or p % 2 == 0:
        raise ValueError("the cusp family needs odd p > 2")
    return max((p - 1) // 2, -(-(p - 3) * (p - 1) // (p - 2)))


@dataclass(frozen=True)
class BoundEntry:
    name: str
    value: int | None
    note: str = ""


@dataclass(frozen=True)
class BoundReport:
    """All bound values side by side, with the inputs they came from."""

    inputs: BoundInputs
    entries: tuple[BoundEntry, ...]

    def value(self, name: str) -> int | None:
        for e in self.entries:
            if e.name == name:
                return e.value
        raise KeyError(name)

    def to_table(self) -> str:
        width = max(len(e.name) for e in self.entries)
        lines = [f"inputs: {self.inputs._canonical()}"]
        for e in self.entries:
            if e.value is None:
                val = f"n/a ({e.note})"
            elif e.note:
                val = f"{e.value}  ({e.note})"
            else:
                val = str(e.value)
            lines.append(f"  {e.name:<{width}}  {val}")
        return "\n".join(lines)

    def to_records(self) -> str:
        h = self.inputs.digest()
        lines = []
        for e in self.entries:
            val = str(e.value) if e.value is not None else "NA"
            note = e.note or "-"
            lines.append(f"{e.name}\t{val}\t{note}\t{h}")
        return "\n".join(lines)


def comparison_bounds(
    inp: BoundInputs,
    macaulay_applicable: bool = False,
    cohen_macaulay: bool = False,
) -> BoundReport:
    """Evaluate every bound that applies to the given inputs."""
    entries: list[BoundEntry] = []
    if inp.mu_zero is not None:
        entries.append(BoundEntry("hickel_i", hickel_bound_i(inp, cohen_macaulay)))
        entries.append(BoundEntry("power", power_bound(inp)))
    else:
        note = "needs muZero (smooth: 0; cusp values: cusp_mu_zero)"
        entries.append(BoundEntry("hickel_i", None, note))
        entries.append(BoundEntry("power", None, note))
    if inp.mu_prime is not None:
        entries.append(BoundEntry("hickel_ii", hickel_bound_ii(inp, cohen_macaulay)))
    else:
        entries.append(BoundEntry("hickel_ii", None, "needs muPrime (smooth: 0)"))
    mac = macaulay_bound(inp)
    if macaulay_applicable:
        entries.append(BoundEntry("macaulay_pn", mac.no_zeros_in_pn))
        entries.append(BoundEntry("macaulay_x", mac.no_zeros_on_x))
    else:
        note = "caller did not assert the no-common-zeros hypothesis"
        entries.append(BoundEntry("macaulay_pn", None, note))
        entries.append(BoundEntry("macaulay_x", None, note))
    entries.append(BoundEntry("jelonek", jelonek_bound(inp)))
    entries.append(
        BoundEntry("hermann", hermann_bound(inp), "asymptotic comparison only")
    )
    return BoundReport(inputs=inp, entries=tuple(entries))
