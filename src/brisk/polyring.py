"""Sparse multivariate polynomials over an exact field.

A polynomial is a dict mapping exponent tuples to nonzero coefficients;
the default field is Q via fractions.Fraction, with an optional prime
field for accelerated invariant computations (see brisk.fields).  Values
are immutable after construction and safe to share between threads.
``leading``, ``monic`` and ``format_poly`` order the terms by the int of
``kernel.Packing``, the one monomial-order comparison of the package.

The module also owns the affine/projective dictionary: ``homogenize``
turns F(z1..zN) of degree <= d into the degree-d form z0^d F(z'/z0) in
z0..zN, and ``dehomogenize`` sets z0 = 1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import kernel
from .errors import ParseError, RingMismatchError
from .orders import MonomialOrder, grevlex

NEG_INF = float("-inf")

_DISPLAY_ORDER = grevlex()

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _order_key(p: "MultiPoly", order: MonomialOrder):
    """Sort key of the exponents of nonzero ``p`` under ``order``: the
    int of ``kernel.Packing``, which is the monomial order."""
    return kernel.packing(order, p.ring.nvars, kernel.bits_for(p.degree())).pack


@dataclass(frozen=True)
class PolyRing:
    """A polynomial ring context: an ordered tuple of variable names."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names in {self.names}")
        for n in self.names:
            if not _NAME_RE.fullmatch(n):
                raise ValueError(f"invalid variable name {n!r}")

    @property
    def nvars(self) -> int:
        return len(self.names)

    def zero(self) -> "MultiPoly":
        return MultiPoly(self, {})

    def one(self) -> "MultiPoly":
        return self.const(1)

    def const(self, c) -> "MultiPoly":
        c = _coerce(c)
        if not c:
            return MultiPoly(self, {})
        return MultiPoly(self, {(0,) * self.nvars: c})

    def var(self, i: int) -> "MultiPoly":
        e = [0] * self.nvars
        e[i] = 1
        return MultiPoly(self, {tuple(e): Fraction(1)})

    def gens(self) -> list["MultiPoly"]:
        return [self.var(i) for i in range(self.nvars)]

    def index(self, name: str) -> int:
        return self.names.index(name)

    def monomial(self, exp: tuple[int, ...], coeff=1) -> "MultiPoly":
        if len(exp) != self.nvars or any(x < 0 for x in exp):
            raise ValueError(f"bad exponent tuple {exp} for {self}")
        c = _coerce(coeff)
        if not c:
            return MultiPoly(self, {})
        return MultiPoly(self, {tuple(exp): c})

    def exponents_up_to(self, cap: int) -> list[tuple[int, ...]]:
        """Exponent tuples of total degree <= cap, in ascending lex order
        (callers that draw random coefficients rely on this order)."""
        out: list[tuple[int, ...]] = [()]
        for _ in range(self.nvars):
            out = [e + (v,) for e in out for v in range(cap - sum(e) + 1)]
        return out

    def extend_front(self, name: str) -> "PolyRing":
        """New ring with ``name`` prepended (used for homogenizing and for
        the Rabinowitsch variable)."""
        if name in self.names:
            raise ValueError(f"variable {name!r} already in ring")
        return PolyRing((name,) + self.names)

    def fresh_name(self, name: str) -> str:
        """``name`` when the ring lacks it, else the first of ``name0_``,
        ``name1_``, ... that it lacks."""
        fresh, i = name, 0
        while fresh in self.names:
            fresh, i = f"{name}{i}_", i + 1
        return fresh

    def drop_front(self) -> "PolyRing":
        if self.nvars < 1:
            raise ValueError("cannot drop a variable from the empty ring")
        return PolyRing(self.names[1:])

    def parse(self, text: str) -> "MultiPoly":
        return _parse_poly(self, text)

    def __str__(self) -> str:
        return "QQ[" + ", ".join(self.names) + "]"


def _coerce(c):
    """Accept ints/Fractions as coefficients; pass field elements through."""
    if isinstance(c, int):
        return Fraction(c)
    return c


class MultiPoly:
    """Immutable sparse polynomial: {exponent tuple: nonzero coefficient}.

    The ``terms`` dict is owned by the instance and must be treated as
    read-only; all operations return fresh objects.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", {e: c for e, c in terms.items() if c})

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    # --------------------------------------------------------- predicates

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    # --------------------------------------------------------- arithmetic

    def _check(self, other: "MultiPoly"):
        if self.ring != other.ring:
            raise RingMismatchError(
                f"operands in different rings: {self.ring} vs {other.ring}"
            )

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = self.ring.const(other)
        self._check(other)
        return MultiPoly(self.ring, kernel.poly_add(self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = self.ring.const(other)
        self._check(other)
        return MultiPoly(self.ring, kernel.poly_sub(self.terms, other.terms))

    def __rsub__(self, other):
        return self.ring.const(other) - self

    def __neg__(self):
        return MultiPoly(self.ring, kernel.poly_neg(self.terms))

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return MultiPoly(self.ring, kernel.poly_scale(self.terms, _coerce(other)))
        self._check(other)
        return MultiPoly(self.ring, kernel.poly_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.ring == other.ring and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == self.ring.const(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # ------------------------------------------------------------ queries

    def degree(self):
        """Maximum total degree; NEG_INF for the zero polynomial, so that
        deg(p*q) = deg p + deg q holds without special cases."""
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def leading(self, order: MonomialOrder = _DISPLAY_ORDER):
        """(exponent, coefficient) of the leading term; None for zero."""
        if not self.terms:
            return None
        e = max(self.terms, key=_order_key(self, order))
        return e, self.terms[e]

    def monic(self, order: MonomialOrder = _DISPLAY_ORDER) -> "MultiPoly":
        lt = self.leading(order)
        if lt is None:
            return self
        c = lt[1]
        one = c / c
        if c == one:
            return self
        return MultiPoly(self.ring, {e: v / c for e, v in self.terms.items()})

    def map_coefficients(self, fn) -> "MultiPoly":
        return MultiPoly(self.ring, {e: fn(c) for e, c in self.terms.items()})

    def substitute(self, images: dict[int, "MultiPoly"], target: PolyRing | None = None) -> "MultiPoly":
        """Replace variable i by images[i] (variables absent from ``images``
        map to the same-named variable of the target ring)."""
        if target is None:
            some = next(iter(images.values()), None)
            target = some.ring if some is not None else self.ring
        out = target.zero()
        cache: dict[tuple[int, int], MultiPoly] = {}

        def power(i: int, k: int) -> MultiPoly:
            got = cache.get((i, k))
            if got is None:
                base = images.get(i)
                if base is None:
                    base = target.var(target.index(self.ring.names[i]))
                got = base**k
                cache[(i, k)] = got
            return got

        for e, c in self.terms.items():
            term = target.const(c)
            for i, x in enumerate(e):
                if x:
                    term = term * power(i, x)
            out = out + term
        return out

    # --------------------------------------------------------- formatting

    def format(self) -> str:
        return format_poly(self)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"<{format_poly(self)} in {self.ring}>"


# ------------------------------------------------------- affine/projective


def homogenize(p: MultiPoly, d: int, var: str = "z0") -> MultiPoly:
    """Degree-d homogenization: z0^d * p(z'/z0) in the ring (z0, *names).

    Requires d >= deg p; the result is homogeneous of degree exactly d
    (for p != 0) and restricts back to p at z0 = 1.
    """
    deg = p.degree()
    if deg != NEG_INF and d < deg:
        raise ValueError(f"homogenization degree {d} < deg p = {deg}")
    ring = p.ring.extend_front(var)
    terms = {(d - sum(e),) + e: c for e, c in p.terms.items()}
    return MultiPoly(ring, terms)


def dehomogenize(p: MultiPoly) -> MultiPoly:
    """Set the first ring variable to 1 (inverse of ``homogenize``)."""
    ring = p.ring.drop_front()
    out: dict = {}
    for e, c in p.terms.items():
        t = e[1:]
        got = out.get(t)
        if got is None:
            out[t] = c
        else:
            s = got + c
            if s:
                out[t] = s
            else:
                del out[t]
    return MultiPoly(ring, out)


# ----------------------------------------------------------------- parsing


_TOKEN_RE = re.compile(
    r"\s+|#[^\n]*"  # skipped: whitespace, comments
    r"|(?P<num>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[+\-*/^])"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", *_linecol(text, pos)
            )
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _linecol(text: str, pos: int) -> tuple[int, int]:
    line = text.count("\n", 0, pos) + 1
    last = text.rfind("\n", 0, pos)
    return line, pos - last


def _parse_poly(ring: PolyRing, text: str) -> MultiPoly:
    tokens = _tokenize(text)
    i = 0

    def err(msg, at=None):
        pos = tokens[i if at is None else at][2]
        raise ParseError(msg, *_linecol(text, pos))

    def parse_uint():
        nonlocal i
        if tokens[i][0] != "num":
            err("expected an integer")
        value = int(tokens[i][1])
        i += 1
        return value

    def parse_varpow():
        nonlocal i
        name = tokens[i][1]
        if name not in ring.names:
            err(f"unknown variable {name!r}")
        idx = ring.index(name)
        i += 1
        k = 1
        if tokens[i][1] == "^":
            i += 1
            k = parse_uint()
            if k < 1:
                err("exponent must be >= 1")
        return idx, k

    def parse_term():
        nonlocal i
        coeff = Fraction(1)
        exp = [0] * ring.nvars
        saw_factor = False
        if tokens[i][0] == "num":
            num = parse_uint()
            den = 1
            if tokens[i][1] == "/":
                i += 1
                den = parse_uint()
                if den == 0:
                    err("zero denominator")
            coeff = Fraction(num, den)
            saw_factor = True
            if tokens[i][1] != "*":
                return coeff, exp
            i += 1
        while True:
            if tokens[i][0] != "name":
                if saw_factor:
                    err("expected a variable")
                err("expected a term")
            idx, k = parse_varpow()
            exp[idx] += k
            saw_factor = True
            if tokens[i][1] != "*":
                break
            i += 1
        return coeff, exp

    total: dict = {}
    first = True
    while tokens[i][0] != "end":
        sign = 1
        saw_sign = False
        while tokens[i][1] in ("+", "-"):
            if tokens[i][1] == "-":
                sign = -sign
            saw_sign = True
            i += 1
        if not first and not saw_sign:
            err("expected '+' or '-' between terms")
        coeff, exp = parse_term()
        coeff *= sign
        key = tuple(exp)
        got = total.get(key)
        s = coeff if got is None else got + coeff
        if s:
            total[key] = s
        elif got is not None:
            del total[key]
        first = False
    if first:
        err("empty polynomial expression")
    return MultiPoly(ring, total)


def format_poly(p: MultiPoly) -> str:
    """Canonical text form; parses back to an equal polynomial."""
    if not p.terms:
        return "0"
    parts = []
    for e in sorted(p.terms, key=_order_key(p, _DISPLAY_ORDER), reverse=True):
        c = p.terms[e]
        factors = [
            name if k == 1 else f"{name}^{k}"
            for name, k in zip(p.ring.names, e)
            if k
        ]
        frac = Fraction(c) if isinstance(c, (int, Fraction)) else None
        if frac is not None:
            neg = frac < 0
            mag = -frac if neg else frac
            if not factors or mag != 1:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            sign = "-" if neg else "+"
        else:
            # non-rational field element: always print the coefficient
            body = "*".join([str(c)] + factors) if factors else str(c)
            sign = "+"
        if not parts:
            parts.append(body if sign == "+" else "-" + body)
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)
