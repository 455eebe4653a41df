"""Prime-field coefficients GF(p).

Certificates and all verification arithmetic stay over Q; a prime field
(default suggestion p = 32003) is offered purely to speed up resolution
and invariant computations on larger inputs.  ``GFElement`` is the
coefficient type of MultiPoly values over GF(p): it supports the same
arithmetic protocol as Fraction, so polynomial arithmetic and the tail
reduction of a finished basis use it directly.  The Groebner engines of
ideals and modules do not: ``groebner.buchberger`` and the ``modules``
bases take p from the first GFElement among their inputs
(``kernel.field_modulus``) and reduce ints mod p on packed monomials,
then turn their results back into GFElements.
``GroebnerBasis.normal_form`` divides GFElements, also on packed
monomials.
"""

from __future__ import annotations

from fractions import Fraction


def _is_probable_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class GF:
    """The field with p elements (p prime)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not _is_probable_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def __call__(self, value) -> "GFElement":
        if isinstance(value, GFElement):
            if value.p != self.p:
                raise ValueError("element of a different prime field")
            return value
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(
                    f"denominator divisible by {self.p}; choose another prime"
                )
            return GFElement(
                value.numerator * pow(den, -1, self.p) % self.p, self.p
            )
        return GFElement(int(value) % self.p, self.p)

    def __eq__(self, other):
        return isinstance(other, GF) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class GFElement:
    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _lift(self, other) -> "GFElement":
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise ValueError("mixed prime fields")
            return other
        if isinstance(other, int):
            return GFElement(other, self.p)
        if isinstance(other, Fraction):
            return GF(self.p)(other)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else GFElement(self.v + o.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else GFElement(self.v - o.v, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else GFElement(o.v - self.v, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else GFElement(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        if o.v == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return GFElement(self.v * pow(o.v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else o / self

    def __neg__(self):
        return GFElement(-self.v, self.p)

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return f"{self.v}"


def poly_to_gf(p, field: GF):
    """Map a Q-coefficient polynomial into GF(p) coefficients."""
    return p.map_coefficients(field)
