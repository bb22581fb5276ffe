"""Exact arithmetic over the field Q(i, sqrt(2)).

Every constant matrix entry in the operator algebra lives in this field
(entries are drawn from 0, +-1, +-i, +-1/sqrt(2), +-i/sqrt(2) and their
products), so all constant-matrix identities can be decided with zero
tolerance. Rationals use arbitrary-precision Fractions; sqrt(2) is the
only adjoined surd.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]

_F0 = Fraction(0)


def _pair_mul(a1: Fraction, b1: Fraction, a2: Fraction, b2: Fraction):
    # (a1 + b1*sqrt2)(a2 + b2*sqrt2), skipping zero components: most
    # matrix entries are single-component, so this is the hot path
    if b1:
        if b2:
            return a1 * a2 + 2 * b1 * b2, a1 * b2 + b1 * a2
        return a1 * a2, b1 * a2
    if b2:
        return a1 * a2, a1 * b2
    return a1 * a2, _F0


class ExactScalar:
    """a + b*sqrt(2) + i*(c + d*sqrt(2)) with rational a, b, c, d.

    Instances are immutable by convention; all operations return new values.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0,
                 c: RationalLike = 0, d: RationalLike = 0):
        self.a = a if isinstance(a, Fraction) else Fraction(a)
        self.b = b if isinstance(b, Fraction) else Fraction(b)
        self.c = c if isinstance(c, Fraction) else Fraction(c)
        self.d = d if isinstance(d, Fraction) else Fraction(d)

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, num: int, den: int = 1) -> "ExactScalar":
        return cls(Fraction(num, den))

    @classmethod
    def coerce(cls, x) -> "ExactScalar":
        if isinstance(x, ExactScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to ExactScalar")

    # -- predicates --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.a or self.b or self.c or self.d)

    @property
    def is_zero(self) -> bool:
        return not self

    # -- ring/field operations ---------------------------------------------

    def __add__(self, other) -> "ExactScalar":
        other = ExactScalar.coerce(other)
        return ExactScalar(self.a + other.a, self.b + other.b,
                           self.c + other.c, self.d + other.d)

    __radd__ = __add__

    def __sub__(self, other) -> "ExactScalar":
        other = ExactScalar.coerce(other)
        return ExactScalar(self.a - other.a, self.b - other.b,
                           self.c - other.c, self.d - other.d)

    def __rsub__(self, other) -> "ExactScalar":
        return ExactScalar.coerce(other) - self

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other) -> "ExactScalar":
        other = ExactScalar.coerce(other)
        # (x1 + i y1)(x2 + i y2) with x, y in Q(sqrt2); skip dead channels
        x1 = bool(self.a or self.b)
        y1 = bool(self.c or self.d)
        x2 = bool(other.a or other.b)
        y2 = bool(other.c or other.d)
        ra = rb = ia = ib = _F0
        if x1 and x2:
            p, q = _pair_mul(self.a, self.b, other.a, other.b)
            ra, rb = ra + p, rb + q
        if y1 and y2:
            p, q = _pair_mul(self.c, self.d, other.c, other.d)
            ra, rb = ra - p, rb - q
        if x1 and y2:
            p, q = _pair_mul(self.a, self.b, other.c, other.d)
            ia, ib = ia + p, ib + q
        if y1 and x2:
            p, q = _pair_mul(self.c, self.d, other.a, other.b)
            ia, ib = ia + p, ib + q
        return ExactScalar(ra, rb, ia, ib)

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero in Q(i, sqrt2)")
        # 1/z = conj(z) / (z conj(z)); the norm lies in Q(sqrt2)
        na, nb = _pair_mul(self.a, self.b, self.a, self.b)
        ma, mb = _pair_mul(self.c, self.d, self.c, self.d)
        na, nb = na + ma, nb + mb
        den = na * na - 2 * nb * nb  # rational, nonzero since sqrt2 irrational
        inv_a, inv_b = na / den, -nb / den
        ra, rb = _pair_mul(self.a, self.b, inv_a, inv_b)
        ca, cb = _pair_mul(-self.c, -self.d, inv_a, inv_b)
        return ExactScalar(ra, rb, ca, cb)

    def __truediv__(self, other) -> "ExactScalar":
        return self * ExactScalar.coerce(other).inverse()

    def __rtruediv__(self, other) -> "ExactScalar":
        return ExactScalar.coerce(other) * self.inverse()

    # -- comparisons / hashing ---------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ExactScalar(other)
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return (self.a == other.a and self.b == other.b
                and self.c == other.c and self.d == other.d)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d))

    # -- rendering -----------------------------------------------------------

    def __repr__(self) -> str:
        return f"ExactScalar({self.a}, {self.b}, {self.c}, {self.d})"

    def __str__(self) -> str:
        return self.render()

    def render(self) -> str:
        """Symbolic rendering, e.g. '1/2*sqrt2' or '1 - i*sqrt2'. Never decimal."""
        terms = []
        if self.a:
            terms.append(str(self.a))
        if self.b:
            terms.append(_coef_str(self.b, "sqrt2"))
        if self.c:
            terms.append(_coef_str(self.c, "i"))
        if self.d:
            terms.append(_coef_str(self.d, "i*sqrt2"))
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out


def _coef_str(coef: Fraction, symbol: str) -> str:
    if coef == 1:
        return symbol
    if coef == -1:
        return "-" + symbol
    return f"{coef}*{symbol}"


ZERO = ExactScalar(0)
ONE = ExactScalar(1)
I_UNIT = ExactScalar(0, 0, 1)
SQRT2 = ExactScalar(0, 1)
INV_SQRT2 = ExactScalar(0, Fraction(1, 2))  # sqrt2/2
HALF = ExactScalar(Fraction(1, 2))
