"""Real-linear operators on C^4 with exact matrix entries.

An operator acts as phi -> A phi + B conj(phi) (A linear, B antilinear).
The carrier is its realification: with phi = u + iv written as (u; v),

    R = [[Ar + Br, -Ai + Bi],
         [Ai + Bi,  Ar - Br]] = (P + sqrt2*Q) / d,

with int64 arrays P, Q and a positive integer d, normalised so that
gcd(P, Q, d) = 1; the constructor writes them by index from the entries'
nonzero rational parts. Composition is integer matrix multiplication, on
one of two paths: ``@`` for a pair, and ``bracket_matches`` for a rotation
table, a row of brackets at a time. The adjoint (A -> A^dagger, B -> B^T)
is the transpose, and equality and hashing compare (P, Q, d). An operation whose
int64 result could wrap raises OverflowError instead. ``floats`` reads the
complex images of A and B straight from the carrier; it is the one
exact-to-float path. The carrier is the operator's one form: A and B over
Q(i, sqrt2) are read back only by the tests, which keep the spinor action
as an independent oracle for composition.

The algebra is real: scalar multiplication is restricted to real field
elements, and multiplication by i is composition with the operator i.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .scalars import ExactScalar

Matrix = Tuple[Tuple[ExactScalar, ...], ...]

# every stored entry stays at or below this, so the sum or difference of
# two entries never wraps
_LIMIT = int(np.iinfo(np.int64).max) // 2


# per part a, b, c, d of entry (0, 0) of A, then B: flat R offsets and signs
_FEEDS = tuple(
    tuple(tuple((64 * (p & 1) + 8 * r + c, s) for r, c, s in blocks[p >> 1])
          for p in range(4))
    for blocks in ((((0, 0, 1), (4, 4, 1)), ((0, 4, -1), (4, 0, 1))),
                   (((0, 0, 1), (4, 4, -1)), ((0, 4, 1), (4, 0, 1)))))


def _rational_parts(x) -> tuple:
    """a, b, c, d of an ExactScalar; an int or a Fraction itself."""
    if isinstance(x, ExactScalar):
        return x.a, x.b, x.c, x.d
    if isinstance(x, (int, Fraction)):
        return (x,)
    raise TypeError(f"cannot coerce {type(x).__name__} to ExactScalar")


class GeneralOp:
    """phi -> A phi + B conj(phi) on C^4, stored as R = (P + sqrt2*Q)/d.

    _pq stacks P and Q into one (2, 8, 8) array. _bound bounds its absolute
    entries; it is tightened to the exact maximum before an operation is
    refused.
    """

    __slots__ = ("_pq", "_d", "_bound")

    def __init__(self, A: Matrix | None = None, B: Matrix | None = None):
        ms = [(feeds, m) for feeds, m in zip(_FEEDS, (A, B)) if m is not None]
        if any(len(m) != 4 or any(len(row) != 4 for row in m) for _, m in ms):
            raise ValueError("A and B are 4x4 matrices")
        # (flat carrier index, sign, rational part) for every nonzero part
        terms = [(at + k, s, y) for feeds, m in ms for i, row in enumerate(m)
                 for at, x in enumerate(row, 8 * i)
                 for feed, y in zip(feeds, _rational_parts(x)) if y
                 for k, s in feed]
        d = math.lcm(*(y.denominator for _, _, y in terms))
        sums = {}
        for at, s, y in terms:
            sums[at] = sums.get(at, 0) + s * y.numerator * (d // y.denominator)
        g = math.gcd(d, *sums.values())  # d when every entry is zero
        bound = max(map(abs, sums.values()), default=0) // g
        if bound > _LIMIT:
            raise OverflowError("operator entries exceed the int64 range")
        pq = np.zeros(128, dtype=np.int64)
        pq[list(sums)] = [v // g for v in sums.values()]
        self._pq, self._d, self._bound = pq.reshape(2, 8, 8), d // g, bound

    def _magnitude(self) -> int:
        """Tighten _bound to the largest absolute entry and return it."""
        self._bound = int(np.abs(self._pq).max())
        return self._bound

    # constructors
    @classmethod
    def linear(cls, A) -> "GeneralOp":
        return cls(A, None)

    @classmethod
    def antilinear(cls, B) -> "GeneralOp":
        return cls(None, B)

    @classmethod
    def identity(cls) -> "GeneralOp":
        return _IDENTITY

    @classmethod
    def zero(cls) -> "GeneralOp":
        return _ZERO

    @classmethod
    def imaginary_unit(cls) -> "GeneralOp":
        """The operator i, i.e. phi -> i phi."""
        return _I

    @classmethod
    def conjugation(cls) -> "GeneralOp":
        """The antilinear involution phi -> conj(phi)."""
        return _C

    # composition: (X Y)(phi) = X(Y(phi)), the product of realifications
    def __matmul__(self, other: "GeneralOp") -> "GeneralOp":
        bound = _checked(lambda b1, b2: 24 * b1 * b2, self, other)
        return _new(_product(self._pq, other._pq), self._d * other._d, bound)

    def _combine(self, other: "GeneralOp", sign: int) -> "GeneralOp":
        # self + sign * other over the common denominator
        g = math.gcd(self._d, other._d)
        k1, k2 = other._d // g, self._d // g
        bound = _checked(lambda b1, b2: b1 * k1 + b2 * k2, self, other)
        x = self._pq * k1 if k1 != 1 else self._pq
        y = other._pq * k2 if k2 != 1 else other._pq
        return _new(x + y if sign > 0 else x - y, self._d * k1, bound)

    def __add__(self, other: "GeneralOp") -> "GeneralOp":
        return self._combine(other, 1)

    def __sub__(self, other: "GeneralOp") -> "GeneralOp":
        return self._combine(other, -1)

    def __neg__(self) -> "GeneralOp":
        return _new(-self._pq, self._d, self._bound)

    def scaled(self, r) -> "GeneralOp":
        """Scale by a real field element. The algebra is real: multiplying
        by i must be written as composition with GeneralOp.imaginary_unit()."""
        a, b, *imaginary = _rational_parts(r) + (0,)  # (r, 0) for a rational
        if any(imaginary):
            raise ValueError("scalars are restricted to the reals; "
                             "compose with the operator i instead")
        # r = (alpha + beta*sqrt2) / den with integers alpha, beta
        den = math.lcm(a.denominator, b.denominator)
        alpha = a.numerator * (den // a.denominator)
        beta = b.numerator * (den // b.denominator)
        bound = _checked(lambda b: b * (abs(alpha) + 2 * abs(beta)), self)
        pq = alpha * self._pq
        if beta:  # and the sqrt2 cross terms
            p, q = self._pq
            pq += np.stack((2 * beta * q, beta * p))
        return _new(pq, self._d * den, bound)

    def adjoint(self) -> "GeneralOp":
        """Adjoint with respect to <X^+ phi, psi> = <X psi, phi> on the
        antilinear part: A -> A^dagger, B -> B^T, i.e. the transpose of
        the realification."""
        return _new(self._pq.transpose(0, 2, 1), self._d, self._bound)

    def floats(self) -> Tuple[np.ndarray | None, np.ndarray | None]:
        """The complex 4x4 images of A and B, read from the carrier; a part
        that is exactly zero is None, decided on the integers. The real or
        imaginary part of an entry with rational and sqrt2 numerators h
        and s is h/(2d) + (s/(2d))*sqrt(2.0), each quotient correctly
        rounded while h, s and 2d stay below 2**53. Exact equality is
        never decided on it."""
        h = self._halves()
        den = 2 * self._d
        x = h[0] / den + (h[1] / den) * math.sqrt(2.0)
        return tuple(x[k, 0] + 1j * x[k, 1] if h[:, k].any() else None
                     for k in range(2))

    def scalar_parts(self) -> Tuple[bool, bool]:
        """Whether A and B are each c I for a complex c, zero included,
        decided on the integers."""
        h = self._halves()
        diagonal = h[..., :1, :1] * np.eye(4, dtype=np.int64)
        return tuple(bool((h[:, k] == diagonal[:, k]).all()) for k in range(2))

    def _halves(self) -> np.ndarray:
        """2d times (Ar, Ai; Br, Bi): axes rational or sqrt2 part, A or B,
        re or im, row, column."""
        m = self._pq
        r11, r12, r21, r22 = m[:, :4, :4], m[:, :4, 4:], m[:, 4:, :4], m[:, 4:, 4:]
        return np.array(((r11 + r22, r21 - r12),
                         (r11 - r22, r21 + r12))).transpose(2, 0, 1, 3, 4)

    # predicates
    @property
    def is_linear(self) -> bool:
        return not self._halves()[:, 1].any()

    @property
    def is_antilinear(self) -> bool:
        return not self._halves()[:, 0].any()

    @property
    def is_zero(self) -> bool:
        return not self._pq.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, GeneralOp):
            return NotImplemented
        return self._d == other._d and self._pq.tobytes() == other._pq.tobytes()

    def __hash__(self) -> int:
        return hash((self._d, self._pq.tobytes()))

    def __repr__(self) -> str:
        kind = ("zero" if self.is_zero
                else "linear" if self.is_linear
                else "antilinear" if self.is_antilinear
                else "mixed")
        return f"<GeneralOp {kind}>"


def gram(xs: Sequence[GeneralOp], ys: Sequence[GeneralOp]
         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact Gram block <R_x, R_y> = tr(R_x^T R_y) of two operator
    lists, as arrays (rat, sur, den) of shape (len(xs), len(ys)): entry
    (a, b) is (rat + sqrt2*sur) / den. rat and sur are int64, den holds
    Python ints. OverflowError if an int64 entry could wrap."""
    # an entry of P P' + 2 Q Q' sums 64 terms of at most 3 b b' each
    n = len(xs)
    _checked(lambda *b: 192 * max(b[:n], default=0) * max(b[n:], default=0),
             *xs, *ys)
    x = np.array([op._pq for op in xs], dtype=np.int64).reshape(len(xs), 2, 64)
    y = np.array([op._pq for op in ys], dtype=np.int64).reshape(len(ys), 2, 64)
    # all four products P P', P Q', Q P', Q Q' in one call
    g = np.einsum("aik,bjk->ijab", x, y)
    den = np.multiply.outer(np.array([op._d for op in xs], dtype=object),
                            np.array([op._d for op in ys], dtype=object))
    return g[0, 0] + 2 * g[1, 1], g[0, 1] + g[1, 0], den


def bracket_matches(ops: Sequence[GeneralOp], terms: np.ndarray,
                    signs: np.ndarray) -> Iterator[List[bool]]:
    """For each x = ops[p], whether [x, ops[q]] == signs[p, q] ops[terms[p,
    q]] exactly, one list over q per p, with terms and signs integer arrays
    of shape (n, n) and signs in {-1, 0, 1}. The carriers are brought to
    one common denominator D and stacked as Y; the test then reads
    x Y_q - Y_q x == d_x signs[p, q] Y_{terms[p, q]} on integers, and no
    operator is built per pair. The overflow guard is that of @. One row
    per x, not a table-wide stack, keeps the peak memory flat."""
    if not ops:
        return
    dens = [op._d for op in ops]
    scales = [math.lcm(*dens) // d for d in dens]

    def bound_of(*bs):
        # a stacked entry, an entry of either product of a bracket, and
        # d_x times a stacked entry
        b = max(bk * s for bk, s in zip(bs, scales))
        return max(b, 24 * max(bs) * b, max(dens) * b)

    _checked(bound_of, *ops)
    stack = np.stack([op._pq * s for op, s in zip(ops, scales)], axis=1)
    for x, k, sign in zip(ops, terms, signs):
        xp = x._pq[:, None]
        # a bracket subtracts two entries of at most _LIMIT, so it cannot wrap
        bracket = _product(xp, stack) - _product(stack, xp)
        expected = x._d * sign[:, None, None] * stack[:, k]
        yield (bracket == expected).all(axis=(0, 2, 3)).tolist()


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """P1 P2 + 2 Q1 Q2 and P1 Q2 + Q1 P2: the carrier of the product of
    carriers a and b, whose first axis holds P and Q; later axes broadcast.
    An entry sums 8 terms of at most 3 b1 b2 each (entry bounds b1, b2)."""
    x = a[:, None] @ b[None, :]  # P1 P2, P1 Q2, Q1 P2, Q1 Q2 in one call
    pq = x[0]
    pq[0] += 2 * x[1, 1]
    pq[1] += x[1, 0]
    return pq


def _new(pq: np.ndarray, d: int, bound: int) -> GeneralOp:
    """The operator (pq, d) in normal form, gcd(P, Q, d) = 1."""
    if d != 1:
        e = int(np.gcd.reduce(pq, axis=None))
        g = math.gcd(d, e)
        if e == 0:  # zero: gcd(d, 0) = d, and its normal form is (0, 1)
            d, bound = 1, 0
        elif g != 1:
            pq, d, bound = pq // g, d // g, bound // g
    op = GeneralOp.__new__(GeneralOp)
    op._pq, op._d, op._bound = pq, d, bound
    return op


def _integer(p: np.ndarray) -> GeneralOp:
    """The operator with R = p, entries 0 and +-1, on a read-only carrier."""
    op = _new(np.stack((p, np.zeros_like(p))), 1, 1)
    op._pq.flags.writeable = False
    return op


# the unit operators, formed once
_IDENTITY, _ZERO, _I, _C = (
    _integer(np.kron(m, np.eye(4, dtype=np.int64)))
    for m in ([[1, 0], [0, 1]], [[0, 0], [0, 0]], [[0, -1], [1, 0]],
              [[1, 0], [0, -1]]))


def _checked(bound_of, *ops: GeneralOp) -> int:
    """The entry bound that bound_of gives for a result of ops: from their
    stored bounds or, if that is too large, from their exact magnitudes.
    OverflowError if even those could wrap int64."""
    bound = bound_of(*(op._bound for op in ops))
    if bound > _LIMIT:
        bound = bound_of(*(op._magnitude() for op in ops))
        if bound > _LIMIT:
            raise OverflowError("operator result would exceed the int64 range")
    return bound


def compose(*ops: GeneralOp) -> GeneralOp:
    out = ops[0]
    for op in ops[1:]:
        out = out @ op
    return out


def commutator(x, y):
    """x @ y - y @ x, for exact operators and evaluated symbols alike."""
    return x @ y - y @ x


def anticommutator(x, y):
    """x @ y + y @ x, for exact operators and evaluated symbols alike."""
    return x @ y + y @ x
