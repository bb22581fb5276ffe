"""Exact oracles of the operator tests. The (A, B) matrices over
Q(i, sqrt2), the action on a spinor and the realification are read from
an operator's integer carrier (P, Q, d), sharing nothing with the operator
arithmetic they check; the linear and antilinear parts are formed by that
arithmetic. ``ercd`` itself keeps only the carrier."""

from fractions import Fraction

from ercd.operators import GeneralOp
from ercd.scalars import ExactScalar, HALF, ZERO


def views(op: GeneralOp):
    """(A, B): the operator's two 4x4 matrices of ExactScalars."""
    den = 2 * op._d
    # axes: A or B, row, column, re or im, rational or sqrt2 part
    parts = op._halves().transpose(1, 3, 4, 2, 0).reshape(2, 4, 4, 4)
    return tuple(tuple(tuple(ExactScalar(*(Fraction(x, den) for x in e))
                             for e in row) for row in part)
                 for part in parts.tolist())


def apply(op: GeneralOp, phi):
    """A phi + B conj(phi) for a spinor phi of four ExactScalars."""
    A, B = views(op)
    conj = tuple(x.conjugate() for x in phi)
    return tuple(_dot(arow, phi) + _dot(brow, conj)
                 for arow, brow in zip(A, B))


def realify(op: GeneralOp):
    """The 8x8 real matrix R, entries in Q(sqrt2), acting on (u; v).

    Injective multiplicative homomorphism: realify(X @ Y) is the matrix
    product of realify(X) and realify(Y).
    """
    rat, sur = ([Fraction(x, op._d) for x in c]
                for c in op._pq.reshape(2, 64).tolist())
    return tuple(tuple(ExactScalar(rat[k], sur[k])
                       for k in range(8 * i, 8 * i + 8)) for i in range(8))


def parts(op: GeneralOp):
    """The linear part phi -> A phi and the antilinear part
    phi -> B conj(phi), i.e. (X - i X i) / 2 and (X + i X i) / 2."""
    i_op = GeneralOp.imaginary_unit()
    turned = i_op @ op @ i_op
    return (op - turned).scaled(HALF), (op + turned).scaled(HALF)


def is_real(x: ExactScalar) -> bool:
    return not x.c and not x.d


def _dot(row, v) -> ExactScalar:
    return sum((a * x for a, x in zip(row, v) if a), ZERO)
