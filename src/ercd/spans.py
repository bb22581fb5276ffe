"""Exact real-linear algebra over the 64-dimensional operator space.

The one rule is the trace form <R, S> = tr(R^T S) of the realifications
(operators.gram), exact in Q(sqrt2). Orts square to +-I and commute or
anticommute pairwise, so any two distinct orts are orthogonal under it,
and so are the rotation generators built from them. Over an orthogonal
basis R_k the coordinates of X are c_k = <R_k, X> / <R_k, R_k>; X lies in
the span exactly when sum_k c_k R_k == X, which is checked exactly
(a projection alone proves nothing). A basis that is not orthogonal is
refused. Ranks, span equality and centralizers read coordinates, so they
take any operators. The Lie closure and the structure constants are
decided on blade codes (blade_brackets): they take a set of distinct
signed blades only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .algebras import blade_products, ercd64, require_blades
from .operators import GeneralOp, commutator, gram
from .scalars import ExactScalar

Coordinates = Dict[int, ExactScalar]


def _scalar(rat, sur, den) -> ExactScalar:
    return ExactScalar(Fraction(int(rat), den), Fraction(int(sur), den))


class OrthogonalBasis:
    """Operators that are mutually orthogonal under the trace form.

    ValueError names the first pair that is not. Zero members are allowed
    (they are orthogonal to everything) and do not count towards the rank.
    """

    def __init__(self, ops: Sequence[GeneralOp]):
        self.ops = list(ops)
        rat, sur, den = gram(self.ops, self.ops)
        off = np.argwhere(np.triu((rat != 0) | (sur != 0), 1))
        if len(off):
            a, b = off[0].tolist()
            raise ValueError(f"operators {a} and {b} are not orthogonal "
                             "under the trace form")
        self.norms = [_scalar(rat[k, k], sur[k, k], den[k, k])
                      for k in range(len(self.ops))]

    @property
    def rank(self) -> int:
        return sum(1 for n in self.norms if n)

    def coordinates(self, ops: Sequence[GeneralOp]
                    ) -> List[Optional[Coordinates]]:
        """For each op its nonzero coordinates {k: c_k}, or None if it lies
        outside the span."""
        rat, sur, den = gram(self.ops, ops)
        out: List[Optional[Coordinates]] = [{} for _ in ops]
        totals: Dict[int, GeneralOp] = {}
        for k, j in np.argwhere((rat != 0) | (sur != 0)).tolist():
            out[j][k] = c = _scalar(rat[k, j], sur[k, j], den[k, j]) \
                / self.norms[k]
            term = self.ops[k].scaled(c)
            totals[j] = totals[j] + term if j in totals else term
        for j, op in enumerate(ops):
            # the exact reconstruction sum_k c_k R_k == op proves membership
            if not (totals[j] == op if j in totals else op.is_zero):
                out[j] = None
        return out

    def contains(self, ops: Sequence[GeneralOp]) -> bool:
        return all(c is not None for c in self.coordinates(ops))


def span_rank(ops: Sequence[GeneralOp]) -> int:
    """Rank over the reals of mutually orthogonal operators: the number of
    nonzero ones."""
    return OrthogonalBasis(ops).rank


def spans_equal(ops1: Sequence[GeneralOp], ops2: Sequence[GeneralOp]) -> bool:
    basis1, basis2 = OrthogonalBasis(ops1), OrthogonalBasis(ops2)
    return basis1.rank == basis2.rank and basis1.contains(basis2.ops)


def centralizer_kernel(x: GeneralOp) -> List[GeneralOp]:
    """The ercd64 orts that commute with x, a basis of {Q : Q X = X Q}.

    ercd64 is an orthogonal basis of the whole space, so the kernel of
    Q -> [x, Q] is spanned by the orts with a zero image provided the
    nonzero images are independent: they are checked to be mutually
    orthogonal. ValueError if either condition fails.
    """
    orts = OrthogonalBasis(ercd64().ops())
    if len(orts.ops) != 64 or orts.rank != 64:
        raise ValueError("ercd64 is not a basis of the operator space")
    images = [commutator(x, o) for o in orts.ops]
    OrthogonalBasis(images)
    return [o for o, image in zip(orts.ops, images) if image.is_zero]


def centralizer_dimension(x: GeneralOp) -> int:
    """Dimension of the commutant of x in the 64-dimensional operator space."""
    return len(centralizer_kernel(x))


def blade_brackets(codes) -> Iterator[Tuple[int, int, Optional[int], int]]:
    """(i, j, k, sign) for every pair i < j of the signed blades s_i e_{S_i}
    that anticommute, with [g_i, g_j] = 2 g_i g_j = sign * 2 g_k, or k None
    if no S_k is the mask S_i xor S_j, which puts the bracket outside the
    span; commuting pairs have a zero bracket and are skipped."""
    index = {mask: k for k, (_, mask) in enumerate(codes)}
    for i, (signs, masks, commutes) in enumerate(blade_products(codes, codes)):
        for j in range(i + 1, len(codes)):
            if not commutes[j]:
                k = index.get(masks[j])
                yield i, j, k, 0 if k is None else signs[j] * codes[k][0]


_TWO = {1: ExactScalar(2), -1: ExactScalar(-2)}


def structure_constants(generators: Sequence[GeneralOp]
                        ) -> Dict[Tuple[int, int, int], ExactScalar]:
    """c^k_{ij} with [g_i, g_j] = sum_k c^k_{ij} g_k, exact; sparse dict.
    Every constant is +-2 (blade_brackets). ValueError unless the
    generators are distinct signed blades whose brackets stay in their
    span."""
    table: Dict[Tuple[int, int, int], ExactScalar] = {}
    # the pairs i < j fix the table, since c^k_{ji} = -c^k_{ij}
    for i, j, k, sign in blade_brackets(
            require_blades(generators, "generator set")):
        if k is None:
            raise ValueError(
                f"commutator of generators {i},{j} lies outside the span")
        table[(i, j, k)], table[(j, i, k)] = _TWO[sign], _TWO[-sign]
    return table
