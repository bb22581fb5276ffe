"""Exact real-linear algebra over the 64-dimensional operator space.

Operators vectorize to 64 real components with entries in Q(sqrt2)
(see GeneralOp.vectorize); ranks, span memberships, kernels and
expansion coefficients are computed by exact Gaussian elimination.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .operators import GeneralOp
from .scalars import ExactScalar, I_UNIT, ONE, ZERO

Vector = Tuple[ExactScalar, ...]


class ExactSpan:
    """Incrementally row-reduced basis of a real subspace, exact arithmetic.

    With track=True each reduced row remembers its expansion in the
    originally inserted vectors, so members can be expressed exactly in
    the generators, and each inserted vector that did not enlarge the
    span leaves in relations the combination of insertions that vanishes.
    Tracking rows are ragged: entries past their length are zero (they
    can only reference earlier insertions).
    """

    def __init__(self, track: bool = False):
        self.rows: List[Tuple[int, Vector]] = []  # (pivot index, normalized row)
        self.track = track
        self.coeffs: List[Tuple[ExactScalar, ...]] = []
        self.relations: List[List[ExactScalar]] = []
        self._n_inserted = 0

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: Vector, coeff: Optional[List[ExactScalar]] = None):
        v = list(vec)
        used: List[Tuple[int, ExactScalar]] = []
        for idx, (p, row) in enumerate(self.rows):
            f = v[p]
            if f:
                for j in range(len(v)):
                    if row[j]:
                        v[j] = v[j] - f * row[j]
                v[p] = ZERO  # exact
                used.append((idx, f))
                if coeff is not None:
                    for j, c in enumerate(self.coeffs[idx]):
                        if c:
                            coeff[j] = coeff[j] - f * c
        return v, used

    def add(self, vec: Vector) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        coeff: Optional[List[ExactScalar]] = None
        if self.track:
            coeff = [ZERO] * (self._n_inserted + 1)
            coeff[self._n_inserted] = ONE
        v, _ = self._reduce(vec, coeff)
        self._n_inserted += 1
        pivot = next((j for j, x in enumerate(v) if x), None)
        if pivot is None:
            if self.track:
                self.relations.append(coeff)
            return False
        inv = v[pivot].inverse()
        self.rows.append((pivot, tuple(x * inv for x in v)))
        if self.track:
            self.coeffs.append(tuple(x * inv for x in coeff))
        return True

    def contains(self, vec: Vector) -> bool:
        v, _ = self._reduce(vec)
        return all(not x for x in v)

    def express(self, vec: Vector) -> Optional[List[ExactScalar]]:
        """Coefficients of vec over the inserted vectors, or None if outside."""
        if not self.track:
            raise ValueError("span was built without coefficient tracking")
        v, used = self._reduce(vec)
        if any(v):
            return None
        out = [ZERO] * self._n_inserted
        for idx, f in used:
            for j, c in enumerate(self.coeffs[idx]):
                if c:
                    out[j] = out[j] + f * c
        return out


def span_of(ops: Iterable[GeneralOp], track: bool = False) -> ExactSpan:
    sp = ExactSpan(track=track)
    for op in ops:
        sp.add(op.vectorize())
    return sp


def span_rank(ops: Iterable[GeneralOp]) -> int:
    """Rank over the reals of the vectorized operators (exact)."""
    return span_of(ops).rank


def spans_equal(ops1: Sequence[GeneralOp], ops2: Sequence[GeneralOp]) -> bool:
    sp1 = span_of(ops1)
    sp2 = span_of(ops2)
    if sp1.rank != sp2.rank:
        return False
    return all(sp1.contains(op.vectorize()) for op in ops2)


# ---------------------------------------------------------------------------
# elementary basis of the full 64-dimensional operator space
# ---------------------------------------------------------------------------

def elementary_basis() -> List[GeneralOp]:
    """E_ij and i*E_ij in the linear slot, then the same antilinear.

    64 elements; spans every GeneralOp with real coefficients.
    """
    basis = []
    for anti in (False, True):
        for scalar in (ONE, I_UNIT):
            for i in range(4):
                for j in range(4):
                    rows = [[ZERO] * 4 for _ in range(4)]
                    rows[i][j] = scalar
                    m = tuple(tuple(r) for r in rows)
                    basis.append(GeneralOp(None, m) if anti else GeneralOp(m, None))
    return basis


def centralizer_kernel(x: GeneralOp) -> List[GeneralOp]:
    """Exact basis of {Q : Q X = X Q} inside the full operator space.

    Kernel of the real-linear map Q -> X Q - Q X: the tracked elimination
    of the images of the elementary basis exposes each kernel combination
    as a relation among the images.
    """
    basis = elementary_basis()
    sp = ExactSpan(track=True)
    for q in basis:
        sp.add((x @ q - q @ x).vectorize())
    out = []
    for coeff in sp.relations:
        acc = GeneralOp.zero()
        for lam, q in zip(coeff, basis):
            if lam:
                if not lam.is_real:
                    raise AssertionError("kernel coefficients must be real")
                acc = acc + q.scaled(lam)
        out.append(acc)
    return out


def centralizer_dimension(x: GeneralOp) -> int:
    """Dimension of the commutant of x in the 64-dimensional operator space."""
    return len(centralizer_kernel(x))


# ---------------------------------------------------------------------------
# exact structure constants
# ---------------------------------------------------------------------------

def structure_constants(generators: Sequence[GeneralOp]
                        ) -> Dict[Tuple[int, int, int], ExactScalar]:
    """c^k_{ij} with [g_i, g_j] = sum_k c^k_{ij} g_k, exact; sparse dict.

    Linearly dependent generator sets are rejected: a degenerate basis
    would make the expansion ambiguous, so no least-squares fallback.
    """
    gens = list(generators)
    sp = ExactSpan(track=True)
    for g in gens:
        sp.add(g.vectorize())
    if sp.rank != len(gens):
        raise ValueError("generator set is linearly dependent; "
                         "structure constants would not be unique")
    table: Dict[Tuple[int, int, int], ExactScalar] = {}
    for i, gi in enumerate(gens):
        for j, gj in enumerate(gens):
            if i == j:
                continue
            comm = gi @ gj - gj @ gi
            lam = sp.express(comm.vectorize())
            if lam is None:
                raise ValueError(
                    f"commutator of generators {i},{j} lies outside the span")
            for k, c in enumerate(lam):
                if c:
                    table[(i, j, k)] = c
    return table
