"""Independent symbolic oracle for the generator structure constants.

The spin-free (scalar) reduction of the ten generators acts on functions
of momentum as first-order differential operators:

    p0 = -i w,  p_n = i q_n,
    j_ln: f -> q_n df/dq_l - q_l df/dq_n,
    j_0k: f -> w df/dq_k + (q_k / 2w) f,        w = sqrt(q^2 + m^2).

Their commutators are computed symbolically (sympy). The expansion
coefficients over the ten generators are read at eight sample points with
m = 1 where q^2 + 1 is a perfect square, so w is an integer and every slot
value lies in Q(i). The real and imaginary parts of the slots give the
same 64 x 10 rational design matrix for every pair, and one Fraction
Gauss-Jordan elimination of it, augmented with all 45 commutators, yields
every expansion; a missing pivot or a commutator outside the span raises
ValueError. Each expansion is then proved as a symbolic identity in
general q and m. Matrix/spin parts cannot change the structure constants
of a representation, so the fitted constants of the full generators must
match this table; any deviation is a genuine finding.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple

import sympy as sp

NAMES = ["p0", "p1", "p2", "p3", "j23", "j31", "j12", "j01", "j02", "j03"]

_Q = sp.symbols("q1 q2 q3", real=True)
_M = sp.Symbol("m", positive=True)
_W = sp.sqrt(_Q[0] ** 2 + _Q[1] ** 2 + _Q[2] ** 2 + _M ** 2)

DiffOp = Tuple[Dict[int, sp.Expr], sp.Expr]  # ({a: coeff of d/dq_a}, zeroth)


def _scalar_generators() -> List[DiffOp]:
    i = sp.I
    gens: List[DiffOp] = [({}, -i * _W)]
    for n in range(3):
        gens.append(({}, i * _Q[n]))
    for (l, n) in ((2, 3), (3, 1), (1, 2)):
        gens.append(({l - 1: _Q[n - 1], n - 1: -_Q[l - 1]}, sp.Integer(0)))
    for k in range(3):
        gens.append(({k: _W}, _Q[k] / (2 * _W)))
    return gens


def _commutator(f: DiffOp, g: DiffOp) -> DiffOp:
    fc, f0 = f
    gc, g0 = g
    out_c: Dict[int, sp.Expr] = {}
    for b in range(3):
        expr = sp.Integer(0)
        for a, fa in fc.items():
            if b in gc:
                expr += fa * sp.diff(gc[b], _Q[a])
        for a, ga in gc.items():
            if b in fc:
                expr -= ga * sp.diff(fc[b], _Q[a])
        expr = sp.cancel(sp.together(expr))
        if expr != 0:
            out_c[b] = expr
    zero = sp.Integer(0)
    for a, fa in fc.items():
        zero += fa * sp.diff(g0, _Q[a])
    for a, ga in gc.items():
        zero -= ga * sp.diff(f0, _Q[a])
    return out_c, sp.cancel(sp.together(zero))


# m = 1 and q^2 + 1 a perfect square: w is an integer, so every slot value
# of every generator and commutator lies in Q(i)
_SAMPLE_POINTS = (
    (1, 1, 1), (2, 2, 4), (1, 3, 5), (1, -1, 1),
    (4, -2, 2), (-3, 5, 1), (1, 1, -1), (2, -4, 2),
)

Gaussian = Tuple[Fraction, Fraction]  # (re, im) of an element of Q(i)


def _gaussian(value: sp.Expr) -> Gaussian:
    re, im = value.as_real_imag()
    if not (re.is_Rational and im.is_Rational):
        raise ValueError(f"slot value {value} is not in Q(i)")
    return Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q))


def _slot_values(op: DiffOp, pt) -> List[Gaussian]:
    point = {**{_Q[a]: sp.Integer(pt[a]) for a in range(3)},
             _M: sp.Integer(1)}
    slots = [op[0].get(b, sp.Integer(0)) for b in range(3)] + [op[1]]
    return [_gaussian(expr.xreplace(point)) for expr in slots]


def _real_rows(ops: List[DiffOp]) -> List[List[Fraction]]:
    """One column per op; the real and imaginary parts of its four slots
    at every sample point are the rows."""
    columns = []
    for op in ops:
        column: List[Fraction] = []
        for pt in _SAMPLE_POINTS:
            for re, im in _slot_values(op, pt):
                column += [re, im]
        columns.append(column)
    return [list(row) for row in zip(*columns)]


def _solve_expansions(gens: List[DiffOp], targets: List[DiffOp]
                      ) -> List[List[Fraction]]:
    """Real rational lam with sum_k lam_k gens_k = target at every sample
    point, for each target: one Gauss-Jordan elimination of
    [gens | targets]. ValueError if the points leave a generator without
    a pivot, or a target outside the span of the generators."""
    n = len(gens)
    rows = _real_rows(gens + targets)
    for col in range(n):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]),
                     None)
        if pivot is None:
            raise ValueError("the sample points do not determine the "
                             "expansion")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r, row in enumerate(rows):
            if r != col and row[col]:
                f = row[col]
                rows[r] = [x - f * y if y else x
                           for x, y in zip(row, rows[col])]
    if any(any(row[n:]) for row in rows[n:]):
        raise ValueError("scalar-realization commutator does not close")
    return [list(lam) for lam in zip(*(row[n:] for row in rows[:n]))]


def _verify_expansion(gens: List[DiffOp], target: DiffOp,
                      lam: List[sp.Rational]) -> bool:
    for b in range(3):
        expr = target[0].get(b, sp.Integer(0))
        for k, g in enumerate(gens):
            expr -= lam[k] * g[0].get(b, sp.Integer(0))
        if sp.simplify(expr) != 0:
            return False
    expr = target[1] - sum(lam[k] * gens[k][1] for k in range(len(gens)))
    return sp.simplify(expr) == 0


@lru_cache(maxsize=1)
def oracle_structure_table() -> Tuple[Dict[Tuple[str, str], Tuple[float, ...]],
                                      bool]:
    """Structure constants of all 45 generator pairs, with every
    expansion re-verified as a symbolic identity. Returns (table, verified).
    """
    gens = _scalar_generators()
    pairs = [(i, j) for i in range(len(gens)) for j in range(i + 1, len(gens))]
    comms = [_commutator(gens[i], gens[j]) for i, j in pairs]
    table: Dict[Tuple[str, str], Tuple[float, ...]] = {}
    verified = True
    for (i, j), comm, lam in zip(pairs, comms,
                                 _solve_expansions(gens, comms)):
        exact = [sp.Rational(c.numerator, c.denominator) for c in lam]
        if not _verify_expansion(gens, comm, exact):
            verified = False
        table[(NAMES[i], NAMES[j])] = tuple(float(c) for c in lam)
    return table, verified
