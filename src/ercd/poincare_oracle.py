"""Independent exact oracle for the generator structure constants.

The spin-free (scalar) reduction of the ten generators acts on functions
of momentum as first-order differential operators:

    p0 = -i w,  p_n = i q_n,
    j_ln: f -> q_n df/dq_l - q_l df/dq_n,
    j_0k: f -> w df/dq_k + (q_k / 2w) f,        w = sqrt(q^2 + m^2).

The mass enters only through w, so q1, q2, q3 and w are algebraically
independent, and every coefficient lies in the Laurent ring
Z[i][q1, q2, q3, w, 1/w] with d/dq_a w^k = k q_a w^(k-2). A ring element
is a dict {(e1, e2, e3, k): (re, im)} of Python int parts: the ring holds
the generators scaled by s_k (``SCALES``), 2 for the boosts, whose
coefficients are then integers. The commutator of two first-order
operators is first order with coefficients in the same ring, so an
identity of coefficients there holds for every q and every m > 0: no
sample points and no simplification are needed.

Each generator owns one coordinate (slot, monomial, re/im) that no other
generator uses. The constant l_k of the expansion [s_i g_i, s_j g_j] =
sum_k l_k s_k g_k is read off the commutator at the coordinate of s_k g_k
as the ratio of two integers r_k / d_k; then, over the common denominator
D of those ratios, sum_k (D r_k / d_k) s_k g_k is rebuilt and must equal D
times the commutator exactly, in integers. That equality is the proof and
sets ``verified``. The structure constant of the stated generators is
c_k = l_k s_k / (s_i s_j), and its float is the correctly rounded
quotient of two integers. Matrix/spin parts cannot change the structure
constants of a representation, so the full generators must close with
these constants.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from typing import Dict, List, Tuple

NAMES = ["p0", "p1", "p2", "p3", "j23", "j31", "j12", "j01", "j02", "j03"]
# the factor s_k of each generator in the ring, in the order of NAMES
SCALES = (1, 1, 1, 1, 1, 1, 1, 2, 2, 2)

Monomial = Tuple[int, int, int, int]    # powers of q1, q2, q3 and w
Poly = Dict[Monomial, Tuple[int, int]]  # nonzero (re, im) terms
DiffOp = Tuple[Poly, Poly, Poly, Poly]  # coeffs of d/dq_1..3, zeroth order
Coordinate = Tuple[int, Monomial, int]  # (slot, monomial, 0 re / 1 im)

_W: Monomial = (0, 0, 0, 1)
_Q: Tuple[Monomial, ...] = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))


def _add_term(out: Poly, mono: Monomial, re, im) -> None:
    re0, im0 = out.get(mono, (0, 0))
    re, im = re0 + re, im0 + im
    if re or im:
        out[mono] = (re, im)
    else:
        out.pop(mono, None)


def _shift(mono: Monomial, a: int, da: int, dw: int) -> Monomial:
    out = list(mono)
    out[a] += da
    out[3] += dw
    return tuple(out)


def _diff(f: Poly, a: int) -> Poly:
    """d/dq_a: q_a^e -> e q_a^(e-1) and w^k -> k q_a w^(k-2)."""
    out: Poly = {}
    for mono, (re, im) in f.items():
        for k, d in ((mono[a], _shift(mono, a, -1, 0)),
                     (mono[3], _shift(mono, a, 1, -2))):
            if k:
                _add_term(out, d, k * re, k * im)
    return out


def _mul_into(out: Poly, f: Poly, g: Poly, sign: int) -> None:
    for m, (a, b) in f.items():
        for n, (c, d) in g.items():
            _add_term(out, tuple(x + y for x, y in zip(m, n)),
                      sign * (a * c - b * d), sign * (a * d + b * c))


def _op(*terms) -> DiffOp:
    """A first-order operator from (slot, monomial, re, im) terms."""
    slots: DiffOp = ({}, {}, {}, {})
    for slot, mono, re, im in terms:
        _add_term(slots[slot], mono, re, im)
    return slots


def _scalar_generators() -> List[DiffOp]:
    """The ten scalar generators in the order of NAMES, each scaled by its
    s_k: the boosts as 2 j_0k = 2 w d/dq_k + q_k / w."""
    return ([_op((3, _W, 0, -1))]
            + [_op((3, _Q[n], 0, 1)) for n in range(3)]
            + [_op((l, _Q[n], 1, 0), (n, _Q[l], -1, 0))
               for l, n in ((1, 2), (2, 0), (0, 1))]
            + [_op((k, _W, 2, 0), (3, _shift(_Q[k], k, 0, -1), 1, 0))
               for k in range(3)])


def _commutator(f: DiffOp, g: DiffOp) -> DiffOp:
    """[f, g]: slot b is sum_a f_a d_a g_b - g_a d_a f_b (b = 3 the zeroth
    order)."""
    out: DiffOp = ({}, {}, {}, {})
    for b in range(4):
        for a in range(3):
            _mul_into(out[b], f[a], _diff(g[b], a), 1)
            _mul_into(out[b], g[a], _diff(f[b], a), -1)
    return out


def _coordinates(op: DiffOp) -> Dict[Coordinate, int]:
    return {(slot, mono, part): c[part] for slot, poly in enumerate(op)
            for mono, c in poly.items() for part in (0, 1) if c[part]}


def _owned(coords: List[Dict[Coordinate, int]]) -> List[Coordinate]:
    """For each generator the first coordinate no other generator uses."""
    owned = []
    for k, mine in enumerate(coords):
        free = set(mine).difference(*(c for j, c in enumerate(coords)
                                      if j != k))
        if not free:
            raise ValueError(f"generator {NAMES[k]} owns no coordinate")
        owned.append(min(free))
    return owned


@lru_cache(maxsize=1)
def oracle_structure_table() -> Tuple[Dict[Tuple[str, str], Tuple[float, ...]],
                                      bool]:
    """Structure constants of all 45 generator pairs, each read off the
    owned coordinates and proved by exact reconstruction in the ring.
    Returns (table, verified)."""
    gens = _scalar_generators()
    coords = [_coordinates(g) for g in gens]
    owned = _owned(coords)
    table: Dict[Tuple[str, str], Tuple[float, ...]] = {}
    verified = True
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            comm = _commutator(gens[i], gens[j])
            read = _coordinates(comm)
            # l_k = r_k / d_k, brought to the common denominator D
            ratios = [(read.get(o, 0), c[o]) for c, o in zip(coords, owned)]
            den = lcm(*(d for _, d in ratios))
            lam = [r * (den // d) for r, d in ratios]
            rebuilt = _op(*((slot, mono, c * re, c * im)
                            for c, g in zip(lam, gens) if c
                            for slot, poly in enumerate(g)
                            for mono, (re, im) in poly.items()))
            verified = verified and rebuilt == _op(
                *((slot, mono, den * re, den * im)
                  for slot, poly in enumerate(comm)
                  for mono, (re, im) in poly.items()))
            scale = den * SCALES[i] * SCALES[j]
            table[(NAMES[i], NAMES[j])] = tuple(
                c * s / scale for c, s in zip(lam, SCALES))
    return table, verified
