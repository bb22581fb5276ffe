"""Independent exact oracle for the generator structure constants.

The spin-free (scalar) reduction of the ten generators acts on functions
of momentum as first-order differential operators:

    p0 = -i w,  p_n = i q_n,
    j_ln: f -> q_n df/dq_l - q_l df/dq_n,
    j_0k: f -> w df/dq_k + (q_k / 2w) f,        w = sqrt(q^2 + m^2).

The mass enters only through w, so q1, q2, q3 and w are algebraically
independent, and every coefficient lies in the Laurent ring
Q(i)[q1, q2, q3, w, 1/w] with d/dq_a w^k = k q_a w^(k-2). A ring element
is a dict {(e1, e2, e3, k): (re, im)} of Fraction parts. The commutator
of two first-order operators is first order with coefficients in the same
ring, so an identity of coefficients there holds for every q and every
m > 0: no sample points and no simplification are needed.

Each generator owns one coordinate (slot, monomial, re/im) that no other
generator uses. The constant c_k of an expansion is read off the
commutator at the coordinate of g_k; then sum_k c_k g_k is rebuilt and
must equal the commutator exactly. That equality is the proof and sets
``verified``. Matrix/spin parts cannot change the structure constants of
a representation, so the full generators must close with these constants.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple

NAMES = ["p0", "p1", "p2", "p3", "j23", "j31", "j12", "j01", "j02", "j03"]

Monomial = Tuple[int, int, int, int]    # powers of q1, q2, q3 and w
Poly = Dict[Monomial, Tuple[Fraction, Fraction]]  # nonzero (re, im) terms
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
    """The ten scalar generators in the order of NAMES."""
    half = Fraction(1, 2)
    return ([_op((3, _W, 0, -1))]
            + [_op((3, _Q[n], 0, 1)) for n in range(3)]
            + [_op((l, _Q[n], 1, 0), (n, _Q[l], -1, 0))
               for l, n in ((1, 2), (2, 0), (0, 1))]
            + [_op((k, _W, 1, 0), (3, _shift(_Q[k], k, 0, -1), half, 0))
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


def _coordinates(op: DiffOp) -> Dict[Coordinate, Fraction]:
    return {(slot, mono, part): c[part] for slot, poly in enumerate(op)
            for mono, c in poly.items() for part in (0, 1) if c[part]}


def _owned(coords: List[Dict[Coordinate, Fraction]]) -> List[Coordinate]:
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
            lam = [Fraction(read.get(o, 0)) / c[o]
                   for c, o in zip(coords, owned)]
            rebuilt = _op(*((slot, mono, c * re, c * im)
                            for c, g in zip(lam, gens)
                            for slot, poly in enumerate(g)
                            for mono, (re, im) in poly.items()))
            verified = verified and rebuilt == comm
            table[(NAMES[i], NAMES[j])] = tuple(float(c) for c in lam)
    return table, verified
