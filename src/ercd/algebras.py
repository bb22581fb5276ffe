"""Constructors for every named generator set of the extended algebra.

Every rotation family comes from ``rotation_family``, which uses only the
commutator x @ y - y @ x, so it also serves the nonlocal generators
evaluated on a batch (``symbols.SymbolValues``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .operators import GeneralOp, anticommutator, commutator, compose
from .scalars import ExactScalar, HALF, I_UNIT, INV_SQRT2, ONE, SQRT2, ZERO

Pair = Tuple[int, int]

MINUS_HALF = ExactScalar(Fraction(-1, 2))


@dataclass(frozen=True)
class OrtSet:
    """Named, ordered collection of labelled basis operators."""

    name: str
    elements: Tuple[Tuple[str, GeneralOp], ...]

    def __post_init__(self):
        labels = [lbl for lbl, _ in self.elements]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate labels in ort set {self.name!r}")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Tuple[str, GeneralOp]]:
        return iter(self.elements)

    def labels(self) -> List[str]:
        return [lbl for lbl, _ in self.elements]

    def ops(self) -> List[GeneralOp]:
        return [op for _, op in self.elements]

    def get(self, label: str) -> GeneralOp:
        for lbl, op in self.elements:
            if lbl == label:
                return op
        raise KeyError(f"{label!r} not in ort set {self.name!r}")


# ---------------------------------------------------------------------------
# Dirac matrices, standard representation
# ---------------------------------------------------------------------------

def pauli_matrices():
    s1 = ((0, 1), (1, 0))
    s2 = ((ZERO, -I_UNIT), (I_UNIT, ZERO))
    s3 = ((1, 0), (0, -1))
    return s1, s2, s3


def _block_gamma(sk):
    # [[0, s], [-s, 0]]
    rows = []
    for i in range(2):
        rows.append((ZERO, ZERO, sk[i][0], sk[i][1]))
    for i in range(2):
        rows.append((-sk[i][0], -sk[i][1], ZERO, ZERO))
    return tuple(rows)


@lru_cache(maxsize=None)
def pd_gammas() -> OrtSet:
    """The five anticommuting generators g0..g4, metric (+----).

    g0 = diag(1,1,-1,-1); gk = [[0, sigma_k],[-sigma_k, 0]];
    g4 = g0 g1 g2 g3 (more convenient than the usual chirality matrix:
    it squares to -I like the spatial generators).
    """
    s1, s2, s3 = pauli_matrices()
    g0 = GeneralOp.linear([[1, 0, 0, 0], [0, 1, 0, 0],
                           [0, 0, -1, 0], [0, 0, 0, -1]])
    g1 = GeneralOp.linear(_block_gamma(s1))
    g2 = GeneralOp.linear(_block_gamma(s2))
    g3 = GeneralOp.linear(_block_gamma(s3))
    g4 = compose(g0, g1, g2, g3)
    return OrtSet("pd_gammas", (("g0", g0), ("g1", g1), ("g2", g2),
                                ("g3", g3), ("g4", g4)))


@lru_cache(maxsize=None)
def extended_gammas() -> OrtSet:
    """The seven generators g1..g7 obtained by adjoining conjugation and i.

    g5 = g1 g3 C, g6 = i g1 g3 C, g7 = i g0; all square to -I and pairwise
    anticommute (compact signature -2*delta).
    """
    g = pd_gammas()
    i_op = GeneralOp.imaginary_unit()
    c_op = GeneralOp.conjugation()
    g5 = compose(g.get("g1"), g.get("g3"), c_op)
    g6 = compose(i_op, g5)
    g7 = compose(i_op, g.get("g0"))
    return OrtSet("extended_gammas", (
        *((lbl, g.get(lbl)) for lbl in ("g1", "g2", "g3", "g4")),
        ("g5", g5), ("g6", g6), ("g7", g7)))


# ---------------------------------------------------------------------------
# Clifford blade codes
# ---------------------------------------------------------------------------

_BITS = np.array([bin(m).count("1") for m in range(64)])
# e_S e_T = BLADE_SIGNS[S, T] e_{S xor T}: -1 to the swaps that sort the
# factors (s in S above t in T; shifts k > 0) plus |S & T| (k = 0), g_k^2 = -I
BLADE_SIGNS = 1 - 2 * (sum(_BITS[(np.arange(64)[:, None] >> k) & np.arange(64)]
                           for k in range(6)) % 2)


@lru_cache(maxsize=None)
def _signed_blades() -> Dict[GeneralOp, Tuple[int, int]]:
    """The 128 signed blades mapped to their codes, from 63 products; empty
    unless g1..g6 satisfy g_k^2 = -I and {g_k, g_l} = 0 exactly."""
    gens = extended_gammas().ops()[:6]
    zero, minus_two = GeneralOp.zero(), GeneralOp.identity().scaled(-2)
    # {g_k, g_l} is symmetric in k and l: the 21 pairs k <= l suffice
    if any(anticommutator(g, h) != (minus_two if k == l else zero)
           for k, g in enumerate(gens) for l, h in enumerate(gens[k:], k)):
        return {}
    blades = [GeneralOp.identity()]
    for g in gens:  # e_{S + k} = e_S g_k, S below k: blades in mask order
        blades += [b @ g for b in blades]
    return {b if s > 0 else -b: (s, m)
            for s in (1, -1) for m, b in enumerate(blades)}


def blade_codes(ops: Sequence[GeneralOp]) -> Optional[List[Tuple[int, int]]]:
    """The code (sign, S) of each op = sign * e_S, e_S the product of the g_k
    of g1..g6 with bit k-1 of S set, in increasing k; or None unless every
    op is a signed blade and no two share a mask. As g1..g6 satisfy the
    Clifford relations, every product of the ops follows from BLADE_SIGNS
    (universal property); the tables of relations and spans then use it."""
    codes = [_signed_blades().get(op) for op in ops]
    if None in codes or len({m for _, m in codes}) != len(codes):
        return None
    return codes


def require_blades(ops: Sequence[GeneralOp], name: str
                   ) -> List[Tuple[int, int]]:
    """blade_codes(ops), or ValueError naming the set unless the ops are
    distinct signed blades."""
    codes = blade_codes(ops)
    if codes is None:
        raise ValueError(f"{name} is not a set of distinct signed blades")
    return codes


def blade_products(xs, ys):
    """For each code x of xs, three lists over the codes y of ys: the signs
    and the masks of the codes of x y, and whether x and y commute. The
    whole table is read from BLADE_SIGNS at once."""
    (sx, mx), (sy, my) = (np.array(c).reshape(-1, 2).T for c in (xs, ys))
    sigma = BLADE_SIGNS[mx[:, None], my]
    return zip((sx[:, None] * sy * sigma).tolist(),
               (mx[:, None] ^ my).tolist(),
               (sigma == BLADE_SIGNS[my, mx[:, None]]).tolist())


# ---------------------------------------------------------------------------
# rotation-generator families
# ---------------------------------------------------------------------------

def rotation_family(halves: Sequence, base: int = 0) -> Dict[Pair, object]:
    """The rotation family of generators g_base, g_base+1, ..., given their
    halves h_a = g_a / 2: s^{ab} = [h_a, h_b] = [g_a, g_b] / 4 for a < b,
    and s^{a,top} = h_a in the extra slot top = base + len(halves).

    The halves may be exact operators or evaluated symbols; their @ is
    the exact or the flip-law product."""
    n = len(halves)
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            table[(base + i, base + j)] = commutator(halves[i], halves[j])
    for i in range(n):
        table[(base + i, base + n)] = halves[i]
    return table


@lru_cache(maxsize=None)
def so15_generators(gammas: "OrtSet | None" = None) -> Dict[Pair, GeneralOp]:
    """s^{mn} over indices 0..5: quarter-commutators of g0..g4, with the
    fifth index slot holding s^{m,5} = g_m / 2."""
    g = gammas if gammas is not None else pd_gammas()
    return rotation_family([g.get(f"g{k}").scaled(HALF) for k in range(5)])


def _doubled_family(name: str, table: Dict[Pair, GeneralOp]) -> OrtSet:
    """The orts {I, alpha^{ab} = 2 s^{ab}} over the sorted family; the
    extra slot, the family's last index, holds alpha^{a,top} = g_a."""
    return OrtSet(name, (("I", GeneralOp.identity()), *(
        (f"alpha_{a}{b}", s.scaled(2)) for (a, b), s in sorted(table.items()))))


@lru_cache(maxsize=None)
def cd16() -> OrtSet:
    """The 16 orts {I, alpha^{mn} = 2 s^{mn}} of the Dirac-matrix algebra."""
    return _doubled_family("cd16", so15_generators())


@lru_cache(maxsize=None)
def ercd64() -> OrtSet:
    """All 64 orts: the 16-element basis times {1, i, C, iC} on the left."""
    base = cd16()
    i_op = GeneralOp.imaginary_unit()
    c_op = GeneralOp.conjugation()
    ic_op = i_op @ c_op
    return OrtSet("ercd64", tuple(
        (prefix + lbl, op if factor is None else factor @ op)
        for prefix, factor in (("", None), ("i.", i_op), ("C.", c_op),
                               ("iC.", ic_op))
        for lbl, op in base))


@lru_cache(maxsize=None)
def so8_generators() -> Dict[Pair, GeneralOp]:
    """s^{AB} over 1..8 built from the seven extended generators;
    the eighth slot holds s^{A,8} = g_A / 2."""
    g = extended_gammas()
    return rotation_family([g.get(f"g{k}").scaled(HALF) for k in range(1, 8)],
                           1)


@lru_cache(maxsize=None)
def percd29() -> OrtSet:
    """The 29 orts {alpha^{AB} = 2 s^{AB}, I} of the proper subalgebra."""
    return _doubled_family("percd29", so8_generators())


@lru_cache(maxsize=None)
def so6() -> OrtSet:
    """The 16 orts {I, alpha^{AB}} over indices 1..6: the pure matrix
    symmetries of the diagonalized (even-odd split) wave equation."""
    return _doubled_family("so6", {pair: s for pair, s in
                                   so8_generators().items() if pair[1] < 7})


@lru_cache(maxsize=None)
def a32() -> OrtSet:
    """The 32-element maximal pure-matrix invariance set of the
    diagonalized equation: the 15 nontrivial so6 orts, their products
    with i g0, plus i g0 and I."""
    nontrivial = [(lbl, op) for lbl, op in so6() if lbl != "I"]
    ig0 = extended_gammas().get("g7")
    return OrtSet("a32", (*nontrivial,
                          *((f"ig0.{lbl}", ig0 @ op) for lbl, op in nontrivial),
                          ("ig0", ig0), ("I", GeneralOp.identity())))


# ---------------------------------------------------------------------------
# the eight-element antilinear-extension set and its Lorentz sextet
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def pgi8() -> OrtSet:
    """{g2 C, i g2 C, g2 g4 C, i g2 g4 C, g4, i g4, i, I}: the classical
    pure-matrix invariance set of the massless equation."""
    g = pd_gammas()
    i_op = GeneralOp.imaginary_unit()
    c_op = GeneralOp.conjugation()
    g2c = g.get("g2") @ c_op
    g24c = compose(g.get("g2"), g.get("g4"), c_op)
    return OrtSet("pgi8", (
        ("g2C", g2c),
        ("ig2C", i_op @ g2c),
        ("g2g4C", g24c),
        ("ig2g4C", i_op @ g24c),
        ("g4", g.get("g4")),
        ("ig4", i_op @ g.get("g4")),
        ("i", i_op),
        ("I", GeneralOp.identity()),
    ))


@lru_cache(maxsize=None)
def pgi_lorentz6() -> Dict[Pair, GeneralOp]:
    """The six-generator Lorentz realization living inside pgi8:
    s01 = (i/2) g2 C, s02 = -(1/2) g2 C, s03 = -(i/2) g4,
    s23 = (i/2) g2 g4 C, s31 = -(1/2) g2 g4 C, s12 = -(i/2)."""
    p = pgi8()
    return {
        (0, 1): p.get("ig2C").scaled(HALF),
        (0, 2): p.get("g2C").scaled(MINUS_HALF),
        (0, 3): p.get("ig4").scaled(MINUS_HALF),
        (2, 3): p.get("ig2g4C").scaled(HALF),
        (3, 1): p.get("g2g4C").scaled(MINUS_HALF),
        (1, 2): p.get("i").scaled(MINUS_HALF),
    }


# ---------------------------------------------------------------------------
# bosonic representation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bosonic_rep() -> Tuple[OrtSet, GeneralOp, GeneralOp]:
    """Explicit bosonic-form generators plus the basis change W, W^-1.

    Returns (ort set with bg1..bg7, bg0, bi, bC; W; W_inv). The
    W-conjugation identities are claims of the bosonic suite, not checked
    here.
    """
    r = INV_SQRT2  # 1/sqrt2
    i = I_UNIT
    one = ONE
    z = ZERO
    bg1 = GeneralOp.linear([[z, z, one, -one], [z, z, i, i],
                            [-one, i, z, z], [one, i, z, z]]).scaled(r)
    bg2 = GeneralOp.linear([[z, z, -i, i], [z, z, -one, -one],
                            [-i, one, z, z], [i, one, z, z]]).scaled(r)
    bg3 = GeneralOp.antilinear([[z, i, z, z], [-i, z, z, z],
                                [z, z, z, -one], [z, z, one, z]])
    bg4 = GeneralOp.antilinear([[z, one, z, z], [-one, z, z, z],
                                [z, z, z, i], [z, z, -i, z]])
    bg5 = GeneralOp.linear([[z, z, -one, -one], [z, z, i, -i],
                            [one, i, z, z], [one, -i, z, z]]).scaled(r)
    bg6 = GeneralOp.linear([[z, z, -i, -i], [z, z, one, -one],
                            [-i, -one, z, z], [-i, one, z, z]]).scaled(r)
    bg7 = extended_gammas().get("g7")
    bg0 = GeneralOp.linear([[one, z, z, z], [z, -one, z, z],
                            [z, z, z, one], [z, z, one, z]])
    bi = GeneralOp.linear([[i, z, z, z], [z, -i, z, z],
                           [z, z, z, -i], [z, z, -i, z]])
    bC = GeneralOp.antilinear([[one, z, z, z], [z, -one, z, z],
                               [z, z, one, z], [z, z, z, one]])

    w = GeneralOp([[SQRT2, z, z, z], [z, z, z, z],
                   [z, z, z, one], [z, z, z, -one]],
                  [[z, z, z, z], [z, z, i * SQRT2, z],
                   [z, -one, z, z], [z, -one, z, z]]).scaled(r)
    w_inv = GeneralOp([[SQRT2, z, z, z], [z, z, z, z],
                       [z, z, z, z], [z, z, one, -one]],
                      [[z, z, z, z], [z, z, -one, -one],
                       [z, i * SQRT2, z, z], [z, z, z, z]]).scaled(r)

    explicit = {"bg1": bg1, "bg2": bg2, "bg3": bg3, "bg4": bg4, "bg5": bg5,
                "bg6": bg6, "bg7": bg7, "bg0": bg0, "bi": bi, "bC": bC}
    return OrtSet("bosonic", tuple(explicit.items())), w, w_inv


@lru_cache(maxsize=None)
def bosonic_so8_generators() -> Dict[Pair, GeneralOp]:
    """The rotation family rebuilt from the bosonic-form generators."""
    breve, _, _ = bosonic_rep()
    return rotation_family(
        [breve.get(f"bg{k}").scaled(HALF) for k in range(1, 8)], 1)


@lru_cache(maxsize=None)
def breve_spin() -> OrtSet:
    """The bosonic spin triplet: two antilinear components and one linear,
    supported on the upper 3x3 block."""
    r = INV_SQRT2
    i = I_UNIT
    one = ONE
    z = ZERO

    s1 = GeneralOp.antilinear([[z, z, i, z], [z, z, -one, z],
                               [-i, one, z, z], [z, z, z, z]]).scaled(r)
    s2 = GeneralOp.antilinear([[z, z, one, z], [z, z, -i, z],
                               [-one, i, z, z], [z, z, z, z]]).scaled(r)
    s3 = GeneralOp((((-i), z, z, z), (z, i, z, z),
                    (z, z, z, z), (z, z, z, z)), None)
    return OrtSet("breve_spin", (("s1", s1), ("s2", s2), ("s3", s3)))


def breve_spin_from_compositions() -> List[GeneralOp]:
    """The same triplet assembled from bosonic-form generator products:
    (1/2)(bg2 bg3 - bg0 bg2 bC, bg3 bg1 + bi bg0 bg2 bC, bg1 bg2 - bi)."""
    breve, _, _ = bosonic_rep()
    bg = {k: breve.get(f"bg{k}") for k in (1, 2, 3)}
    bg0, bi, bC = breve.get("bg0"), breve.get("bi"), breve.get("bC")
    core = compose(bg0, bg[2], bC)
    s1 = (bg[2] @ bg[3] - core).scaled(HALF)
    s2 = (bg[3] @ bg[1] + bi @ core).scaled(HALF)
    s3 = (bg[1] @ bg[2] - bi).scaled(HALF)
    return [s1, s2, s3]
