"""Operators polynomial in position with momentum-dependent matrix
coefficients, and the ten translation/rotation/boost generators built
from them.

Normal form keeps all position factors on the left: a term x^alpha S(q)
means "apply the matrix symbol, then multiply by positions", with x_b
acting as i d/dq_b in momentum space. An operator is the dict of its
symbol coefficients by position multi-index, each exact operators times
scalar profiles (``MomentumSymbol``); ``evaluate`` runs each once on a
signed batch (``MomentumSymbol.jet``), and the algebra works on the
resulting ``XValues``: per key a ``SymbolValues`` and its q-derivatives.
Products use the reordering rule

    S x_b T = x_b (S T) - i (dS/dq_b) T,

which holds for antilinear coefficients too (positions are real and
commute with conjugation): S T is the flip-law product ``S @ T`` of the
values and dS/dq_b comes from the left coefficient's jet. The right
factor has degree <= 1, and a coefficient formed by the algebra carries
no derivative, so it never stands left of a position. The time coordinate
never mixes with the q-calculus: the generators are built on the t = 0
slice, and their x0 coefficients are stated as data (``X0_PARTS``).
p0 and the boosts' x-coefficient are the diagonalized Hamiltonian's
symbol scaled by -i (``EquationOperator.scaled``).

The Lie closure of the ten generators is checked on their evaluated
values against the structure constants that ``poincare_oracle`` proves
exactly in a Laurent ring: each commutator minus its expansion must
vanish. The p0 row of that table is also the invariance check: on the
t = 0 slice iH = -p0, so [d_0 + iH, G] = 0 reads [p0, G] = T_G, the x0
coefficient of G.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .algebras import breve_spin, pd_gammas
from .operators import GeneralOp
from .symbols import (MomentumSymbol, SymbolValues, fw_hamiltonian,
                      max_modulus, omega)

Multi = Tuple[int, int, int]
# an operator: its symbol coefficients by position multi-index
XSymbol = Dict[Multi, MomentumSymbol]
ZERO_MULTI: Multi = (0, 0, 0)
_E = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

# values and their three q-derivatives, or None when formed by the algebra
Coeff = Tuple[SymbolValues, Optional[Tuple[SymbolValues, ...]]]


def _madd_multi(a: Multi, b: Multi) -> Multi:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def position_op(a: int) -> XSymbol:
    """The canonical position operator x_a ~ i d/dq_a (unit coefficient)."""
    return {_E[a]: MomentumSymbol((GeneralOp.identity(),), lambda q: (1.0,),
                                  "I")}


@dataclass
class XValues:
    """The spatial coefficients of an operator on one signed batch, each
    with its derivatives d/dq_a when it was evaluated by ``evaluate``."""

    terms: Dict[Multi, Coeff]

    def degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    def __add__(self, other: "XValues") -> "XValues":
        return _collect((k, v) for x in (self, other)
                        for k, (v, _) in x.terms.items())

    def __sub__(self, other: "XValues") -> "XValues":
        out = {k: v for k, (v, _) in self.terms.items()}
        for k, (v, _) in other.terms.items():
            out[k] = out[k] - v if k in out else -v
        return XValues({k: (v, None) for k, v in out.items()})

    def max_norm(self) -> float:
        """Largest coefficient entry modulus over the +q half."""
        return max((v.norm() for v, _ in self.terms.values()), default=0.0)


def _collect(pieces) -> XValues:
    """The sum of the (key, values) pieces per key, in order; a sum
    carries no derivatives."""
    out: Dict[Multi, SymbolValues] = {}
    for key, v in pieces:
        out[key] = out[key] + v if key in out else v
    return XValues({k: (v, None) for k, v in out.items()})


def evaluate(x: XSymbol, q) -> XValues:
    """The coefficients of x on the signed batch q, each evaluated once
    with its derivatives."""
    return XValues({k: sym.jet(q) for k, sym in x.items()})


def compose(x: XValues, y: XValues) -> XValues:
    """Product in normal form: x^alpha S times x^beta T is
    x^(alpha+beta) (S T), plus -i x^alpha (dS/dq_b) T when beta = e_b.
    The product carries no derivatives."""
    if y.degree() > 1:
        raise ValueError("the right factor of a product must have "
                         "degree <= 1")

    def pieces():
        for alpha, (s, ds) in x.terms.items():
            for beta, (t, _) in y.terms.items():
                yield _madd_multi(alpha, beta), s @ t
                if beta == ZERO_MULTI:
                    continue
                if ds is None:
                    raise ValueError("a coefficient formed by a product has "
                                     "no derivative (jets are degree 1)")
                yield alpha, (-1j * ds[beta.index(1)]) @ t

    return _collect(pieces())


def commutator(x: XValues, y: XValues) -> XValues:
    return compose(x, y) - compose(y, x)


# ---------------------------------------------------------------------------
# the ten generators
# ---------------------------------------------------------------------------

_SPIN_SLOT = {(2, 3): 0, (3, 1): 1, (1, 2): 2}  # (l, n) -> spin component

# the x0 coefficient T_G of each generator G that has one: the boost
# j0k = x0 p_k + (its t = 0 slice)
X0_PARTS = {"j01": "p1", "j02": "p2", "j03": "p3"}


def translation_generators(mass: float) -> List[Tuple[str, XSymbol]]:
    """p0 = -i g0 omega and p_n = i q_n; unlike the boosts these need only
    m >= 0."""
    p0 = fw_hamiltonian(mass).scaled(-1j, "p0")
    gens = [("p0", {ZERO_MULTI: p0})]
    for n in range(3):
        pn = MomentumSymbol((GeneralOp.identity(),),
                            lambda q, n=n: (1j * q[n],), f"p{n + 1}")
        gens.append((f"p{n + 1}", {ZERO_MULTI: pn}))
    return gens


def build_poincare_generators(mass: float) -> List[Tuple[str, XSymbol]]:
    """Translation, rotation and boost generators for the diagonalized
    wave equation, anti-Hermitian convention:

        p0 = -i g0 omega,  p_n = i q_n,
        j_ln = x_l p_n - x_n p_l + spin_ln   (covariant components,
                                              x_lower = -x_upper),
        j_0k = x0 p_k + i g0 ( x_k omega + p_k/(2 omega)
                               + (spin x p)_k / (omega + m) ).

    All are built on the t = 0 slice; the x0 p_k piece of a boost is its
    x0 coefficient, stated in ``X0_PARTS``.
    """
    if mass <= 0:
        raise ValueError("boost generators need m > 0")
    ident, g0 = GeneralOp.identity(), pd_gammas().get("g0")
    spin = breve_spin().ops()
    i_g0 = GeneralOp.imaginary_unit() @ g0
    i_g0_spin = [i_g0 @ s for s in spin]  # exact, both parts
    x_sym = fw_hamiltonian(mass).scaled(-1j, "-ig0w")

    gens = translation_generators(mass)

    # rotations: j_ln = -x^l (i q_n) + x^n (i q_l) + spin_ln
    for (l, n) in ((2, 3), (3, 1), (1, 2)):
        coeffs: XSymbol = {
            _E[l - 1]: MomentumSymbol(
                (ident,), lambda q, n=n: (-1j * q[n - 1],), f"-iq{n}"),
            _E[n - 1]: MomentumSymbol(
                (ident,), lambda q, l=l: (1j * q[l - 1],), f"iq{l}"),
            ZERO_MULTI: MomentumSymbol((spin[_SPIN_SLOT[(l, n)]],),
                                       lambda q: (1.0,), f"s{l}{n}"),
        }
        gens.append((f"j{l}{n}", coeffs))

    # boosts: x-coefficient -i g0 omega; constant part
    # i g0 (i q_k / (2 omega))  +  i g0 (spin x iq)_k / (omega + m)
    for k in range(3):
        # (spin x iq)_k = sum eps_klm spin_l (i q_m), left-scaled by i g0
        l, m_idx = (k + 1) % 3, (k + 2) % 3

        def boost_const(q, k=k, l=l, m_idx=m_idx):
            w = omega(q, mass)
            # i g0 * i q_k/(2w) = -(q_k/2w) g0
            return (-q[k] / (2.0 * w), (1j / (w + mass)) * q[m_idx],
                    (-1j / (w + mass)) * q[l])

        const_sym = MomentumSymbol((g0, i_g0_spin[l], i_g0_spin[m_idx]),
                                   boost_const, f"j0{k + 1}c")
        gens.append((f"j0{k + 1}", {_E[k]: x_sym, ZERO_MULTI: const_sym}))

    return gens


# ---------------------------------------------------------------------------
# closure against the oracle constants, and invariance
# ---------------------------------------------------------------------------

def poincare_closure_check(names: Sequence[str], values: Sequence[XValues]
                           ) -> Tuple[float, float, bool]:
    """Measure [g_i, g_j] = sum_k c_k g_k for every pair i < j of the ten
    generators, evaluated once on one signed batch (``evaluate``), with
    the exact structure constants c_k of the ring oracle; the brackets of
    the p0 row also measure the invariance [p0, G] = T_G of each G, its
    x0 coefficient (``X0_PARTS``, zero for a G without one). The residual
    of a comparison is the largest coefficient entry of the difference
    over the +q half; a commutator coefficient at a key no generator uses
    counts in full. Returns the largest invariance and closure residuals
    and whether the oracle proved each of its expansions."""
    from .poincare_oracle import NAMES, oracle_structure_table

    if list(names) != NAMES:
        raise ValueError(f"generators {list(names)} are not the oracle's "
                         f"{NAMES}")
    table, verified = oracle_structure_table()
    x0 = {g: values[names.index(p)] for g, p in X0_PARTS.items()}
    symmetry = closure = 0.0
    for i, x in enumerate(values):
        for j in range(i + 1, len(values)):
            pair = (names[i], names[j])
            expansion = _collect(
                (key, c * v) for c, g in zip(table[pair], values) if c
                for key, (v, _) in g.terms.items())
            bracket = commutator(x, values[j])
            closure = max(closure, (bracket - expansion).max_norm())
            if pair[0] == "p0":
                symmetry = max(symmetry, (bracket - x0.get(
                    pair[1], XValues({}))).max_norm())
            # held into the next pair, they would raise the heap's peak
            del bracket, expansion
    return symmetry, closure, verified


# ---------------------------------------------------------------------------
# Casimir evaluation
# ---------------------------------------------------------------------------

def momentum_square(mass: float, q: np.ndarray) -> Tuple[complex, float]:
    """p^mu p_mu = p0 p0 - sum p_n p_n on the signed batch q, expected
    -m^2 I and constant in q: its value at the first point, and its largest
    deviation over the +q half from that constant multiple of I."""
    p = [g[ZERO_MULTI](q) for _, g in translation_generators(mass)]
    a = (p[0] @ p[0]).a
    for pn in p[1:]:
        a = a - (pn @ pn).a
    acc = a[0]
    values = acc[:, 0, 0]
    return complex(values[0]), max(
        max_modulus(values - values[0]),
        max_modulus(acc - values[:, None, None] * np.eye(4)))
