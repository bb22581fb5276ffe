"""Momentum-symbol calculus for translation-invariant operators.

A symbol maps momentum q to a pair of 4x4 matrices (A(q), B(q)), the
operator phi -> A(q) phi + B(q) conj(phi(-q)) with a linear and an
antilinear part. Every symbol has one form, sum_t p_t(q) M_t: exact
constant operators M_t (``GeneralOp``) times scalar profiles p_t
(``MomentumSymbol``). The float images of the M_t are read once, when the
symbol is built, through ``float_image``: the one place where the momentum
layer turns exact operators into floats.

Symbols are evaluated on signed batches: an array Q of shape (2, N, 3)
holding N momenta and their reflections, Q[1] = -Q[0] (``signed_batch``).
On a batch a symbol gives a ``SymbolValues``, the parts A and B, each of
shape (2, N, 4, 4) or (1, 1, 4, 4) when constant. A part that is c(q) I is
stored as its scalar c, of shape (2, N, 1, 1) or (1, 1, 1, 1) when
constant. All algebra works on those values.

The kind of each part is decided on the exact M_t when the symbol is
built, and no float data is scanned to decide it. A part that no M_t has
is absent, a part whose every contributing M_t is c I (the identity, the
operator i) is a scalar, and a part whose profiles are all numbers is
constant. The derivative of a constant part is absent too. An absent part
is never allocated.

Composition follows the momentum-flip law: antilinear parts see the
reflected momentum. On a signed batch the reflected factor is a flip of
the sign axis, not a second evaluation, and ``SymbolValues`` forms every
product in one place (``_product``, per part product):

    A = Ax @ Ay + Bx @ conj(By[::-1]),
    B = Ax @ By + Bx @ conj(Ay[::-1]).

A product with an absent factor is not formed, and a part both of whose
terms are absent is absent. A product with a scalar factor is formed by
broadcasting, and stays scalar when both factors are. A constant 4x4
matrix times a batch, on either side and with or without the flip, is one
GEMM over the flattened batch, not one 4x4 product per point; with the
constant on the left the result is a strided view of that GEMM's output.
``half_matmul`` forms the same product on the +q half only, bit for bit
that half of ``@``: the kind of each factor is read on the whole value,
then the +q halves are taken, and the -q half of the reflected factor.
Its result, whose batch parts have shape (1, N, ...), is marked ``half``:
at N = 1 that is the shape of a constant, so it is never a factor of a
product, and a sum with it is formed on the +q half.
No array is written once it is formed: every product, sum and scalar
multiple forms new parts, so values may share their parts freely. Sums,
differences and scalar multiples act on both parts and keep absence; a
sum of a scalar part and a matrix part expands the scalar through eye(4),
so c never reaches the off-diagonal entries. The commutators of
``operators`` serve evaluated values unchanged. Dropping an exactly zero
term turns x + 0 into x, which changes at most the sign of a zero entry.

``MomentumSymbol.jet`` gives values and first q-derivatives from one pass:
it evaluates the profiles on degree-1 array jets (``jets.Jet``) seeded
with e_a on both halves, so each entry is differentiated with respect to
its own momentum, and applies the same sum to the values and to each
gradient.

Fourier convention: phi(x) = (2 pi)^(-3/2) Int d^3q e^{i q.x} phitilde(q),
so d/dx_n has symbol i q_n and conjugation sends phitilde(q) to
conj(phitilde(-q)). A constant symbol, one operator with the profile 1,
composes identically to the exact layer. An ``EquationOperator`` states a
Hamiltonian once, by its exact terms; the symmetry check reads them, and
its symbols are built from them.

The seeded momenta (``sample_momenta``) are drawn from ``pcg64_uniforms``,
the uniform stream of numpy's default generator for the seed, bit for bit,
in Python integer arithmetic: the points do not depend on the installed
numpy version, and no run loads ``numpy.random``.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from operator import add, index
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

from .algebras import pd_gammas, so15_generators
from .jets import Jet
from .operators import GeneralOp


def signed_batch(points) -> np.ndarray:
    """The signed batch (2, N, 3) of one momentum triple or a sequence of
    them: the points, then their reflections."""
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    return np.stack([p, -p])


class SymbolValues:
    """A symbol evaluated on a signed batch: the linear part a and the
    antilinear part b, each of shape (2, N, 4, 4), or (1, 1, 4, 4) for a
    part that does not depend on q, which broadcasts and is its own sign
    flip. A part of shape (2, N, 1, 1), or (1, 1, 1, 1) when constant, is
    a scalar c standing for c I, and None marks a part that is zero by
    construction as absent. A part may also stack n 4x4 blocks, as rows
    (2, N, 4n, 4) or as columns (2, N, 4, 4n): the product of such rows
    and columns holds the product of every pair of blocks at once.

    ``@`` is the flip-law product, which forms no product with an absent
    factor and multiplies a scalar factor by broadcasting; +, - and unary
    - act on both parts, and r * v is left composition with the scalar r
    (r = 1j is the operator i). All of them keep absence and scalars.
    ``.a`` and ``.b`` read a scalar part as c I and an absent part as a
    (1, 1, 4, 4) zero.
    A value with ``half`` set, formed by ``half_matmul``, holds the +q
    half only and is never a factor of a product (module docstring).
    """

    __slots__ = ("_a", "_b", "half")
    __array_ufunc__ = None  # numpy scalars defer to __rmul__

    def __init__(self, a, b, half=False):
        self._a, self._b, self.half = a, b, half

    @property
    def a(self) -> np.ndarray:
        return _dense(self._a)

    @property
    def b(self) -> np.ndarray:
        return _dense(self._b)

    def __matmul__(self, other: "SymbolValues") -> "SymbolValues":
        return self._times(other, half=False)

    def half_matmul(self, other: "SymbolValues") -> "SymbolValues":
        """The +q half of self @ other, bit for bit: each part from the
        +q half of the left factor and of the unreflected right one, and
        from the -q half of the reflected one, A0 = Ax0 Ay0 +
        Bx0 conj(By-) and B0 = Ax0 By0 + Bx0 conj(Ay-)."""
        return self._times(other, half=True)

    def _times(self, other: "SymbolValues", half: bool) -> "SymbolValues":
        if self.half or other.half:
            raise ValueError("a value held on the +q half only is not a "
                             "factor of a product")
        xa, xb, ya, yb = self._a, self._b, other._a, other._b
        return SymbolValues(
            _add(_product(xa, ya, half=half),
                 _product(xb, yb, flip=True, half=half)),
            _add(_product(xa, yb, half=half),
                 _product(xb, ya, flip=True, half=half)), half)

    def positive_half(self) -> "SymbolValues":
        """The values on the +q half: a view of each batch part, and a
        constant part as it is."""
        if self.half:
            return self
        return SymbolValues(*(p if p is None or _is_constant(p) else p[:1]
                              for p in (self._a, self._b)), half=True)

    def _aligned(self, other: "SymbolValues"):
        """self and other, both on the +q half when either is."""
        if self.half == other.half:
            return self, other
        return self.positive_half(), other.positive_half()

    def __add__(self, other: "SymbolValues") -> "SymbolValues":
        x, y = self._aligned(other)
        return SymbolValues(_add(x._a, y._a), _add(x._b, y._b), x.half)

    def __sub__(self, other: "SymbolValues") -> "SymbolValues":
        x, y = self._aligned(other)
        return SymbolValues(_sub(x._a, y._a), _sub(x._b, y._b), x.half)

    def __neg__(self) -> "SymbolValues":
        return self._map(np.negative)

    def __rmul__(self, r) -> "SymbolValues":
        return self._map(lambda p: r * p)

    def points(self, indices) -> "SymbolValues":
        """The values on the points of the batch at indices (a slice or a
        sequence), a constant part as it is; not of a +q half, whose batch
        parts may have the shape of a constant."""
        if self.half:
            raise ValueError("a value held on the +q half only has no "
                             "points to pick")
        return self._map(lambda p: p if _is_constant(p) else p[:, indices])

    def _map(self, f) -> "SymbolValues":
        return SymbolValues(*(p if p is None else f(p)
                              for p in (self._a, self._b)), self.half)

    def norm(self) -> float:
        """Largest entry modulus over the +q half; an absent part reads 0
        and a non-finite entry inf."""
        return max((max_modulus(p[0]) for p in (self._a, self._b)
                    if p is not None), default=0.0)


def max_modulus(x) -> float:
    """The largest entry modulus of the array x, inf when an entry is NaN:
    max() would read a NaN that does not come first as nothing."""
    worst = float(np.max(np.abs(x)))
    return worst if worst == worst else math.inf


# the part arithmetic of SymbolValues: None is an absent (zero) part, and a
# part whose last axis has length 1 is a scalar c standing for c I

_EYE4 = np.eye(4, dtype=complex)


def _is_scalar(p) -> bool:
    return p.shape[-1] == 1


def _dense(p):
    if p is None:
        return np.zeros((1, 1, 4, 4), dtype=complex)
    return p * _EYE4 if _is_scalar(p) else p


def _is_constant(p) -> bool:
    """Whether the part p of a value that is not a +q half is constant."""
    return p.shape[0] == 1


def _product(x, y, flip=False, half=False):
    """x @ y, or x @ conj(y[::-1]) with flip, the reflected factor of the
    flip law; by broadcasting when a factor is scalar, None when a factor
    is absent. With half, only its +q half: the +q half of x times that of
    y, or the conjugate of y's -q half with flip. The kinds are read on the
    whole factors, before the halves are taken."""
    if x is None or y is None:
        return None
    x_constant, y_constant = _is_constant(x), _is_constant(y)
    if half:
        x = x if x_constant else x[:1]
        y = y if y_constant else y[-1:] if flip else y[:1]
    if not (_is_scalar(x) or _is_scalar(y)) and x_constant != y_constant:
        return _constant_gemm(x, y, flip, y_constant)
    y = np.conj(y[::-1]) if flip else y
    return x * y if _is_scalar(x) or _is_scalar(y) else x @ y


def _constant_gemm(x, y, flip, y_constant):
    """The product of _product for a constant 4x4 matrix factor and a batch
    one, as one GEMM over the batch: broadcasting would form one 4x4
    product per point."""
    if y_constant:  # a constant is its own sign flip
        y = np.conj(y) if flip else y
        return (x.reshape(-1, 4) @ y[0, 0]).reshape(x.shape)
    # c @ y[s, n] for every point: c times the points' matrices side by
    # side, (4, 4) @ (4, 2N * 4), read back as a strided view
    rows = y.transpose(2, 0, 1, 3)
    rows = (np.conjugate(rows[:, ::-1], order="C") if flip
            else np.ascontiguousarray(rows))
    return (x[0, 0] @ rows.reshape(4, -1)).reshape(rows.shape
                                                  ).transpose(1, 2, 0, 3)


def _matched(x, y):
    """x and y, a scalar expanded through eye(4) when the other is a
    matrix: plain broadcasting would add c to all 16 entries."""
    if _is_scalar(x) == _is_scalar(y):
        return x, y
    return _dense(x), _dense(y)


def _add(x, y):
    if x is None or y is None:
        return x if y is None else y
    x, y = _matched(x, y)
    return x + y


def _sub(x, y):
    if x is None or y is None:
        return x if y is None else -y
    x, y = _matched(x, y)
    return x - y


def _components(q):
    """Momentum components of a signed batch, each shaped (2, N, 1, 1)."""
    return tuple(q[..., a, None, None] for a in range(3))


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

class MomentumSymbol:
    """q -> sum_t p_t(q) M_t over signed batches.

    ops are the exact operators M_t. profiles maps the momentum
    components (q1, q2, q3), each of shape (2, N, 1, 1) as plain arrays or
    jets, to the tuple of the scalar profiles p_t, each an array of that
    shape, a jet or a number. The symbol reads the float image of each M_t
    once, here, and decides here the kind of each part (module docstring).
    """

    __slots__ = ("ops", "profiles", "label", "_parts")

    def __init__(self, ops, profiles: Callable, label: str = ""):
        self.ops: Tuple[GeneralOp, ...] = tuple(ops)
        self.profiles = profiles
        self.label = label
        self._parts = _part_images(self.ops)

    def __call__(self, q) -> SymbolValues:
        """The values on the signed batch q of shape (2, N, 3)."""
        return self._values(self.profiles(_components(q)))

    def _values(self, ps) -> SymbolValues:
        return SymbolValues(*(_combine(part, ps) for part in self._parts))

    def jet(self, q) -> Tuple[SymbolValues, Tuple[SymbolValues, ...]]:
        """Values and q-derivatives on the signed batch q from one seeded
        jet pass: (v, (d1, d2, d3)), where da = dv/dq_a, each half taken
        with respect to its own momentum.
        A derivative keeps the shape of its part, (2, N, 1, 1) for a
        scalar; a part whose profiles are all numbers keeps its constant
        shape, and its derivatives are absent, as are those of an absent
        part."""
        ps = self.profiles(Jet.of_momenta(_components(q)))
        jets = [isinstance(p, Jet) for p in ps]
        grads = [p.grad if j else (None,) * 3 for p, j in zip(ps, jets)]
        return (self._values([p.val if j else p for p, j in zip(ps, jets)]),
                tuple(self._values(d) for d in zip(*grads)))


@lru_cache(maxsize=None)
def float_image(op: GeneralOp):
    """The complex 4x4 images (A, B) of op, None for a part that is exactly
    zero: the one place where the momentum layer turns an exact operator
    into floats (``GeneralOp.floats``). An operator never changes, so its
    images are read once and kept, read-only."""
    images = op.floats()
    for image in (im for im in images if im is not None):
        image.flags.writeable = False
    return images


# whether each part of an operator is c I, decided once per operator
_scalar_parts = lru_cache(maxsize=None)(GeneralOp.scalar_parts)


def _part_images(ops):
    """Per part, A then B, the pairs (t, image) of the operators that have
    it, in order: each image of shape (1, 1, 1, 1), holding c, when all of
    those parts are c I, and of shape (1, 1, 4, 4) otherwise."""
    images = [float_image(op) for op in ops]
    parts = []
    for k in range(2):
        terms = [(t, im[k]) for t, im in enumerate(images)
                 if im[k] is not None]
        scalar = all(_scalar_parts(ops[t])[k] for t, _ in terms)
        parts.append([(t, im[None, None, :1, :1] if scalar else im[None, None])
                      for t, im in terms])
    return parts


def _combine(part, ps):
    """sum_t p_t image_t over the terms of one part, in order; an absent
    p_t, the derivative of a number, adds nothing, and a part with no term
    is absent (None)."""
    present = [ps[t] * image for t, image in part if ps[t] is not None]
    return reduce(add, present) if present else None


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> List[int]:
    """The four 64-bit words that numpy's SeedSequence(seed) hands to
    PCG64, generate_state(4, uint64): the seed's 32-bit words hashed into
    a pool of four, the pool hashed out to eight 32-bit words, read as
    little-endian pairs."""
    seed = index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    # the seed's 32-bit words, least significant first, at least one
    entropy = [seed >> 32 * k & _MASK32
               for k in range(max(1, -(-seed.bit_length() // 32)))]
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[k] if k < len(entropy) else 0) for k in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, words = 0x8B51F9DD, []
    for k in range(8):
        value = pool[k % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]


def pcg64_uniforms(seed: int, low: float, high: float) -> Iterator[float]:
    """The stream of np.random.default_rng(seed).uniform(low, high), bit
    for bit, without numpy.random: PCG64 (O'Neill 2014), the 128-bit LCG
    with the XSL-RR output, seeded as numpy seeds it. A draw x gives
    u = (x >> 11) 2^-53 and reads low + (high - low) u. The seed is
    checked here, not at the first draw: a negative one is a ValueError."""
    state_hi, state_lo, inc_hi, inc_lo = _seed_words(seed)
    return _pcg64_draws(state_hi << 64 | state_lo, inc_hi << 64 | inc_lo,
                        float(low), float(high) - float(low))


def _pcg64_draws(state: int, inc: int, low: float, span: float):
    mult, mask64, mask128 = _PCG_MULTIPLIER, _MASK64, _MASK128
    # PCG's seeding: an odd increment, then two steps around adding state
    inc = (inc << 1 | 1) & mask128
    state = ((inc + state) * mult + inc) & mask128
    while True:
        state = (state * mult + inc) & mask128
        x, rot = (state >> 64 ^ state) & mask64, state >> 122
        x = (x >> rot | x << (64 - rot)) & mask64
        yield low + span * ((x >> 11) * 2.0 ** -53)


def sample_momenta(n: int, seed: int = 42, radius: float = 10.0
                   ) -> List[Tuple[float, float, float]]:
    """Deterministic seeded momenta in the ball |q| <= radius, always
    including the origin and axis-aligned points so degenerate directions
    are exercised; the others are triples of the seed's uniform stream
    (``pcg64_uniforms``) kept when their three floats fall in the ball."""
    draws = pcg64_uniforms(seed, -radius, radius)
    r = radius / 2.0
    pts = [(0.0, 0.0, 0.0), (r, 0.0, 0.0), (0.0, r, 0.0), (0.0, 0.0, r)]
    while len(pts) < n:
        x, y, z = next(draws), next(draws), next(draws)
        if math.sqrt(x * x + y * y + z * z) <= radius:
            pts.append((x, y, z))
    return pts[:n]


# ---------------------------------------------------------------------------
# wave-equation operators
# ---------------------------------------------------------------------------

class EquationOperator:
    """The evolution operator d_0 + iH with H(q) = sum_t f_t(q) M_t, stated
    once by its terms (M_t, sigma_t, f_t): exact constant linear operators
    M_t and scalar profiles f_t, each even (sigma_t = +1) or odd
    (sigma_t = -1) in q. ``symbol`` is the terms themselves, the M_t with
    the profiles f_t, and ``check_equation_symmetry`` reads them exactly."""

    def __init__(self, terms, label: str):
        self.terms: Tuple[Tuple[GeneralOp, int, Callable], ...] = tuple(terms)
        self.symbol = self.scaled(1, label)

    def scaled(self, c, label: str) -> MomentumSymbol:
        """The symbol of c H: the operators M_t with the profiles
        c f_t(q)."""
        fs = [f for _, _, f in self.terms]
        return MomentumSymbol([m for m, _, _ in self.terms],
                              lambda q: tuple(c * f(q) for f in fs), label)


def omega(q, mass: float):
    return np.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + mass * mass)


def fw_hamiltonian(mass: float) -> EquationOperator:
    """Diagonalized-form Hamiltonian g0 * omega(q)."""
    if mass < 0:
        raise ValueError("mass must be nonnegative")
    return EquationOperator(
        [(pd_gammas().get("g0"), +1, lambda q: omega(q, mass))], "H_fw")


def dirac_hamiltonian(mass: float) -> EquationOperator:
    """Local-form Hamiltonian alpha.q + beta m, alpha_k = g0 gk, beta = g0."""
    if mass < 0:
        raise ValueError("mass must be nonnegative")
    g = pd_gammas()
    g0 = g.get("g0")
    terms = [(g0 @ g.get(f"g{k}"), -1, lambda q, k=k: q[k - 1])
             for k in (1, 2, 3)]
    if mass:
        terms.append((g0, +1, lambda q: mass))
    return EquationOperator(terms, "H_d")


def fw_transform(mass: float, sign: int = +1) -> MomentumSymbol:
    """Basis-change symbol between the local and diagonalized forms:
    V(+/-)(q) = (-/+ gamma.q + omega + m) / sqrt(2 omega (omega + m)).

    The direct reading of the defining expression (with d_n -> i q_n)
    already satisfies both V+ V- = I and the Hamiltonian conjugation
    identity, so no sign swap is applied.
    """
    if mass <= 0:
        raise ValueError("the basis-change symbol needs m > 0 "
                         "(denominator degenerates at q = 0 otherwise)")

    def profiles(q):
        w = omega(q, mass)
        r = 1.0 / np.sqrt((w + mass) * w * 2.0)
        return (r * (-sign * q[0]), r * (-sign * q[1]), r * (-sign * q[2]),
                r * (w + mass))

    return MomentumSymbol(pd_gammas().ops()[1:4] + [GeneralOp.identity()],
                          profiles, f"V{'+' if sign > 0 else '-'}")


def spin_triple() -> List[GeneralOp]:
    """The constant spin triple (s_23, s_31, s_12) = (gm gn / 2)."""
    s = so15_generators()
    return [s[(2, 3)], -s[(1, 3)], s[(1, 2)]]


def pd_spin(mass: float) -> List[MomentumSymbol]:
    """Nonlocal spin in the local representation.

    Closed form (conjugation-faithful signs):
        s_j(q) = s_j - (gamma x q)_j / (2 omega)
                 + (-q^2 s_j + (s.q) q_j) / (omega (omega + m)),
    which commutes with the local Hamiltonian pointwise and equals the
    V-conjugated constant spin.
    """
    if mass <= 0:
        raise ValueError("nonlocal spin needs m > 0")
    spins, gammas = spin_triple(), pd_gammas().ops()[1:4]

    def make(j):
        k, l = (j + 1) % 3, (j + 2) % 3

        def profiles(q):
            w = omega(q, mass)
            c = 1.0 / (w * (w + mass))
            q2 = q[0] * q[0] + q[1] * q[1] + q[2] * q[2]
            h = -1.0 / (2.0 * w)
            # the coefficient of s_i: c q_j q_i, and 1 + c (q_j^2 - q^2) at j
            on_spins = tuple(1.0 + c * ((-q2) + q[j] * q[j]) if i == j
                             else c * (q[j] * q[i]) for i in range(3))
            return on_spins + (h * q[l], h * (-q[k]))

        return MomentumSymbol(spins + [gammas[k], gammas[l]], profiles,
                              f"s{j + 1}_pd")

    return [make(j) for j in range(3)]


def tilde_gammas(mass: float) -> List[Tuple[str, MomentumSymbol]]:
    """The six closed forms among the nonlocal images tilde X = V+ X V- of
    the seven generators, g0 and C in the local representation: tg1..tg4,
    tg0, and tC, the expanded V+ conj(V-(-q)). ``tilde_values`` composes
    the other three from their values.
    """
    if mass <= 0:
        raise ValueError("nonlocal generators need m > 0")
    closed_ops, tc_ops = _tilde_operators()

    def closed_form(ops, label, k=None):
        # (1/w) base (m + gamma.q), and for the vector k also
        # (q_k / (w (w + m))) (gamma.q + w + m)
        def profiles(q):
            w = omega(q, mass)
            r = 1.0 / w
            first = (r * mass, r * q[0], r * q[1], r * q[2])
            if k is None:
                return first
            d = q[k] / (w * (w + mass))
            return first + (d * q[0], d * q[1], d * q[2], d * (w + mass))

        return MomentumSymbol(ops, profiles, label)

    def tc_profiles(q):
        w = omega(q, mass)
        c = w + mass
        r = 1.0 / (2.0 * w * c)
        return (r * (2.0 * mass * c + 2.0 * q[1] * q[1]),
                r * (-2.0 * q[0] * q[1]), r * (2.0 * q[1] * q[2]),
                r * (-2.0 * c * q[0]), r * (-2.0 * c * q[2]))

    return [*((f"tg{k + 1}", closed_form(closed_ops[k], f"tg{k + 1}", k))
              for k in range(3)),
            ("tg4", closed_form(closed_ops[3], "tg4")),
            ("tg0", closed_form(closed_ops[4], "tg0")),
            ("tC", MomentumSymbol(tc_ops, tc_profiles, "tC"))]


@lru_cache(maxsize=1)
def _tilde_operators():
    """The exact operators of ``tilde_gammas``, which do not depend on the
    mass, formed once: per closed form of tg1..tg3, tg4 and tg0 the base
    times (1, g1, g2, g3), and for tg1..tg3 also g1, g2, g3 and the
    identity; then those of tC."""
    g0, g1, g2, g3, g4 = pd_gammas().ops()
    gammas, ident = [g1, g2, g3], GeneralOp.identity()
    closed = [[base] + [base @ x for x in gammas]
              for base in gammas + [g4, g0]]
    for ops in closed[:3]:
        ops += gammas + [ident]
    # expansion of V+(q) conj(V-(-q)): scalar, g1 q1 + g3 q3, and the
    # g1 g2, g2 g3 cross terms survive (conjugation flips only g2)
    conj = GeneralOp.conjugation()
    return (tuple(map(tuple, closed)),
            tuple(x @ conj for x in (ident, g1 @ g2, g2 @ g3, g1, g3)))


def tilde_values(mass: float, q) -> Dict[str, SymbolValues]:
    """The nine nonlocal operators on the signed batch q: the six closed
    forms of ``tilde_gammas``, each evaluated once, and the composite
    generators composed from their values as defined, tg5 = tg1 tg3 tC,
    tg6 = i tg5 and tg7 = i tg0."""
    v = {k: s(q) for k, s in tilde_gammas(mass)}
    tg5 = v["tg1"] @ v["tg3"] @ v["tC"]
    v.update(tg5=tg5, tg6=1j * tg5, tg7=1j * v["tg0"])
    return v


# ---------------------------------------------------------------------------
# symmetry checking
# ---------------------------------------------------------------------------

def check_equation_symmetry(x: GeneralOp, eq: EquationOperator) -> bool:
    """Is the constant operator x a symmetry of the evolution operator
    d_0 + iH? Exact (zero tolerance): x is one iff x iH = iH x under the
    flip law, that is, per exact term (M_t, sigma_t), the linear part L of
    x commutes with M_t and the antilinear part N satisfies
    -sigma_t N M_t = M_t N. With x = L + N, L - N = -(i x i), so that reads
    x M_t = M_t x for an odd term and x M_t = -M_t (i x i) for an even
    one."""
    i_op = GeneralOp.imaginary_unit()
    right = {-1: x, 1: -(i_op @ x @ i_op)}
    return all(x @ m_t == m_t @ right[sigma] for m_t, sigma, _ in eq.terms)
