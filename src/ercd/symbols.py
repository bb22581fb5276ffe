"""Momentum-symbol calculus for translation-invariant operators.

A symbol maps momentum q to a pair of 4x4 matrices (A(q), B(q)), the
operator phi -> A(q) phi + B(q) conj(phi(-q)) with a linear and an
antilinear part. Symbols are evaluated on signed batches: an array Q of
shape (2, N, 3) holding N momenta and their reflections, Q[1] = -Q[0]
(``signed_batch``). A ``MomentumSymbol`` only evaluates: on a batch it
gives a ``SymbolValues``, the parts A and B, each of shape (2, N, 4, 4) or
(1, 1, 4, 4) when constant. A part that is c(q) I is stored as its scalar
c, of shape (2, N, 1, 1) or (1, 1, 1, 1) when constant (``scalar``). All
algebra works on those values.

A part that is zero by construction is absent: the B of a
``linear_matrix`` symbol, the A of an ``antilinear_matrix`` one, a part of
a ``constant`` whose exact matrix is zero, and the derivative of a part
that does not depend on q. An absent part is never allocated, and no
float data is scanned to decide it.

Composition follows the momentum-flip law: antilinear parts see the
reflected momentum. On a signed batch the reflected factor is a flip of
the sign axis, not a second evaluation, and ``SymbolValues.__matmul__``
is the one place the product is formed:

    A = Ax @ Ay + Bx @ conj(By[::-1]),
    B = Ax @ By + Bx @ conj(Ay[::-1]).

A product with an absent factor is not formed, and a part both of whose
terms are absent is absent. A product with a scalar factor is formed by
broadcasting, and stays scalar when both factors are. A constant 4x4
matrix times a batch, on either side and with or without the flip, is one
GEMM over the flattened batch, not one 4x4 product per point; with the
constant on the left the result is a strided view of that GEMM's output.
Each part product is a fresh array, and ``@`` adds the second term of a
part into the first when the first has the sum's shape and dtype. Nothing
else writes into an array: an operand, a part a caller holds and a value
summed by ``xops`` are never changed. Sums, differences and
scalar multiples act on both parts and keep absence; a sum of a scalar part
and a matrix part expands the scalar through eye(4), so c never reaches
the off-diagonal entries. The commutators of ``operators`` serve evaluated
values unchanged. Dropping an exactly zero term turns x + 0 into x, which
changes at most the sign of a zero entry.

``MomentumSymbol.jet`` gives values and first q-derivatives from one pass
on degree-1 array jets (``jets.Jet``) seeded with +e_a on the +q half and
-e_a on the -q half, so the flip stays an index flip under differentiation.

Fourier convention: phi(x) = (2 pi)^(-3/2) Int d^3q e^{i q.x} phitilde(q),
so d/dx_n has symbol i q_n and conjugation sends phitilde(q) to
conj(phitilde(-q)). Constant symbols embed GeneralOps through their float
images (``GeneralOp.floats``) and compose identically to the exact layer.
An ``EquationOperator`` states a Hamiltonian once, by its exact terms; the
symmetry check reads them, and its symbols are built from them.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Callable, Dict, List, Tuple

import numpy as np

from .algebras import pd_gammas, so15_generators
from .jets import Jet
from .operators import GeneralOp

Triple = Tuple[float, float, float]

# d/dq of the -q half is minus the derivative taken at -q
_HALF_SIGN = np.array([1.0, -1.0]).reshape(2, 1, 1, 1)


def signed_batch(points) -> np.ndarray:
    """The signed batch (2, N, 3) of one momentum triple or a sequence of
    them: the points, then their reflections."""
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    return np.stack([p, -p])


class SymbolValues:
    """A symbol evaluated on a signed batch: the linear part a and the
    antilinear part b, each of shape (2, N, 4, 4), or (1, 1, 4, 4) for a
    part that does not depend on q, which broadcasts and is its own sign
    flip; a 4x4 part is taken as such a constant. A part of shape
    (2, N, 1, 1), or (1, 1, 1, 1) when constant, is a scalar c standing
    for c I, and None marks a part that is zero by construction as absent.

    ``@`` is the flip-law product, which forms no product with an absent
    factor and multiplies a scalar factor by broadcasting; +, - and unary
    - act on both parts, and r * v is left composition with the scalar r
    (r = 1j is the operator i). All of them keep absence and scalars.
    ``.a``, ``.b`` and iteration read a scalar part as c I and an absent
    part as a (1, 1, 4, 4) zero.
    """

    __slots__ = ("_a", "_b")
    __array_ufunc__ = None  # numpy scalars defer to __rmul__

    def __init__(self, a, b):
        self._a, self._b = (p if p is None or len(p.shape) == 4
                            else np.reshape(p, (1, 1, 4, 4)) for p in (a, b))

    @property
    def a(self) -> np.ndarray:
        return _dense(self._a)

    @property
    def b(self) -> np.ndarray:
        return _dense(self._b)

    def __iter__(self):
        return iter((self.a, self.b))

    def __matmul__(self, other: "SymbolValues") -> "SymbolValues":
        xa, xb, ya, yb = self._a, self._b, other._a, other._b
        # each first product is fresh, so the second may be added into it
        return SymbolValues(
            _add(_product(xa, ya), _product(xb, yb, flip=True), into=True),
            _add(_product(xa, yb), _product(xb, ya, flip=True), into=True))

    def __add__(self, other: "SymbolValues") -> "SymbolValues":
        return SymbolValues(_add(self._a, other._a), _add(self._b, other._b))

    def __sub__(self, other: "SymbolValues") -> "SymbolValues":
        return SymbolValues(_sub(self._a, other._a), _sub(self._b, other._b))

    def __neg__(self) -> "SymbolValues":
        return self._map(np.negative)

    def __rmul__(self, r) -> "SymbolValues":
        return self._map(lambda p: r * p)

    def first(self, n: int) -> "SymbolValues":
        """The values on the first n points of the batch."""
        return self._map(lambda p: p[:, :n])

    def _map(self, f) -> "SymbolValues":
        return SymbolValues(*(p if p is None else f(p)
                              for p in (self._a, self._b)))

    def norm(self) -> float:
        """Largest entry modulus over the +q half; an absent part reads 0."""
        return max((float(np.max(np.abs(p[0]))) for p in (self._a, self._b)
                    if p is not None), default=0.0)


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
    return p.shape[0] == 1


def _product(x, y, flip=False):
    """x @ y, or x @ conj(y[::-1]) with flip, the reflected factor of the
    flip law; by broadcasting when a factor is scalar, None when a factor
    is absent. The result is a fresh array."""
    if x is None or y is None:
        return None
    if not (_is_scalar(x) or _is_scalar(y)) and (_is_constant(x)
                                                 != _is_constant(y)):
        return _constant_gemm(x, y, flip)
    y = np.conj(y[::-1]) if flip else y
    return x * y if _is_scalar(x) or _is_scalar(y) else x @ y


def _constant_gemm(x, y, flip):
    """The product of _product for a constant 4x4 matrix factor and a batch
    one, as one GEMM over the batch: broadcasting would form one 4x4
    product per point."""
    if _is_constant(y):  # a constant is its own sign flip
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


def _add(x, y, into=False):
    """x + y; with into, written into x when x holds the sum's shape and
    dtype, for an x that the caller formed and nobody else holds."""
    if x is None or y is None:
        return x if y is None else y
    x, y = _matched(x, y)
    if (into and x.shape == np.broadcast_shapes(x.shape, y.shape)
            and x.dtype == np.result_type(x, y)):
        x += y
        return x
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
    """q -> (A(q), B(q)) over signed batches.

    fn maps the momentum components (q1, q2, q3), each of shape
    (2, N, 1, 1) as plain arrays or jets, to the pair (A, B), or to the
    ``SymbolValues`` of a composite; a part that does not depend on q may
    be a single 4x4 matrix, a part that is c(q) I may be its scalar c
    (``scalar``), and a part that is zero by construction is None.
    """

    __slots__ = ("fn", "label")

    def __init__(self, fn: Callable, label: str = ""):
        self.fn = fn
        self.label = label

    def __call__(self, q) -> SymbolValues:
        """The values on the signed batch q of shape (2, N, 3)."""
        return self._eval(_components(q))

    def _eval(self, comps) -> SymbolValues:
        v = self.fn(comps)
        return v if isinstance(v, SymbolValues) else SymbolValues(*v)

    @classmethod
    def constant(cls, op: GeneralOp, label: str = "") -> "MomentumSymbol":
        """The constant symbol of op, its float image ``op.floats()``; a
        part whose exact matrix is zero is absent."""
        parts = op.floats()
        return cls(lambda q: parts, label or "const")

    @classmethod
    def scalar(cls, fn: Callable, label: str = "") -> "MomentumSymbol":
        """The linear symbol c(q) I, stored as its scalar: fn maps the
        momentum components to c of shape (2, N, 1, 1), or to a number
        when c is constant, kept as shape (1, 1, 1, 1)."""
        def parts(q):
            c = fn(q)
            if not np.shape(c):
                c = np.full((1, 1, 1, 1), c, dtype=complex)
            return c, None

        return cls(parts, label)

    @classmethod
    def linear_matrix(cls, fn_a: Callable, label: str = "") -> "MomentumSymbol":
        return cls(lambda q: (fn_a(q), None), label)

    @classmethod
    def antilinear_matrix(cls, fn_b: Callable, label: str = ""
                          ) -> "MomentumSymbol":
        return cls(lambda q: (None, fn_b(q)), label)

    def value_at(self, q) -> Tuple[np.ndarray, np.ndarray]:
        """(A(q), B(q)) at one momentum triple."""
        a, b = self(signed_batch(q))
        return np.array(a[0, 0]), np.array(b[0, 0])

    def jet(self, q) -> Tuple[SymbolValues, Tuple[SymbolValues, ...]]:
        """Values and q-derivatives on the signed batch q from one seeded
        jet pass: (v, (d1, d2, d3)), where da = dv/dq_a on both halves.
        A derivative keeps the shape of its part, (2, N, 1, 1) for a
        scalar; a part that does not depend on q keeps its constant shape,
        and its derivatives are absent, as are those of an absent part."""
        v = self._eval(Jet.of_momenta(_components(q)))
        parts = (v._a, v._b)
        grads = [p.grad * _HALF_SIGN if isinstance(p, Jet) else (None,) * 3
                 for p in parts]
        return (SymbolValues(*(p.val if isinstance(p, Jet) else p
                               for p in parts)),
                tuple(SymbolValues(da, db) for da, db in zip(*grads)))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_momenta(n: int, seed: int = 42, radius: float = 10.0
                   ) -> List[Triple]:
    """Deterministic seeded momenta in the ball |q| <= radius, always
    including the origin and axis-aligned points so degenerate directions
    are exercised."""
    rng = np.random.default_rng(seed)
    r = radius / 2.0
    pts: List[Triple] = [(0.0, 0.0, 0.0), (r, 0.0, 0.0), (0.0, r, 0.0),
                         (0.0, 0.0, r)]
    while len(pts) < n:
        v = rng.uniform(-radius, radius, 3)
        if np.linalg.norm(v) <= radius:
            pts.append((float(v[0]), float(v[1]), float(v[2])))
    return pts[:n]


# ---------------------------------------------------------------------------
# wave-equation operators
# ---------------------------------------------------------------------------

class EquationOperator:
    """The evolution operator d_0 + iH with H(q) = sum_t f_t(q) M_t, stated
    once by its terms (M_t, sigma_t, f_t): exact constant linear operators
    M_t and scalar profiles f_t, each even (sigma_t = +1) or odd
    (sigma_t = -1) in q. ``symbol`` is built from the terms, and
    ``check_equation_symmetry`` reads them exactly."""

    def __init__(self, terms, label: str):
        self.terms: Tuple[Tuple[GeneralOp, int, Callable], ...] = tuple(terms)
        self.symbol = self.scaled(1, label)

    def scaled(self, c, label: str) -> MomentumSymbol:
        """The symbol of c H: the sum of (c f_t(q)) floats(M_t) in term
        order."""
        images = [(f, m.floats()[0]) for m, _, f in self.terms]
        return MomentumSymbol.linear_matrix(
            lambda q: reduce(add, ((c * f(q)) * a for f, a in images)), label)

    def hamiltonian(self, q) -> np.ndarray:
        a, _ = self.symbol.value_at(q)
        return a


def _gamma_complex():
    g = pd_gammas()
    return {k: g.get(f"g{k}").floats()[0] for k in range(5)}


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
    gc = _gamma_complex()
    ident = np.eye(4, dtype=complex)

    def fn_a(q):
        w = omega(q, mass)
        norm = np.sqrt((w + mass) * w * 2.0)
        acc = ((-sign * q[0]) * gc[1] + (-sign * q[1]) * gc[2]
               + (-sign * q[2]) * gc[3] + (w + mass) * ident)
        return (1.0 / norm) * acc

    return MomentumSymbol.linear_matrix(fn_a, f"V{'+' if sign > 0 else '-'}")


def spin_matrices_complex() -> List[np.ndarray]:
    """The constant spin triple (s_23, s_31, s_12) = (gm gn / 2)."""
    s = so15_generators()
    return [s[(2, 3)].floats()[0], -s[(1, 3)].floats()[0],
            s[(1, 2)].floats()[0]]


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
    gc = _gamma_complex()
    sv = spin_matrices_complex()

    def make(j):
        def fn_a(q):
            w = omega(q, mass)
            k, l = (j + 1) % 3, (j + 2) % 3
            gxq = q[l] * gc[k + 1] + (-q[k]) * gc[l + 1]
            q2 = q[0] * q[0] + q[1] * q[1] + q[2] * q[2]
            sdotq = q[0] * sv[0] + q[1] * sv[1] + q[2] * sv[2]
            acc = sv[j] + (-1.0 / (2.0 * w)) * gxq
            third = (-q2) * sv[j] + q[j] * sdotq
            return acc + (1.0 / (w * (w + mass))) * third

        return MomentumSymbol.linear_matrix(fn_a, f"s{j + 1}_pd")

    return [make(j) for j in range(3)]


def tilde_gammas(mass: float) -> List[Tuple[str, MomentumSymbol]]:
    """The six closed forms among the nonlocal images tilde X = V+ X V- of
    the seven generators, g0 and C in the local representation: tg1..tg4,
    tg0, and tC, the expanded V+ conj(V-(-q)). ``tilde_values`` composes
    the other three from their values.
    """
    if mass <= 0:
        raise ValueError("nonlocal generators need m > 0")
    gc = _gamma_complex()
    ident = np.eye(4, dtype=complex)

    def gamma_dot_q(q):
        return q[0] * gc[1] + q[1] * gc[2] + q[2] * gc[3]

    def make_vector(k):
        def fn_a(q):
            w = omega(q, mass)
            core = mass * ident + gamma_dot_q(q)
            first = (1.0 / w) * (gc[k + 1] @ core)
            second = (q[k] / (w * (w + mass))) * (gamma_dot_q(q)
                                                  + (w + mass) * ident)
            return first + second

        return MomentumSymbol.linear_matrix(fn_a, f"tg{k + 1}")

    def make_scaled(base, label):
        def fn_a(q):
            w = omega(q, mass)
            core = mass * ident + gamma_dot_q(q)
            return (1.0 / w) * (base @ core)

        return MomentumSymbol.linear_matrix(fn_a, label)

    def tc_fn(q):
        # expansion of V+(q) conj(V-(-q)): scalar, g1 q1 + g3 q3, and the
        # g1 g2, g2 g3 cross terms survive (conjugation flips only g2)
        w = omega(q, mass)
        c = w + mass
        g12 = gc[1] @ gc[2]
        g23 = gc[2] @ gc[3]
        acc = ((2.0 * mass * c + 2.0 * q[1] * q[1]) * ident
               + (-2.0 * q[0] * q[1]) * g12 + (2.0 * q[1] * q[2]) * g23
               + (-2.0 * c * q[0]) * gc[1] + (-2.0 * c * q[2]) * gc[3])
        return (1.0 / (2.0 * w * c)) * acc

    tg1, tg2, tg3 = (make_vector(k) for k in range(3))
    tg4 = make_scaled(gc[4], "tg4")
    tg0 = make_scaled(gc[0], "tg0")
    t_c = MomentumSymbol.antilinear_matrix(tc_fn, "tC")
    return [("tg1", tg1), ("tg2", tg2), ("tg3", tg3), ("tg4", tg4),
            ("tg0", tg0), ("tC", t_c)]


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
    -sigma_t N M_t = M_t N."""
    lin, anti = x.parts()
    for m_t, sigma, _ in eq.terms:
        if not lin.is_zero and lin @ m_t != m_t @ lin:
            return False
        if not anti.is_zero:
            lhs = anti @ m_t
            if (-lhs if sigma > 0 else lhs) != m_t @ anti:
                return False
    return True
