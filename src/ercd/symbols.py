"""Momentum-symbol calculus for translation-invariant operators.

A symbol maps a momentum triple q to a pair of 4x4 matrices (A(q), B(q))
acting as phi -> A(q) phi + B(q) conj(phi(-q))-style antilinear channel.
Composition follows the momentum-flip law: antilinear parts see the
reflected momentum,

    (X Y)(q) = (Ax(q) Ay(q) + Bx(q) conj(By(-q)),
                Ax(q) By(q) + Bx(q) conj(Ay(-q))).

Fourier convention: phi(x) = (2 pi)^(-3/2) Int d^3q e^{i q.x} phitilde(q),
so d/dx_n has symbol i q_n and conjugation sends phitilde(q) to
conj(phitilde(-q)). Constant symbols embed GeneralOps and compose
identically to the exact layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .algebras import pd_gammas, so15_generators
from .duals import Dual, gconj, gsqrt, value
from .operators import GeneralOp

Triple = Tuple[float, float, float]


# ---------------------------------------------------------------------------
# generic 4x4 matrix helpers (complex fast path, object/Dual slow path)
# ---------------------------------------------------------------------------

def _is_plain(x: np.ndarray) -> bool:
    return x.dtype != object


def gmat_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if _is_plain(x) and _is_plain(y):
        return x @ y
    out = np.empty((4, 4), dtype=object)
    for i in range(4):
        for j in range(4):
            acc = 0.0
            for k in range(4):
                xv = x[i, k]
                if isinstance(xv, complex) and xv == 0:
                    continue
                yv = y[k, j]
                if isinstance(yv, complex) and yv == 0:
                    continue
                acc = acc + xv * yv
            out[i, j] = acc
    return out


def gmat_add(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if _is_plain(x) and _is_plain(y):
        return x + y
    out = np.empty((4, 4), dtype=object)
    for i in range(4):
        for j in range(4):
            out[i, j] = x[i, j] + y[i, j]
    return out


def gmat_scale(s, x: np.ndarray) -> np.ndarray:
    if _is_plain(x) and not isinstance(s, Dual):
        return s * x
    out = np.empty((4, 4), dtype=object)
    for i in range(4):
        for j in range(4):
            out[i, j] = s * x[i, j]
    return out


def gmat_conj(x: np.ndarray) -> np.ndarray:
    if _is_plain(x):
        return np.conj(x)
    out = np.empty((4, 4), dtype=object)
    for i in range(4):
        for j in range(4):
            out[i, j] = gconj(x[i, j])
    return out


def gmat_value(x: np.ndarray) -> np.ndarray:
    if _is_plain(x):
        return x
    out = np.empty((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            out[i, j] = value(x[i, j])
    return out


_ZERO4 = np.zeros((4, 4), dtype=complex)


def to_complex_matrix(m) -> np.ndarray:
    """Floating image of an exact 4x4 matrix."""
    return np.array([[x.to_complex() for x in row] for row in m], dtype=complex)


def _negq(q):
    return tuple(-c for c in q)


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

class MomentumSymbol:
    """q -> (A(q), B(q)); evaluators accept float or Dual momentum entries.

    parity is optional declared evenness/oddness in q ("even" / "odd");
    when the right factor of a flip composition declares it, the
    reflected-momentum evaluation is folded instead of recomputed.
    """

    __slots__ = ("fn", "mass", "label", "has_linear", "has_antilinear",
                 "parity")

    def __init__(self, fn: Callable, mass: float, label: str = "",
                 has_linear: bool = True, has_antilinear: bool = True,
                 parity: Optional[str] = None):
        self.fn = fn
        self.mass = mass
        self.label = label
        self.has_linear = has_linear
        self.has_antilinear = has_antilinear
        self.parity = parity

    def __call__(self, q):
        return self.fn(q)

    @classmethod
    def constant(cls, op: GeneralOp, mass: float, label: str = "") -> "MomentumSymbol":
        a = to_complex_matrix(op.A)
        b = to_complex_matrix(op.B)
        return cls(lambda q: (a, b), mass, label or "const",
                   has_linear=not op.is_antilinear,
                   has_antilinear=not op.is_linear,
                   parity="even")

    @classmethod
    def linear_matrix(cls, fn_a: Callable, mass: float, label: str = ""
                      ) -> "MomentumSymbol":
        return cls(lambda q: (fn_a(q), _ZERO4), mass, label,
                   has_linear=True, has_antilinear=False)

    @classmethod
    def antilinear_matrix(cls, fn_b: Callable, mass: float, label: str = ""
                          ) -> "MomentumSymbol":
        return cls(lambda q: (_ZERO4, fn_b(q)), mass, label,
                   has_linear=False, has_antilinear=True)

    def compose(self, other: "MomentumSymbol") -> "MomentumSymbol":
        """Operator product under the momentum-flip law."""
        x, y = self, other

        def fn(q):
            ax, bx = x(q)
            ay, by = y(q)
            if x.has_antilinear:
                if y.parity == "even":
                    aym, bym = ay, by
                elif y.parity == "odd":
                    aym, bym = gmat_scale(-1.0, ay), gmat_scale(-1.0, by)
                else:
                    aym, bym = y(_negq(q))
                a = gmat_add(gmat_mul(ax, ay), gmat_mul(bx, gmat_conj(bym)))
                b = gmat_add(gmat_mul(ax, by), gmat_mul(bx, gmat_conj(aym)))
            else:
                a = gmat_mul(ax, ay)
                b = gmat_mul(ax, by)
            return a, b

        if x.parity and y.parity:
            parity = "even" if x.parity == y.parity else "odd"
        else:
            parity = None
        return MomentumSymbol(
            fn, self.mass, f"({x.label})({y.label})",
            has_linear=(x.has_linear and y.has_linear)
                       or (x.has_antilinear and y.has_antilinear),
            has_antilinear=(x.has_linear and y.has_antilinear)
                           or (x.has_antilinear and y.has_linear),
            parity=parity)

    def __matmul__(self, other: "MomentumSymbol") -> "MomentumSymbol":
        return self.compose(other)

    def __add__(self, other: "MomentumSymbol") -> "MomentumSymbol":
        x, y = self, other

        def fn(q):
            ax, bx = x(q)
            ay, by = y(q)
            return gmat_add(ax, ay), gmat_add(bx, by)

        return MomentumSymbol(fn, self.mass, f"{x.label}+{y.label}",
                              has_linear=x.has_linear or y.has_linear,
                              has_antilinear=x.has_antilinear or y.has_antilinear,
                              parity=x.parity if x.parity == y.parity else None)

    def __sub__(self, other: "MomentumSymbol") -> "MomentumSymbol":
        return self + other.scaled(-1.0)

    def scaled(self, r: float) -> "MomentumSymbol":
        """Real scaling (the algebra over the symbols stays real)."""
        x = self

        def fn(q):
            a, b = x(q)
            return gmat_scale(r, a), gmat_scale(r, b)

        return MomentumSymbol(fn, self.mass, f"{r}*{x.label}",
                              has_linear=x.has_linear,
                              has_antilinear=x.has_antilinear,
                              parity=x.parity)

    def times_i(self) -> "MomentumSymbol":
        """Left composition with the operator i: scales both parts by i."""
        x = self

        def fn(q):
            a, b = x(q)
            return gmat_scale(1j, a), gmat_scale(1j, b)

        return MomentumSymbol(fn, self.mass, f"i*{x.label}",
                              has_linear=x.has_linear,
                              has_antilinear=x.has_antilinear,
                              parity=x.parity)

    def value_at(self, q) -> Tuple[np.ndarray, np.ndarray]:
        a, b = self(q)
        return gmat_value(a), gmat_value(b)

    def deriv(self, a: int) -> "MomentumSymbol":
        """d/dq_a of both matrix parts, as a new symbol (dual forward mode).

        Nested derivatives work: seeding stacks another dual layer."""
        from .duals import grad_component, seed
        base = self

        def fn(q):
            qd = seed(q)
            am, bm = base(qd)
            return _extract_grad(am, a), _extract_grad(bm, a)

        return MomentumSymbol(fn, self.mass, f"d{a}({self.label})",
                              has_linear=base.has_linear,
                              has_antilinear=base.has_antilinear)


def _extract_grad(m: np.ndarray, a: int) -> np.ndarray:
    from .duals import grad_component
    out = np.empty((4, 4), dtype=object)
    flat = np.asarray(m, dtype=object)
    for i in range(4):
        for j in range(4):
            out[i, j] = grad_component(flat[i, j], a)
    try:
        return np.asarray(out, dtype=complex)
    except (TypeError, ValueError):
        return out


def symbol_norm(pair) -> float:
    a, b = pair
    return max(float(np.max(np.abs(np.asarray(a, dtype=complex)))),
               float(np.max(np.abs(np.asarray(b, dtype=complex)))))


def symbol_difference_norm(x: MomentumSymbol, y: MomentumSymbol, q) -> float:
    ax, bx = x.value_at(q)
    ay, by = y.value_at(q)
    return max(float(np.max(np.abs(ax - ay))), float(np.max(np.abs(bx - by))))


def max_residual(x: MomentumSymbol, y: MomentumSymbol,
                 samples: Sequence[Triple]) -> float:
    return max(symbol_difference_norm(x, y, q) for q in samples)


def commutator_symbol(x: MomentumSymbol, y: MomentumSymbol) -> MomentumSymbol:
    return x @ y - y @ x


def anticommutator_symbol(x: MomentumSymbol, y: MomentumSymbol) -> MomentumSymbol:
    return (x @ y) + (y @ x)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_momenta(n: int, seed: int = 42, radius: float = 10.0,
                   include_special: bool = True) -> List[Triple]:
    """Deterministic seeded momenta in the ball |q| <= radius, always
    including the origin and axis-aligned points so degenerate directions
    are exercised."""
    rng = np.random.default_rng(seed)
    pts: List[Triple] = []
    if include_special:
        r = radius / 2.0
        pts += [(0.0, 0.0, 0.0), (r, 0.0, 0.0), (0.0, r, 0.0), (0.0, 0.0, r)]
    while len(pts) < n:
        v = rng.uniform(-radius, radius, 3)
        if np.linalg.norm(v) <= radius:
            pts.append((float(v[0]), float(v[1]), float(v[2])))
    return pts[:n]


# ---------------------------------------------------------------------------
# wave-equation operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquationOperator:
    """Hamiltonian symbol H(q) of an evolution operator d_0 + iH.

    exact_terms decomposes H(q) = sum_t f_t(q) M_t with exact constant
    linear operators M_t and scalar profiles f_t of definite parity (+1 even /
    -1 odd); that decomposition powers the zero-tolerance symmetry check
    for constant candidate operators.
    """

    name: str
    mass: float
    symbol: MomentumSymbol
    exact_terms: Tuple[Tuple[GeneralOp, int, str], ...]

    def hamiltonian(self, q) -> np.ndarray:
        a, _ = self.symbol.value_at(q)
        return a

    def is_exact_symmetry(self, op: GeneralOp) -> Tuple[bool, List[str]]:
        """Zero-tolerance symmetry test for a constant operator.

        op is a symmetry of d_0 + iH iff op composed with iH equals iH
        composed with op under the flip law. Expanding per exact term:
        the linear part must commute with each M_t, and the antilinear
        part N must satisfy -sigma_t * N M_t = M_t N.
        """
        failures = []
        lin, anti = op.parts()
        for (m_t, parity, profile) in self.exact_terms:
            if not lin.is_zero and lin @ m_t != m_t @ lin:
                failures.append(f"linear part fails on {profile} term")
            if not anti.is_zero:
                lhs = anti @ m_t
                if parity > 0:
                    lhs = -lhs
                if lhs != m_t @ anti:
                    failures.append(f"antilinear part fails on {profile} term")
        return (not failures), failures


def _gamma_complex():
    g = pd_gammas()
    return {k: to_complex_matrix(g.get(f"g{k}").A) for k in range(5)}


def omega(q, mass: float):
    return gsqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + mass * mass)


def fw_hamiltonian(mass: float) -> EquationOperator:
    """Diagonalized-form Hamiltonian g0 * omega(q)."""
    if mass < 0:
        raise ValueError("mass must be nonnegative")
    gc = _gamma_complex()
    g0 = gc[0]

    def fn_a(q):
        return gmat_scale(omega(q, mass), g0)

    sym = MomentumSymbol.linear_matrix(fn_a, mass, "H_fw")
    sym.parity = "even"
    return EquationOperator("fw", mass, sym,
                            ((pd_gammas().get("g0"), +1, "omega"),))


def dirac_hamiltonian(mass: float) -> EquationOperator:
    """Local-form Hamiltonian alpha.q + beta m, alpha_k = g0 gk, beta = g0."""
    if mass < 0:
        raise ValueError("mass must be nonnegative")
    gc = _gamma_complex()
    alpha = [gc[0] @ gc[k] for k in (1, 2, 3)]
    beta = gc[0]

    def fn_a(q):
        acc = gmat_scale(q[0], alpha[0])
        acc = gmat_add(acc, gmat_scale(q[1], alpha[1]))
        acc = gmat_add(acc, gmat_scale(q[2], alpha[2]))
        if mass:
            acc = gmat_add(acc, gmat_scale(mass, beta))
        return acc

    sym = MomentumSymbol.linear_matrix(fn_a, mass, "H_d")
    g = pd_gammas()
    g0 = g.get("g0")
    terms = [(g0 @ g.get(f"g{k}"), -1, f"q{k}") for k in (1, 2, 3)]
    if mass:
        terms.append((g0, +1, "mass"))
    return EquationOperator("dirac", mass, sym, tuple(terms))


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

    def fn_a(q):
        w = omega(q, mass)
        norm = gsqrt((w + mass) * w * 2.0)
        acc = gmat_scale(-sign * q[0], gc[1])
        acc = gmat_add(acc, gmat_scale(-sign * q[1], gc[2]))
        acc = gmat_add(acc, gmat_scale(-sign * q[2], gc[3]))
        acc = gmat_add(acc, gmat_scale(w + mass, np.eye(4, dtype=complex)))
        return gmat_scale(1.0 / norm, acc)

    return MomentumSymbol.linear_matrix(fn_a, mass, f"V{'+' if sign > 0 else '-'}")


def spin_matrices_complex() -> List[np.ndarray]:
    """The constant spin triple (s_23, s_31, s_12) = (gm gn / 2)."""
    s = so15_generators()
    return [to_complex_matrix(s[(2, 3)].A),
            -to_complex_matrix(s[(1, 3)].A),
            to_complex_matrix(s[(1, 2)].A)]


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
            gxq = gmat_add(gmat_scale(q[l], gc[k + 1]),
                           gmat_scale(-q[k], gc[l + 1]))
            q2 = q[0] * q[0] + q[1] * q[1] + q[2] * q[2]
            sdotq = gmat_add(gmat_add(gmat_scale(q[0], sv[0]),
                                      gmat_scale(q[1], sv[1])),
                             gmat_scale(q[2], sv[2]))
            acc = gmat_add(sv[j], gmat_scale(-1.0 / (2.0 * w), gxq))
            third = gmat_add(gmat_scale(-q2, sv[j]), gmat_scale(q[j], sdotq))
            return gmat_add(acc, gmat_scale(1.0 / (w * (w + mass)), third))

        return MomentumSymbol.linear_matrix(fn_a, mass, f"s{j + 1}_pd")

    return [make(j) for j in range(3)]


def tilde_gammas(mass: float) -> List[Tuple[str, MomentumSymbol]]:
    """Nonlocal images of the seven generators (plus g0 and C) in the
    local representation: tilde X = V+ X V-.

    The matrix generators get closed forms; the conjugation image gets
    the expanded V+ conj(V-(-q)) closed form; the composite generators
    (5, 6, 7) are built by flip-law composition exactly as defined.
    """
    if mass <= 0:
        raise ValueError("nonlocal generators need m > 0")
    gc = _gamma_complex()
    ident = np.eye(4, dtype=complex)

    def gamma_dot_q(q):
        return gmat_add(gmat_add(gmat_scale(q[0], gc[1]),
                                 gmat_scale(q[1], gc[2])),
                        gmat_scale(q[2], gc[3]))

    def make_vector(k):
        def fn_a(q):
            w = omega(q, mass)
            core = gmat_add(gmat_scale(mass, ident), gamma_dot_q(q))
            first = gmat_scale(1.0 / w, gmat_mul(gc[k + 1], core))
            second = gmat_scale(q[k] / (w * (w + mass)),
                                gmat_add(gamma_dot_q(q),
                                         gmat_scale(w + mass, ident)))
            return gmat_add(first, second)

        return MomentumSymbol.linear_matrix(fn_a, mass, f"tg{k + 1}")

    def make_scaled(base, label):
        def fn_a(q):
            w = omega(q, mass)
            core = gmat_add(gmat_scale(mass, ident), gamma_dot_q(q))
            return gmat_scale(1.0 / w, gmat_mul(base, core))

        return MomentumSymbol.linear_matrix(fn_a, mass, label)

    def tc_fn(q):
        # expansion of V+(q) conj(V-(-q)): scalar, g1 q1 + g3 q3, and the
        # g1 g2, g2 g3 cross terms survive (conjugation flips only g2)
        w = omega(q, mass)
        c = w + mass
        g12 = gc[1] @ gc[2]
        g23 = gc[2] @ gc[3]
        acc = gmat_scale(2.0 * mass * c + 2.0 * q[1] * q[1], ident)
        acc = gmat_add(acc, gmat_scale(-2.0 * q[0] * q[1], g12))
        acc = gmat_add(acc, gmat_scale(2.0 * q[1] * q[2], g23))
        acc = gmat_add(acc, gmat_scale(-2.0 * c * q[0], gc[1]))
        acc = gmat_add(acc, gmat_scale(-2.0 * c * q[2], gc[3]))
        return gmat_scale(1.0 / (2.0 * w * c), acc)

    tg1, tg2, tg3 = (make_vector(k) for k in range(3))
    tg4 = make_scaled(gc[4], "tg4")
    tg0 = make_scaled(gc[0], "tg0")
    t_c = MomentumSymbol.antilinear_matrix(tc_fn, mass, "tC")
    tg5 = tg1 @ tg3 @ t_c
    tg5.label = "tg5"
    tg6 = tg5.times_i()
    tg6.label = "tg6"
    tg7 = tg0.times_i()
    tg7.label = "tg7"
    return [("tg1", tg1), ("tg2", tg2), ("tg3", tg3), ("tg4", tg4),
            ("tg5", tg5), ("tg6", tg6), ("tg7", tg7),
            ("tg0", tg0), ("tC", t_c)]


# ---------------------------------------------------------------------------
# symmetry checking
# ---------------------------------------------------------------------------

@dataclass
class SymmetryReport:
    candidate: str
    equation: str
    is_symmetry: bool
    exact: bool
    max_residual: float
    detail: str = ""


def check_equation_symmetry(x, eq: EquationOperator,
                            samples: Optional[Sequence[Triple]] = None,
                            tol: float = 1e-12,
                            label: str = "") -> SymmetryReport:
    """Is x a symmetry of the evolution operator d_0 + iH?

    Constant exact operators ride the zero-tolerance structural path;
    momentum-dependent symbols are checked by sampling the flip-law
    commutator with iH.
    """
    if isinstance(x, GeneralOp):
        ok, failures = eq.is_exact_symmetry(x)
        return SymmetryReport(label or "constant", eq.name, ok, True,
                              0.0 if ok else float("inf"),
                              "; ".join(failures))
    if samples is None:
        samples = sample_momenta(100, radius=10.0)
    i_h = eq.symbol.times_i()
    comm = commutator_symbol(x, i_h)
    worst = max(symbol_norm(comm.value_at(q)) for q in samples)
    return SymmetryReport(label or x.label, eq.name, worst < tol, False, worst)
