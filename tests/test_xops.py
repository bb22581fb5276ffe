import numpy as np
import pytest

from ercd.jets import Jet
from ercd.symbols import (MomentumSymbol, central_difference, omega,
                          sample_momenta, signed_batch, tilde_gammas)
from ercd.xops import (XOp, build_poincare_generators, casimir_report,
                       evolution_commutator_residual, poincare_closure_check,
                       position_op, xop_commutator, xop_compose,
                       xop_from_symbol, xop_max_norm)

M = 1.0
SAMPLES = sample_momenta(20, seed=11, radius=5.0)


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

def _momentum_jets(q):
    """Jets of the components of the signed batch of one point q."""
    return Jet.of_momenta(tuple(signed_batch(q)[..., a] for a in range(3)))


def test_dual_arithmetic_against_hand_derivatives():
    x = _momentum_jets((3.0, 0.0, 0.0))[0]
    y = x * x + 2.0 * x + 1.0
    assert y.val[0, 0] == 16.0 and y.grad[0, 0, 0] == 8.0
    # the -q half holds (-3)^2 - 6 + 1 = 4, differentiated through q -> -q
    assert y.val[1, 0] == 4.0 and y.grad[0, 1, 0] == 4.0
    z = 1.0 / x
    assert abs(z.grad[0, 0, 0] + 1.0 / 9.0) < 1e-15
    s = np.sqrt(x + 6.0)
    assert abs(s.grad[0, 0, 0] - 0.5 / 3.0) < 1e-15
    assert abs(s.grad[0, 1, 0] + 0.5 / np.sqrt(3.0)) < 1e-15
    c = np.conj((1.0 + 2.0j) * x)
    assert c.val[0, 0] == 3.0 - 6.0j and c.grad[0, 0, 0] == 1.0 - 2.0j
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    p = (x[..., None, None] * m) @ m
    assert np.array_equal(p.grad[0, 0, 0], m @ m)
    assert not p.grad[1:].any()


def test_dual_gradient_of_omega():
    q = (1.0, 2.0, -2.0)
    w = omega(_momentum_jets(q), M)
    wv = float(np.sqrt(1 + 4 + 4 + 1))
    assert np.all(np.abs(w.val - wv) < 1e-15)
    for a, qa in enumerate(q):
        # omega is even, so d/dq_a omega(-q) = d/dq_a omega(q) = q_a / omega
        assert np.all(np.abs(w.grad[a] - qa / wv) < 1e-14)


def _jet_symbols():
    yield from ((f"{name}[{multi}]", sym)
                for name, g in build_poincare_generators(M)
                for multi, sym in g.coeffs.items())
    yield from tilde_gammas(M)


def test_dual_mode_matches_finite_differences():
    points = [(0.7, -1.3, 2.1), (-2.0, 0.4, 1.1)]
    q = signed_batch(points)
    neg = [tuple(-c for c in p) for p in points]
    count = 0
    for label, sym in _jet_symbols():
        for a in range(3):
            jet = sym.deriv(a)(q)
            for half, pts in ((0, points), (1, neg)):
                fd = central_difference(sym, a, pts, h=1e-5)
                for part in (0, 1):
                    assert np.max(np.abs(jet[part][half] - fd[part])) < 1e-7, \
                        (label, a, half, part)
        count += 1
    assert count == 19 + 9  # every generator coefficient and tilde symbol


def test_degree_above_one_rejected():
    x2 = xop_compose(position_op(0, M), position_op(1, M))
    assert x2.degree() == 2
    with pytest.raises(ValueError):
        xop_compose(position_op(2, M), x2)
    # jets are degree 1: a derivative symbol is not differentiated again
    p1 = dict(build_poincare_generators(M))["p0"].coeffs[(0, 0, 0)]
    with pytest.raises(ValueError):
        p1.deriv(0).deriv(1)(signed_batch(SAMPLES[:2]))


# ---------------------------------------------------------------------------
# normal-form composition
# ---------------------------------------------------------------------------

def _p_n(n):
    ident = np.eye(4, dtype=complex)
    sym = MomentumSymbol.linear_matrix(
        lambda q, nn=n: 1j * q[nn] * ident, M, f"p{n + 1}")
    return xop_from_symbol(sym, M, f"p{n + 1}")


def test_canonical_pairs():
    for n in range(3):
        for m in range(3):
            comm = xop_commutator(_p_n(n), position_op(m, M))
            for q in SAMPLES[:5]:
                vals = comm.evaluate(q)
                for key, (va, vb) in vals.items():
                    expect = (1.0 if n == m else 0.0) * np.eye(4) \
                        if key == (0, 0, 0) else np.zeros((4, 4))
                    assert np.max(np.abs(va - expect)) < 1e-13
                    assert np.max(np.abs(vb)) < 1e-13


def test_momenta_commute():
    comm = xop_commutator(_p_n(0), _p_n(2))
    assert all(xop_max_norm(comm, q) < 1e-13 for q in SAMPLES[:5])


def test_positions_commute():
    comm = xop_commutator(position_op(0, M), position_op(1, M))
    assert all(xop_max_norm(comm, q) < 1e-13 for q in SAMPLES[:5])


def test_orbital_rotation_commutators():
    # [x_l p_n - x_n p_l, p_k] = delta_nk p_l - delta_lk p_n
    def orbital(l, n):
        return (xop_compose(position_op(l, M), _p_n(n))
                - xop_compose(position_op(n, M), _p_n(l)))

    for l, n, k in ((0, 1, 1), (0, 1, 0), (1, 2, 0), (2, 0, 2)):
        lhs = xop_commutator(orbital(l, n), _p_n(k))
        rhs = XOp({}, M)
        if n == k:
            rhs = rhs + _p_n(l)
        if l == k:
            rhs = rhs - _p_n(n)
        diff = lhs - rhs if rhs.coeffs else lhs
        for q in SAMPLES[:5]:
            assert xop_max_norm(diff, q) < 1e-12


def test_mass_mismatch_rejected():
    with pytest.raises(ValueError):
        xop_compose(position_op(0, 1.0), position_op(0, 2.0))


def test_normal_form_reordering_consistency():
    # compose X Y and Y X and subtract: matches the direct commutator
    gens = dict(build_poincare_generators(M))
    x = XOp(gens["j12"].coeffs, M, None, "j12")
    y = XOp(gens["j01"].coeffs, M, None, "j01")
    direct = xop_commutator(x, y)
    indirect = xop_compose(x, y) - xop_compose(y, x)
    for q in SAMPLES[:5]:
        dv = direct.evaluate(q)
        iv = indirect.evaluate(q)
        for key in set(dv) | set(iv):
            da, db = dv.get(key, (0.0, 0.0))
            ia, ib = iv.get(key, (0.0, 0.0))
            assert np.max(np.abs(np.asarray(da) - np.asarray(ia))) < 1e-12
            assert np.max(np.abs(np.asarray(db) - np.asarray(ib))) < 1e-12


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_generators_require_positive_mass():
    with pytest.raises(ValueError):
        build_poincare_generators(0.0)


def test_all_generators_commute_with_evolution_operator():
    for name, g in build_poincare_generators(M):
        residual = evolution_commutator_residual(g, M, SAMPLES)
        assert residual < 1e-10, (name, residual)


def test_boost_without_time_term_fails_symmetry():
    # dropping the x0 bookkeeping must break the boost invariance
    gens = dict(build_poincare_generators(M))
    bare = XOp(gens["j01"].coeffs, M, None, "j01-bare")
    residual = evolution_commutator_residual(bare, M, SAMPLES)
    assert residual > 1e-3


def test_closure_fit_and_oracle():
    rep = poincare_closure_check(M, n_samples=200, seed=42)
    assert rep.max_residual < 1e-8
    assert rep.oracle_verified
    assert rep.oracle_comparison < 1e-8
    assert rep.passed
    # rotation commutator lands on the third rotation with coefficient 1
    by_pair = {r.pair: r for r in rep.results}
    c = by_pair[("j23", "j31")].constants
    j12_idx = rep.names.index("j12")
    assert abs(c[j12_idx] - 1.0) < 1e-8
    assert np.max(np.abs(np.delete(c, j12_idx))) < 1e-8


def test_casimir_report():
    rep = casimir_report(M)
    assert rep.passed
    assert abs(rep.momentum_square_value + M * M) < 1e-12
    assert rep.momentum_square_spread < 1e-12
    assert rep.spin_square_exact
    assert "sign" in rep.sign_flag


def test_casimir_scales_with_mass():
    rep = casimir_report(2.0)
    assert abs(rep.momentum_square_value + 4.0) < 1e-11


def test_reports_are_judged_against_the_given_tolerance():
    cas = casimir_report(M)
    assert cas.passed
    assert not casimir_report(M, tol=cas.momentum_square_spread / 2).passed
    fit = poincare_closure_check(M, n_samples=20, seed=42,
                                 compare_oracle=False)
    assert fit.passed
    assert not poincare_closure_check(M, n_samples=20, seed=42,
                                      tol=fit.max_residual / 2,
                                      compare_oracle=False).passed
