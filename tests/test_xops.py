import json

import numpy as np
import pytest

from ercd import poincare_oracle, suites, xops
from ercd.cli import main
from ercd.jets import Jet
from ercd.operators import GeneralOp
from ercd.reporting import SuiteConfig
from ercd.symbols import (MomentumSymbol, omega, sample_momenta, signed_batch,
                          tilde_gammas)
from ercd.xops import (X0_PARTS, XValues, build_poincare_generators,
                       commutator, compose, evaluate, momentum_square,
                       poincare_closure_check, position_op)

M = 1.0
SAMPLES = sample_momenta(20, seed=11, radius=5.0)
CASIMIR_BATCH = signed_batch(sample_momenta(50, seed=42, radius=5.0))


def _generator_values(n_samples, seed=42):
    """Names and values of the ten generators on one seeded signed batch,
    as the poincare suite evaluates them."""
    q = signed_batch(sample_momenta(n_samples, seed=seed, radius=5.0))
    names, gens = zip(*build_poincare_generators(M))
    return names, [evaluate(g, q) for g in gens]


def central_difference(x: MomentumSymbol, a: int, points, h: float = 1e-5):
    """d/dq_a of (A, B) at points by central differences with step h: the
    independent cross-check of the jets."""
    step = h * np.eye(3)[a]
    (ap, bp), (am, bm) = (x(signed_batch(np.asarray(points) + s * step))
                          for s in (1.0, -1.0))
    return (ap[0] - am[0]) / (2.0 * h), (bp[0] - bm[0]) / (2.0 * h)


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

def _momentum_jets(q):
    """Jets of the components of the signed batch of one point q."""
    return Jet.of_momenta(tuple(signed_batch(q)[..., a] for a in range(3)))


def test_jet_arithmetic_against_hand_derivatives():
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
    # jets meet constant matrices only as scalar factors
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    p = Jet(x.val[..., None, None], x.grad[..., None, None]) * (m @ m)
    assert np.array_equal(p.grad[0, 0, 0], m @ m)
    assert not p.grad[1:].any()


def test_jet_gradient_of_omega():
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
                for multi, sym in g.items())
    yield from tilde_gammas(M)


def test_jet_mode_matches_finite_differences():
    points = [(0.7, -1.3, 2.1), (-2.0, 0.4, 1.1)]
    q = signed_batch(points)
    neg = [tuple(-c for c in p) for p in points]
    count = 0
    full = (2, len(points), 4, 4)
    for label, sym in _jet_symbols():
        vals, grads = sym.jet(q)
        plain = tuple(sym(q))
        for a in range(3):
            for half, pts in ((0, points), (1, neg)):
                fd = central_difference(sym, a, pts, h=1e-5)
                for part, grad in enumerate(grads[a]):
                    jet = np.broadcast_to(grad, full)
                    assert np.max(np.abs(jet[half] - fd[part])) < 1e-7, \
                        (label, a, half, part)
        for part, val in enumerate(vals):
            # the jet pass yields the plain values too, bit for bit
            assert np.array_equal(val, plain[part]), label
        count += 1
    assert count == 19 + 6  # every generator coefficient and tilde symbol


def test_scalar_jet_keeps_the_scalar_shape():
    # a c(q) I symbol stored as its scalar: values and derivatives of shape
    # (2, N, 1, 1), against central differences of its dense reading
    points = [(0.7, -1.3, 2.1), (-2.0, 0.4, 1.1)]
    neg = [tuple(-c for c in p) for p in points]
    sym = MomentumSymbol((GeneralOp.identity(),),
                         lambda q: (1j * q[0] * q[1] + omega(q, M),), "c")
    vals, grads = sym.jet(signed_batch(points))
    assert vals._a.shape == (2, len(points), 1, 1) and vals._b is None
    for a in range(3):
        assert grads[a]._a.shape == (2, len(points), 1, 1)
        assert grads[a]._b is None
        for half, pts in ((0, points), (1, neg)):
            fd_a, fd_b = central_difference(sym, a, pts, h=1e-5)
            assert np.max(np.abs(grads[a].a[half] - fd_a)) < 1e-7, (a, half)
            assert not fd_b.any()
    unit = MomentumSymbol((GeneralOp.identity(),), lambda q: (1.0,), "I")
    (a, b), grads = unit.jet(signed_batch(points))
    assert unit(signed_batch(points))._a.shape == (1, 1, 1, 1)
    assert a.shape == (1, 1, 4, 4) and np.array_equal(a[0, 0], np.eye(4))
    assert not b.any() and all(
        d._a is None and d._b is None for d in grads)


def test_constant_has_zero_derivative():
    spin = dict(build_poincare_generators(M))["j12"][(0, 0, 0)]
    (a, b), grads = spin.jet(signed_batch(SAMPLES[:3]))
    assert a.shape == b.shape == (1, 1, 4, 4)
    assert len(grads) == 3
    assert not any(part.any() for grad in grads for part in grad)


def _values(x):
    return evaluate(x, signed_batch(SAMPLES[:5]))


def test_degree_above_one_rejected():
    x2 = compose(_values(position_op(0)), _values(position_op(1)))
    assert x2.degree() == 2
    with pytest.raises(ValueError, match="degree <= 1"):
        compose(_values(position_op(2)), x2)


def test_product_left_of_a_position_rejected():
    # a product carries no derivative: jets are degree 1, so a q-dependent
    # product is never differentiated
    pp = compose(_values(_p_n(0)), _values(_p_n(1)))
    assert compose(_values(_p_n(2)), pp).degree() == 0
    with pytest.raises(ValueError, match="no derivative"):
        compose(pp, _values(position_op(0)))


def test_closure_check_evaluates_each_coefficient_once(monkeypatch):
    # a whole poincare run evaluates the ten generators once for both the
    # invariance and the closure check, and no Hamiltonian besides p0
    calls = {}
    labels = []
    jet = MomentumSymbol.jet

    def counted_jet(sym, q):
        labels.append(sym.label)
        return jet(sym, q)

    def counted(sym, key):
        def profiles(q):
            calls[key] = calls.get(key, 0) + 1
            return sym.profiles(q)
        return MomentumSymbol(sym.ops, profiles, sym.label)

    def generators(mass):
        gens = build_poincare_generators(mass)
        return [(name, {k: counted(sym, (name, k)) for k, sym in g.items()})
                for name, g in gens]

    monkeypatch.setattr(suites, "build_poincare_generators", generators)
    monkeypatch.setattr(MomentumSymbol, "jet", counted_jet)
    ledger = suites.run_suite(SuiteConfig(suites=("poincare",), samples=20))
    assert ledger.passed
    assert len(calls) == 19 and set(calls.values()) == {1}
    # three momenta, three positions and the unit for the canonical pairs,
    # then the 19 generator coefficients
    assert len(labels) == 7 + 19 and labels.count("p0") == 1


# ---------------------------------------------------------------------------
# normal-form composition
# ---------------------------------------------------------------------------

def _p_n(n):
    sym = MomentumSymbol((GeneralOp.identity(),),
                         lambda q, nn=n: (1j * q[nn],), f"p{n + 1}")
    return {(0, 0, 0): sym}


def test_canonical_pairs():
    for n in range(3):
        for m in range(3):
            comm = commutator(_values(_p_n(n)), _values(position_op(m)))
            for key, ((va, vb), _) in comm.terms.items():
                expect = (1.0 if n == m else 0.0) * np.eye(4) \
                    if key == (0, 0, 0) else np.zeros((4, 4))
                assert np.max(np.abs(va[0] - expect)) < 1e-13
                assert np.max(np.abs(vb[0])) < 1e-13


def test_momenta_commute():
    assert commutator(_values(_p_n(0)), _values(_p_n(2))).max_norm() < 1e-13


def test_positions_commute():
    comm = commutator(_values(position_op(0)), _values(position_op(1)))
    assert comm.max_norm() < 1e-13


def test_orbital_rotation_commutators():
    # [x_l p_n - x_n p_l, p_k] = delta_nk p_l - delta_lk p_n
    def orbital(l, n):
        return (compose(_values(position_op(l)), _values(_p_n(n)))
                - compose(_values(position_op(n)), _values(_p_n(l))))

    for l, n, k in ((0, 1, 1), (0, 1, 0), (1, 2, 0), (2, 0, 2)):
        lhs = commutator(orbital(l, n), _values(_p_n(k)))
        rhs = XValues({})
        if n == k:
            rhs = rhs + _values(_p_n(l))
        if l == k:
            rhs = rhs - _values(_p_n(n))
        assert (lhs - rhs).max_norm() < 1e-12


def test_normal_form_reordering_consistency():
    # S x_b - x_b S = -i dS/dq_b for every generator coefficient S, the
    # derivative taken by central differences
    points = SAMPLES[:5]
    q = signed_batch(points)
    for label, sym in _jet_symbols():
        s = XValues({(0, 0, 0): sym.jet(q)})
        for b in range(3):
            x_b = evaluate(position_op(b), q)
            lhs = compose(s, x_b) - compose(x_b, s)
            (va, vb), _ = lhs.terms[(0, 0, 0)]
            fd = central_difference(sym, b, points, h=1e-5)
            assert np.max(np.abs(va[0] + 1j * fd[0])) < 1e-7, (label, b)
            assert np.max(np.abs(vb[0] + 1j * fd[1])) < 1e-7, (label, b)
            # the position terms cancel
            assert max(np.max(np.abs(v[0])) for key, (pair, _) in
                       lhs.terms.items() if key != (0, 0, 0)
                       for v in pair) < 1e-12, (label, b)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_generators_require_positive_mass():
    with pytest.raises(ValueError):
        build_poincare_generators(0.0)


def test_all_generators_commute_with_evolution_operator():
    # [d_0 + iH, G] = 0 on the t = 0 slice, where iH = -p0: [p0, G] = T_G
    q = signed_batch(SAMPLES)
    names, gens = zip(*build_poincare_generators(M))
    values = [evaluate(g, q) for g in gens]
    by_name = dict(zip(names, values))
    residuals = []
    for name, value in by_name.items():
        x0_part = by_name[X0_PARTS[name]] if name in X0_PARTS else XValues({})
        residual = (commutator(by_name["p0"], value) - x0_part).max_norm()
        assert residual < 1e-10, (name, residual)
        residuals.append(residual)
    # the check reads the same brackets from its p0 row
    symmetry, _, _ = poincare_closure_check(names, values)
    assert symmetry == max(residuals)


def test_evolution_check_evaluates_the_hamiltonian_once(monkeypatch):
    labels = []
    jet = MomentumSymbol.jet

    def counted(sym, q):
        labels.append(sym.label)
        return jet(sym, q)

    monkeypatch.setattr(MomentumSymbol, "jet", counted)
    q = signed_batch(SAMPLES)
    names, gens = zip(*build_poincare_generators(M))
    values = [evaluate(g, q) for g in gens]
    symmetry, closure, _ = poincare_closure_check(names, values)
    assert symmetry < 1e-10 and closure < 1e-8
    # each of the 19 generator coefficients once, p0 among them; the
    # check evaluates nothing more, no iH in particular
    assert labels.count("p0") == 1 and len(labels) == 19


def test_boost_without_time_term_fails_symmetry(monkeypatch):
    # dropping the x0 bookkeeping must break the boost invariance, and
    # only that: the closure does not read the x0 coefficients
    names, values = _generator_values(20)
    monkeypatch.delitem(X0_PARTS, "j01")
    symmetry, closure, verified = poincare_closure_check(names, values)
    assert symmetry > 1e-3
    assert closure < 1e-8 and verified


def test_a_boost_without_time_term_fails_the_generator_algebra(monkeypatch):
    monkeypatch.delitem(X0_PARTS, "j01")
    config = SuiteConfig(suites=("poincare",), samples=20)
    claims = {c.claim_id: c for c in suites.run_suite(config).claims}
    algebra = claims["poincare.generator-algebra"]
    assert algebra.status == "fail" and algebra.residual > 1e-3
    # the symmetry residual fails it, the closure residual is in tolerance
    symmetry, closure = (float(part.split("<")[1].split()[0])
                         for part in algebra.detail.split(", ")[:2])
    assert symmetry == float(f"{algebra.residual:.1e}")
    assert closure < config.tolerance("closure")
    assert [k for k, c in claims.items() if c.status != "pass"] == [
        "poincare.generator-algebra"]


def test_a_poincare_run_forms_each_generator_bracket_once(monkeypatch):
    # 45 brackets of the ten generators, the p0 row read by both checks,
    # and 18 of the canonical pairs
    counts = {}

    def counting(module, name):
        real = getattr(module, name)

        def counted(x, y):
            counts[name] = counts.get(name, 0) + 1
            return real(x, y)
        monkeypatch.setattr(module, name, counted)

    counting(xops, "commutator")
    counting(suites, "xop_commutator")
    assert suites.run_suite(SuiteConfig(suites=("poincare",))).passed
    assert counts == {"commutator": 45, "xop_commutator": 18}


def test_closure_against_the_oracle_constants():
    names, values = _generator_values(200)
    symmetry, worst, verified = poincare_closure_check(names, values)
    assert worst < 1e-8 and symmetry < 1e-10
    assert verified


def test_closure_check_needs_the_oracle_generators():
    names, values = _generator_values(3)
    with pytest.raises(ValueError, match="oracle"):
        poincare_closure_check(names[::-1], values[::-1])


def test_least_squares_fit_matches_the_oracle_constants():
    # the replaced path as a cross-check: fit every commutator onto the
    # real span of the generators' values and compare with the oracle
    names, values = _generator_values(20)
    keys = sorted({k for v in values for k in v.terms})
    zero = np.zeros((1, 1, 4, 4))

    def rows(x):
        """Real and imaginary parts of the coefficients at keys, both
        matrix parts, on the +q half."""
        flat = np.concatenate([
            np.broadcast_to(part[0], (20, 4, 4)).ravel()
            for k in keys for part in (x.terms[k][0] if k in x.terms
                                       else (zero, zero))])
        return np.concatenate([flat.real, flat.imag])

    design = np.stack([rows(v) for v in values], axis=1)
    table, verified = poincare_oracle.oracle_structure_table()
    assert verified
    for i in range(10):
        for j in range(i + 1, 10):
            comm = commutator(values[i], values[j])
            rhs = rows(comm)
            coef = np.linalg.lstsq(design, rhs, rcond=None)[0]
            unfit = [v.norm() for k, (v, _) in comm.terms.items()
                     if k not in keys]
            resid = max([float(np.max(np.abs(design @ coef - rhs)))] + unfit)
            pair = (names[i], names[j])
            assert resid < 1e-8, pair
            assert np.max(np.abs(coef - table[pair])) < 1e-8, pair
            if pair == ("j23", "j31"):
                # lands on the third rotation with coefficient 1
                j12 = names.index("j12")
                assert abs(coef[j12] - 1.0) < 1e-8
                assert np.max(np.abs(np.delete(coef, j12))) < 1e-8


def _changed_constant(table, verified):
    """The oracle table with the j12 constant of (j23, j31) zeroed."""
    changed = dict(table)
    changed[("j23", "j31")] = tuple(
        0.0 if k == 6 else c for k, c in enumerate(table[("j23", "j31")]))
    return changed, verified


def _unproved(table, verified):
    return table, False


@pytest.mark.parametrize("fake", [_changed_constant, _unproved])
def test_generator_algebra_fails_against_a_wrong_oracle(fake, monkeypatch):
    oracle = fake(*poincare_oracle.oracle_structure_table())
    monkeypatch.setattr(poincare_oracle, "oracle_structure_table",
                        lambda: oracle)
    names, values = _generator_values(20)
    symmetry, worst, verified = poincare_closure_check(names, values)
    # a changed constant leaves a residual, an unproved table no proof;
    # the invariance does not read the oracle
    assert (worst > 1.0) == verified == (fake is _changed_constant)
    assert symmetry < 1e-10
    ledger = suites.run_suite(SuiteConfig(suites=("poincare",), samples=20))
    status = {c.claim_id: c.status for c in ledger.claims}
    assert status["poincare.generator-algebra"] == "fail"
    assert [k for k, v in status.items() if v != "pass"] == [
        "poincare.generator-algebra"]


def test_casimir_report():
    value, deviation = momentum_square(M, CASIMIR_BATCH)
    assert abs(value + M * M) < 1e-12
    assert deviation < 1e-12
    ledger = suites.run_suite(SuiteConfig(suites=("poincare",), samples=20))
    casimirs = {c.claim_id: c for c in ledger.claims}["poincare.casimirs"]
    assert casimirs.status == "pass"
    assert casimirs.residual == momentum_square(
        M, signed_batch(sample_momenta(20, seed=42, radius=5.0)))[1]
    assert "spin square = -2 diag(1,1,1,0) exact" in casimirs.detail
    assert any("sign" in flag for flag in ledger.flags)


def test_casimir_scales_with_mass():
    value, _ = momentum_square(2.0, CASIMIR_BATCH)
    assert abs(value + 4.0) < 1e-11


def _failing_claims(capsys, *tol):
    """The poincare claims that fail at 20 points under the --tol given."""
    argv = ["verify", "--suite", "poincare", "--samples", "20",
            "--format", "json"]
    for key_value in tol:
        argv += ["--tol", key_value]
    rc = main(argv)
    failing = [c["id"] for c in json.loads(capsys.readouterr().out)["claims"]
               if c["status"] == "fail"]
    assert rc == (1 if failing else 0)
    return failing


def test_poincare_claims_are_judged_against_the_configured_tolerance(capsys):
    # the suite compares each measured residual with --tol: at half of it
    # the claim fails, and no other
    names, values = _generator_values(20)
    symmetry, closure, _ = poincare_closure_check(names, values)
    _, deviation = momentum_square(
        M, signed_batch(sample_momenta(20, seed=42, radius=5.0)))
    assert symmetry > 0.0 and closure > 0.0 and deviation > 0.0
    assert _failing_claims(capsys) == []
    assert _failing_claims(capsys, f"symmetry={symmetry / 2!r}") == [
        "poincare.generator-algebra"]
    assert _failing_claims(capsys, f"closure={closure / 2!r}") == [
        "poincare.generator-algebra"]
    assert _failing_claims(capsys, f"momentum={deviation / 2!r}") == [
        "poincare.casimirs"]


# ---------------------------------------------------------------------------
# operands stay unchanged
# ---------------------------------------------------------------------------

def _arrays(values):
    """Every array held by the values: coefficients and derivatives."""
    for v in values:
        for coeff, derivatives in v.terms.values():
            for sym in (coeff,) + tuple(derivatives or ()):
                yield from (p for p in (sym._a, sym._b) if p is not None)


def test_algebra_leaves_the_generator_values_unchanged():
    names, values = _generator_values(6)
    held = list(_arrays(values))
    saved = [p.copy() for p in held]
    for x in values:
        for y in values:
            x + y, x - y, commutator(x, y)
    poincare_closure_check(names, values)
    assert all(p.tobytes() == s.tobytes() for p, s in zip(held, saved))


def test_difference_is_the_sum_with_the_negated_values():
    _, values = _generator_values(6)
    for x in values:
        for y in values:
            negated = XValues({k: (-v, None) for k, (v, _) in y.terms.items()})
            diff, ref = x - y, x + negated
            assert list(diff.terms) == list(ref.terms)
            for (d, _), (r, _) in zip(diff.terms.values(), ref.terms.values()):
                for part, expected in zip((d._a, d._b), (r._a, r._b)):
                    assert (part is None) == (expected is None)
                    assert part is None or np.array_equal(part, expected)
