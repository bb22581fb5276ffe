"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.

Criterion 5 asserts the sixteen tabulated closed forms exactly as
printed. Two of them (alpha_57, alpha_67) carry signs inconsistent with
the defining quarter-commutators (and with the compact commutation table
of criterion 2, which forces the opposite signs); those two assertions
fail and are expected to fail. The suite report lists the computed
corrected forms.
"""

import time

import numpy as np

from ercd.algebras import (a32, bosonic_rep, bosonic_so8_generators,
                           breve_spin, breve_spin_from_compositions,
                           ercd64, extended_gammas, pd_gammas, pgi8,
                           percd29, so15_generators, so8_generators)
from ercd.operators import GeneralOp, anticommutator, commutator, compose
from ercd.relations import (casimir_spin_squared, check_anticommutation,
                            check_so15, check_so8, classify_hermiticity,
                            gamma_product_identities, verify_explicit_forms)
from ercd.scalars import ExactScalar, ZERO
from ercd.spans import (centralizer_kernel, span_rank, spans_equal)
from ercd.suites import corrupted_pd_gammas
from ercd.symbols import (MomentumSymbol, check_equation_symmetry,
                          dirac_hamiltonian, fw_hamiltonian, fw_transform,
                          pd_spin, sample_momenta, signed_batch, spin_triple,
                          tilde_values)
from ercd.xops import (build_poincare_generators, evaluate, momentum_square,
                       poincare_closure_check)

MOMENTUM_TOL = 1e-12
SYMMETRY_TOL = 1e-10
CLOSURE_TOL = 1e-8


def _const(op):
    """The constant symbol of op: the operator with the profile 1."""
    return MomentumSymbol((op,), lambda q: (1.0,))


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_anticommutation_tables():
    t0 = time.perf_counter()
    g = pd_gammas()
    ok = g.get("g0").adjoint() == g.get("g0")
    for k in (1, 2, 3):
        ok = ok and g.get(f"g{k}").adjoint() == -g.get(f"g{k}")
    five = check_anticommutation(g, (1, -1, -1, -1, -1))
    seven = check_anticommutation(extended_gammas(), (-1,) * 7)
    elapsed = time.perf_counter() - t0
    ok = ok and five.passed and seven.passed and elapsed < 1.0
    _report(1, ok, f"adjoint pattern + 5/7-generator tables exact, "
                   f"{elapsed:.2f}s")
    assert five.passed and five.checks_total == 25
    assert seven.passed and seven.checks_total == 49
    assert ok


def test_criterion_2_commutation_tables():
    t0 = time.perf_counter()
    so15 = check_so15(so15_generators())
    so8 = check_so8(so8_generators())
    bos = check_so8(bosonic_so8_generators())
    elapsed = time.perf_counter() - t0
    ok = so15.passed and so8.passed and bos.passed and elapsed < 5.0
    _report(2, ok, f"225 + 784 + 784 pairs exact, {elapsed:.2f}s")
    assert so15.passed and so8.passed and bos.passed
    assert elapsed < 5.0


def test_criterion_3_counting_claims():
    rank64 = span_rank(ercd64().ops())
    herm, anti, neither = classify_hermiticity(ercd64())
    counts = (len(percd29()), len(a32()), span_rank(a32().ops()))
    ok = (rank64 == 64 and (len(herm), len(anti), len(neither)) == (36, 28, 0)
          and counts == (29, 32, 32))
    _report(3, ok, f"rank={rank64}, hermitian={len(herm)}/"
                   f"antihermitian={len(anti)}, counts={counts}")
    assert rank64 == 64
    assert (len(herm), len(anti), len(neither)) == (36, 28, 0)
    assert counts == (29, 32, 32)


def test_criterion_4_centralizer_maximality():
    ig0 = extended_gammas().get("g7")
    kernel = centralizer_kernel(ig0)
    ok = len(kernel) == 32 and spans_equal(kernel, a32().ops())
    _report(4, ok, f"centralizer dimension {len(kernel)}, span equality "
                   f"{spans_equal(kernel, a32().ops())}")
    assert len(kernel) == 32
    assert spans_equal(kernel, a32().ops())


def test_criterion_5_explicit_forms_and_products():
    products = all(gamma_product_identities().values())
    forms = verify_explicit_forms()
    ok = products and forms.passed
    _report(5, ok,
            f"products {'exact' if products else 'FAIL'}; "
            f"{forms.checks_total - len(forms.failures)}/{forms.checks_total} "
            f"tabulated identities exact"
            + ("" if forms.passed else
               f"; failing rows: {'; '.join(forms.failures)}"))
    assert products
    assert forms.passed, (
        "two tabulated closed forms are inconsistent with the defining "
        "quarter-commutators (alpha_57, alpha_67): the printed signs match "
        "the reversed product order; the compact commutation table of "
        "criterion 2 forces the computed signs. See the decisions ledger. "
        f"Failures: {forms.failures}")


def test_criterion_6_bosonic_representation():
    breve, w, w_inv = bosonic_rep()  # the identities are checked here
    ident = GeneralOp.identity()
    ig0 = extended_gammas().get("g7")
    ok = (w @ w_inv == ident and w_inv @ w == ident
          and compose(w, ig0, w_inv) == ig0)
    ext = extended_gammas()
    for k in range(1, 8):
        ok = ok and compose(w, ext.get(f"g{k}"), w_inv) == breve.get(f"bg{k}")
    ok = ok and compose(w, GeneralOp.imaginary_unit(), w_inv) == breve.get("bi")
    ok = ok and compose(w, GeneralOp.conjugation(), w_inv) == breve.get("bC")
    ok = ok and compose(w, pd_gammas().get("g0"), w_inv) == breve.get("bg0")
    _report(6, ok, "basis change invertible; ten conjugation identities exact")
    assert ok


def test_criterion_7_spin_triplet():
    spin = breve_spin()
    s1, s2, s3 = spin.ops()
    closes = (commutator(s1, s2) == s3 and commutator(s2, s3) == s1
              and commutator(s3, s1) == s2)
    matches = breve_spin_from_compositions() == spin.ops()
    m2 = ExactScalar(-2)
    z = ZERO
    expected = GeneralOp(((m2, z, z, z), (z, m2, z, z),
                          (z, z, m2, z), (z, z, z, z)), None)
    square = casimir_spin_squared(spin) == expected
    ok = closes and matches and square
    _report(7, ok, "su(2) closure, composed forms, square = -2 diag(1,1,1,0)")
    assert closes and matches and square


def test_criterion_8_transform_identities():
    m = 1.0
    samples = sample_momenta(100, seed=42, radius=10.0)
    q = signed_batch(samples)
    vp, vm = fw_transform(m, +1)(q), fw_transform(m, -1)(q)
    ident = _const(GeneralOp.identity())(q)
    fw, hd = fw_hamiltonian(m), dirac_hamiltonian(m)
    h_d = hd.symbol(q)

    worst_inverse = max((vp @ vm - ident).norm(), (vm @ vp - ident).norm())
    worst_conj = (vp @ fw.symbol(q) @ vm - h_d).norm()

    worst_spin = 0.0
    for s, s0 in zip(pd_spin(m), spin_triple()):
        spin = s(q)
        conj = vp @ _const(s0)(q) @ vm
        worst_spin = max(worst_spin, commutator(spin, h_d).norm(),
                         (spin - conj).norm())

    tilde = tilde_values(m, signed_batch(samples[:10]))
    values = [tilde[f"tg{k}"] for k in range(1, 8)]
    worst_tilde = 0.0
    for a in range(7):
        for b in range(a, 7):
            ac = anticommutator(values[a], values[b])
            target = -2.0 * np.eye(4) if a == b else 0.0
            worst_tilde = max(worst_tilde,
                              float(np.max(np.abs(ac.a[0] - target))),
                              float(np.max(np.abs(ac.b[0]))))
    ext = extended_gammas()
    fundamentals = {f"tg{k}": _const(ext.get(f"g{k}")) for k in range(1, 8)}
    fundamentals["tg0"] = _const(pd_gammas().get("g0"))
    fundamentals["tC"] = _const(GeneralOp.conjugation())
    near = signed_batch(samples[:30])
    vp, vm = fw_transform(m, +1)(near), fw_transform(m, -1)(near)
    for lbl, value in tilde_values(m, near).items():
        conj = vp @ fundamentals[lbl](near) @ vm
        worst_tilde = max(worst_tilde, (value - conj).norm())

    worst = max(worst_inverse, worst_conj, worst_spin, worst_tilde)
    ok = worst < MOMENTUM_TOL
    _report(8, ok, f"inverse {worst_inverse:.1e}, conjugation {worst_conj:.1e}, "
                   f"spin {worst_spin:.1e}, nonlocal set {worst_tilde:.1e}")
    assert worst < MOMENTUM_TOL


def test_criterion_9_symmetry_checks():
    fw = fw_hamiltonian(1.0)
    a32_ok = all(check_equation_symmetry(op, fw) for _, op in a32())
    massless = dirac_hamiltonian(0.0)
    pgi_ok = all(check_equation_symmetry(op, massless) for _, op in pgi8())
    control = not check_equation_symmetry(pd_gammas().get("g1"), fw)
    ok = a32_ok and pgi_ok and control
    _report(9, ok, f"32 invariances exact, 8 massless invariances exact, "
                   f"negative control rejected={control}")
    assert a32_ok and pgi_ok and control


def test_criterion_10_generator_suite():
    t0 = time.perf_counter()
    m = 1.0
    q = signed_batch(sample_momenta(200, seed=42, radius=5.0))
    names, gens = zip(*build_poincare_generators(m))
    values = [evaluate(g, q) for g in gens]
    worst_sym, closure, verified = poincare_closure_check(names, values)
    p_square, deviation = momentum_square(m, q)
    spin_square = casimir_spin_squared(breve_spin()) == GeneralOp.linear(
        [[-2, 0, 0, 0], [0, -2, 0, 0], [0, 0, -2, 0], [0, 0, 0, 0]])
    elapsed = time.perf_counter() - t0
    casimirs = (abs(p_square + m * m) < MOMENTUM_TOL
                and deviation < MOMENTUM_TOL and spin_square)
    ok = (worst_sym < SYMMETRY_TOL and closure < CLOSURE_TOL and verified
          and casimirs and elapsed < 30.0)
    _report(10, ok,
            f"symmetry {worst_sym:.1e}, closure {closure:.1e} "
            f"against the oracle constants, "
            f"p.p = {p_square.real:+.3f} (-m^2: the sign differs from the "
            f"quoted invariant), {elapsed:.1f}s")
    assert worst_sym < SYMMETRY_TOL
    assert closure < CLOSURE_TOL and verified
    assert abs(p_square + m * m) < MOMENTUM_TOL
    assert deviation < MOMENTUM_TOL
    assert spin_square
    assert elapsed < 30.0


def test_criterion_11_fault_injection():
    undetected = []
    for target in ("g0", "g1", "g2", "g3", "g4"):
        for row in range(4):
            for col in range(4):
                bad = corrupted_pd_gammas(target, row, col)
                if check_anticommutation(bad, (1, -1, -1, -1, -1)).passed \
                        and check_so15(so15_generators(bad)).passed:
                    undetected.append((target, row, col))
    ok = not undetected
    _report(11, ok, f"80/80 single-entry corruptions detected"
            if ok else f"undetected corruptions: {undetected}")
    assert not undetected
