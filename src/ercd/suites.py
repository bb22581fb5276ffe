"""Named verification suites and the table-dump interface.

Each suite emits claims into a ledger; run_suite executes the requested
suites and reports pass/fail per claim. Constant-matrix claims are
exact; momentum-space claims carry sampled residuals against the
configured tolerances. The fw suite's flip-law algebra of the nonlocal
generators forms the products of every pair of their rotation family at
once, as one table on the +q half (``_flip_table``): the 28 members side
by side, through the one flip-law product ``SymbolValues.half_matmul``.
Both its so(8) and its Clifford residuals read that one table.
"""

from __future__ import annotations

import io
import json
from typing import Callable, Dict, Tuple

import numpy as np

from . import algebras
from .algebras import (OrtSet, a32, bosonic_rep, bosonic_so8_generators,
                       breve_spin, breve_spin_from_compositions, cd16, ercd64,
                       extended_gammas, pd_gammas, pgi8, pgi_lorentz6,
                       percd29, rotation_family, so15_generators, so6,
                       so8_generators)
from .operators import GeneralOp, commutator, compose
from .relations import (_contraction, casimir_spin_squared,
                        check_anticommutation, check_so8, check_so15,
                        classify_hermiticity, closure_check,
                        composition_closure_check,
                        gamma_product_identities, multiplication_table,
                        commutator_table, pgi_orientation_check,
                        squares_and_pairing_check,
                        verify_explicit_forms, COMPACT8)
from .reporting import CLAIM_REGISTRY, Claim, Ledger, SuiteConfig, SUITE_NAMES
from .scalars import ExactScalar, HALF, I_UNIT, ZERO
from .spans import (OrthogonalBasis, centralizer_kernel, span_rank,
                    spans_equal, structure_constants)
from .symbols import (MomentumSymbol, SymbolValues, check_equation_symmetry,
                      dirac_hamiltonian, fw_hamiltonian, fw_transform,
                      max_modulus, pd_spin, sample_momenta, signed_batch,
                      spin_triple, tilde_values)
from .xops import (ZERO_MULTI, build_poincare_generators,
                   commutator as xop_commutator, evaluate,
                   momentum_square, poincare_closure_check, position_op,
                   translation_generators)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _claim(ledger: Ledger, claim_id: str, ok: bool, residual: float = 0.0,
           detail: str = "", tol: float = 0.0) -> None:
    """Record a verdict; tol is the tolerance of a sampled claim (0.0 for
    an exact one). The ledger times the claim."""
    ledger.add(Claim(claim_id, CLAIM_REGISTRY[claim_id],
                     "pass" if ok else "fail", residual, detail=detail,
                     tolerance=tol))


def _report_claim(ledger: Ledger, claim_id: str, rep,
                  counted: str = "pairs", shown: int = 6) -> None:
    """Record an exact structure report: its first failures, else the
    number of checks it made."""
    _claim(ledger, claim_id, rep.passed,
           detail="; ".join(rep.failures[:shown])
           or f"{rep.checks_total} {counted}")


def _out_of_scope(ledger: Ledger, claim_id: str, reason: str) -> None:
    ledger.add(Claim(claim_id, CLAIM_REGISTRY[claim_id], "out-of-scope",
                     detail=reason))


def corrupted_pd_gammas(target: str, row: int, col: int) -> OrtSet:
    """pd_gammas with one matrix entry bumped by +1 (fault injection)."""
    bump = [[0] * 4 for _ in range(4)]
    bump[row][col] = 1
    return OrtSet("pd_gammas(corrupted)", tuple(
        (lbl, op + GeneralOp.linear(bump) if lbl == target else op)
        for lbl, op in pd_gammas()))


# ---------------------------------------------------------------------------
# cd suite
# ---------------------------------------------------------------------------

def _suite_cd(ledger: Ledger, config: SuiteConfig) -> None:
    if config.inject_fault is not None:
        gammas = corrupted_pd_gammas(*config.inject_fault)
    else:
        gammas = pd_gammas()
    ident = GeneralOp.identity()

    g0 = gammas.get("g0")
    ok = g0.adjoint() == g0
    detail = []
    for k in (1, 2, 3):
        gk = gammas.get(f"g{k}")
        if gk.adjoint() != -gk:
            ok = False
            detail.append(f"g{k} adjoint pattern broken")
    _claim(ledger, "cd.adjoint-pattern", ok, detail="; ".join(detail))

    s1, s2, s3 = _pauli_ops()
    i_op = GeneralOp.imaginary_unit()
    ok = (s1 @ s1 == ident and s2 @ s2 == ident and s3 @ s3 == ident
          and s1 @ s2 == i_op @ s3 and s2 @ s3 == i_op @ s1
          and s3 @ s1 == i_op @ s2)
    _claim(ledger, "cd.pauli-matrices", ok)

    # rebuild the block forms from the Pauli matrices and compare
    forms = _rebuilt_forms()
    failures = [lbl for lbl in ("g0", "g1", "g2", "g3")
                if gammas.get(lbl) != forms[lbl]]
    _claim(ledger, "cd.gamma-blocks", not failures,
           detail="; ".join(f"{lbl} differs from its block form"
                            for lbl in failures))

    g4 = gammas.get("g4")
    prod = compose(gammas.get("g0"), gammas.get("g1"),
                   gammas.get("g2"), gammas.get("g3"))
    ok = (g4 == prod) and (g4 == forms["g4"]) and (g4 @ g4 == -ident)
    _claim(ledger, "cd.gamma4", ok)

    _report_claim(ledger, "cd.anticommutation-5",
                  check_anticommutation(gammas, (1, -1, -1, -1, -1)))

    table = so15_generators(gammas if config.inject_fault is not None else None)

    basis = cd16()
    rank = span_rank(basis.ops())
    failures = [f"alpha_{m}5 != g{m}" for m in range(5)
                if basis.get(f"alpha_{m}5") != gammas.get(f"g{m}")]
    if len(basis) != 16 or rank != 16:
        failures.insert(0, f"count={len(basis)}, rank={rank}")
    _claim(ledger, "cd.basis-16", not failures,
           detail="; ".join(failures) or "count=16, rank=16")

    # the table against quarter-commutators of the independently built forms
    quarter = ExactScalar.rational(1, 4)
    failures = [f"s{m}{n}" for m in range(5) for n in range(m + 1, 5)
                if table[(m, n)] != commutator(forms[f"g{m}"],
                                               forms[f"g{n}"]).scaled(quarter)]
    _claim(ledger, "cd.quarter-commutators", not failures,
           detail="; ".join(failures))

    _report_claim(ledger, "cd.so15-table", check_so15(table))

    # the fifth slot against half of the independently built forms
    failures = [f"s{m}5" for m in range(5)
                if table[(m, 5)] != forms[f"g{m}"].scaled(HALF)]
    _claim(ledger, "cd.generating-orts", not failures,
           detail="; ".join(failures))


def _pauli_ops():
    # each 2x2 Pauli matrix s acts as diag(s, s), a faithful embedding
    return [GeneralOp(tuple(r + (ZERO, ZERO) for r in s)
                      + tuple((ZERO, ZERO) + r for r in s), None)
            for s in algebras.pauli_matrices()]


def _rebuilt_forms() -> Dict[str, GeneralOp]:
    """g0..g6 built apart from the algebra constructors: the block forms
    from the Pauli matrices, g4 written out, g5 = g1 g3 C and g6 = i g5."""
    # gk = [[0, s_k], [-s_k, 0]] = [[0, I], [-I, 0]] diag(s_k, s_k)
    turn = GeneralOp.linear([[0, 0, 1, 0], [0, 0, 0, 1],
                             [-1, 0, 0, 0], [0, -1, 0, 0]])
    out = {f"g{k}": turn @ s for k, s in enumerate(_pauli_ops(), 1)}
    out["g0"] = GeneralOp.linear([[1, 0, 0, 0], [0, 1, 0, 0],
                                  [0, 0, -1, 0], [0, 0, 0, -1]])
    mi, z = -I_UNIT, ZERO
    out["g4"] = GeneralOp(((z, z, mi, z), (z, z, z, mi),
                           (mi, z, z, z), (z, mi, z, z)), None)
    out["g5"] = compose(out["g1"], out["g3"], GeneralOp.conjugation())
    out["g6"] = GeneralOp.imaginary_unit() @ out["g5"]
    return out


# ---------------------------------------------------------------------------
# pgi suite
# ---------------------------------------------------------------------------

def _suite_pgi(ledger: Ledger, config: SuiteConfig) -> None:
    basis = pgi8()
    rep = composition_closure_check(basis)
    rank = span_rank(basis.ops())
    ok = len(basis) == 8 and rank == 8 and rep.passed
    counts = f"count={len(basis)}, rank={rank}"
    _claim(ledger, "pgi.set-8", ok,
           detail=f"{counts}; {rep.failures[0]}" if rep.failures
           else f"{counts}, products close")

    sextet = pgi_lorentz6()
    # s12 = -(i/2) I and s03 = -(i/2) g4, written out
    h, z = algebras.MINUS_HALF, ZERO
    ih = h * I_UNIT
    expected_s12 = GeneralOp.linear([[ih, z, z, z], [z, ih, z, z],
                                     [z, z, ih, z], [z, z, z, ih]])
    expected_s03 = GeneralOp.linear([[z, z, h, z], [z, z, z, h],
                                     [h, z, z, z], [z, h, z, z]])
    ok = sextet[(1, 2)] == expected_s12 and sextet[(0, 3)] == expected_s03
    orient = pgi_orientation_check()
    ok = ok and orient.passed
    _claim(ledger, "pgi.lorentz-sextet", ok,
           detail="closes as so(1,3) in the mirrored orientation "
                  "(negated set satisfies the (+---) table)")

    massless = dirac_hamiltonian(0.0)
    bad = [lbl for lbl, op in basis
           if not check_equation_symmetry(op, massless)]
    _claim(ledger, "pgi.massless-symmetry", not bad,
           detail="; ".join(bad) or "all 8 exact")


# ---------------------------------------------------------------------------
# ercd suite
# ---------------------------------------------------------------------------

def _suite_ercd(ledger: Ledger, config: SuiteConfig) -> None:
    basis = ercd64()

    # alpha_01 = g0 g1 and its images under i, C and iC, written out
    i, z = I_UNIT, ZERO
    x01 = [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    written = {
        "alpha_01": GeneralOp.linear(x01),
        "i.alpha_01": GeneralOp.linear([[z, z, z, i], [z, z, i, z],
                                        [z, i, z, z], [i, z, z, z]]),
        "C.alpha_01": GeneralOp.antilinear(x01),
        "iC.I": GeneralOp.antilinear([[i, z, z, z], [z, i, z, z],
                                      [z, z, i, z], [z, z, z, i]]),
    }
    ok = len(basis) == 64 and all(basis.get(lbl) == op
                                  for lbl, op in written.items())
    _claim(ledger, "ercd.basis-64", ok, detail="count=64")

    rank = span_rank(basis.ops())
    _claim(ledger, "ercd.independence", rank == 64, detail=f"rank={rank}")

    herm, anti, neither = classify_hermiticity(basis)
    ok = (len(herm), len(anti), len(neither)) == (36, 28, 0)
    _claim(ledger, "ercd.hermiticity-split", ok,
           detail=f"hermitian={len(herm)}/antihermitian={len(anti)}"
                  f"/neither={len(neither)}")

    _report_claim(ledger, "ercd.ort-properties",
                  squares_and_pairing_check(basis), "checks", 4)

    anti_ops = [basis.get(lbl) for lbl in anti]
    rot = [op for _, op in sorted(so8_generators().items())]
    ok = spans_equal(anti_ops, rot) and span_rank(rot) == 28
    _claim(ledger, "ercd.antihermitian-span", ok,
           detail="28-dimensional span match")


# ---------------------------------------------------------------------------
# percd suite
# ---------------------------------------------------------------------------

def _suite_percd(ledger: Ledger, config: SuiteConfig) -> None:
    ext = extended_gammas()

    # g5 = g1 g3 C, g6 = i g5 and g7 = i g0 written out: g1 g3 holds the
    # real rotation blocks [[0,1],[-1,0]]
    i, z = I_UNIT, ZERO
    written = {
        "g5": GeneralOp.antilinear([[0, 1, 0, 0], [-1, 0, 0, 0],
                                    [0, 0, 0, 1], [0, 0, -1, 0]]),
        "g6": GeneralOp.antilinear([[z, i, z, z], [-i, z, z, z],
                                    [z, z, z, i], [z, z, -i, z]]),
        "g7": GeneralOp.linear([[i, z, z, z], [z, i, z, z],
                                [z, z, -i, z], [z, z, z, -i]]),
    }
    ok = all(ext.get(lbl) == op for lbl, op in written.items())
    ok = ok and all(ext.get(f"g{k}").is_linear for k in range(1, 5))
    _claim(ledger, "percd.seven-generators", ok,
           detail="two antilinear generators as composed")

    _report_claim(ledger, "percd.anticommutation-7",
                  check_anticommutation(ext, (-1,) * 7))

    basis = percd29()
    ok = len(basis) == 29
    for a in range(1, 8):
        if basis.get(f"alpha_{a}8") != ext.get(f"g{a}"):
            ok = False
    rank = span_rank(basis.ops())
    ok = ok and rank == 29
    _claim(ledger, "percd.basis-29", ok, detail=f"count=29, rank={rank}")

    rep = check_so8(so8_generators())
    closure = closure_check(basis)
    failures = rep.failures + closure.failures
    _claim(ledger, "percd.so8-table", not failures,
           detail=failures[0] if failures
           else f"{rep.checks_total} pairs, closure {closure.checks_total}")

    holds = gamma_product_identities()
    _claim(ledger, "percd.five-product", holds["g0 g1 g2 g3 g4 = -I"])

    seven_ok = all(holds[name] for name in (
        "g1..g7 product = I", "g5 g6 = i", "g7 = -(g1..g6 product)"))
    _claim(ledger, "percd.seven-product", seven_ok)

    rep = verify_explicit_forms((7, 8), " (defining commutator gives {flipped})")
    _report_claim(ledger, "percd.explicit-forms-extra", rep, "identities")


# ---------------------------------------------------------------------------
# so6 suite
# ---------------------------------------------------------------------------

def _suite_so6(ledger: Ledger, config: SuiteConfig) -> None:
    basis = so6()
    ext = extended_gammas()

    ok = len(basis) == 16 and span_rank(basis.ops()) == 16
    ok = ok and OrthogonalBasis(percd29().ops()).contains(basis.ops())
    ok = ok and OrthogonalBasis(ercd64().ops()).contains(percd29().ops())
    _claim(ledger, "so6.basis-16", ok,
           detail="rank=16, nested in the 29- and 64-ort spans")

    # the orts against half-commutators of independently built g1..g6
    forms = _rebuilt_forms()
    failures = [f"alpha_{a}{b}" for a in range(1, 7) for b in range(a + 1, 7)
                if basis.get(f"alpha_{a}{b}")
                != commutator(forms[f"g{a}"], forms[f"g{b}"]).scaled(HALF)]
    _claim(ledger, "so6.quarter-commutators", not failures,
           detail="; ".join(failures))

    failures = []
    for a in range(1, 7):
        for b in range(a + 1, 7):
            if basis.get(f"alpha_{a}{b}") != ext.get(f"g{a}") @ ext.get(f"g{b}"):
                failures.append(f"alpha_{a}{b}")
    _claim(ledger, "so6.generating-six", not failures,
           detail="every ort is a product of two of the first six generators")

    _report_claim(ledger, "so6.explicit-forms",
                  verify_explicit_forms((5, 6), hint=""), "identities")


# ---------------------------------------------------------------------------
# a32 suite
# ---------------------------------------------------------------------------

def _suite_a32(ledger: Ledger, config: SuiteConfig) -> None:
    basis = a32()
    ig0 = extended_gammas().get("g7")
    details = []
    ok = len(basis) == 32
    rank = span_rank(basis.ops())
    ok = ok and rank == 32
    details.append(f"count=32, rank={rank}")

    kernel = centralizer_kernel(ig0)
    dim = len(kernel)
    ok = ok and dim == 32
    details.append(f"centralizer=32" if dim == 32 else f"centralizer={dim}")

    spans_match = spans_equal(kernel, basis.ops())
    ok = ok and spans_match
    details.append("centralizer span = basis span" if spans_match
                   else "centralizer span != basis span")

    closure = closure_check(basis)
    ok = ok and closure.passed
    details += closure.failures[:1]

    fw = fw_hamiltonian(config.mass)
    bad = [lbl for lbl, op in basis
           if not check_equation_symmetry(op, fw)]
    ok = ok and not bad
    if bad:
        details.append("non-symmetries: " + ", ".join(bad))
    else:
        details.append("all 32 exact invariances")
    _claim(ledger, "a32.maximal-invariance", ok, detail="; ".join(details))


# ---------------------------------------------------------------------------
# fw suite
# ---------------------------------------------------------------------------

def _light_cone_residual(h: SymbolValues, points, m: float) -> float:
    """Hermiticity of the Hamiltonian values h on the signed batch of
    points, and their spectrum (-w, -w, w, w) there."""
    h = h.a[0]
    w = np.sqrt(np.sum(np.square(points), axis=1) + m * m)
    ev = np.linalg.eigvalsh(h)
    return max(max_modulus(h - np.conj(np.swapaxes(h, -1, -2))),
               max_modulus(ev - np.stack([-w, -w, w, w], axis=1)))


def _suite_fw(ledger: Ledger, config: SuiteConfig) -> None:
    """Every symbol is evaluated once, on one batch of config.samples
    points whose first point is q = 0; the light-cone checks read at most
    its first 40."""
    m = config.mass
    tol = config.tolerance("momentum")
    samples = sample_momenta(config.samples, seed=config.seed, radius=10.0)
    q = signed_batch(samples)
    fw = fw_hamiltonian(m)
    h_fw, h_d = fw.symbol(q), dirac_hamiltonian(m).symbol(q)

    near = samples[:40]
    # the Hamiltonians' entries and eigenvalues are of size w ~ m, so their
    # rounding is judged against tol max(1, m)
    h_tol = tol * max(1.0, m)

    # at rest H is beta m, written out here rather than read from the g0
    # that built it
    worst = max(_light_cone_residual(h_fw.points(slice(len(near))), near, m),
                max_modulus(h_fw.a[0, 0] - m * np.diag([1, 1, -1, -1])))
    _claim(ledger, "fw.wave-operator", worst < h_tol, residual=worst,
           detail=f"{len(near)} points and q = 0", tol=h_tol)

    worst = _light_cone_residual(h_d.points(slice(len(near))), near, m)
    _claim(ledger, "fw.local-hamiltonian", worst < h_tol, residual=worst,
           detail=f"{len(near)} points", tol=h_tol)

    if m > 0:
        _fw_nonlocal(ledger, m, h_fw, h_d, q, tol, h_tol)
    else:
        for claim_id in ("fw.transform-inverse", "fw.conjugation-identity",
                         "fw.nonlocal-spin", "fw.nonlocal-rotations",
                         "fw.nonlocal-generators"):
            _out_of_scope(ledger, claim_id, "needs m > 0: the basis-change "
                                            "symbol degenerates at q = 0")

    g1 = pd_gammas().get("g1")
    _claim(ledger, "fw.negative-control", not check_equation_symmetry(g1, fw),
           detail="bare space generator correctly rejected")


# the points of the fw batch at which the nonlocal generators' flip table
# is formed (it grows as 28^2 N), and what the first k of them are, as many
# as the batch holds: q = 0, an axis point, then seeded points
FLIP_POINTS = (0, 1, 4, 5)
_FLIP_READ = ("q = 0", "q = 0 and an axis point",
              "q = 0, an axis point and the first seeded point",
              "q = 0, an axis point and the first two seeded points")


def _fw_nonlocal(ledger: Ledger, m: float, h_fw: SymbolValues,
                 h_d: SymbolValues, q, tol: float, h_tol: float) -> None:
    """The claims on the basis change and the nonlocal operators (m > 0).
    h_fw and h_d are the Hamiltonians' values on the signed batch q, and
    h_tol is the tolerance of the Hamiltonian identity. Each symbol is
    evaluated once, and the claims compose the values."""
    used = f"{q.shape[1]} points"
    vp, vm = fw_transform(m, +1)(q), fw_transform(m, -1)(q)

    ident = MomentumSymbol((GeneralOp.identity(),), lambda q: (1.0,), "I")(q)
    worst = max((vp @ vm - ident).norm(), (vm @ vp - ident).norm())
    _claim(ledger, "fw.transform-inverse", worst < tol, residual=worst,
           detail=used, tol=tol)

    worst = (vp @ h_fw @ vm - h_d).norm()
    _claim(ledger, "fw.conjugation-identity", worst < h_tol, residual=worst,
           detail=used, tol=h_tol)

    worst = 0.0
    for s, s0 in zip(pd_spin(m), spin_triple()):
        spin, const = s(q), MomentumSymbol((s0,), lambda q: (1.0,))(q)
        conj = vp @ const @ vm
        # point 0 is q = 0, where the nonlocal spin is the constant one
        worst = max(worst, (spin - conj).norm(),
                    commutator(spin, h_d).norm(),
                    max_modulus(spin.a[0, 0] - const.a[0, 0]))
    _claim(ledger, "fw.nonlocal-spin", worst < tol, residual=worst,
           detail=used, tol=tol)

    # the nine nonlocal operators, evaluated once on the first 40 points:
    # the flip-law algebra reads the FLIP_POINTS among them
    q = q[:, :40]
    near = q.shape[1]
    flip = [k for k in FLIP_POINTS if k < near]
    tilde = tilde_values(m, q)
    gens = [tilde[f"tg{k}"].points(flip) for k in range(1, 8)]
    few = f"{len(flip)} points ({_FLIP_READ[len(flip) - 1]})"
    rotation, worst = flip_residuals(gens)
    _claim(ledger, "fw.nonlocal-rotations", rotation < tol,
           residual=rotation, detail=few, tol=tol)

    # the anticommutators' residual, then the V-conjugation comparison for
    # all nine nonlocal operators
    vp, vm = vp.points(slice(near)), vm.points(slice(near))
    ext = extended_gammas()
    fundamentals = {f"tg{k}": ext.get(f"g{k}") for k in range(1, 8)}
    fundamentals["tg0"] = pd_gammas().get("g0")
    fundamentals["tC"] = GeneralOp.conjugation()
    for lbl, value in tilde.items():
        const = MomentumSymbol((fundamentals[lbl],), lambda q: (1.0,))
        conj = vp @ const(q) @ vm
        worst = max(worst, (value - conj).norm())
    _claim(ledger, "fw.nonlocal-generators", worst < tol, residual=worst,
           detail="closed forms match the conjugation oracle; the "
                  "conjugation-image operator uses its expanded form; "
                  f"anticommutators on {few}, conjugation on "
                  f"{near} points", tol=tol)


def _flip_table(values):
    """The flip-law products v_P @ v_Q of n values on one signed batch,
    every ordered pair at once, on the +q half only: the parts (a, b),
    each of shape (N, n, 4, n, 4) with [:, P, :, Q] the product's part,
    and the values' own +q half, (a, b) of shape (N, n, 4, 4).

    The dense parts are stacked as (2, N, n, 4, 4), a constant one
    broadcast over the batch, so an absent factor is a zero block and a
    scalar one c I. The n values side by side as rows, (2, N, 4n, 4), times
    the same side by side as columns, (2, N, 4, 4n), is one
    ``half_matmul``: the one flip-law product, each of whose entries sums
    the same terms as a 4x4 product."""
    n = len(values)
    parts = np.broadcast_arrays(*(v.a for v in values), *(v.b for v in values))
    a, b = np.stack(parts[:n], axis=2), np.stack(parts[n:], axis=2)
    sign, pts = a.shape[:2]
    # the values side by side, on both sign halves: a stack of the +q half
    # alone would read as a constant
    rows = [x.reshape(sign, pts, 4 * n, 4) for x in (a, b)]
    cols = [x.transpose(0, 1, 3, 2, 4).reshape(sign, pts, 4, 4 * n)
            for x in (a, b)]
    table = SymbolValues(*rows).half_matmul(SymbolValues(*cols))
    return ((table.a.reshape(pts, n, 4, n, 4),
             table.b.reshape(pts, n, 4, n, 4)), (a[0], b[0]))


def flip_residuals(values) -> Tuple[float, float]:
    """The largest +q-half entries of the so(8) defects [s^P, s^Q] -
    signs[P, Q] s^{terms[P, Q]} of the rotation family of seven generators
    g_a evaluated on one signed batch, with the contraction rule's signed
    index (terms, signs) of ``relations._contraction``, and of their
    defects {g_a, g_b} + 2 delta_ab I, both read from the family's one flip
    table. Its members (a, 8) are the halves g_a / 2, so four times their
    block is the generators' own products, bit for bit."""
    table = rotation_family([0.5 * v for v in values], 1)
    pairs = sorted(table)
    terms, signs = _contraction(tuple(pairs), COMPACT8, 1)
    tables, family = _flip_table([table[pair] for pair in pairs])
    signs = signs[:, None, :, None]
    rotation = max(max_modulus(t - np.swapaxes(t, 1, 3) - signs
                               * own[:, terms].transpose(0, 1, 3, 2, 4))
                   for t, own in zip(tables, family))
    halves = [pairs.index((a, 8)) for a in range(1, 8)]
    ta, tb = (4.0 * t[:, halves][:, :, :, halves] for t in tables)
    return rotation, max(max_modulus(ta + np.swapaxes(ta, 1, 3)
                                     + 2.0 * np.eye(28).reshape(7, 4, 7, 4)),
                         max_modulus(tb + np.swapaxes(tb, 1, 3)))


# ---------------------------------------------------------------------------
# bosonic suite
# ---------------------------------------------------------------------------

def _suite_bosonic(ledger: Ledger, config: SuiteConfig) -> None:
    breve, w, w_inv = bosonic_rep()
    rep = check_so8(bosonic_so8_generators())
    _claim(ledger, "bosonic.so8-table", rep.passed,
           detail=f"{rep.checks_total} pairs")

    ext = extended_gammas()
    ok = all(compose(w, ext.get(f"g{k}"), w_inv) == breve.get(f"bg{k}")
             for k in range(1, 8))
    _claim(ledger, "bosonic.generators", ok, detail="7 conjugation identities")

    ok = (compose(w, pd_gammas().get("g0"), w_inv) == breve.get("bg0")
          and compose(w, GeneralOp.imaginary_unit(), w_inv) == breve.get("bi")
          and compose(w, GeneralOp.conjugation(), w_inv) == breve.get("bC"))
    _claim(ledger, "bosonic.extras", ok, detail="3 conjugation identities")

    ident = GeneralOp.identity()
    ig0 = ext.get("g7")
    ok = (w @ w_inv == ident and w_inv @ w == ident
          and compose(w, ig0, w_inv) == ig0)
    _claim(ledger, "bosonic.basis-change", ok,
           detail="invertible; fixes the diagonalized Hamiltonian matrix")


# ---------------------------------------------------------------------------
# poincare suite
# ---------------------------------------------------------------------------

def _suite_poincare(ledger: Ledger, config: SuiteConfig) -> None:
    m = config.mass
    mom_tol = config.tolerance("momentum")
    sym_tol = config.tolerance("symmetry")
    closure_tol = config.tolerance("closure")
    q = signed_batch(sample_momenta(config.samples, seed=config.seed,
                                    radius=5.0))
    points = f"{q.shape[1]} points"

    # the generators begin with p0..p3, whose p1..p3 the pairs share
    gens = build_poincare_generators(m) if m > 0 else []
    ident = MomentumSymbol((GeneralOp.identity(),), lambda q: (1.0,), "I")
    values = evaluate(
        [g for _, g in (gens or translation_generators(m))[1:4]]
        + [position_op(b) for b in range(3)] + [{ZERO_MULTI: ident}]
        + [g for _, g in gens], q)
    momenta, positions, unit = values[:3], values[3:6], values[6]
    worst = 0.0
    for n in range(3):
        for mm in range(3):
            # [p_n, x_m] = delta_nm and [p_n, p_m] = 0
            comm = xop_commutator(momenta[n], positions[mm])
            worst = max(worst, (comm - unit if n == mm else comm).max_norm(),
                        xop_commutator(momenta[n], momenta[mm]).max_norm())
    _claim(ledger, "poincare.canonical-pairs", worst < mom_tol,
           residual=worst, detail=points, tol=mom_tol)

    if m > 0:
        # one bracket per pair of the ten generators serves both checks
        worst_sym, worst_closure, proved = poincare_closure_check(
            [name for name, _ in gens], values[7:])
        _claim(ledger, "poincare.generator-algebra",
               worst_sym < sym_tol and worst_closure < closure_tol and proved,
               residual=max(worst_sym, worst_closure),
               detail=f"symmetry<{worst_sym:.1e}, closure<"
                      f"{worst_closure:.1e} against the oracle constants "
                      f"({'verified' if proved else 'not verified'}); "
                      f"on {points}",
               tol=min(sym_tol, closure_tol))
    else:
        _out_of_scope(ledger, "poincare.generator-algebra",
                      "needs m > 0: the boost generators are singular at "
                      "q = 0 when m = 0")

    spin = breve_spin()
    s1, s2, s3 = spin.ops()
    z = ZERO
    ok = s3 == GeneralOp.linear([[-I_UNIT, z, z, z], [z, I_UNIT, z, z],
                                 [z, z, z, z], [z, z, z, z]])
    ok = ok and commutator(s1, s2) == s3 and commutator(s2, s3) == s1 \
        and commutator(s3, s1) == s2
    fw = fw_hamiltonian(m)
    ok = ok and all(check_equation_symmetry(op, fw) for op in (s1, s2, s3))
    _claim(ledger, "poincare.spin-triplet", ok,
           detail="su(2) closure exact; all three invariances exact")

    value, deviation = momentum_square(m, q)
    spin_square = GeneralOp.linear([[-2, 0, 0, 0], [0, -2, 0, 0],
                                    [0, 0, -2, 0], [0, 0, 0, 0]])
    # the entries of p.p are of size w^2 <= 25 + m^2, so its rounding is
    # judged against tol max(1, m^2)
    pp_tol = mom_tol * max(1.0, m * m)
    ok = (abs(value + m ** 2) < pp_tol and deviation < pp_tol
          and casimir_spin_squared(spin) == spin_square)
    _claim(ledger, "poincare.casimirs", ok, residual=deviation,
           detail=f"p.p = {value.real:+.6f} (q-independent) on {points}, "
                  "spin square = -2 diag(1,1,1,0) exact",
           tol=pp_tol)
    ledger.flags.append("computed p.p = -m^2 I; magnitude matches the quoted "
                        "invariant, sign differs under the anti-Hermitian "
                        "generator convention")

    ok = breve_spin_from_compositions() == spin.ops()
    _claim(ledger, "poincare.spin-compositions", ok)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

_SUITES: Dict[str, Callable[[Ledger, SuiteConfig], None]] = {
    "cd": _suite_cd,
    "pgi": _suite_pgi,
    "ercd": _suite_ercd,
    "percd": _suite_percd,
    "so6": _suite_so6,
    "a32": _suite_a32,
    "fw": _suite_fw,
    "bosonic": _suite_bosonic,
    "poincare": _suite_poincare,
}


def run_suite(config: SuiteConfig) -> Ledger:
    """Execute the configured suites and return the claim ledger."""
    unknown = [s for s in config.suites if s != "all" and s not in _SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}")
    if config.mass < 0:
        raise ValueError("mass must be nonnegative")
    ledger = Ledger(config)
    suites = config.resolved_suites()
    for name in suites:
        _SUITES[name](ledger, config)
    if set(suites) == set(SUITE_NAMES):
        _out_of_scope(ledger, "hilbert-space-setting",
                      "function-analytic setting not modelled")
        ledger.validate_coverage()
    return ledger


# ---------------------------------------------------------------------------
# table dumps
# ---------------------------------------------------------------------------

_DUMPABLE: Dict[str, Callable[[], OrtSet]] = {
    "cd16": cd16,
    "ercd64": ercd64,
    "percd29": percd29,
    "so6": so6,
    "a32": a32,
    "pgi8": pgi8,
}

DUMP_SETS = tuple(_DUMPABLE)
DUMP_KINDS = ("multiplication", "commutator", "structure-constants")


def dump_tables(set_name: str, kind: str, fmt: str = "json") -> str:
    """Serialize a complete multiplication/commutator/structure-constant
    table. Exact values render sqrt2 symbolically, never as decimals."""
    if set_name not in _DUMPABLE:
        raise ValueError(f"unknown set {set_name!r}; "
                         f"choose from {', '.join(sorted(_DUMPABLE))}")
    if kind not in DUMP_KINDS:
        raise ValueError(f"unknown table kind {kind!r}")
    ortset = _DUMPABLE[set_name]()

    if kind == "multiplication":
        header = ["left", "right", "unit", "ort"]
        rows = [list(r) for r in multiplication_table(ortset)]
    elif kind == "commutator":
        header = ["left", "right", "value"]
        rows = [list(r) for r in commutator_table(ortset)]
    else:
        labels = [lbl for lbl, _ in ortset if lbl != "I"]
        gens = [op for lbl, op in ortset if lbl != "I"]
        table = structure_constants(gens)
        header = ["i", "j", "k", "coefficient"]
        rows = [[labels[i], labels[j], labels[k], coeff.render()]
                for (i, j, k), coeff in sorted(table.items())]

    if fmt == "json":
        # json.dumps' indent=2 layout, the entries through the C encoder
        text = json.dumps({"schema_version": 1, "set": set_name, "kind": kind,
                           "columns": header, "entries": [0] if rows else []},
                          sort_keys=True, indent=2)
        entries = ",\n".join("    [\n      " + ",\n      ".join(
            map(json.encoder.encode_basestring_ascii, row)) + "\n    ]"
            for row in rows)
        return text.replace("\n    0\n", f"\n{entries}\n", 1) + "\n"
    if fmt == "csv":
        import csv  # only a CSV output loads it
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    raise ValueError(f"unknown dump format {fmt!r}")
