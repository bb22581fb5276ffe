import json

import numpy as np
import pytest

from ercd.algebras import a32, ercd64, extended_gammas, pd_gammas, pgi8
from ercd.operators import GeneralOp, anticommutator, commutator
from ercd.symbols import (MomentumSymbol, SymbolValues,
                          check_equation_symmetry, dirac_hamiltonian,
                          fw_hamiltonian, fw_transform, omega, pd_spin,
                          sample_momenta, signed_batch, spin_triple,
                          tilde_gammas, tilde_values)
from ercd import symbols
from ercd.reporting import DEFAULT_TOLERANCES
from ercd.xops import build_poincare_generators
from exact_oracles import parts

M = 1.0
TOL = 1e-12
SAMPLES = sample_momenta(100, seed=42, radius=10.0)
Q = signed_batch(SAMPLES)


def _const(op, label=""):
    """The constant symbol of op: the operator with the profile 1."""
    return MomentumSymbol((op,), lambda q: (1.0,), label)


def _scalar(fn, label=""):
    """The symbol fn(q) I."""
    return MomentumSymbol((GeneralOp.identity(),), lambda q: (fn(q),), label)


IDENT = _const(GeneralOp.identity(), "I")


def _parts(v):
    """The dense parts (A, B) of evaluated values."""
    return v.a, v.b


def _at_rest(sym):
    """(A, B) of the symbol at q = 0."""
    a, b = _parts(sym(signed_batch((0.0, 0.0, 0.0))))
    return a[0, 0], b[0, 0]


def _transforms(q):
    """V+ and V- evaluated on the signed batch q."""
    return fw_transform(M, +1)(q), fw_transform(M, -1)(q)


def test_sampling_is_deterministic_and_bounded():
    a = sample_momenta(50, seed=1)
    b = sample_momenta(50, seed=1)
    assert a == b
    assert a[0] == (0.0, 0.0, 0.0)
    assert all(np.linalg.norm(q) <= 10.0 + 1e-12 for q in a)
    assert sample_momenta(50, seed=2) != a


def _numpy_sample_momenta(n, seed, radius):
    """sample_momenta as it drew from numpy.random, kept as the reference
    of the stream that replaced it."""
    rng = np.random.default_rng(seed)
    r = radius / 2.0
    pts = [(0.0, 0.0, 0.0), (r, 0.0, 0.0), (0.0, r, 0.0), (0.0, 0.0, r)]
    while len(pts) < n:
        v = rng.uniform(-radius, radius, 3)
        if np.linalg.norm(v) <= radius:
            pts.append((float(v[0]), float(v[1]), float(v[2])))
    return pts[:n]


def test_the_uniform_stream_is_numpys_for_the_seed():
    # seeds of one, two, three and seven 32-bit words (more than the pool
    # of four), and the edges between them
    for seed in [*range(201), 2**32 - 1, 2**32, 2**63, 10**20, 2**200 + 7]:
        for low, high, k in ((-10.0, 10.0, 12), (0.0, 1.0, 5),
                             (-0.5, 2.0, 3)):
            draws = symbols.pcg64_uniforms(seed, low, high)
            expected = np.random.default_rng(seed).uniform(low, high, k)
            assert [next(draws) for _ in range(k)] == expected.tolist(), seed


@pytest.mark.parametrize("radius", [0.5, 5, 10])
def test_sampled_momenta_are_those_of_the_numpy_loop(radius):
    # sample_momenta tests each draw on its three floats, the reference
    # through np.linalg.norm; a draw near the sphere would tell them apart
    for seed in range(200):
        expected = _numpy_sample_momenta(200, seed, radius)
        for n in (1, 4, 5, 40, 200):
            assert sample_momenta(n, seed=seed, radius=radius) \
                == expected[:n], (seed, n)
    for seed in (0, 42):
        assert (sample_momenta(1000, seed=seed, radius=radius)
                == _numpy_sample_momenta(1000, seed, radius))


def test_a_negative_seed_raises_before_any_draw():
    for n in (1, 4, 40):
        with pytest.raises(ValueError):
            sample_momenta(n, seed=-1)


def test_hamiltonian_values_at_rest():
    g0, _ = pd_gammas().get("g0").floats()
    h, _ = _at_rest(fw_hamiltonian(M).symbol)
    assert np.allclose(h, g0)
    h, _ = _at_rest(dirac_hamiltonian(M).symbol)
    assert np.allclose(h, g0)


def test_hamiltonians_hermitian_with_light_cone_spectrum():
    points = SAMPLES[:25]
    hd = dirac_hamiltonian(M).symbol(signed_batch(points)).a[0]
    for q, h in zip(points, hd):
        assert np.allclose(h, h.conj().T, atol=TOL)
        w = float(np.sqrt(np.dot(q, q) + M * M))
        assert np.allclose(np.sort(np.linalg.eigvalsh(h)),
                           [-w, -w, w, w], atol=1e-10)


def test_negative_mass_rejected():
    with pytest.raises(ValueError):
        fw_hamiltonian(-1.0)
    with pytest.raises(ValueError):
        dirac_hamiltonian(-0.5)


def test_transform_requires_positive_mass():
    with pytest.raises(ValueError):
        fw_transform(0.0)
    with pytest.raises(ValueError):
        pd_spin(0.0)
    with pytest.raises(ValueError):
        tilde_gammas(0.0)


def test_transform_is_identity_at_rest():
    vp = fw_transform(M, +1)
    a, b = _at_rest(vp)
    assert np.allclose(a, np.eye(4)) and not b.any()


def test_transforms_are_mutually_inverse():
    vp, vm = _transforms(Q)
    assert (vp @ vm - IDENT(Q)).norm() < TOL
    assert (vm @ vp - IDENT(Q)).norm() < TOL


def test_hamiltonian_conjugation_identity():
    vp, vm = _transforms(Q)
    lhs = vp @ fw_hamiltonian(M).symbol(Q) @ vm
    assert (lhs - dirac_hamiltonian(M).symbol(Q)).norm() < TOL


def test_nonlocal_spin_at_rest_is_constant_spin():
    for s, s0 in zip(pd_spin(M), spin_triple()):
        a, _ = _at_rest(s)
        assert np.allclose(a, _const(s0)(Q).a[0, 0], atol=TOL)


def test_nonlocal_spin_commutes_with_local_hamiltonian():
    q = signed_batch(sample_momenta(200, seed=9, radius=10.0))
    hd = dirac_hamiltonian(M).symbol(q)
    for s in pd_spin(M):
        assert commutator(s(q), hd).norm() < TOL


def test_nonlocal_spin_equals_conjugated_spin():
    vp, vm = _transforms(Q)
    for s, s0 in zip(pd_spin(M), spin_triple()):
        conj = vp @ _const(s0)(Q) @ vm
        assert (s(Q) - conj).norm() < TOL


def test_tilde_vector_at_rest():
    tgs = dict(tilde_gammas(M))
    g4, _ = pd_gammas().get("g4").floats()
    a, _ = _at_rest(tgs["tg4"])
    assert np.allclose(a, g4, atol=TOL)


def test_tilde_set_satisfies_minus_two_delta():
    tilde = tilde_values(M, signed_batch(SAMPLES[:12]))
    values = [tilde[f"tg{k}"] for k in range(1, 8)]
    for a in range(7):
        for b in range(a, 7):
            ac = anticommutator(values[a], values[b])
            target = -2.0 * np.eye(4) if a == b else 0.0
            assert float(np.max(np.abs(ac.a[0] - target))) < TOL
            assert float(np.max(np.abs(ac.b[0]))) < TOL


def test_tilde_operators_match_conjugation():
    q = signed_batch(SAMPLES[:40])
    vp, vm = _transforms(q)
    ext = extended_gammas()
    fundamentals = {f"tg{k}": _const(ext.get(f"g{k}")) for k in range(1, 8)}
    fundamentals["tg0"] = _const(pd_gammas().get("g0"))
    fundamentals["tC"] = _const(GeneralOp.conjugation())
    values = tilde_values(M, q)
    assert set(values) == set(fundamentals)
    for lbl, value in values.items():
        conj = vp @ fundamentals[lbl](q) @ vm
        assert (value - conj).norm() < TOL, lbl


def test_tilde_values_evaluate_each_closed_form_once(monkeypatch):
    # the six closed forms (tg1..tg4, tg0, tC) call omega once each, and
    # their values are bit for bit the symbols' own; tg5, tg6 and tg7
    # compose them
    q = signed_batch(SAMPLES[:40])
    calls = []

    def counted(q, mass):
        calls.append(mass)
        return omega(q, mass)

    monkeypatch.setattr(symbols, "omega", counted)
    values = tilde_values(M, q)
    assert len(calls) == 6
    monkeypatch.undo()
    syms = tilde_gammas(M)
    assert len(syms) == 6 and len(values) == 9
    for lbl, sym in syms:
        assert all(np.array_equal(x, y)
                   for x, y in zip(_parts(values[lbl]), _parts(sym(q)))), lbl


def test_tilde_operators_are_formed_once_per_process(monkeypatch):
    # the 22 exact products of the closed forms do not depend on the mass:
    # after the first call no call forms one, at any mass
    q = signed_batch(SAMPLES[:4])
    first = tilde_values(M, q)
    products = []
    matmul = GeneralOp.__matmul__

    def counted(x, y):
        products.append((x, y))
        return matmul(x, y)

    monkeypatch.setattr(GeneralOp, "__matmul__", counted)
    again = tilde_values(M, q)
    tilde_values(2.5, q)
    assert products == []
    for lbl, value in first.items():
        assert all(np.array_equal(x, y)
                   for x, y in zip(_parts(value), _parts(again[lbl]))), lbl
    monkeypatch.undo()
    symbols._tilde_operators.cache_clear()
    monkeypatch.setattr(GeneralOp, "__matmul__", counted)
    tilde_gammas(M)
    assert len(products) == 22


def test_conjugation_preserves_anticommutators():
    q = signed_batch(SAMPLES[:10])
    vp, vm = _transforms(q)
    ext = extended_gammas()
    pairs = [("g1", "g2"), ("g5", "g6"), ("g4", "g7"), ("g5", "g5")]
    for la, lb in pairs:
        xa = vp @ _const(ext.get(la))(q) @ vm
        xb = vp @ _const(ext.get(lb))(q) @ vm
        ac = anticommutator(xa, xb)
        target = -2.0 * np.eye(4) if la == lb else 0.0
        assert float(np.max(np.abs(ac.a[0] - target))) < TOL
        assert float(np.max(np.abs(ac.b[0]))) < TOL


def _random_matrices(rng, scale, shape=()):
    shape = shape + (4, 4)
    return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


def test_flip_composition_is_associative():
    rng = np.random.default_rng(3)

    orts = ercd64().ops()  # they span every real-linear operator

    def random_symbol():
        # O(1) entries over the sample ball so triple products stay O(1);
        # both parts have even and odd pieces, so the flip matters
        c0 = 0.15 * rng.normal(size=len(orts))
        c1 = 0.015 * rng.normal(size=(3, len(orts)))

        def profiles(q):
            # q holds the batch components, each of shape (2, N, 1, 1)
            even = 1.0 + 0.01 * q[0] * q[0]
            return tuple(c0[t] * even + sum(q[k] * c1[k, t] for k in range(3))
                         for t in range(len(orts)))

        return MomentumSymbol(orts, profiles, "rand")

    q = signed_batch(SAMPLES[:15])
    for _ in range(6):
        x, y, z = random_symbol()(q), random_symbol()(q), random_symbol()(q)
        assert np.max(np.abs(x.b[1])) > 0.1  # odd B part
        # both halves of the batch
        for part in _parts((x @ y) @ z - x @ (y @ z)):
            assert np.max(np.abs(part)) < 1e-12


def test_constant_embedding_is_a_homomorphism():
    # the flip product of constant symbols against the exact GeneralOp
    # product, at both halves of the batch, on linear and antilinear ops
    ext = extended_gammas()
    ops = [op for _, op in ext] + [GeneralOp.conjugation(),
                                   GeneralOp.imaginary_unit()]
    q = signed_batch(SAMPLES[:10])
    for xa in ops:
        for xb in ops:
            diff = _const(xa)(q) @ _const(xb)(q) - _const(xa @ xb)(q)
            for part in _parts(diff):
                assert np.max(np.abs(part)) < TOL


def test_batch_matches_value_at_loop():
    # a signed batch evaluation, sliced, against one-point evaluations at
    # q (the +q half) and at -q (the -q half); a constant part keeps the
    # shape (1, 1, 4, 4) and broadcasts over the batch
    vp, vm = fw_transform(M, +1), fw_transform(M, -1)
    h = fw_hamiltonian(M).symbol
    evaluations = [sym for _, sym in tilde_gammas(M)] + [
        sym for _, g in build_poincare_generators(M)
        for sym in g.values()] + [lambda q: vp(q) @ h(q) @ vm(q)]
    points = SAMPLES[:6]
    q = signed_batch(points)
    for k, evaluation in enumerate(evaluations):
        batch = _parts(evaluation(q))
        for i, p in enumerate(points):
            for half, point in ((0, p), (1, tuple(-c for c in p))):
                one = _parts(evaluation(signed_batch(point)))
                for part in (0, 1):
                    assert batch[part].shape in ((1, 1, 4, 4),
                                                 (2, len(points), 4, 4))
                    full = np.broadcast_to(batch[part],
                                           (2, len(points), 4, 4))
                    assert np.max(np.abs(full[half, i] - one[part][0, 0])) \
                        < 1e-13, (k, i, half, part)


def test_omega_is_even():
    for q in SAMPLES[:20]:
        neg = tuple(-c for c in q)
        assert omega(q, M) == omega(neg, M)


def test_a32_elements_are_exact_symmetries():
    fw = fw_hamiltonian(M)
    for lbl, op in a32():
        assert check_equation_symmetry(op, fw) is True, lbl


def test_pgi_elements_are_massless_symmetries():
    massless = dirac_hamiltonian(0.0)
    for lbl, op in pgi8():
        assert check_equation_symmetry(op, massless), lbl


def test_space_generator_is_not_a_symmetry():
    fw = fw_hamiltonian(M)
    g1 = pd_gammas().get("g1")
    assert check_equation_symmetry(g1, fw) is False


def test_conjugation_is_not_a_symmetry_of_the_diagonalized_equation():
    # the antilinear branch: C commutes with the real g0 but must
    # anticommute with the even omega g0 term
    fw = fw_hamiltonian(1.0)
    assert check_equation_symmetry(GeneralOp.conjugation(), fw) is False


def test_chiral_elements_fail_with_mass():
    # the massless invariances that anticommute with the mass term drop out
    massive = dirac_hamiltonian(M)
    g4 = pd_gammas().get("g4")
    assert not check_equation_symmetry(g4, massive)


def test_momentum_symbol_symmetry_check_numeric_path():
    vp, vm = fw_transform(M, +1), fw_transform(M, -1)
    # conjugated constant symmetry stays a symmetry of the local equation
    hd = dirac_hamiltonian(M)
    g7 = _const(extended_gammas().get("g7"))
    q = signed_batch(SAMPLES[:25])
    composite = vp(q) @ g7(q) @ vm(q)  # V+ g7 V-
    assert commutator(composite, 1j * hd.symbol(q)).norm() < TOL


def test_exact_terms_and_symbol_state_the_same_hamiltonian():
    # the exact verdict on the terms against the flip-law commutator of the
    # constant with the symbol built from them, on every ort of ercd64 and
    # pgi8; a rejected ort leaves a residual far above the tolerance
    tol = DEFAULT_TOLERANCES["momentum"]
    q = signed_batch(SAMPLES[:25])
    orts = ercd64().ops() + pgi8().ops()
    verdicts = set()
    for eq in (fw_hamiltonian(1.0), dirac_hamiltonian(0.0),
               dirac_hamiltonian(1.0)):
        i_h = 1j * eq.symbol(q)
        for x in orts:
            exact = check_equation_symmetry(x, eq)
            residual = commutator(_const(x)(q), i_h).norm()
            assert exact == (residual < tol), (eq.symbol.label, x, residual)
            assert exact or residual > 1e-3
            verdicts.add(exact)
    assert verdicts == {True, False}


def _symmetry_by_parts(x, eq):
    """The rule on the parts: L commutes with every M_t, and the
    antilinear part N satisfies -sigma_t N M_t = M_t N."""
    lin, anti = parts(x)
    return all(lin @ m_t == m_t @ lin
               and (anti @ m_t).scaled(-sigma) == m_t @ anti
               for m_t, sigma, _ in eq.terms)


def test_the_twisted_commutation_agrees_with_the_parts_rule():
    # every ercd64 ort, and sums of a linear and an antilinear ort: I and
    # alpha_45 with C alpha_24 or C alpha_25 are symmetries of all three
    # Hamiltonians or of the massless one, alpha_05 + C alpha_01 of H_fw
    # only, and a sum with alpha_01 or with C of none
    orts = ercd64().ops()
    mixed = [orts[0] + orts[44], orts[16] - orts[60].scaled(2),
             orts[15] + orts[43], orts[5] + orts[33], orts[1] + orts[44],
             orts[0] + GeneralOp.conjugation()]
    assert all(not x.is_linear and not x.is_antilinear for x in mixed)
    for eq in (fw_hamiltonian(1.0), dirac_hamiltonian(0.0),
               dirac_hamiltonian(1.0)):
        for xs in (orts, mixed):
            verdicts = [check_equation_symmetry(x, eq) for x in xs]
            assert verdicts == [_symmetry_by_parts(x, eq) for x in xs]
            assert set(verdicts) == {True, False}, eq.symbol.label


# ---------------------------------------------------------------------------
# absent parts
# ---------------------------------------------------------------------------

def _values_with_every_absence(rng, n=3):
    """Random values over every pattern of absent parts, each present part
    either constant (1, 1, 4, 4) or batch (2, n, 4, 4) shaped."""
    shapes = (None, (1, 1), (2, n))
    return [SymbolValues(*(None if s is None else _random_matrices(rng, 1.0, s)
                           for s in (sa, sb)))
            for sa in shapes for sb in shapes]


def _dense_product(x, y):
    """The flip-law product formed on explicit zeros."""
    return (x.a @ y.a + x.b @ np.conj(y.b[::-1]),
            x.a @ y.b + x.b @ np.conj(y.a[::-1]))


def _assert_matches_dense(v, dense):
    """A present part equals the dense one bit for bit on both halves; an
    absent part is zero there (up to the sign of a zero)."""
    for part, ref in zip((v._a, v._b), dense):
        if part is None:
            assert not np.any(ref)
            continue
        shape = np.broadcast_shapes(part.shape, ref.shape)
        assert (np.broadcast_to(part, shape).tobytes()
                == np.broadcast_to(ref, shape).tobytes())


def test_sparse_algebra_matches_the_dense_formula():
    values = _values_with_every_absence(np.random.default_rng(13))
    for x in values:
        assert x.norm() == max(float(np.max(np.abs(x.a[0]))),
                               float(np.max(np.abs(x.b[0]))))
        _assert_matches_dense(-x, (-x.a, -x.b))
        _assert_matches_dense(1j * x, (1j * x.a, 1j * x.b))
        for y in values:
            _assert_matches_dense(x @ y, _dense_product(x, y))
            _assert_matches_dense(x + y, (x.a + y.a, x.b + y.b))
            _assert_matches_dense(x - y, (x.a - y.a, x.b - y.b))
            # a part is absent exactly when every term of it is
            ab = x @ y
            assert (ab._a is None) == ((x._a is None or y._a is None)
                                       and (x._b is None or y._b is None))
            assert (ab._b is None) == ((x._a is None or y._b is None)
                                       and (x._b is None or y._a is None))
            assert ((x + y)._a is None) == (x._a is None and y._a is None)


def test_absent_parts_read_as_constant_zeros():
    v = MomentumSymbol((pd_gammas().get("g1"),), lambda q: (q[0],))(Q)
    assert v._b is None
    assert v.b.shape == (1, 1, 4, 4) and not v.b.any()
    a, b = v.a, v.b
    assert a.shape == (2, len(SAMPLES), 4, 4) and not b.any()
    assert v.points(slice(5)).a.shape == (2, 5, 4, 4) and v.points(slice(5))._b is None
    assert SymbolValues(None, None).norm() == 0.0


def test_no_zero_part_by_construction_reaches_a_product(monkeypatch):
    # every symbol must hand out as absent each part that all of its exact
    # operators lack, with absent derivatives, and no part product may take
    # an all-zero constant factor
    from ercd import suites
    from ercd.reporting import SuiteConfig

    zero_by_construction = {}  # id(symbol) -> (symbol, [a zero, b zero])
    init = MomentumSymbol.__init__

    def tagging(sym, ops, profiles, label=""):
        init(sym, ops, profiles, label)
        halves = [parts(op) for op in sym.ops]
        zero_by_construction[id(sym)] = (
            sym, [all(p[k].is_zero for p in halves) for k in range(2)])

    monkeypatch.setattr(MomentumSymbol, "__init__", tagging)

    checked = []

    def check(sym, v, derivatives=()):
        """The structural zeros of a tagged symbol's values are absent, and
        so is the derivative of an absent or a constant part."""
        if id(sym) not in zero_by_construction:
            return
        zeros = zero_by_construction[id(sym)][1]
        for part, zero in zip((v._a, v._b), zeros):
            assert (part is None) == zero, sym.label
        for d in derivatives:
            for part, value in zip((d._a, d._b), (v._a, v._b)):
                if value is None or value.shape[:2] == (1, 1):
                    assert part is None, sym.label
        checked.append(sym.label)

    evaluate, jet = MomentumSymbol.__call__, MomentumSymbol.jet

    def evaluated(self, q):
        v = evaluate(self, q)
        check(self, v)
        return v

    def with_jet(self, q):
        v, ds = jet(self, q)
        check(self, v, ds)
        return v, ds

    monkeypatch.setattr(MomentumSymbol, "__call__", evaluated)
    monkeypatch.setattr(MomentumSymbol, "jet", with_jet)

    product = symbols._product
    formed = []

    def counted(x, y, flip=False, half=False):
        if x is not None and y is not None:
            for f in (x, y):
                assert f.shape[:2] != (1, 1) or f.any()
            formed.append(flip)
        return product(x, y, flip, half)

    monkeypatch.setattr(symbols, "_product", counted)
    ledger = suites.run_suite(SuiteConfig(suites=("fw", "poincare")))
    assert all(c.status == "pass" for c in ledger.claims)
    # the instruments saw the generators' constants and products
    assert "I" in checked and "s23" in checked and "tC" in checked
    assert formed


def test_the_momentum_suites_write_into_no_array_a_value_holds(monkeypatch):
    # every part a value receives is made read-only, so a write into any
    # of them raises; the report is the unwritten run's, byte for byte
    from ercd import suites
    from ercd.reporting import SuiteConfig

    config = SuiteConfig(suites=("fw", "poincare"))
    expected = suites.run_suite(config).to_json()
    init, frozen = SymbolValues.__init__, []

    def read_only(self, a, b, half=False):
        for p in (a, b):
            if p is not None:
                p.flags.writeable = False
                frozen.append(p)
        init(self, a, b, half)

    monkeypatch.setattr(SymbolValues, "__init__", read_only)
    assert suites.run_suite(config).to_json() == expected
    assert frozen


# ---------------------------------------------------------------------------
# scalar parts
# ---------------------------------------------------------------------------

def _values_with_every_scalar(rng, n=3):
    """Random values over every pattern of absent, matrix and scalar parts,
    each present part constant or batch shaped; a scalar part has the
    shape (1, 1, 1, 1) or (2, n, 1, 1)."""
    shapes = (None, (1, 1, 4, 4), (2, n, 4, 4), (1, 1, 1, 1), (2, n, 1, 1))

    def part(shape):
        if shape is None:
            return None
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    return [SymbolValues(part(sa), part(sb)) for sa in shapes for sb in shapes]


def _expanded(v):
    """v with every scalar part c written out as the matrix c eye(4)."""
    return SymbolValues(*(p if p is None or p.shape[-1] == 4
                          else p * np.eye(4) for p in (v._a, v._b)))


def _assert_close(v, ref):
    """Same absence, and every entry within 1e-14 of the reference's
    largest entry."""
    for part, expected in ((v._a, ref._a), (v._b, ref._b)):
        assert (part is None) == (expected is None)
    for got, expected in zip(_parts(v), _parts(ref)):
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert float(np.max(np.abs(got - expected))) <= 1e-14 * scale


def test_scalar_parts_match_their_expanded_matrices():
    values = _values_with_every_scalar(np.random.default_rng(20))
    assert any(v._a is not None and v._a.shape[-1] == 1 for v in values)
    for x in values:
        for y in values:
            # flip-law products with a scalar part on either side, and sums
            # and differences of mixed scalar and matrix parts
            _assert_close(x @ y, _expanded(x) @ _expanded(y))
            _assert_close(x + y, _expanded(x) + _expanded(y))
            _assert_close(x - y, _expanded(x) - _expanded(y))


def test_the_half_product_is_the_positive_half_of_the_product(
        monkeypatch, capsys):
    # every pairing of absent, scalar, constant and batch parts, linear and
    # antilinear, at one point, where a +q half has a constant's shape, and
    # at 200: the +q half of x @ y, bit for bit
    for n in (1, 200):
        values = _values_with_every_scalar(np.random.default_rng(22), n)
        for x in values:
            for y in values:
                full, half = x @ y, x.half_matmul(y)
                assert half.half and not full.half
                for got, ref in zip((half._a, half._b), (full._a, full._b)):
                    assert (got is None) == (ref is None)
                    assert got is None or (got.shape == ref[:1].shape and
                                           got.tobytes() == ref[:1].tobytes())
                # a +q half is never a factor, so never read as a constant
                for a, b in ((half, y), (x, half)):
                    for product in (a.__matmul__, a.half_matmul):
                        with pytest.raises(ValueError, match=r"\+q half"):
                            product(b)
    # a poincare run at one point, and with every half product formed as
    # the whole product's +q half: the same report, byte for byte
    from ercd.cli import main
    argv = ["verify", "--suite", "poincare", "--samples", "1",
            "--format", "json"]
    reports = []
    for reference in (False, True):
        if reference:
            monkeypatch.setattr(SymbolValues, "half_matmul",
                                lambda x, y: (x @ y).positive_half())
        assert main(argv) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["summary"]["overall"] == "pass"


def test_a_product_of_scalars_stays_scalar():
    q = signed_batch(SAMPLES[:5])
    s = _scalar(lambda q: q[0] + 1j * q[1], "s")(q)
    t = _scalar(lambda q: 2.0, "2")(q)
    assert s._a.shape == (2, 5, 1, 1) and t._a.shape == (1, 1, 1, 1)
    for v in (s @ s, s @ t, t @ s, s + t, s - t):
        assert v._a.shape[-2:] == (1, 1) and v._b is None
    assert (s @ t).a.shape == (2, 5, 4, 4)


def test_a_scalar_never_spills_off_the_diagonal():
    q = signed_batch(SAMPLES[:5])
    rng = np.random.default_rng(21)
    v = SymbolValues(_random_matrices(rng, 1.0, (2, 5)), None)
    s = _scalar(lambda q: q[0] + 1j * q[1], "s")(q)
    c = s._a
    ident = np.eye(4)
    assert np.array_equal((v + s).a, v.a + c * ident)
    assert np.array_equal((s + v).a, c * ident + v.a)
    assert np.array_equal((v - s).a, v.a - c * ident)
    off = ~np.eye(4, dtype=bool)
    for w in (v + s, s + v, v - s):
        assert np.array_equal(w.a[..., off], v.a[..., off])
    assert np.array_equal(s.a, c * ident)


def test_norm_first_negation_and_scaling_on_scalar_parts():
    q = signed_batch(SAMPLES[:5])
    s = _scalar(lambda q: q[0] - 2j * q[2], "s")(q)
    one = _scalar(lambda q: 1.0, "I")(q)
    dense = _expanded(s)
    assert s.norm() == dense.norm() == float(np.max(np.abs(s._a[0])))
    assert one.norm() == 1.0
    head = s.points(slice(2))
    assert head._a.shape == (2, 2, 1, 1)
    assert np.array_equal(head.a, dense.points(slice(2)).a)
    assert one.points(slice(2))._a.shape == (1, 1, 1, 1)
    for v, ref in ((-s, -dense), (3j * s, 3j * dense), (2.0 * one,
                                                        2.0 * _expanded(one))):
        assert v._a.shape[-1] == 1 and v._b is None
        assert np.array_equal(v.a, ref.a)


# ---------------------------------------------------------------------------
# GEMM products and in-place sums
# ---------------------------------------------------------------------------

def _per_point_product(x, y):
    """The flip-law product x @ y, one np.matmul per point and sign: the
    reference for the batched paths."""
    xa, xb, ya, yb = (np.broadcast_to(p, (2, 3, 4, 4))
                      for p in (x.a, x.b, y.a, y.b))
    a, b = (np.zeros((2, 3, 4, 4), dtype=complex) for _ in range(2))
    for s in range(2):
        for n in range(3):
            a[s, n] = (np.matmul(xa[s, n], ya[s, n])
                       + np.matmul(xb[s, n], np.conj(yb[1 - s, n])))
            b[s, n] = (np.matmul(xa[s, n], yb[s, n])
                       + np.matmul(xb[s, n], np.conj(ya[1 - s, n])))
    return a, b


def _constant_and_batch_values(rng):
    """Constant (1, 1, 4, 4) and batch (2, 3, 4, 4) values with linear or
    antilinear parts or both, complex or real-valued."""
    def values(shape):
        def part(real):
            return (rng.normal(size=shape) if real
                    else _random_matrices(rng, 1.0, shape[:2]))

        return [SymbolValues(*(part(real) if keep else None
                               for keep, real in zip(present, reals)))
                for reals in ((False, False), (True, False), (True, True))
                for present in ((True, True), (True, False), (False, True))]

    return values((1, 1, 4, 4)), values((2, 3, 4, 4))


def test_constant_factor_gemm_and_sums_match_per_point_products():
    # a constant on the left and on the right, through the flipped and the
    # plain terms, linear and antilinear parts, complex and real-valued
    constants, batches = _constant_and_batch_values(np.random.default_rng(22))
    for c in constants:
        for v in batches:
            for x, y in ((c, v), (v, c)):
                got = x @ y
                for part, expected in zip(_parts(got),
                                          _per_point_product(x, y)):
                    scale = max(1.0, float(np.max(np.abs(expected))))
                    assert (float(np.max(np.abs(part - expected)))
                            <= 1e-14 * scale)


def test_algebra_leaves_every_operand_unchanged():
    rng = np.random.default_rng(24)
    constants, batches = _constant_and_batch_values(rng)
    values = constants + batches + _values_with_every_scalar(rng)
    copies = [[None if p is None else p.copy() for p in (v._a, v._b)]
              for v in values]
    for x in values:
        -x, 1j * x, x.points(slice(2))
        for y in values:
            x @ y, x + y, x - y, commutator(x, y), anticommutator(x, y)
    for v, saved in zip(values, copies):
        for part, copy in zip((v._a, v._b), saved):
            assert (part is None) == (copy is None)
            assert part is None or part.tobytes() == copy.tobytes()


# ---------------------------------------------------------------------------
# one form: exact operators times scalar profiles
# ---------------------------------------------------------------------------

def test_part_kinds_come_from_the_exact_operators():
    n = len(SAMPLES)
    q0, q1 = Q[..., 0, None, None], Q[..., 1, None, None]
    one, g1 = GeneralOp.identity(), pd_gammas().get("g1")
    # I and the operator i give scalar parts
    for op, c in ((one, 1.0), (GeneralOp.imaginary_unit(), 1j)):
        v = MomentumSymbol((op,), lambda q: (q[0],))(Q)
        assert v._a.shape == (2, n, 1, 1) and v._b is None
        assert np.array_equal(v._a, c * q0)
    # C has an absent linear part
    v = MomentumSymbol((GeneralOp.conjugation(),), lambda q: (q[1],))(Q)
    assert v._a is None and v._b is not None
    # (I, g1) is dense, and I puts nothing off the diagonal
    v = MomentumSymbol((one, g1), lambda q: (q[0], q[1]))(Q)
    assert v._a.shape == (2, n, 4, 4) and v._b is None
    g1_part = MomentumSymbol((g1,), lambda q: (q[1],))(Q).a
    off = ~np.eye(4, dtype=bool)
    assert np.array_equal(v.a[..., off], g1_part[..., off])
    assert np.array_equal(np.diagonal(v.a, axis1=-2, axis2=-1),
                          np.broadcast_to(q0[..., 0], (2, n, 4)))
    assert not np.diagonal(g1_part, axis1=-2, axis2=-1).any()
    # number profiles give constant shapes, with absent derivatives
    for op, shape in ((one, (1, 1, 1, 1)), (g1, (1, 1, 4, 4))):
        v, ds = MomentumSymbol((op,), lambda q: (2.0,)).jet(Q)
        assert v._a.shape == shape and v._b is None
        assert all(d._a is None and d._b is None for d in ds)
    # a number beside a profile that depends on q: batch shaped, and only
    # the q-dependent term is differentiated
    v, ds = MomentumSymbol((g1, one), lambda q: (q[1], 2.0)).jet(Q)
    assert v._a.shape == (2, n, 4, 4)
    g1_image = MomentumSymbol((g1,), lambda q: (1.0,))(Q).a
    assert np.array_equal(ds[1].a, np.broadcast_to(g1_image, (2, n, 4, 4)))
    assert not ds[0].a.any() and not ds[2].a.any()


def _bump_g0_image(monkeypatch):
    """One entry of g0's float image bumped by 1e-6 at the seam."""
    g0, image = pd_gammas().get("g0"), symbols.float_image

    def bumped(op):
        a, b = image(op)
        if op == g0:
            a = a.copy()
            a[0, 1] += 1e-6
        return a, b

    monkeypatch.setattr(symbols, "float_image", bumped)


def test_float_images_are_read_at_one_seam(monkeypatch):
    # a bump of g0's image at the seam alone fails exactly the sampled claims
    # that read g0 (a bumped GeneralOp.floats fails the same ones), and no
    # exact claim moves
    from ercd import suites
    from ercd.reporting import SUITE_NAMES, SuiteConfig

    config = SuiteConfig(suites=SUITE_NAMES)
    before = {c.claim_id: c.status for c in suites.run_suite(config).claims}
    _bump_g0_image(monkeypatch)
    after = {c.claim_id: c.status for c in suites.run_suite(config).claims}
    assert after.keys() == before.keys()
    changed = sorted(k for k in before if after[k] != before[k])
    assert changed == ["fw.conjugation-identity", "fw.local-hamiltonian",
                       "fw.nonlocal-generators", "fw.nonlocal-rotations",
                       "fw.nonlocal-spin", "fw.wave-operator",
                       "poincare.casimirs", "poincare.generator-algebra"]
    assert all(before[k] == "pass" and after[k] == "fail" for k in changed)


def _casimirs(mass):
    from ercd import suites
    from ercd.reporting import SuiteConfig

    config = SuiteConfig(suites=("poincare",), mass=mass)
    return {c.claim_id: c for c in suites.run_suite(config).claims
            }["poincare.casimirs"], config.tolerance("momentum")


def test_casimirs_are_judged_at_the_mass_squared_scale(monkeypatch):
    # the entries of p.p are of size w^2 <= 25 + m^2, so their rounding
    # exceeds the absolute tolerance from m = 100 on; against tol max(1,
    # m^2) the claim passes with the measured residual, and the bump of
    # g0's image still fails it
    for mass in (100.0, 1000.0, 1e5):
        claim, tol = _casimirs(mass)
        assert claim.status == "pass" and claim.tolerance == tol * mass ** 2
        assert claim.residual > tol, mass
    _bump_g0_image(monkeypatch)
    assert _casimirs(1000.0)[0].status == "fail"
