import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ercd import algebras, operators, suites
from ercd.algebras import (a32, bosonic_rep, bosonic_so8_generators,
                           breve_spin, cd16, ercd64, extended_gammas,
                           pd_gammas, percd29, pgi8, pgi_lorentz6, so6,
                           so8_generators, so15_generators)
from ercd.operators import (GeneralOp, anticommutator, commutator, compose,
                            gram)
from ercd.reporting import SuiteConfig
from ercd.scalars import HALF, ExactScalar, I_UNIT, INV_SQRT2, ZERO
from ercd.spans import (centralizer_dimension, centralizer_kernel,
                        span_rank, spans_equal, structure_constants)
from exact_oracles import apply, conjugate, is_real, parts, realify, views


def _random_scalar(rng):
    return ExactScalar(Fraction(rng.randint(-2, 2)),
                       Fraction(rng.randint(-1, 1), 2),
                       Fraction(rng.randint(-2, 2)),
                       Fraction(rng.randint(-1, 1), 2))


def _random_matrix(rng):
    return tuple(tuple(_random_scalar(rng) for _ in range(4)) for _ in range(4))


def _random_op(rng):
    return GeneralOp(_random_matrix(rng), _random_matrix(rng))


def _random_spinor(rng):
    return tuple(_random_scalar(rng) for _ in range(4))


def _random_fraction(rng):
    # non-dyadic denominators exercise the gcd normalisation of d
    return Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5, 7, 9)))


def _random_nondyadic_op(rng):
    def grid():
        return tuple(tuple(ExactScalar(*(_random_fraction(rng) for _ in range(4)))
                           for _ in range(4)) for _ in range(4))
    return GeneralOp(grid(), grid())


def _exact_operators():
    """The 76 exact operators: ercd64, the bosonic set, W and W^-1."""
    breve, w, w_inv = bosonic_rep()
    return ercd64().ops() + breve.ops() + [w, w_inv]


def _matmul(x, y):
    # plain product of tuple matrices over Q(i, sqrt2)
    n = len(x)
    return tuple(tuple(sum((x[i][k] * y[k][j] for k in range(n)
                            if x[i][k] and y[k][j]), ZERO)
                       for j in range(n)) for i in range(n))


def _identity(n):
    return tuple(tuple(ExactScalar(int(i == j)) for j in range(n))
                 for i in range(n))


def test_compose_examples():
    ext = extended_gammas()
    assert ext.get("g5") @ ext.get("g6") == GeneralOp.imaginary_unit()
    c = GeneralOp.conjugation()
    assert c @ c == GeneralOp.identity()
    g = pd_gammas()
    prod = compose(*(g.get(f"g{k}") for k in range(5)))
    assert prod == -GeneralOp.identity()


def test_scaling_rejects_complex_scalars():
    with pytest.raises(ValueError):
        pd_gammas().get("g1").scaled(I_UNIT)


def test_add_scale_examples():
    g = pd_gammas()
    g1 = g.get("g1")
    zero = g1 - g1
    assert zero.is_zero
    assert (g1 + GeneralOp.zero().scaled(0)) == g1
    # (1/2)(g1 g2) is the quarter-commutator generator
    half = (g.get("g1") @ g.get("g2")).scaled(ExactScalar.rational(1, 2))
    quarter = commutator(g.get("g1"), g.get("g2")).scaled(
        ExactScalar.rational(1, 4))
    assert half == quarter


def test_adjoint_examples():
    g = pd_gammas()
    assert g.get("g0").adjoint() == g.get("g0")
    assert g.get("g2").adjoint() == -g.get("g2")
    c = GeneralOp.conjugation()
    assert c.adjoint() == c


def test_adjoint_is_involutive_and_reverses_products():
    rng = random.Random(11)
    for _ in range(15):
        x, y = _random_op(rng), _random_op(rng)
        assert x.adjoint().adjoint() == x
        assert (x @ y).adjoint() == y.adjoint() @ x.adjoint()


def test_compose_is_associative_exactly():
    rng = random.Random(5)
    for _ in range(10):
        x, y, z = (_random_op(rng) for _ in range(3))
        assert (x @ y) @ z == x @ (y @ z)


def test_compose_agrees_with_action_on_spinors():
    rng = random.Random(7)
    for _ in range(15):
        x, y = _random_op(rng), _random_op(rng)
        phi = _random_spinor(rng)
        assert apply(x @ y, phi) == apply(x, apply(y, phi))


def test_commutator_and_anticommutator_examples():
    g = pd_gammas()
    assert anticommutator(g.get("g1"), g.get("g2")).is_zero
    g5 = extended_gammas().get("g5")
    assert anticommutator(g5, g5) == GeneralOp.identity().scaled(-2)
    rng = random.Random(3)
    x = _random_op(rng)
    assert commutator(GeneralOp.identity(), x).is_zero


def test_realify_identity_and_complex_structure():
    r = realify(GeneralOp.identity())
    assert r == _identity(8)
    ri = realify(GeneralOp.imaginary_unit())
    sq = _matmul(ri, ri)
    minus = tuple(tuple(-x for x in row) for row in _identity(8))
    assert sq == minus


def test_realify_is_multiplicative_via_action_oracle():
    # action-level oracle: both sides applied to random spinors agree,
    # and the realified matrices multiply accordingly
    rng = random.Random(13)
    for _ in range(100):
        x, y = _random_op(rng), _random_op(rng)
        assert realify(x @ y) == _matmul(realify(x), realify(y))


def test_realify_injective_on_basis():
    assert span_rank(ercd64().ops()) == 64


def test_realify_reproduces_the_action_on_the_real_model():
    # apply realify(X) to the split (real; imaginary) components of a
    # random spinor and compare with the split image of X
    from ercd.scalars import ExactScalar
    rng = random.Random(29)
    for _ in range(20):
        x = _random_op(rng)
        phi = _random_spinor(rng)
        image = apply(x, phi)
        real8 = [ExactScalar(c.a, c.b) for c in phi] \
            + [ExactScalar(c.c, c.d) for c in phi]
        r = realify(x)
        mapped = [sum((r[i][j] * real8[j] for j in range(8)),
                      ExactScalar(0)) for i in range(8)]
        expect = [ExactScalar(c.a, c.b) for c in image] \
            + [ExactScalar(c.c, c.d) for c in image]
        assert mapped == expect


def test_gram_is_the_trace_form_of_the_realifications():
    rng = random.Random(31)
    w = bosonic_rep()[1]  # sqrt2-valued
    xs = [_random_nondyadic_op(rng) for _ in range(3)] + [w]
    ys = [_random_op(rng), w, GeneralOp.zero()]
    rat, sur, den = gram(xs, ys)
    assert rat.shape == sur.shape == den.shape == (4, 3)
    for a, x in enumerate(xs):
        for b, y in enumerate(ys):
            rx, ry = realify(x), realify(y)
            trace = sum((rx[i][j] * ry[i][j] for i in range(8)
                         for j in range(8)), ZERO)
            d = den[a, b]
            assert trace == ExactScalar(Fraction(int(rat[a, b]), d),
                                        Fraction(int(sur[a, b]), d))


def test_span_rank_examples():
    ident = GeneralOp.identity()
    with pytest.raises(ValueError, match="operators 0 and 1 are not orthogonal"):
        span_rank([ident, ident])
    assert span_rank(a32().ops()) == 32
    assert span_rank(cd16().ops()) == 16


def test_centralizer_dimensions():
    assert centralizer_dimension(GeneralOp.identity()) == 64
    ig0 = extended_gammas().get("g7")
    assert centralizer_dimension(ig0) == 32
    assert centralizer_dimension(GeneralOp.imaginary_unit()) == 32


def test_centralizer_of_ig0_spans_a32():
    kernel = centralizer_kernel(extended_gammas().get("g7"))
    assert spans_equal(kernel, a32().ops())


def test_structure_constants_reject_dependent_sets():
    g1 = pd_gammas().get("g1")
    with pytest.raises(ValueError):
        structure_constants([g1, g1])


def test_every_basis_op_squares_to_plus_minus_identity():
    ident = GeneralOp.identity()
    for lbl, op in ercd64():
        sq = op @ op
        assert sq == ident or sq == -ident, lbl


# ---------------------------------------------------------------------------
# cross-checks of the integer model against the (A, B) views
# ---------------------------------------------------------------------------

def test_compose_agrees_with_action_on_exact_and_nondyadic_ops():
    # the spinor action (computed from the (A, B) views) is an oracle that
    # shares nothing with the integer product
    rng = random.Random(17)
    exact = _exact_operators()
    assert len(exact) == 76
    randoms = [_random_nondyadic_op(rng) for _ in range(6)]
    for x in exact + randoms:
        for y in rng.sample(exact, 3) + rng.sample(randoms, 1):
            phi = _random_spinor(rng)
            assert apply(x @ y, phi) == apply(x, apply(y, phi))
            assert apply(y @ x, phi) == apply(y, apply(x, phi))


def test_adjoint_matches_the_dagger_transpose_rule_on_views():
    rng = random.Random(19)
    for op in _exact_operators() + [_random_nondyadic_op(rng)
                                    for _ in range(10)]:
        (a, b), (adj_a, adj_b) = views(op), views(op.adjoint())
        assert adj_a == tuple(tuple(conjugate(a[j][i]) for j in range(4))
                              for i in range(4))
        assert adj_b == tuple(tuple(b[j][i] for j in range(4))
                              for i in range(4))


def test_views_round_trip_and_equal_ops_hash_equal():
    rng = random.Random(23)
    for op in _exact_operators() + [_random_nondyadic_op(rng)
                                    for _ in range(10)]:
        again = GeneralOp(*views(op))
        assert again == op and hash(again) == hash(op)
        # the same value reached through different denominators
        other = (op.scaled(ExactScalar(0, 1)) + op).scaled(HALF) \
            - op.scaled(ExactScalar(0, Fraction(1, 2)))
        assert other == op.scaled(HALF) and hash(other) == hash(op.scaled(HALF))
        assert op.scaled(Fraction(1, 3)).scaled(3) == op
        assert sum(parts(op), GeneralOp.zero()) == op


def _reference_image(m):
    """The per-entry float image of an exact 4x4 matrix, None when it is
    zero: the conversion that GeneralOp.floats replaced."""
    if not any(x for row in m for x in row):
        return None
    return np.array([[complex(float(x.a) + float(x.b) * math.sqrt(2),
                              float(x.c) + float(x.d) * math.sqrt(2))
                      for x in row] for row in m], dtype=complex)


def _assert_floats_match_the_views(op):
    for image, view in zip(op.floats(), views(op)):
        ref = _reference_image(view)
        assert (image is None) == (ref is None)
        if ref is not None:
            assert image.dtype == ref.dtype and image.shape == (4, 4)
            assert image.tobytes() == ref.tobytes()


def test_floats_match_the_views_on_every_algebra_operator():
    breve, w, w_inv = bosonic_rep()
    sets = (pd_gammas(), extended_gammas(), cd16(), ercd64(), percd29(),
            so6(), a32(), pgi8(), breve, breve_spin())
    families = (so15_generators(), so8_generators(),
                bosonic_so8_generators(), pgi_lorentz6())
    ops = ([op for s in sets for op in s.ops()]
           + [op for f in families for op in f.values()] + [w, w_inv])
    assert len(ops) == 269
    for op in ops:
        _assert_floats_match_the_views(op)


# an entry is None (zero) or (den, [a, b, c, d]): (a + b sqrt2 + i(c + d sqrt2))/den
_entries = st.one_of(st.none(), st.tuples(
    st.sampled_from((1, 2, 3, 5, 7, 9)),
    st.lists(st.integers(-4, 4), min_size=4, max_size=4)))
_grids = st.one_of(st.none(), st.lists(_entries, min_size=16, max_size=16))


def _matrix(grid):
    if grid is None:
        return None
    entries = [ZERO if e is None else ExactScalar(*(Fraction(x, e[0])
                                                    for x in e[1]))
               for e in grid]
    return tuple(tuple(entries[4 * i:4 * i + 4]) for i in range(4))


@given(_grids, _grids)
@settings(max_examples=60, deadline=None)
def test_floats_match_the_views_on_sqrt2_and_nondyadic_ops(a, b):
    _assert_floats_match_the_views(GeneralOp(_matrix(a), _matrix(b)))


def test_linear_and_antilinear_parts():
    g = pd_gammas()
    c = GeneralOp.conjugation()
    mixed = g.get("g1") + g.get("g2") @ c
    assert parts(mixed) == (g.get("g1"), g.get("g2") @ c)
    assert not mixed.is_linear and not mixed.is_antilinear
    assert g.get("g1").is_linear and (g.get("g1") @ c).is_antilinear


def test_huge_entries_raise_overflow_instead_of_wrapping():
    big = GeneralOp.linear([[2 ** 40, 0, 0, 0], [0, 1, 0, 0],
                            [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(OverflowError):
        big @ big
    with pytest.raises(OverflowError):
        big.scaled(2 ** 30)
    with pytest.raises(OverflowError):
        GeneralOp.linear([[2 ** 70, 0, 0, 0]] + [[0] * 4] * 3)
    with pytest.raises(OverflowError):
        gram([big], [big])


def test_long_products_of_small_ops_do_not_overflow():
    # entry bounds grow with each product; the guard must tighten them to
    # the true magnitudes instead of refusing a product that fits
    ops = ercd64().ops()
    prod = GeneralOp.identity()
    for k in range(200):
        prod = prod @ ops[(7 * k) % 64]
    ident = GeneralOp.identity()
    sq = prod @ prod
    assert sq == ident or sq == -ident
    rat, sur, den = gram([prod], [prod])
    assert Fraction(int(rat[0, 0]), den[0, 0]) == 8 and sur[0, 0] == 0


# ---------------------------------------------------------------------------
# the integer constructor and scaling against the per-entry references
# ---------------------------------------------------------------------------

def _reference_op(A=None, B=None):
    """The operator by the per-entry constructor: every entry coerced to an
    ExactScalar, its 128 rational parts over their lcm, the four blocks of
    R joined by np.block, then the normal form."""
    zero = [[0] * 4] * 4
    parts = [y for m in (A, B) for row in (zero if m is None else m)
             for x in map(ExactScalar.coerce, row)
             for y in (x.a, x.b, x.c, x.d)]
    d = math.lcm(*(y.denominator for y in parts))
    (ar, ai), (br, bi) = np.array(
        [y.numerator * (d // y.denominator) for y in parts],
        dtype=np.int64).reshape(2, 4, 4, 2, 2).transpose(0, 3, 4, 1, 2)
    op = operators._new(
        np.block([[ar + br, bi - ai], [ai + bi, ar - br]]), d, 0)
    if op._magnitude() > operators._LIMIT:
        raise OverflowError("operator entries exceed the int64 range")
    return op


def _reference_scaled(op, r):
    """op scaled by r through the coerced ExactScalar, both sqrt2 cross
    terms stacked whatever r is."""
    r = ExactScalar.coerce(r)
    if not is_real(r):
        raise ValueError("scalars are restricted to the reals")
    den = math.lcm(r.a.denominator, r.b.denominator)
    alpha = r.a.numerator * (den // r.a.denominator)
    beta = r.b.numerator * (den // r.b.denominator)
    bound = operators._checked(
        lambda b: b * (abs(alpha) + 2 * abs(beta)), op)
    p, q = op._pq
    pq = np.stack((alpha * p + 2 * beta * q, beta * p + alpha * q))
    return operators._new(pq, op._d * den, bound)


def _same_carrier(x, y):
    return x._pq.tobytes() == y._pq.tobytes() and x._d == y._d


def _table_calls(monkeypatch):
    """The arguments of every constructor and scaling call made while the
    generator tables are built anew and every suite runs: pd_gammas,
    extended_gammas, bosonic_rep with W and W^-1, breve_spin and the
    explicit forms the suites write out."""
    inits, scalings = [], []
    init, scaled = GeneralOp.__init__, GeneralOp.scaled

    def recorded_init(self, A=None, B=None):
        inits.append((A, B))
        init(self, A, B)

    def recorded_scaled(self, r):
        scalings.append((self, r))
        return scaled(self, r)

    monkeypatch.setattr(GeneralOp, "__init__", recorded_init)
    monkeypatch.setattr(GeneralOp, "scaled", recorded_scaled)
    for f in vars(algebras).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()
    pd_gammas(), extended_gammas(), bosonic_rep(), breve_spin()
    suites.run_suite(SuiteConfig(samples=4))
    monkeypatch.undo()
    return inits, scalings


def test_the_tables_build_and_scale_as_the_references_do(monkeypatch):
    inits, scalings = _table_calls(monkeypatch)
    assert len(inits) >= 40 and len(scalings) >= 100
    kinds = {type(x) for A, B in inits for m in (A, B) if m is not None
             for row in m for x in row}
    assert kinds == {int, ExactScalar}
    for A, B in inits:
        assert _same_carrier(GeneralOp(A, B), _reference_op(A, B))
    assert {type(r) for _, r in scalings} == {int, ExactScalar}
    assert any(r == INV_SQRT2 for _, r in scalings)
    for op, r in scalings:
        assert _same_carrier(op.scaled(r), _reference_scaled(op, r))


# rationals with denominators 2**k m, k <= 40: sums and lcms stay inside
# the int64 range, so both constructors succeed
_rationals = st.builds(Fraction, st.integers(-4, 4),
                       st.builds(lambda k, m: 2 ** k * m, st.integers(0, 40),
                                 st.sampled_from((1, 3, 5, 7))))
_field = st.one_of(st.integers(-3, 3), _rationals,
                   st.builds(ExactScalar, _rationals, _rationals, _rationals,
                             _rationals))
_field_matrices = st.one_of(st.none(), st.lists(
    st.lists(_field, min_size=4, max_size=4), min_size=4, max_size=4))
_reals = st.one_of(st.integers(-5, 5), _rationals,
                   st.builds(ExactScalar, _rationals, _rationals))


@given(_field_matrices, _field_matrices, _reals)
@settings(max_examples=150, deadline=None)
def test_entries_over_q_i_sqrt2_build_and_scale_as_the_references_do(A, B, r):
    op = GeneralOp(A, B)
    assert _same_carrier(op, _reference_op(A, B))
    assert op._bound == _reference_op(A, B)._magnitude()
    try:
        expected = _reference_scaled(op, r)
    except OverflowError:
        with pytest.raises(OverflowError):
            op.scaled(r)
    else:
        assert _same_carrier(op.scaled(r), expected)


def test_an_all_zero_input_builds_the_zero_operator():
    zeros = [[0] * 4] * 4
    for args in ((), (zeros,), (None, [[ZERO] * 4] * 4), (zeros, zeros),
                 ([[Fraction(0, 3)] * 4] * 4, None)):
        op = GeneralOp(*args)
        assert _same_carrier(op, _reference_op(*args))
        assert _same_carrier(op, GeneralOp.zero()) and op._bound == 0
    # parts that cancel in the carrier leave the zero operator too
    one = [[1, 0, 0, 0]] + [[0] * 4] * 3
    cancel = GeneralOp.linear(one).scaled(Fraction(1, 3)) - GeneralOp.linear(
        [[Fraction(1, 3), 0, 0, 0]] + [[0] * 4] * 3)
    assert _same_carrier(cancel, GeneralOp.zero())


def test_entries_beyond_the_limit_raise_the_references_overflow():
    limit = operators._LIMIT
    message = "operator entries exceed the int64 range"
    for first in (limit + 1, -limit - 1, ExactScalar(0, 0, 0, limit + 1)):
        rows = [[first, 0, 0, 0]] + [[0] * 4] * 3
        for args in ((rows, None), (None, rows)):
            with pytest.raises(OverflowError, match=message):
                _reference_op(*args)
            with pytest.raises(OverflowError, match=message):
                GeneralOp(*args)
    # the largest entry that fits is kept, as the reference keeps it
    rows = [[limit, 0, 0, 0]] + [[0] * 4] * 3
    assert _same_carrier(GeneralOp(rows), _reference_op(rows))


def test_a_matrix_that_is_not_4x4_is_refused():
    for m in ([[1] * 4] * 3, [[1] * 3] * 4, [[1] * 5] * 4):
        with pytest.raises(ValueError):
            GeneralOp.linear(m)
    with pytest.raises(TypeError):
        GeneralOp.linear([[1.0, 0, 0, 0]] + [[0] * 4] * 3)
    with pytest.raises(TypeError):
        pd_gammas().get("g1").scaled(0.5)


def test_the_unit_operators_are_formed_once_on_read_only_carriers():
    units = (GeneralOp.identity, GeneralOp.zero, GeneralOp.imaginary_unit,
             GeneralOp.conjugation)
    kron = (np.eye(8), np.zeros((8, 8)), np.kron([[0, -1], [1, 0]], np.eye(4)),
            np.kron([[1, 0], [0, -1]], np.eye(4)))
    for unit, p in zip(units, kron):
        op = unit()
        assert op is unit() and op._d == 1
        assert np.array_equal(op._pq, np.stack((p, 0 * p)))
        with pytest.raises(ValueError):
            op._pq[0, 0, 0] = 5
        with pytest.raises(ValueError):  # the adjoint's carrier is a view
            op.adjoint()._pq[0, 0, 0] = 5
    # arithmetic on a unit forms new, writable carriers
    two = GeneralOp.identity() + GeneralOp.identity()
    assert two._pq.flags.writeable and GeneralOp.identity()._pq[0, 0, 0] == 1


def test_linearity_is_decided_as_the_parts_decide_it():
    orts = ercd64().ops()
    linear = [x for x in orts if parts(x)[1].is_zero]
    antilinear = [x for x in orts if parts(x)[0].is_zero]
    assert len(linear) == len(antilinear) == 32
    ops = orts + [x + y for x in linear[:8] for y in antilinear]
    ops += [GeneralOp.zero(), GeneralOp.zero().scaled(3)]
    for op in ops:
        a, b = parts(op)
        assert op.is_linear == b.is_zero and op.is_antilinear == a.is_zero
