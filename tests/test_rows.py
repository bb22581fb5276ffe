"""The row kernel of operators and the blade tables against per-pair
references.

The brackets' overflow guard is checked against that of @, and the stored
entry bounds as @ tightens them. structure_constants, closure_check, squares_and_pairing_check
and the two dump tables read blade codes; they are checked against
per-pair references kept here (one product or bracket per pair, with the
matrices). A set the codes do not name (halves of blades, a doubled ort,
op with -op, a zero operator, a sum of blades) is refused: the tables and
structure_constants raise one ValueError, and the three checks report it
as their one failure. check_rotation_table, which reads one integer row
per generator (operators.bracket_matches), and the signed index of the
contraction rule are checked against the per-pair metric-contraction rule
kept here, on every rotation family of the suites, on faulted tables and
near the int64 limit. The fw suite's flip-law residuals, which form the
whole table of products of evaluated symbols at once, are checked against
that index read pair by pair.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ercd import relations
from ercd.algebras import (OrtSet, a32, blade_codes, bosonic_so8_generators,
                           cd16, ercd64, extended_gammas, pd_gammas, percd29,
                           pgi8, pgi_lorentz6, rotation_family, so6,
                           so8_generators, so15_generators)
from ercd.operators import GeneralOp, anticommutator, commutator, gram
from ercd.relations import (COMPACT8, SO13_METRIC, SO15_METRIC,
                            check_rotation_table, closure_check,
                            commutator_table, composition_closure_check,
                            multiplication_table, squares_and_pairing_check)
from ercd.scalars import HALF, ExactScalar
from ercd.spans import structure_constants
from ercd import suites
from ercd.reporting import SuiteConfig
from ercd.suites import (FLIP_POINTS, corrupted_pd_gammas, dump_tables,
                         flip_anticommutation_residual, flip_rotation_residual)
from ercd.symbols import (MomentumSymbol, SymbolValues, sample_momenta,
                          signed_batch, tilde_values)
from exact_oracles import views

DUMPABLE = {"cd16": cd16, "ercd64": ercd64, "percd29": percd29, "so6": so6,
            "a32": a32, "pgi8": pgi8}

SETS = {
    "ercd64": lambda: ercd64().ops(),
    "a32": lambda: a32().ops(),
    "bosonic-so8": lambda: [op for _, op in
                            sorted(bosonic_so8_generators().items())],
}


def _same(x, op):
    """Equal in value, in the normal form (P, Q, d) and in hash, with a
    stored bound that bounds the entries."""
    assert x == op
    assert x._d == op._d
    assert x._pq.tobytes() == op._pq.tobytes()
    assert hash(x) == hash(op)
    assert x._bound >= int(np.abs(x._pq).max())


def _not_blades(name):
    return f"{name} is not a set of distinct signed blades"


def _scalar(rat, sur, den):
    return ExactScalar(Fraction(int(rat), den), Fraction(int(sur), den))


def _reference_coordinates(gens, op):
    """c_k = <R_k, op> / <R_k, R_k>, or None unless sum_k c_k R_k == op."""
    rat, sur, den = gram(gens, [op])
    coords, total = {}, GeneralOp.zero()
    for k, gk in enumerate(gens):
        if rat[k, 0] or sur[k, 0]:
            norm = _scalar(*(a[0, 0] for a in gram([gk], [gk])))
            coords[k] = _scalar(rat[k, 0], sur[k, 0], den[k, 0]) / norm
            total = total + gk.scaled(coords[k])
    return coords if total == op else None


def _reference_structure_constants(gens):
    table = {}
    for i, gi in enumerate(gens):
        for j, gj in enumerate(gens):
            if i != j:
                coords = _reference_coordinates(gens, gi @ gj - gj @ gi)
                assert coords is not None
                table.update({(i, j, k): c for k, c in coords.items()})
    return table


@pytest.mark.parametrize("name", sorted({**SETS, **DUMPABLE}))
def test_structure_constants_match_the_per_pair_reference(name):
    ops = SETS[name]() if name in SETS else DUMPABLE[name]().ops()
    gens = [op for op in ops if op != GeneralOp.identity()]
    if blade_codes(gens) is None:  # the bosonic so(8) family
        with pytest.raises(ValueError, match=_not_blades("generator set")):
            structure_constants(gens)
        return
    assert structure_constants(gens) == _reference_structure_constants(gens)


CLOSURE_SETS = {
    "ercd64": (ercd64, True),
    "a32": (a32, True),
    "bosonic-so8": (lambda: OrtSet("bosonic-so8", tuple(
        (f"s{a}{b}", op)
        for (a, b), op in sorted(bosonic_so8_generators().items()))), False),
    "pd-gammas": (pd_gammas, False),
    "ercd64-part": (lambda: OrtSet("part", ercd64().elements[5:17]), False),
}


def _reference_closure(ortset):
    """(checks_total, failures) of the Lie closure from one commutator
    and one span membership test per pair."""
    ops, labels = ortset.ops(), ortset.labels()
    return len(ops) * (len(ops) - 1) // 2, [
        f"[{labels[i]}, {labels[j]}] outside span"
        for i in range(len(ops)) for j in range(i + 1, len(ops))
        if _reference_coordinates(ops, commutator(ops[i], ops[j])) is None]


def _reference_pairing(ortset):
    """(checks_total, failures) of the squares and the pairing from one
    square against +-I and one commutator and anticommutator per pair."""
    items, ident = list(ortset), GeneralOp.identity()
    failures = [f"{lbl}^2 not +-I" for lbl, op in items
                if op @ op not in (ident, -ident)]
    failures += [f"{li},{lj} neither commute nor anticommute"
                 for i, (li, x) in enumerate(items) for lj, y in items[i + 1:]
                 if not (commutator(x, y).is_zero
                         or anticommutator(x, y).is_zero)]
    return len(items) * (len(items) + 1) // 2, failures


def _report(rep):
    return rep.checks_total, rep.failures


def _refused(reference, ortset):
    """The report of a check that refuses a set of no blade codes."""
    return reference[0], [_not_blades(ortset.name)]


@pytest.mark.parametrize("name", sorted(CLOSURE_SETS))
def test_closure_check_matches_the_per_pair_reference(name):
    build, closes = CLOSURE_SETS[name]
    ortset = build()
    expected = _reference_closure(ortset)
    if blade_codes(ortset.ops()) is None:  # the bosonic so(8) family
        assert not expected[1]
        expected = _refused(expected, ortset)
    rep = closure_check(ortset)
    assert _report(rep) == expected
    assert rep.passed == closes


@pytest.mark.parametrize("ortset", [s() for s in DUMPABLE.values()]
                         + [b() for b, _ in CLOSURE_SETS.values()],
                         ids=lambda s: s.name)
def test_closure_and_pairing_read_the_same_on_blades_as_on_rows(ortset):
    # the checks read blade codes; the references the per-pair products
    expected = [_reference_closure(ortset), _reference_pairing(ortset)]
    if blade_codes(ortset.ops()) is None:
        assert ortset.name == "bosonic-so8"
        expected = [_refused(e, ortset) for e in expected]
    assert [_report(closure_check(ortset)),
            _report(squares_and_pairing_check(ortset))] == expected


def _reference_tables(ortset):
    """The multiplication and commutator rows from one product, one
    commutator and lookups in a map of the unit multiples per pair; each
    ort enters 1, -1, i, -i in turn, and a later one wins."""
    units, i_op = {}, GeneralOp.imaginary_unit()
    for lbl, op in ortset:
        units.update({op: ("1", lbl), -op: ("-1", lbl),
                      i_op @ op: ("i", lbl), -(i_op @ op): ("-i", lbl)})
    mult, comm = [], []
    for li, x in ortset:
        for lj, y in ortset:
            hit = units.get(x @ y)
            mult.append((li, lj, *(hit or ("?", "outside-basis"))))
            c = commutator(x, y)
            hit = units.get(c)
            half = units.get(c.scaled(HALF))
            comm.append((li, lj, "0" if c.is_zero
                         else f"{hit[0]}*{hit[1]}" if hit
                         else f"2*{half[0]}*{half[1]}" if half else "mixed"))
    return mult, comm


# the six dumpable sets, all of them distinct signed blades, and pd_gammas,
# blades whose products leave the set
@pytest.mark.parametrize("ortset", [s() for s in DUMPABLE.values()]
                         + [pd_gammas()], ids=lambda s: s.name)
def test_dump_tables_match_the_per_pair_reference(ortset):
    assert blade_codes(ortset.ops()) is not None
    assert (multiplication_table(ortset),
            commutator_table(ortset)) == _reference_tables(ortset)


def _with(ortset, index, op, label):
    elements = list(ortset.elements)
    elements[index] = (label, op)
    return OrtSet(f"{ortset.name}-changed", tuple(elements))


def _mixed():
    # x + y squares to 2I and neither commutes nor anticommutes with x
    x, y = ercd64().get("alpha_01"), ercd64().get("alpha_02")
    return OrtSet("mixed", (("x", x), ("x+y", x + y),
                            ("2I", GeneralOp.identity().scaled(2))))


# sets the blade codes do not name
OFF_BLADE = {
    "so8-triple": lambda: OrtSet("triple", tuple(
        (f"s{a}{b}", so8_generators()[(a, b)])
        for a, b in ((1, 2), (1, 3), (2, 3)))),
    "ercd64-doubled": lambda: _with(ercd64(), 5, ercd64().ops()[5].scaled(2),
                                    "twice"),
    "cd16-plus-minus": lambda: _with(cd16(), 2, -cd16().ops()[1], "minus"),
    "cd16-zero": lambda: _with(cd16(), 3, GeneralOp.zero(), "zero"),
    "mixed": _mixed,
    "bosonic-so8": CLOSURE_SETS["bosonic-so8"][0],
}


@pytest.mark.parametrize("name", sorted(OFF_BLADE))
def test_a_set_off_the_blade_path_is_refused(name):
    ortset = OFF_BLADE[name]()
    assert blade_codes(ortset.ops()) is None
    for table in (multiplication_table, commutator_table):
        with pytest.raises(ValueError) as refused:
            table(ortset)
        assert str(refused.value) == _not_blades(ortset.name)
    with pytest.raises(ValueError) as refused:
        structure_constants([op for lbl, op in ortset if lbl != "I"])
    assert str(refused.value) == _not_blades("generator set")
    n = len(ortset)
    for check, total in ((closure_check, n * (n - 1) // 2),
                         (composition_closure_check, n * n),
                         (squares_and_pairing_check, n * (n + 1) // 2)):
        assert _report(check(ortset)) == (total, [_not_blades(ortset.name)])
    # the mixed set fails the squares and the pairing pair by pair too
    if name == "mixed":
        assert _reference_pairing(ortset)[1] == [
            "x+y^2 not +-I", "2I^2 not +-I",
            "x,x+y neither commute nor anticommute"]


def test_the_row_refuses_what_matmul_refuses():
    # 24 * b1 * b2 exceeds the int64 limit for two ops with entries 2**30
    ops = ercd64().ops()
    big = ops[9].scaled(2 ** 30)
    with pytest.raises(OverflowError):
        big @ big
    for bracket in (commutator, anticommutator):
        with pytest.raises(OverflowError):
            bracket(big, big)
        # against small orts the same brackets fit
        for y in ops[:3]:
            assert bracket(big, y) == bracket(ops[9], y).scaled(2 ** 30)


def test_a_bracket_beyond_the_limit_raises_instead_of_wrapping():
    # R = b (1 + sqrt2) J, J all ones: x @ x has entries 24 b^2, within the
    # limit, while {x, x} has 48 b^2, beyond it but below the int64 maximum
    b = 438_000_000
    x = GeneralOp([[ExactScalar(b, b)] * 4] * 4,
                  [[ExactScalar(0, 0, b, b)] * 4] * 4)
    assert (x._pq == b).all() and x._d == 1
    sq = x @ x
    assert (sq._pq[0] == 24 * b * b).all()
    with pytest.raises(OverflowError):
        anticommutator(x, x)


def test_a_zero_with_a_large_denominator_is_zero_over_one():
    # x = s12 / 2**40 has d = 2**41, and x @ x a denominator beyond int64;
    # [x, x] is zero, and its normal form is (0, 1)
    x = so8_generators()[(1, 2)].scaled(Fraction(1, 2 ** 40))
    assert (x @ x)._d > np.iinfo(np.int64).max
    _same(commutator(x, x), GeneralOp.zero())


def test_a_stale_bound_is_tightened_as_matmul_tightens_it():
    # each product multiplies the stored bound by 24; after 13 of them it
    # is far above the true magnitude 1, and a bracket of two such ops
    # passes only after the guard reads the exact magnitudes
    ops = ercd64().ops()
    stale = []
    for start in (3, 11):
        prod = GeneralOp.identity()
        for k in range(13):
            prod = prod @ ops[(start + 5 * k) % 64]
        stale.append(prod)
    x, y = stale
    assert 24 * x._bound * y._bound > np.iinfo(np.int64).max
    # the same operators built afresh carry their exact bounds
    fresh_x, fresh_y = (GeneralOp(*views(op)) for op in stale)
    assert fresh_x._bound == fresh_y._bound == 1
    assert commutator(x, y) == commutator(fresh_x, fresh_y)
    assert x._bound == 1 and y._bound == 1
    assert x @ y == fresh_x @ fresh_y
    assert anticommutator(x, x) == anticommutator(fresh_x, fresh_x)


@pytest.mark.parametrize("kind", ["multiplication", "commutator",
                                  "structure-constants"])
def test_ercd64_dumps_keep_a_flat_memory_peak(kind):
    # a row at a time; one stack of the whole 64 x 64 table is 4 MB alone
    ercd64()
    tracemalloc.start()
    try:
        dump_tables("ercd64", kind)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def _reference_rotation(table, metric, base=0):
    """(checks_total, failures, defects) of the per-pair rule: one
    commutator per pair of pairs, then the four metric-contraction terms
    s^{kl} of [s^{mn}, s^{rs}] + g^{ij} s^{kl}, i = j, with s^{aa} = 0 and
    s^{ba} = -s^{ab}."""
    def pair(a, b):
        return table[(a, b)] if (a, b) in table else -table[(b, a)]

    pairs = sorted(table)
    failures, defects = [], []
    for (m, n) in pairs:
        for (r, s) in pairs:
            defect = commutator(table[(m, n)], table[(r, s)])
            for i, j, k, l in ((m, r, n, s), (r, n, s, m),
                               (n, s, m, r), (s, m, r, n)):
                if i == j and k != l:
                    term = pair(k, l)
                    if metric[i - base] > 0:
                        defect = defect + term
                    else:
                        defect = defect - term
            defects.append(defect)
            if not defect.is_zero:
                failures.append(f"[s{m}{n}, s{r}{s}] mismatch")
    return len(pairs) ** 2, failures, defects


def rotation_defects(table, metric, base=0):
    """((m, n), (r, s), [s^{mn}, s^{rs}] - rhs) for every pair of pairs,
    rhs = signs[P, Q] s^{terms[P, Q]} from the signed index of
    relations._contraction, formed pair by pair with @, + and - only, so
    exact operators and evaluated symbols take it alike."""
    pairs = sorted(table)
    terms, signs = relations._contraction(tuple(pairs), metric, base)
    for p, pair in enumerate(pairs):
        for q, other in enumerate(pairs):
            defect = commutator(table[pair], table[other])
            if signs[p, q]:
                term = table[pairs[terms[p, q]]]
                defect = defect - term if signs[p, q] > 0 else defect + term
            yield pair, other, defect


def _so8_broken():
    table = dict(so8_generators())
    table[(3, 6)] = table[(3, 6)] + so8_generators()[(1, 2)].scaled(HALF)
    return table


# (table, metric, index base, number of failures)
ROTATION_TABLES = {
    "so15": (so15_generators, SO15_METRIC, 0, 0),
    "so8": (so8_generators, COMPACT8, 1, 0),
    "bosonic-so8": (bosonic_so8_generators, COMPACT8, 1, 0),
    "pgi-direct": (pgi_lorentz6, SO13_METRIC, 0, 24),
    "pgi-mirrored": (lambda: {pair: -op for pair, op
                              in pgi_lorentz6().items()}, SO13_METRIC, 0, 0),
    "so15-fault-g2": (lambda: so15_generators(
        corrupted_pd_gammas("g2", 0, 1)), SO15_METRIC, 0, None),
    "so8-broken": (_so8_broken, COMPACT8, 1, None),
}


@pytest.mark.parametrize("name", sorted(ROTATION_TABLES))
def test_rotation_rows_match_the_per_pair_rule(name):
    build, metric, base, failing = ROTATION_TABLES[name]
    table = build()
    total, failures, defects = _reference_rotation(table, metric, base)
    if failing is None:
        assert failures
    else:
        assert len(failures) == failing
    rep = check_rotation_table(table, metric, base)
    assert (rep.checks_total, rep.failures) == (total, failures)
    # the signed index, which the fw suite gathers over a table of
    # evaluated symbols, reads the same contraction rule pair by pair
    assert [d for _, _, d in rotation_defects(table, metric, base)] == defects


def _pair_by_pair_residuals(values):
    """The residuals of flip_rotation_residual and
    flip_anticommutation_residual, one flip-law product per pair: the
    so(8) defects of the rotation family and {g_a, g_b} + 2 delta_ab I."""
    table = rotation_family([0.5 * v for v in values], 1)
    rotation = max(d.norm() for _, _, d
                   in rotation_defects(table, COMPACT8, 1))
    unit = MomentumSymbol((GeneralOp.identity(),), lambda q: (2.0,))(
        signed_batch(()))
    anti = max((anticommutator(x, y) + unit if a == b
                else anticommutator(x, y)).norm()
               for a, x in enumerate(values) for b, y in enumerate(values))
    return rotation, anti


def _flip_residuals(values):
    return (flip_rotation_residual(values),
            flip_anticommutation_residual(values))


def _blocks_unlike_the_pair_products(values):
    """The blocks [:, P, :, Q] of the flip table, as (P, Q, part), that
    differ from the dense part of values[P].half_matmul(values[Q])."""
    (ta, tb), _ = suites._flip_table(values)
    unlike = []
    for p, x in enumerate(values):
        for q, y in enumerate(values):
            product = x.half_matmul(y)
            for name, table, part in (("a", ta, product.a),
                                      ("b", tb, product.b)):
                block = table[:, p, :, q]
                if not np.array_equal(block,
                                      np.broadcast_to(part[0], block.shape)):
                    unlike.append((p, q, name))
    return unlike


@pytest.mark.parametrize("mass", [1.0, 2.5, 1e-3, 1e3])
def test_flip_tables_equal_the_pair_by_pair_rule_on_the_nonlocal_generators(
        mass):
    # the fw suite reads 4 points of a 40-point batch
    q = signed_batch(sample_momenta(40, seed=42))
    tilde = tilde_values(mass, q)
    for points in (FLIP_POINTS, slice(40)):
        values = [tilde[f"tg{k}"].points(points) for k in range(1, 8)]
        residuals = _flip_residuals(values)
        assert residuals == _pair_by_pair_residuals(values)
        assert max(residuals) < 1e-12


def test_the_flip_tables_read_points_drawn_from_the_seed(monkeypatch):
    # q = 0 and an axis point, which every seed shares, and two points of
    # the seed's stream
    assert len(FLIP_POINTS) == 4 and sum(k >= 4 for k in FLIP_POINTS) >= 2
    seen = []

    def recorded(values):
        seen.append(values)
        return flip_rotation_residual(values)

    monkeypatch.setattr(suites, "flip_rotation_residual", recorded)
    for seed in (42, 7):
        assert suites.run_suite(SuiteConfig(suites=("fw",), seed=seed)).passed
        q = signed_batch(sample_momenta(40, seed=seed))
        expected = tilde_values(1.0, q[:, list(FLIP_POINTS)])
        for k, value in enumerate(seen[-1], 1):
            want = expected[f"tg{k}"]
            assert (np.array_equal(value.a, want.a)
                    and np.array_equal(value.b, want.b)), (seed, k)
    drawn = [k for k, p in enumerate(FLIP_POINTS) if p >= 4]
    fixed = [k for k, p in enumerate(FLIP_POINTS) if p < 4]
    a, b = (values[0].a for values in seen)
    assert np.array_equal(a[:, fixed], b[:, fixed])
    assert not np.any(np.all(a[:, drawn] == b[:, drawn], axis=(0, 2, 3)))


def test_flip_tables_equal_the_pair_by_pair_rule_on_mixed_shapes():
    # constant (1, 1, 4, 4) generators, a batch part beside a constant or
    # absent one, and a scalar c(q) I part
    ext = extended_gammas()
    q = signed_batch(sample_momenta(3, seed=5))
    gens = [MomentumSymbol((ext.get(f"g{k}"),), lambda q: (1.0,))(q)
            for k in range(1, 8)]
    assert _flip_residuals(gens) == _pair_by_pair_residuals(gens) == (0, 0)
    scalar = MomentumSymbol((GeneralOp.identity(),),
                            lambda q: (1e-2 * q[0],))(q)
    bump = np.zeros((2, q.shape[1], 4, 4))
    bump[0, 1, 2, 3] = 1e-2
    extras = (SymbolValues(bump, None), SymbolValues(None, bump),
              SymbolValues(0 * bump, bump), scalar)
    for k in range(7):
        for extra in extras:
            values = list(gens)
            values[k] = values[k] + extra
            residuals = _flip_residuals(values)
            assert residuals == _pair_by_pair_residuals(values)
            assert min(residuals) > 1e-3
            assert not _blocks_unlike_the_pair_products(values)


def test_a_rotation_table_beyond_the_limit_raises_instead_of_wrapping():
    # s^{AB} has d = 2 and entries +-1, so 2b s^{AB} has entries b and
    # d = 1, and one product of a bracket up to 24 b^2: within the limit
    # at b = 438_000_000, beyond it at 440_000_000
    def scaled(b):
        return {pair: s.scaled(2 * b) for pair, s in so8_generators().items()}

    fits = scaled(438_000_000)
    rep = check_rotation_table(fits, COMPACT8, 1)
    total, failures, _ = _reference_rotation(fits, COMPACT8, 1)
    assert failures and (rep.checks_total, rep.failures) == (total, failures)
    beyond = scaled(440_000_000)
    with pytest.raises(OverflowError):
        _reference_rotation(beyond, COMPACT8, 1)
    with pytest.raises(OverflowError):
        check_rotation_table(beyond, COMPACT8, 1)
    # numerators 2**20 in one entry and a denominator 2**21 in another lift
    # the first to 2**41 at the common denominator, and its bracket
    # products to 24 * 2**61: the rows refuse that, though each pair fits
    table = dict(so8_generators())
    table[(1, 2)] = table[(1, 2)].scaled(2 ** 21)
    table[(3, 4)] = table[(3, 4)].scaled(Fraction(1, 2 ** 20))
    assert _reference_rotation(table, COMPACT8, 1)[1]
    with pytest.raises(OverflowError):
        check_rotation_table(table, COMPACT8, 1)
