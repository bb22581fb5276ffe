import numpy as np
import pytest

from ercd import relations
from ercd.algebras import (OrtSet, a32, blade_codes, bosonic_rep,
                           bosonic_so8_generators, breve_spin, cd16, ercd64,
                           extended_gammas, pd_gammas, pgi8, pgi_lorentz6,
                           percd29, rotation_family, so15_generators,
                           so8_generators)
from ercd.operators import GeneralOp, commutator
from ercd.relations import (SO13_METRIC, casimir_spin_squared,
                            check_anticommutation, check_rotation_table,
                            check_so15, check_so8, classify_hermiticity,
                            closure_check, commutator_table,
                            composition_closure_check, gamma_product_identities,
                            multiplication_table,
                            pgi_orientation_check, squares_and_pairing_check,
                            verify_explicit_forms)
from ercd.scalars import ExactScalar, HALF, ZERO
from ercd.spans import structure_constants
from ercd.suites import flip_anticommutation_residual, flip_rotation_residual
from ercd.symbols import (MomentumSymbol, SymbolValues, sample_momenta,
                          signed_batch)


def test_anticommutation_five_generators():
    rep = check_anticommutation(pd_gammas(), (1, -1, -1, -1, -1))
    assert rep.passed and rep.checks_total == 25


def test_anticommutation_seven_generators():
    rep = check_anticommutation(extended_gammas(), (-1,) * 7)
    assert rep.passed and rep.checks_total == 49


def test_anticommutation_negative_control():
    # identical generators cannot anticommute to zero off the diagonal
    g0 = pd_gammas().get("g0")
    rep = check_anticommutation([g0, g0], (1, -1))
    assert not rep.passed
    assert any("g0" in f or "g1" in f for f in rep.failures)


def test_anticommutation_metric_length_mismatch():
    with pytest.raises(ValueError):
        check_anticommutation(pd_gammas(), (1, -1))


def test_so15_full_table():
    rep = check_so15(so15_generators())
    assert rep.passed and rep.checks_total == 225


def test_so15_disjoint_indices_commute():
    table = so15_generators()
    assert commutator(table[(0, 1)], table[(2, 3)]).is_zero


def test_so15_specific_commutator():
    # [s12, s23] = -g22 s13 with the expected orientation: equals -s13
    table = so15_generators()
    lhs = commutator(table[(1, 2)], table[(2, 3)])
    assert lhs == -table[(1, 3)]


def test_so8_full_table_fundamental_and_bosonic():
    assert check_so8(so8_generators()).passed
    assert check_so8(bosonic_so8_generators()).passed


def test_so8_disjoint_pairs_commute():
    table = so8_generators()
    assert commutator(table[(1, 2)], table[(3, 4)]).is_zero


def test_bosonic_structure_constants_match_fundamental():
    # alpha_AB = 2 s^{AB} are blades, so the blade rule gives their
    # constants; the bosonic s^{AB}, no blades, satisfy the same ones
    # halved, [s_i, s_j] = sum_k (c^k_ij / 2) s_k, exactly
    fund = [op for lbl, op in percd29() if lbl != "I"]
    breve = [op for _, op in sorted(bosonic_so8_generators().items())]
    terms = {}
    for (i, j, k), c in structure_constants(fund).items():
        terms.setdefault((i, j), []).append(breve[k].scaled(c * HALF))
    for i, x in enumerate(breve):
        for j, y in enumerate(breve):
            assert commutator(x, y) == sum(terms.get((i, j), []),
                                           GeneralOp.zero())


def test_structure_constants_antisymmetric_in_first_two_slots():
    gens = [op for lbl, op in percd29() if lbl != "I"]
    table = structure_constants(gens)
    for (i, j, k), c in table.items():
        assert table.get((j, i, k), ZERO) == -c


def test_hermiticity_classification():
    herm, anti, neither = classify_hermiticity(ercd64())
    assert (len(herm), len(anti), len(neither)) == (36, 28, 0)
    h0, a0, n0 = classify_hermiticity(pd_gammas())
    assert "g0" in h0 and "g2" in a0 and not n0
    h5, a5, _ = classify_hermiticity(extended_gammas())
    assert "g5" in a5


def test_pgi_orientation_is_mirrored():
    rep = pgi_orientation_check()
    assert rep.passed
    direct = check_rotation_table(pgi_lorentz6(), SO13_METRIC)
    assert not direct.passed  # printed orientation fails the (+---) table
    negated = {k: -v for k, v in pgi_lorentz6().items()}
    assert check_rotation_table(negated, SO13_METRIC).passed


def test_pgi_orientation_check_fails_on_the_negated_sextet(monkeypatch):
    # with the sextet negated the printed orientation closes and the
    # mirrored one does not, so both failures fire
    negated = {k: -v for k, v in pgi_lorentz6().items()}
    monkeypatch.setattr(relations, "pgi_lorentz6", lambda: negated)
    rep = pgi_orientation_check()
    assert rep.failures == [
        "negated sextet fails the (+---) table",
        "direct and mirrored orientations cannot both close"]


def test_cd_sextet_passes_restricted_table():
    table = so15_generators()
    restricted = {(a, b): table[(a, b)]
                  for (a, b) in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))}
    assert check_rotation_table(restricted, SO13_METRIC).passed


def test_explicit_forms_report():
    rep = verify_explicit_forms()
    assert rep.checks_total == 16
    # exactly the two tabulated sign slips fail; everything else is exact
    assert len(rep.failures) == 2
    assert any("alpha_57" in f for f in rep.failures)
    assert any("alpha_67" in f for f in rep.failures)
    assert all("reversed product order" in f for f in rep.failures)
    # a column subset checks only its rows; the hint gets the flipped text
    extra = verify_explicit_forms((7, 8), " (gives {flipped})")
    assert extra.checks_total == 7
    assert extra.failures == ["alpha_57 != -i g2 g4 C (gives +i g2 g4 C)",
                              "alpha_67 != g2 g4 C (gives -g2 g4 C)"]
    fifth_sixth = verify_explicit_forms((5, 6), hint="")
    assert fifth_sixth.passed and fifth_sixth.checks_total == 9


def test_explicit_forms_passing_rows():
    table = so8_generators()
    g = pd_gammas()
    c = GeneralOp.conjugation()
    i_op = GeneralOp.imaginary_unit()
    from ercd.operators import compose
    assert table[(2, 5)].scaled(2) == -compose(g.get("g0"), g.get("g4"), c)
    assert table[(5, 6)].scaled(2) == i_op
    assert table[(4, 8)].scaled(2) == g.get("g4")
    assert table[(1, 5)].scaled(2) == -(g.get("g3") @ c)


def test_computed_seventh_index_forms():
    # the defining commutators fix the two disputed signs
    table = so8_generators()
    g = pd_gammas()
    c = GeneralOp.conjugation()
    i_op = GeneralOp.imaginary_unit()
    from ercd.operators import compose
    g24c = compose(g.get("g2"), g.get("g4"), c)
    assert table[(5, 7)].scaled(2) == i_op @ g24c
    assert table[(6, 7)].scaled(2) == -g24c


def test_gamma_products():
    assert gamma_product_identities() == {
        "g0 g1 g2 g3 g4 = -I": True, "g1..g7 product = I": True,
        "g5 g6 = i": True, "g7 = -(g1..g6 product)": True}


def test_rotation_family_is_the_quarter_commutator_formula():
    g, ext = pd_gammas(), extended_gammas()
    breve, _, _ = bosonic_rep()
    quarter = ExactScalar.rational(1, 4)
    families = [
        ([g.get(f"g{k}") for k in range(5)], 0, so15_generators()),
        ([ext.get(f"g{k}") for k in range(1, 8)], 1, so8_generators()),
        ([breve.get(f"bg{k}") for k in range(1, 8)], 1,
         bosonic_so8_generators()),
    ]
    for gens, base, table in families:
        n = len(gens)
        expected = {}
        for i in range(n):
            for j in range(i + 1, n):
                expected[(base + i, base + j)] = \
                    commutator(gens[i], gens[j]).scaled(quarter)
            expected[(base + i, base + n)] = gens[i].scaled(HALF)
        assert table == expected
        assert rotation_family([x.scaled(HALF) for x in gens], base) == expected


def test_rotation_rule_on_flip_arrays_agrees_with_the_exact_table():
    # constant symbols of the seven generators, evaluated once on a batch,
    # go through the same family constructor and rule as the exact table
    ext = extended_gammas()
    q = signed_batch(sample_momenta(3, seed=5))
    values = [MomentumSymbol((ext.get(f"g{k}"),), lambda q: (1.0,))(q)
              for k in range(1, 8)]
    assert check_so8(so8_generators()).passed
    assert flip_rotation_residual(values) <= 1e-15
    values[2] = values[2] + _bump(q, 0, (0, 1, 0, 1))
    assert flip_rotation_residual(values) > 1e-3


def test_anticommutation_rule_on_flip_arrays_agrees_with_the_exact_check():
    # the exact check and the fw check on evaluated arrays share one rule
    ext = extended_gammas()
    q = signed_batch(sample_momenta(3, seed=5))
    values = [MomentumSymbol((ext.get(f"g{k}"),), lambda q: (1.0,))(q)
              for k in range(1, 8)]
    assert check_anticommutation(ext, (-1,) * 7).passed
    assert flip_anticommutation_residual(values) <= 1e-15
    values[4] = values[4] + _bump(q, 1, (0, 2, 3, 0))  # antilinear part of g5
    assert flip_anticommutation_residual(values) > 1e-3


def _bump(q, part, entry):
    """Values on the batch q that are zero but for 1e-2 at entry (sign,
    point, row, column) of the linear (part 0) or antilinear part."""
    parts = np.zeros((2, 2, q.shape[1], 4, 4))
    parts[(part,) + entry] = 1e-2
    return SymbolValues(*parts)


def test_casimir_spin_squared():
    spin_sq = casimir_spin_squared(breve_spin())
    m2 = ExactScalar(-2)
    z = ZERO
    expected = GeneralOp(((m2, z, z, z), (z, m2, z, z),
                          (z, z, m2, z), (z, z, z, z)), None)
    assert spin_sq == expected


def test_casimir_of_constant_spin_half_triplet():
    # quarter-commutator triple: spin-1/2, sum of squares -3/4 I
    table = so15_generators()
    triple = [table[(2, 3)], -table[(1, 3)], table[(1, 2)]]
    value = casimir_spin_squared(triple)
    expected = GeneralOp.identity().scaled(ExactScalar.rational(-3, 4))
    assert value == expected


def test_casimir_zero_triplet():
    z = GeneralOp.zero()
    assert casimir_spin_squared([z, z, z]).is_zero


def test_casimir_requires_three_components():
    with pytest.raises(ValueError):
        casimir_spin_squared([GeneralOp.identity()])


def test_closure_positive_and_negative():
    assert closure_check(percd29()).passed
    assert closure_check(a32()).passed
    from ercd.algebras import OrtSet
    g = pd_gammas()
    pair = OrtSet("pair", (("g1", g.get("g1")), ("g2", g.get("g2"))))
    assert not closure_check(pair).passed


def test_squares_and_pairing_of_full_basis():
    assert squares_and_pairing_check(ercd64()).passed


def test_squares_and_pairing_failures():
    # x + y squares to 2I for anticommuting x, y, and neither commutes
    # nor anticommutes with x; 2I squares to 4I. Neither is a signed
    # blade, so the check reports that as its one failure and never raises
    x, y = ercd64().get("alpha_01"), ercd64().get("alpha_02")
    two = GeneralOp.identity().scaled(2)
    mixed = OrtSet("mixed", (("x", x), ("x+y", x + y), ("2I", two)))
    assert blade_codes(mixed.ops()) is None
    rep = squares_and_pairing_check(mixed)
    assert rep.checks_total == 6
    assert rep.failures == ["mixed is not a set of distinct signed blades"]


def test_composition_closure_of_small_sets():
    assert composition_closure_check(cd16()).passed
    assert composition_closure_check(pgi8()).passed


def test_multiplication_table_closes_on_units():
    rows = multiplication_table(cd16())
    assert len(rows) == 256
    assert all(r[3] != "outside-basis" for r in rows)
    assert all(r[2] in ("1", "-1", "i", "-i") for r in rows)


def test_commutator_table_antisymmetry_and_zero_diagonal():
    rows = {(r[0], r[1]): r[2] for r in commutator_table(cd16())}
    for lbl, _ in cd16():
        assert rows[(lbl, lbl)] == "0"
    assert rows[("alpha_01", "alpha_01")] == "0"


def test_match_maps_belong_to_their_ort_set():
    # a clean and a corrupted set, built and dropped in turn so that a new
    # set may take the id of the one before, each get their own answer:
    # the rows of the clean set, the ValueError of the corrupted one
    from ercd.suites import corrupted_pd_gammas
    clean = cd16().elements
    bad_g2 = corrupted_pd_gammas("g2", 0, 1).get("g2")
    variants = [clean, (("bad", bad_g2),) + clean[1:]]
    rows = multiplication_table(cd16())
    assert all(unit != "?" for _, _, unit, _ in rows)
    for k in range(8):
        probe = OrtSet("probe", variants[k % 2])
        if k % 2:
            with pytest.raises(ValueError, match="^probe is not a set of "
                               "distinct signed blades$"):
                multiplication_table(probe)
        else:
            assert multiplication_table(probe) == rows
        del probe
