import pytest

from ercd.algebras import (OrtSet, a32, bosonic_rep, breve_spin,
                           breve_spin_from_compositions, cd16, ercd64,
                           extended_gammas, pd_gammas, pgi8,
                           pgi_lorentz6, percd29, so15_generators, so6,
                           so8_generators)
from ercd.operators import GeneralOp, compose
from ercd.scalars import ExactScalar, HALF, I_UNIT, ZERO
from ercd.spans import OrthogonalBasis, span_rank
from exact_oracles import views


def test_gamma4_explicit_form():
    g4 = pd_gammas().get("g4")
    mi = -I_UNIT
    z = ZERO
    expected = GeneralOp(((z, z, mi, z), (z, z, z, mi),
                          (mi, z, z, z), (z, mi, z, z)), None)
    assert g4 == expected


def test_gamma_squares():
    g = pd_gammas()
    ident = GeneralOp.identity()
    assert g.get("g0") @ g.get("g0") == ident
    assert g.get("g2") @ g.get("g2") == -ident
    assert g.get("g4") @ g.get("g4") == -ident


def test_g5_is_antilinear_with_rotation_blocks():
    g5 = extended_gammas().get("g5")
    assert g5.is_antilinear
    # g1 g3 = diag(i sigma2, i sigma2), real rotation blocks
    expected = ((0, 1, 0, 0), (-1, 0, 0, 0),
                (0, 0, 0, 1), (0, 0, -1, 0))
    assert views(g5)[1] == expected


def test_seven_generator_product_is_identity():
    ext = extended_gammas()
    prod = compose(*(ext.get(f"g{k}") for k in range(1, 8)))
    assert prod == GeneralOp.identity()
    assert ext.get("g7") @ ext.get("g7") == -GeneralOp.identity()


def test_counts():
    assert len(cd16()) == 16
    assert len(ercd64()) == 64
    assert len(percd29()) == 29
    assert len(so6()) == 16
    assert len(a32()) == 32
    assert len(pgi8()) == 8


def test_fifth_slot_generators_are_half_gammas():
    table = so15_generators()
    g = pd_gammas()
    assert table[(0, 5)] == g.get("g0").scaled(HALF)
    assert cd16().get("alpha_05") == g.get("g0")


def test_ercd_span_is_full():
    assert span_rank(ercd64().ops()) == 64


def test_pgi_sextet_values():
    sextet = pgi_lorentz6()
    i_op = GeneralOp.imaginary_unit()
    assert sextet[(1, 2)] == i_op.scaled(ExactScalar.rational(-1, 2))
    g4 = pd_gammas().get("g4")
    assert sextet[(0, 3)] == (i_op @ g4).scaled(ExactScalar.rational(-1, 2))
    c = GeneralOp.conjugation()
    g2c = pd_gammas().get("g2") @ c
    assert sextet[(0, 1)] == (i_op @ g2c).scaled(HALF)
    assert sextet[(0, 2)] == g2c.scaled(ExactScalar.rational(-1, 2))


def test_labels_are_unique():
    basis = ercd64()
    assert len(set(basis.labels())) == 64
    with pytest.raises(ValueError):
        OrtSet("bad", (("x", GeneralOp.identity()),
                       ("x", GeneralOp.zero())))


def test_duplicate_constructor_calls_are_deterministic():
    assert cd16() is cd16()  # cached
    a = ercd64()
    b = ercd64()
    assert a.labels() == b.labels()


def test_bosonic_rep_identities():
    breve, w, w_inv = bosonic_rep()
    ident = GeneralOp.identity()
    assert w @ w_inv == ident and w_inv @ w == ident
    ig0 = extended_gammas().get("g7")
    assert compose(w, ig0, w_inv) == ig0  # the Hamiltonian matrix is fixed
    assert breve.get("bg7") == ig0
    # conjugating the operator i gives the block form diag(i s3, -i s1)
    bi = compose(w, GeneralOp.imaginary_unit(), w_inv)
    assert bi == breve.get("bi")
    i = I_UNIT
    z = ZERO
    expected_bi = GeneralOp(((i, z, z, z), (z, -i, z, z),
                             (z, z, z, -i), (z, z, -i, z)), None)
    assert bi == expected_bi


def test_breve_spin_third_component_and_compositions():
    spin = breve_spin()
    s3 = spin.get("s3")
    i = I_UNIT
    z = ZERO
    expected = GeneralOp(((-i, z, z, z), (z, i, z, z),
                          (z, z, z, z), (z, z, z, z)), None)
    assert s3 == expected
    assert breve_spin_from_compositions() == spin.ops()


def test_so6_is_nested_in_percd_and_ercd():
    assert OrthogonalBasis(percd29().ops()).contains(so6().ops())
    assert OrthogonalBasis(ercd64().ops()).contains(percd29().ops())
    # and not the other way round
    assert not OrthogonalBasis(so6().ops()).contains(percd29().ops())


def test_a32_membership():
    basis = a32()
    ig0 = extended_gammas().get("g7")
    assert basis.get("ig0") == ig0
    assert basis.get("ig0.alpha_12") == ig0 @ so6().get("alpha_12")


def test_eighth_slot_of_so8_generators():
    table = so8_generators()
    ext = extended_gammas()
    for a in range(1, 8):
        assert table[(a, 8)] == ext.get(f"g{a}").scaled(HALF)
