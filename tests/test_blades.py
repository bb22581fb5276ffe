"""The Clifford blade codes of algebras against the exact matrices.

The sign rule of BLADE_SIGNS is checked on all 64 x 64 ordered products of
the blades of g1..g6 built here by @, and every signed blade must come back
from blade_codes with its own code. A generator set that breaks a Clifford
relation gives no codes, so the tables fall back to the matrix rows.
"""

import pytest

from ercd import algebras
from ercd.algebras import (BLADE_SIGNS, OrtSet, blade_codes, cd16,
                           extended_gammas, pd_gammas, pgi8)
from ercd.operators import GeneralOp, compose
from ercd.relations import commutator_table, multiplication_table
from ercd.spans import structure_constants


def _blades():
    """e_S = prod_{k in S} g_k in increasing k, by @; bit k-1 for g_k."""
    gens = extended_gammas().ops()[:6]
    return [compose(GeneralOp.identity(),
                    *(g for k, g in enumerate(gens) if mask >> k & 1))
            for mask in range(64)]


def test_the_sign_rule_gives_every_blade_product():
    blades = _blades()
    for s, es in enumerate(blades):
        for t, et in enumerate(blades):
            expected = es @ et
            got = blades[s ^ t]
            assert (got if BLADE_SIGNS[s, t] > 0 else -got) == expected, (s, t)


def test_every_signed_blade_round_trips():
    blades = _blades()
    assert blade_codes(blades) == [(1, m) for m in range(64)]
    assert blade_codes([-b for b in blades]) == [(-1, m) for m in range(64)]
    for mask, b in enumerate(blades):
        assert blade_codes([b]) == [(1, mask)]
        assert blade_codes([-b]) == [(-1, mask)]


@pytest.mark.parametrize("ops", [
    lambda b: [b[3], b[5], -b[3]],              # a repeated mask
    lambda b: [b[3], b[5].scaled(2)],           # not a blade
    lambda b: [b[3], GeneralOp.zero()],         # the zero operator
    lambda b: [b[3], b[5] + b[6]],              # a sum of blades
], ids=["repeated-mask", "doubled", "zero", "sum"])
def test_a_set_that_is_not_distinct_blades_has_no_codes(ops):
    assert blade_codes(ops(_blades())) is None


def _tables(ortset):
    gens = [op for lbl, op in ortset if lbl != "I"]
    return (multiplication_table(ortset), commutator_table(ortset),
            structure_constants(gens))


@pytest.fixture
def fresh_blades():
    """Clears the process-wide blade cache before and after the test."""
    algebras._signed_blades.cache_clear()
    yield
    algebras._signed_blades.cache_clear()


def test_broken_clifford_relations_give_no_codes(fresh_blades, monkeypatch):
    sets = (cd16(), pgi8())
    gens = extended_gammas()
    # g2 -> g1 breaks {g1, g2} = 0
    broken = OrtSet("broken", tuple(
        (lbl, gens.get("g1") if lbl == "g2" else op) for lbl, op in gens))
    monkeypatch.setattr(algebras, "extended_gammas", lambda: broken)
    for ortset in sets:
        assert blade_codes(ortset.ops()) is None
    # the tables fall back to the matrix rows and agree with the codes
    fallback = [_tables(s) for s in sets]
    monkeypatch.undo()
    algebras._signed_blades.cache_clear()
    assert all(blade_codes(s.ops()) is not None for s in sets)
    assert fallback == [_tables(s) for s in sets]


def test_the_code_path_raises_the_matrix_path_message():
    # pd_gammas are distinct blades whose commutators leave their span;
    # doubled, they are no blades and take the matrix path
    gens = pd_gammas().ops()
    assert blade_codes(gens) is not None
    assert blade_codes([g.scaled(2) for g in gens]) is None
    with pytest.raises(ValueError) as blade:
        structure_constants(gens)
    with pytest.raises(ValueError) as matrix:
        structure_constants([g.scaled(2) for g in gens])
    assert str(blade.value) == str(matrix.value)
    assert str(blade.value) == ("commutator of generators 0,1 lies outside "
                                "the span")
