"""The Clifford blade codes of algebras against the exact matrices.

The sign rule of BLADE_SIGNS is checked on all 64 x 64 ordered products of
the blades of g1..g6 built here by @, and every signed blade must come back
from blade_codes with its own code. A generator set that breaks a Clifford
relation gives no codes: the tables then refuse every set, and the claims
that read codes fail without an exception.
"""

import pytest

from ercd import algebras, cli, suites
from ercd.algebras import (BLADE_SIGNS, OrtSet, blade_codes, cd16,
                           extended_gammas, pgi8)
from ercd.operators import GeneralOp, compose
from ercd.relations import commutator_table, multiplication_table
from ercd.reporting import SuiteConfig
from ercd.spans import structure_constants
from ercd.suites import run_suite


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


@pytest.fixture
def fresh_blades():
    """Clears the process-wide blade cache before and after the test."""
    algebras._signed_blades.cache_clear()
    yield
    algebras._signed_blades.cache_clear()


def _break_clifford(monkeypatch):
    """g2 -> g1 in the generators the blades are built from, which breaks
    {g1, g2} = 0."""
    gens = extended_gammas()
    broken = OrtSet("broken", tuple(
        (lbl, gens.get("g1") if lbl == "g2" else op) for lbl, op in gens))
    monkeypatch.setattr(algebras, "extended_gammas", lambda: broken)


def test_broken_clifford_relations_give_no_codes(fresh_blades, monkeypatch):
    sets = (cd16(), pgi8())
    _break_clifford(monkeypatch)
    for ortset in sets:
        assert blade_codes(ortset.ops()) is None
        for table in (multiplication_table, commutator_table):
            with pytest.raises(ValueError, match=f"^{ortset.name} is not a "
                               "set of distinct signed blades$"):
                table(ortset)
        with pytest.raises(ValueError, match="^generator set is not a set "
                           "of distinct signed blades$"):
            structure_constants([op for lbl, op in ortset if lbl != "I"])
    monkeypatch.undo()
    algebras._signed_blades.cache_clear()
    assert all(blade_codes(s.ops()) is not None for s in sets)


BLADE_CLAIMS = ("ercd.ort-properties", "percd.so8-table",
                "a32.maximal-invariance", "pgi.set-8")


def test_broken_blades_fail_the_blade_claims(fresh_blades, monkeypatch,
                                             capsys):
    # the clean run builds, and caches, every set the suites read
    config = SuiteConfig(suites=("ercd", "percd", "a32", "pgi"))
    clean = {c.claim_id: c.status for c in run_suite(config).claims}
    cd16()
    assert all(clean[claim] == "pass" for claim in BLADE_CLAIMS)
    algebras._signed_blades.cache_clear()
    _break_clifford(monkeypatch)
    claims = run_suite(config).claims
    broken = {c.claim_id: c.status for c in claims}
    assert {claim for claim, status in broken.items()
            if status != clean[claim]} == set(BLADE_CLAIMS)
    assert all(broken[claim] == "fail" for claim in BLADE_CLAIMS)
    # each blade claim names the failed blade check in its detail
    details = {c.claim_id: c.detail for c in claims}
    assert details["pgi.set-8"] == (
        "count=8, rank=8; pgi8 is not a set of distinct signed blades")
    assert details["percd.so8-table"] == (
        "percd29 is not a set of distinct signed blades")
    assert details["a32.maximal-invariance"] == (
        "count=32, rank=32; centralizer=32; centralizer span = basis span; "
        "a32 is not a set of distinct signed blades; "
        "all 32 exact invariances")
    assert cli.main(["verify", "--suite", "pgi"]) == 1
    capsys.readouterr()
    assert cli.main(["dump", "--set", "cd16", "--kind", "multiplication"]) == 2
    assert capsys.readouterr().err == (
        "ercd: error: cd16 is not a set of distinct signed blades\n")


def test_a32_names_a_span_mismatch(monkeypatch):
    config = SuiteConfig(suites=("a32",))
    (clean,) = run_suite(config).claims
    assert clean.status == "pass"
    assert "; centralizer span = basis span;" in clean.detail
    monkeypatch.setattr(suites, "spans_equal", lambda *spans: False)
    (claim,) = run_suite(config).claims
    assert claim.status == "fail"
    assert claim.detail == clean.detail.replace(
        "centralizer span = basis span", "centralizer span != basis span")
