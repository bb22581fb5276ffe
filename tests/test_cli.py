import contextlib
import csv
import ctypes
import gc
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import time
import warnings
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import ercd.cli
import ercd.suites
from ercd.cli import main
from ercd.reporting import (CLAIM_REGISTRY, SUITE_NAMES, Claim, Ledger,
                            SuiteConfig)
from ercd.suites import DUMP_KINDS, dump_tables, run_suite
from ercd.symbols import MomentumSymbol


def test_run_suite_collects_expected_details():
    ledger = run_suite(SuiteConfig(suites=("ercd",)))
    assert ledger.passed
    text = ledger.to_text()
    assert "rank=64" in text
    assert "hermitian=36/antihermitian=28" in text


def test_run_suite_fw_residuals_within_tolerance():
    ledger = run_suite(SuiteConfig(suites=("fw",), mass=1.0))
    assert ledger.passed
    conj = next(c for c in ledger.claims
                if c.claim_id == "fw.conjugation-identity")
    assert conj.residual < 1e-12


def test_wave_operator_at_rest_is_compared_with_beta_m(monkeypatch):
    from ercd import symbols
    from ercd.algebras import OrtSet, pd_gammas
    from ercd.symbols import fw_hamiltonian, sample_momenta, signed_batch

    clean = _claims(SuiteConfig(suites=("fw",)))["fw.wave-operator"]
    assert clean.status == "pass" and clean.residual == 0.0
    # H = -g0 w(q) is Hermitian with spectrum (-w, -w, w, w), so only the
    # q = 0 half can tell it from g0 w(q), and only against a beta that is
    # not read from the same g0
    negated = OrtSet("negated-g0", tuple(
        (lbl, -op if lbl == "g0" else op) for lbl, op in pd_gammas()))
    for module in (symbols, ercd.suites):
        monkeypatch.setattr(module, "pd_gammas", lambda: negated)
    points = sample_momenta(40, seed=42, radius=10.0)
    assert ercd.suites._light_cone_residual(
        fw_hamiltonian(1.0).symbol(signed_batch(points)), points, 1.0) < 1e-12
    claim = _claims(SuiteConfig(suites=("fw",)))["fw.wave-operator"]
    assert claim.failed and claim.residual == 2.0


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(suites=("nope",)))


def test_full_run_covers_every_claim_once():
    ledger = run_suite(SuiteConfig(suites=("all",)))
    ledger.validate_coverage()
    ids = [c.claim_id for c in ledger.claims]
    assert sorted(ids) == sorted(CLAIM_REGISTRY)
    out_of_scope = [c for c in ledger.claims if c.status == "out-of-scope"]
    assert [c.claim_id for c in out_of_scope] == ["hilbert-space-setting"]
    # the only failing claim is the documented tabulated-sign row
    failing = [c.claim_id for c in ledger.claims if c.failed]
    assert failing == ["percd.explicit-forms-extra"]


def test_ledger_refuses_a_repeated_claim_id():
    ledger = Ledger(SuiteConfig())
    claim = Claim("pgi.set-8", CLAIM_REGISTRY["pgi.set-8"], "pass")
    ledger.add(claim)
    with pytest.raises(ValueError, match="duplicate claim id pgi.set-8"):
        ledger.add(claim)


def test_fault_injection_detected():
    config = SuiteConfig(suites=("cd",), inject_fault=("g2", 0, 1))
    ledger = run_suite(config)
    assert not ledger.passed
    failed = [c for c in ledger.claims if c.failed]
    assert any("anticommutation" in c.claim_id for c in failed)
    anti = next(c for c in failed if c.claim_id == "cd.anticommutation-5")
    assert "g2" in anti.detail  # violated pair identified
    # the fifth slot is built from the corrupted g2 and so differs from
    # half of the rebuilt block form
    orts = next(c for c in failed if c.claim_id == "cd.generating-orts")
    assert orts.detail == "s25"


def _claims(config):
    return {c.claim_id: c for c in run_suite(config).claims}


def test_quarter_commutators_detect_an_injected_fault():
    clean = _claims(SuiteConfig(suites=("cd",)))["cd.quarter-commutators"]
    assert clean.status == "pass" and clean.detail == ""
    # the table follows the corrupted g2; the rebuilt forms do not
    faulty = _claims(SuiteConfig(suites=("cd",), inject_fault=("g2", 0, 1)))
    quarter = faulty["cd.quarter-commutators"]
    assert quarter.failed and quarter.detail == "s12; s23; s24"


def test_basis_16_names_the_failing_slot():
    clean = _claims(SuiteConfig(suites=("cd",)))["cd.basis-16"]
    assert clean.status == "pass" and clean.detail == "count=16, rank=16"
    faulty = _claims(SuiteConfig(suites=("cd",), inject_fault=("g2", 0, 1)))
    basis = faulty["cd.basis-16"]
    assert basis.failed and basis.detail == "alpha_25 != g2"


def test_so6_quarter_commutators_read_the_independent_forms(monkeypatch):
    from ercd.algebras import OrtSet, extended_gammas, rotation_family
    from ercd.operators import GeneralOp
    from ercd.scalars import HALF

    clean = _claims(SuiteConfig(suites=("so6",)))["so6.quarter-commutators"]
    assert clean.status == "pass" and clean.detail == ""
    # an so6 table built from a corrupted g2
    bad_g2 = ercd.suites.corrupted_pd_gammas("g2", 0, 1).get("g2")
    gens = [bad_g2 if lbl == "g2" else op
            for lbl, op in extended_gammas()][:6]
    table = rotation_family([g.scaled(HALF) for g in gens], 1)
    bad = OrtSet("so6", (("I", GeneralOp.identity()),) + tuple(
        (f"alpha_{a}{b}", s.scaled(2)) for (a, b), s in sorted(table.items())
        if b < 7))
    monkeypatch.setattr(ercd.suites, "so6", lambda: bad)
    quarter = _claims(SuiteConfig(suites=("so6",)))["so6.quarter-commutators"]
    assert quarter.failed
    assert quarter.detail == "alpha_12; alpha_23; alpha_24; alpha_25; alpha_26"


def _replaced(ortset, ops):
    """ortset with the elements that ops maps by label replaced."""
    from ercd.algebras import OrtSet
    return OrtSet(ortset.name, tuple((lbl, ops.get(lbl, op))
                                     for lbl, op in ortset))


def test_seven_generators_read_the_written_forms(monkeypatch):
    from ercd.algebras import extended_gammas
    from ercd.operators import GeneralOp

    clean = _claims(SuiteConfig(suites=("percd",)))["percd.seven-generators"]
    assert clean.status == "pass"
    # g7 = i g0 built from a corrupted g0, which the suite also reads
    gammas = ercd.suites.corrupted_pd_gammas("g0", 0, 0)
    bad = _replaced(extended_gammas(), {
        "g7": GeneralOp.imaginary_unit() @ gammas.get("g0")})
    monkeypatch.setattr(ercd.suites, "pd_gammas", lambda: gammas)
    monkeypatch.setattr(ercd.suites, "extended_gammas", lambda: bad)
    claim = _claims(SuiteConfig(suites=("percd",)))["percd.seven-generators"]
    assert claim.failed
    assert claim.detail == "two antilinear generators as composed"


def test_lorentz_sextet_reads_the_written_forms(monkeypatch):
    from ercd.algebras import pgi_lorentz6
    from ercd.operators import GeneralOp
    from ercd.scalars import ExactScalar

    clean = _claims(SuiteConfig(suites=("pgi",)))["pgi.lorentz-sextet"]
    assert clean.status == "pass"
    # s03 = -(i/2) g4 built from a corrupted g4, which the suite also reads
    gammas = ercd.suites.corrupted_pd_gammas("g4", 0, 2)
    bad = dict(pgi_lorentz6())
    bad[(0, 3)] = (GeneralOp.imaginary_unit() @ gammas.get("g4")).scaled(
        ExactScalar.rational(-1, 2))
    monkeypatch.setattr(ercd.suites, "pd_gammas", lambda: gammas)
    monkeypatch.setattr(ercd.suites, "pgi_lorentz6", lambda: bad)
    claim = _claims(SuiteConfig(suites=("pgi",)))["pgi.lorentz-sextet"]
    assert claim.failed


def test_basis_64_reads_the_written_forms(monkeypatch):
    from ercd.algebras import ercd64

    clean = _claims(SuiteConfig(suites=("ercd",)))["ercd.basis-64"]
    assert clean.status == "pass" and clean.detail == "count=64"
    # alpha_01 negated and its i and C images with it: still
    # i.alpha_01 = i alpha_01 and C.alpha_01 = C alpha_01, but no longer
    # the written g0 g1 and its images
    basis = ercd64()
    bad = _replaced(basis, {lbl: -basis.get(lbl) for lbl in
                            ("alpha_01", "i.alpha_01", "C.alpha_01")})
    monkeypatch.setattr(ercd.suites, "ercd64", lambda: bad)
    claim = _claims(SuiteConfig(suites=("ercd",)))["ercd.basis-64"]
    assert claim.failed


def _failed_bosonic_claims():
    return sorted(k for k, c in _claims(SuiteConfig(suites=("bosonic",)))
                  .items() if c.status != "pass")


def test_a_bumped_basis_change_fails_the_bosonic_identities(monkeypatch):
    # one entry of W bumped: every W-conjugation identity and W W^-1 = I
    # fail; the so(8) table, rebuilt from the written generators, does not
    # read W
    from ercd.algebras import bosonic_rep
    from ercd.operators import GeneralOp

    assert _failed_bosonic_claims() == []
    breve, w, w_inv = bosonic_rep()
    bump = GeneralOp.linear([[0, 1, 0, 0], [0] * 4, [0] * 4, [0] * 4])
    monkeypatch.setattr(ercd.suites, "bosonic_rep",
                        lambda: (breve, w + bump, w_inv))
    assert _failed_bosonic_claims() == [
        "bosonic.basis-change", "bosonic.extras", "bosonic.generators"]


def test_a_bumped_rotation_generator_fails_only_the_bosonic_table(
        monkeypatch):
    from ercd.algebras import bosonic_so8_generators
    from ercd.operators import GeneralOp

    family = dict(bosonic_so8_generators())
    pair = min(family)
    family[pair] = family[pair] + GeneralOp.linear(
        [[0, 0, 1, 0], [0] * 4, [0] * 4, [0] * 4])
    monkeypatch.setattr(ercd.suites, "bosonic_so8_generators",
                        lambda: family)
    assert _failed_bosonic_claims() == ["bosonic.so8-table"]


def test_a_scaled_nonlocal_generator_fails_only_its_two_claims(monkeypatch):
    # 1.001 tg2 squares to -1.002001 I and keeps no compact table; the
    # basis change, the spins and the Hamiltonians do not read it
    values = ercd.suites.tilde_values

    def scaled(mass, q):
        tilde = values(mass, q)
        tilde["tg2"] = 1.001 * tilde["tg2"]
        return tilde

    monkeypatch.setattr(ercd.suites, "tilde_values", scaled)
    ledger = run_suite(SuiteConfig(suites=("fw",)))
    failed = {c.claim_id: c.residual for c in ledger.claims
              if c.status != "pass"}
    assert sorted(failed) == ["fw.nonlocal-generators",
                              "fw.nonlocal-rotations"]
    assert failed["fw.nonlocal-rotations"] > 1e-4
    assert failed["fw.nonlocal-generators"] > 1e-3


def test_json_reports_are_byte_identical(tmp_path):
    config = SuiteConfig(suites=("cd",), fmt="json")
    a = run_suite(config).to_json()
    b = run_suite(config).to_json()
    assert a == b
    payload = json.loads(a)
    assert payload["schema_version"] == 1
    assert "runtime_s" not in payload["claims"][0]


def test_json_timings_opt_in():
    config = SuiteConfig(suites=("cd",), fmt="json", timings=True)
    payload = json.loads(run_suite(config).to_json())
    assert "runtime_s" in payload["claims"][0]
    # the runtimes are the only addition to the canonical report
    for claim in payload["claims"]:
        del claim["runtime_s"]
    canonical = run_suite(SuiteConfig(suites=("cd",), fmt="json")).to_json()
    assert payload == json.loads(canonical)


def test_the_ledger_charges_setup_to_the_next_claim(monkeypatch):
    build = ercd.suites.so15_generators

    def slow(*args):
        time.sleep(0.05)
        return build(*args)

    monkeypatch.setattr(ercd.suites, "so15_generators", slow)
    start = time.perf_counter()
    ledger = run_suite(SuiteConfig(suites=("cd",)))
    wall = time.perf_counter() - start
    # the table is built after cd.anticommutation-5 is recorded
    runtime = {c.claim_id: c.runtime_s for c in ledger.claims}
    assert runtime["cd.basis-16"] >= 0.05
    assert sum(runtime.values()) <= wall


def test_a_repeated_suite_runs_once(capsys):
    rc, payload, claims = _json_run(capsys, "--suite", "cd", "--suite", "pgi",
                                    "--suite", "cd")
    assert rc == 0 and payload["config"]["suites"] == ["cd", "pgi"]
    assert [k.split(".")[0] for k in claims] == ["cd"] * 9 + ["pgi"] * 3


def test_csv_render_shape():
    config = SuiteConfig(suites=("pgi",), fmt="csv")
    rows = list(csv.reader(io.StringIO(run_suite(config).to_csv())))
    assert rows[0] == ["claim_id", "anchor", "status", "residual", "detail"]
    assert len(rows) == 4  # header + three claims


def test_text_ledger_prints_exact_only_for_zero_tolerance_claims():
    ledger = Ledger(SuiteConfig(suites=("fw",)))
    ledger.add(Claim("fw.wave-operator", CLAIM_REGISTRY["fw.wave-operator"],
                     "pass", 0.0, tolerance=1e-12))
    ledger.add(Claim("fw.negative-control",
                     CLAIM_REGISTRY["fw.negative-control"], "pass", 0.0))
    sampled, exact = ledger.to_text().splitlines()[:2]
    assert "residual=0.00e+00" in sampled
    assert "residual=exact" in exact
    # the tolerance stays out of the canonical body
    assert all("tolerance" not in c for c in ledger.to_dict()["claims"])


# ---------------------------------------------------------------------------
# zero mass
# ---------------------------------------------------------------------------

def test_a32_suite_runs_at_the_configured_mass(monkeypatch):
    real = ercd.suites.fw_hamiltonian
    seen = []
    monkeypatch.setattr(ercd.suites, "fw_hamiltonian",
                        lambda m: seen.append(m) or real(m))
    ledger = run_suite(SuiteConfig(suites=("a32",), mass=0.0))
    assert ledger.passed
    assert seen == [0.0]


def _json_run(capsys, *argv):
    rc = main(["verify", *argv, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    return rc, payload, {c["id"]: c for c in payload["claims"]}


def test_fw_at_zero_mass_marks_the_nonlocal_claims_out_of_scope(capsys):
    rc, payload, claims = _json_run(capsys, "--suite", "fw", "--mass", "0")
    assert rc == 0 and payload["config"]["mass"] == 0.0
    skipped = [k for k, c in claims.items() if c["status"] == "out-of-scope"]
    assert skipped == ["fw.transform-inverse", "fw.conjugation-identity",
                       "fw.nonlocal-spin", "fw.nonlocal-rotations",
                       "fw.nonlocal-generators"]
    assert all("m > 0" in claims[k]["detail"] for k in skipped)
    assert all(c["status"] == "pass" for k, c in claims.items()
               if k not in skipped)


def test_poincare_at_zero_mass_runs_at_zero_mass(capsys):
    rc, payload, claims = _json_run(capsys, "--suite", "poincare",
                                    "--mass", "0")
    assert rc == 0 and payload["config"]["mass"] == 0.0
    algebra = claims.pop("poincare.generator-algebra")
    assert algebra["status"] == "out-of-scope" and "m > 0" in algebra["detail"]
    assert all(c["status"] == "pass" for c in claims.values())
    # p.p = -m^2 = 0, not the -1 of a silently substituted m = 1
    assert "0.000000 (q-independent)" in claims["poincare.casimirs"]["detail"]
    # each sampled claim names the points it used
    assert claims["poincare.canonical-pairs"]["detail"] == "200 points"
    assert "on 200 points" in claims["poincare.casimirs"]["detail"]


def test_poincare_uses_samples_as_given(capsys):
    rc, payload, claims = _json_run(capsys, "--suite", "poincare",
                                    "--samples", "3")
    assert rc == 0 and payload["config"]["samples"] == 3
    assert all(c["status"] == "pass" for c in claims.values())
    sampled = ("poincare.canonical-pairs", "poincare.generator-algebra",
               "poincare.casimirs")
    for k in sampled:
        assert "3 points" in claims[k]["detail"], k
        assert claims[k]["detail"].count("points") == 1, k


def test_fw_evaluates_the_basis_change_once_per_sign(monkeypatch):
    build = ercd.suites.fw_transform
    batches = []

    def counted(mass, sign=+1):
        symbol = build(mass, sign)
        profiles = symbol.profiles
        symbol.profiles = (lambda q: batches.append(q[0].shape[1])
                           or profiles(q))
        return symbol

    monkeypatch.setattr(ercd.suites, "fw_transform", counted)
    assert run_suite(SuiteConfig(suites=("fw",))).passed
    # the 40-point conjugation check reads the first 40 of the 200 values
    assert batches == [200, 200]


def test_fw_evaluates_each_symbol_on_one_batch(monkeypatch):
    # the Hamiltonians once on the 200-point batch, whose point 0 is q = 0,
    # and the six closed forms of tilde_gammas once on its first 40 points,
    # of which the flip-law checks read the first 4
    call = MomentumSymbol.__call__
    batches = {}

    def counted(symbol, q):
        batches.setdefault(symbol.label, []).append(q.shape[1])
        return call(symbol, q)

    monkeypatch.setattr(MomentumSymbol, "__call__", counted)
    assert run_suite(SuiteConfig(suites=("fw",))).passed
    assert batches["H_fw"] == batches["H_d"] == [200]
    for label in ("tg1", "tg2", "tg3", "tg4", "tg0", "tC"):
        assert batches[label] == [40], label


@pytest.mark.parametrize("suite, claim", [
    ("fw", "fw.nonlocal-spin"), ("poincare", "poincare.generator-algebra")])
def test_a_non_finite_residual_fails(suite, claim):
    # m^2 underflows at m = 1e-200, so w(0) = 0 and the nonlocal spins and
    # the boost coefficients are NaN at q = 0: the residual reads inf,
    # where max() would have passed over a NaN (the command line refuses
    # this mass, the library runs it)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ledger = run_suite(SuiteConfig(suites=(suite,), mass=1e-200))
    claims = {c.claim_id: c for c in ledger.claims}
    assert not ledger.passed
    assert claims[claim].status == "fail"
    assert claims[claim].residual == float("inf")


def test_sampled_claims_name_the_points_they_used(capsys):
    # --samples 1 is echoed and used: fw's batch is q = 0 alone, and the
    # checks that read its first 40 or its flip points read that one point
    rc, payload, claims = _json_run(capsys, "--suite", "fw", "--samples", "1")
    assert rc == 0 and payload["config"]["samples"] == 1
    details = {k: c["detail"] for k, c in claims.items()}
    assert details["fw.wave-operator"] == "1 points and q = 0"
    assert details["fw.local-hamiltonian"] == "1 points"
    for k in ("fw.transform-inverse", "fw.conjugation-identity",
              "fw.nonlocal-spin"):
        assert details[k] == "1 points"
    one = "1 points (q = 0)"
    assert details["fw.nonlocal-rotations"] == one
    assert details["fw.nonlocal-generators"].endswith(
        f"anticommutators on {one}, conjugation on 1 points")


@pytest.mark.parametrize("mass", ["0", "1e-3", "1", "1e3"])
def test_fw_reads_at_most_the_echoed_samples(mass, capsys):
    # the batch holds exactly --samples points, and the first-40 and
    # flip-point checks read those of their points that it holds
    flips = {1: "1 points (q = 0)", 2: "2 points (q = 0 and an axis point)",
             5: "3 points (q = 0, an axis point and the first seeded point)",
             6: "4 points (q = 0, an axis point and the first two seeded "
                "points)"}
    for n in (1, 2, 5, 6, 7):
        rc, payload, claims = _json_run(capsys, "--suite", "fw", "--mass",
                                        mass, "--samples", str(n))
        assert rc == 0 and payload["config"]["samples"] == n, n
        for c in claims.values():
            counts = [int(k) for k in re.findall(r"(\d+) points", c["detail"])]
            assert all(k <= n for k in counts), (n, c["id"], c["detail"])
        if mass == "0":
            continue
        assert claims["fw.transform-inverse"]["detail"] == f"{n} points"
        assert claims["fw.nonlocal-rotations"]["detail"] == flips[min(n, 6)]


def test_product_claims_read_the_named_identities(monkeypatch):
    real = ercd.suites.gamma_product_identities

    def one_broken():
        holds = real()
        holds["g5 g6 = i"] = False
        return holds

    monkeypatch.setattr(ercd.suites, "gamma_product_identities", one_broken)
    ledger = run_suite(SuiteConfig(suites=("percd",)))
    status = {c.claim_id: c.status for c in ledger.claims}
    assert status["percd.five-product"] == "pass"
    assert status["percd.seven-product"] == "fail"
    extra = next(c for c in ledger.claims
                 if c.claim_id == "percd.explicit-forms-extra")
    assert extra.detail == (
        "alpha_57 != -i g2 g4 C (defining commutator gives +i g2 g4 C); "
        "alpha_67 != g2 g4 C (defining commutator gives -g2 g4 C)")


# ---------------------------------------------------------------------------
# command line entry
# ---------------------------------------------------------------------------

def test_cli_pass_suite(capsys):
    assert main(["verify", "--suite", "cd"]) == 0
    out = capsys.readouterr().out
    assert "cd.so15-table" in out


def test_cli_bare_flags_mean_verify(capsys):
    assert main(["--suite", "cd"]) == 0


def test_cli_failure_exit_code():
    # the percd suite carries the two documented tabulated-sign failures
    assert main(["verify", "--suite", "percd"]) == 1


def test_cli_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_cli_bad_tolerance_exits_2(capsys):
    assert main(["verify", "--suite", "cd", "--tol", "nonsense"]) == 2
    capsys.readouterr()
    assert main(["verify", "--suite", "cd", "--tol", "speed=1"]) == 2
    assert capsys.readouterr().err == (
        "ercd: error: --tol key must be momentum, symmetry or closure, "
        "got 'speed'\n")


_BAD_NUMBER_FLAGS = [
    ["--samples", "0"],
    ["--samples", "-5"],
    ["--tol", "momentum=nan"],
    ["--tol", "momentum=inf"],
    ["--tol", "closure=-1"],
    ["--tol", "symmetry=0"],
    ["--mass", "nan"],
    ["--mass", "inf"],
    ["--mass", "-1"],
    ["--mass", "1e160"],
    ["--mass", "1.3e154"],
    ["--seed", "-1"],
    ["--tol", "momentum=abc"],
    ["--tol", "nonsense"],
    ["--tol", "speed=1"],
    ["--inject-fault", "g2,0,x"],
    ["--inject-fault", "g9,0,0"],
    ["--inject-fault", "g2,0,4"],
    ["--inject-fault", "g2,0"],
    ["--mass", "1e-155"],
    ["--mass", "1e-200"],
]


@pytest.mark.parametrize("flags", _BAD_NUMBER_FLAGS)
def test_cli_bad_numbers_exit_2_before_any_suite(flags, capsys, monkeypatch):
    import ercd.cli
    ran = []
    monkeypatch.setattr(ercd.cli, "run_suite", lambda config: ran.append(config))
    assert main(["verify", "--suite", "cd"] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("ercd: error:") and err.count("\n") == 1
    assert flags[0] in err  # the message names the flag
    assert not ran


def test_fw_runs_up_to_the_mass_limit(capsys):
    # 1.3e154 overflows 2 w (w + m) ~ 4 m^2 and 1e-155 takes it below the
    # smallest normal float, and both are refused (above); 1e150 runs
    # every closed form without a floating-point warning, and 7.5e-155
    # runs fw and poincare without one
    for suite, mass in (("fw", "1e150"), ("fw", "7.5e-155"),
                        ("poincare", "7.5e-155")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, _, claims = _json_run(capsys, "--suite", suite,
                                      "--mass", mass)
        assert rc == 0, (suite, mass)
        assert all(c["status"] == "pass" for c in claims.values()), \
            (suite, mass)


@pytest.mark.parametrize("mass", ["1e3", "1e6"])
def test_fw_judges_hamiltonian_residuals_at_the_mass_scale(mass, capsys):
    # rounding on eigenvalues of size w ~ m exceeds the absolute 1e-12
    # here; against tol max(1, m) every claim passes, and the residuals
    # are still the measured ones
    rc, _, claims = _json_run(capsys, "--suite", "fw", "--mass", mass)
    assert rc == 0
    assert all(c["status"] == "pass" for c in claims.values())
    assert claims["fw.local-hamiltonian"]["residual"] > 1e-12


def test_cli_zero_mass_is_valid(capsys):
    assert main(["verify", "--suite", "cd", "--mass", "0", "--samples", "1",
                 "--tol", "closure=1e-3"]) == 0


_NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(min_value=-3, max_value=300).map(str),
    st.text(max_size=5))


@settings(max_examples=15, deadline=None)
@given(mass=_NUMBER_TEXT, samples=_NUMBER_TEXT, tol=_NUMBER_TEXT)
def test_cli_numbers_exit_0_1_or_2_without_traceback(mass, samples, tol):
    argv = ["verify", "--suite", "cd", f"--mass={mass}",
            f"--samples={samples}", f"--tol=momentum={tol}"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # a malformed value is a usage error
            rc = exc.code
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_cli_bad_fault_spec_exits_2(capsys):
    assert main(["verify", "--suite", "cd", "--inject-fault", "g9,0,0"]) == 2


def test_cli_fault_injection_exit_code(capsys):
    assert main(["verify", "--suite", "cd", "--inject-fault", "g0,1,2"]) == 1


def test_cli_out_file_and_env_dir(tmp_path, monkeypatch, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "cd", "--format", "json",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["overall"] == "pass"

    monkeypatch.setenv("ERCD_OUT_DIR", str(tmp_path))
    assert main(["verify", "--suite", "cd", "--format", "json",
                 "--out", "rel.json"]) == 0
    assert (tmp_path / "rel.json").exists()


def test_cli_unwritable_out_exits_2(capsys):
    rc = main(["verify", "--suite", "cd", "--out", "/nonexistent-dir/x.json"])
    assert rc == 2


def test_cli_tolerance_override(capsys):
    # an absurdly tight symmetry tolerance stays satisfied by exact claims,
    # while an absurd momentum tolerance forces fw failures
    assert main(["verify", "--suite", "fw", "--tol", "momentum=1e-30"]) == 1


def test_a_repeated_tolerance_keeps_its_last_value(capsys):
    # as --mass 2 --mass 3 runs at 3, the last --tol of a key is the one
    # echoed and judged against
    rc, payload, _ = _json_run(capsys, "--suite", "fw",
                               "--tol", "momentum=1e-30",
                               "--tol", "symmetry=1e-3",
                               "--tol", "momentum=1e-5")
    assert rc == 0
    assert payload["config"]["tolerances"]["momentum"] == 1e-5
    assert payload["config"]["tolerances"]["symmetry"] == 1e-3
    assert ercd.cli._parse_tolerances(["momentum=1e-9", "momentum=1e-5"]) \
        == (("momentum", 1e-5),)


# ---------------------------------------------------------------------------
# the option tables against the argparse parser they replaced
# ---------------------------------------------------------------------------

def _argparse_parser():
    """The argparse parser of the command line before its option tables,
    without its help texts: the reference the tables are checked against."""
    import argparse
    parser = argparse.ArgumentParser(prog="ercd")
    sub = parser.add_subparsers(dest="command")
    verify = sub.add_parser("verify")
    verify.add_argument("--suite", action="append",
                        choices=SUITE_NAMES + ("all",))
    verify.add_argument("--mass", type=float, default=1.0)
    verify.add_argument("--samples", type=int, default=200)
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--tol", action="append", default=[])
    verify.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
    verify.add_argument("--out")
    verify.add_argument("--timings", action="store_true")
    verify.add_argument("--inject-fault")
    dump = sub.add_parser("dump")
    dump.add_argument("--set", required=True, dest="set_name")
    dump.add_argument("--kind", required=True, choices=DUMP_KINDS)
    dump.add_argument("--format", choices=("json", "csv"), default="json")
    dump.add_argument("--out")
    return parser


def _argparse_outcome(argv):
    """What the argparse command line made of argv: ("verify", its
    SuiteConfig, --out), ("dump", the dump_tables arguments, --out) or
    ("exit", the exit code)."""
    argv = list(argv)
    if argv and argv[0] not in ("verify", "dump", "-h", "--help"):
        argv.insert(0, "verify")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            args = _argparse_parser().parse_args(argv)
        except SystemExit as exc:
            return ("exit", exc.code)
    if args.command is None:
        return ("exit", 2)
    if args.command == "dump":
        return ("dump", (args.set_name, args.kind, args.format), args.out)
    try:
        ercd.cli._check_run_numbers(args.mass, args.samples, args.seed)
        config = SuiteConfig(
            suites=tuple(args.suite) if args.suite else ("all",),
            mass=args.mass, samples=args.samples, seed=args.seed,
            tolerances=ercd.cli._parse_tolerances(args.tol),
            fmt=args.format,
            inject_fault=ercd.cli._parse_fault(args.inject_fault),
            timings=args.timings)
    except ValueError:
        return ("exit", 2)
    return ("verify", config, args.out)


def _outcome(argv):
    """What ercd.cli.main makes of argv, in the form of _argparse_outcome,
    with the suites, dumps and output replaced by recorders; and what it
    wrote to stderr."""
    seen = []
    ledger = SimpleNamespace(render=str, passed=True)
    fakes = {"run_suite": lambda config: seen.append(("verify", config))
             or ledger,
             "dump_tables": lambda *args: seen.append(("dump", args)) or "",
             "_emit": lambda content, out: seen.append(out)}
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        mp.delenv("ERCD_OUT_DIR", raising=False)
        for name, fake in fakes.items():
            mp.setattr(ercd.cli, name, fake)
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    if seen:
        assert rc == 0, argv
        (command, args), out = seen
        return (command, args, out), err.getvalue()
    return ("exit", rc), err.getvalue()


_SPEC = importlib.util.spec_from_file_location(
    "bench_workloads", os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "bench", "workloads.py"))
_workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_workloads)

_VALID_ARGV = [
    # the README examples and the module docstring's
    ["verify", "--suite", "all"],
    ["verify", "--suite", "ercd", "--format", "json"],
    ["verify", "--suite", "fw", "--mass", "2.0", "--samples", "300",
     "--seed", "7"],
    ["verify", "--suite", "cd", "--inject-fault", "g2,0,1"],
    ["dump", "--set", "percd29", "--kind", "structure-constants",
     "--format", "csv"],
    ["dump", "--set", "cd16", "--kind", "multiplication", "--format", "json"],
    ["verify", "--suite", "ercd", "--format", "json", "--out", "report.json"],
    # the calls of this file
    ["verify", "--suite", "cd"],
    ["--suite", "cd"],
    ["verify", "--suite", "percd"],
    ["verify", "--suite", "cd", "--suite", "pgi", "--suite", "cd",
     "--format", "json"],
    ["verify", "--suite", "fw", "--mass", "0", "--format", "json"],
    ["verify", "--suite", "poincare", "--samples", "3", "--format", "json"],
    ["verify", "--suite", "fw", "--samples", "1", "--format", "json"],
    ["verify", "--suite", "fw", "--mass", "7.5e-155", "--format", "json"],
    ["verify", "--suite", "cd", "--mass", "0", "--samples", "1",
     "--tol", "closure=1e-3"],
    ["verify", "--suite", "cd", "--inject-fault", "g0,1,2"],
    ["verify", "--suite", "cd", "--out", "/nonexistent-dir/x.json"],
    ["verify", "--suite", "fw", "--tol", "momentum=1e-30"],
    ["verify", "--suite", "cd", "--mass=1e3", "--samples=7",
     "--tol=momentum=1e-9"],
    ["dump", "--set", "cd16", "--kind", "multiplication", "--format", "csv"],
    ["dump", "--set", "nope", "--kind", "commutator"],  # refused by the dump
    # prefixes and = forms
    ["--samp", "3"],
    ["--samp=3", "--see=9", "--m", "2.5"],
    ["verify", "--su", "cd", "--fo=json", "--o", "r.json", "--tim"],
    ["verify", "--inj", "g0,1,2", "--format=csv"],
    ["dump", "--s", "a32", "--ki=commutator", "--f", "csv", "--out=-"],
    # repeated options: --suite and --tol accumulate, the others keep the last
    ["--suite", "fw", "--suite=poincare", "--suite", "fw"],
    ["--tol", "momentum=1e-9", "--tol=closure=1e-3", "--tol",
     "momentum=1e-8"],
    ["--mass", "3", "--mass", "2", "--format", "json", "--format", "csv"],
    # negative values
    ["--mass", "-0.0"],
    ["--mass=-0"],
    ["--out", "-"],
] + [argv for workload in ("exact", "momentum", "tables")
     for seed in (42, 7) for argv in _workloads.calls(workload, seed)]

# each with an argument that the one-line message names
_INVALID_ARGV = [
    (["verify", "--suite", "bogus"], "--suite"),
    (["verify", "--suite", "cd", "--tol", "nonsense"], "--tol"),
    (["verify", "--suite", "cd", "--inject-fault", "g9,0,0"], "--inject-fault"),
    (["verify", "--out", "--format", "json"], "--out"),
    (["verify", "--suite"], "--suite"),
    (["dump", "--set", "cd16", "--kind"], "--kind"),
    (["verify", "--bogus"], "--bogus"),
    (["--suite", "cd", "extra"], "extra"),
    (["--suite", "cd", "-5"], "-5"),
    (["verify", "-x"], "-x"),
    (["verify", "--"], "--"),
    (["dump", "--set", "cd16", "--kind", "commutator", "--timings"],
     "--timings"),
    (["--s", "cd"], "--s"),
    (["--format", "xml"], "--format"),
    (["dump", "--set", "cd16", "--kind", "bogus"], "--kind"),
    (["dump", "--set", "cd16", "--kind", "commutator", "--format", "text"],
     "--format"),
    (["dump", "--set", "cd16"], "--kind"),
    (["dump", "--kind", "commutator"], "--set"),
    (["dump"], "--set"),
    (["--samples", "2.5"], "--samples"),
    (["--samples=1e3"], "--samples"),
    (["--mass", "heavy"], "--mass"),
    (["--seed", "0x10"], "--seed"),
    (["--timings=yes"], "--timings"),
    (["--mass", "-1", "--suite", "cd"], "--mass"),
    (["--tol", "-1"], "--tol"),
    (["--inject-fault", "-1,0,0"], "--inject-fault"),
] + [(["verify", "--suite", "cd"] + flags, flags[0])
     for flags in _BAD_NUMBER_FLAGS]

# where the option tables deliberately differ: argv, what argparse made of
# it, what the tables make of it
_DIFFERENCES = [
    # a number that argparse's negative-number pattern (-\d+ | -\d*\.\d+)
    # misses is a value here: argparse refuses --mass -1e5 as a missing
    # value, the range check here; -0e0 is mass 0 here, as -0.0 is on both
    (["--mass", "-1e5"], ("exit", 2), ("exit", 2)),
    (["--mass", "-0e0"], ("exit", 2), ("verify", SuiteConfig(mass=0.0), None)),
    # the first usage error stops the command line here, before a later
    # -h; argparse reports unknown arguments last, and ambiguous prefixes
    # first, before an earlier -h
    (["verify", "--bogus", "-h"], ("exit", 0), ("exit", 2)),
    (["verify", "-h", "--s"], ("exit", 2), ("exit", 0)),
]


def test_the_option_tables_read_valid_argv_as_argparse_did():
    for argv in _VALID_ARGV:
        outcome, err = _outcome(argv)
        assert outcome[0] != "exit" and err == "", argv
        assert outcome == _argparse_outcome(argv), argv


def test_the_option_tables_refuse_what_argparse_refused_in_one_line():
    for argv, name in _INVALID_ARGV:
        assert _argparse_outcome(argv) == ("exit", 2), argv
        outcome, err = _outcome(argv)
        assert outcome == ("exit", 2), argv
        assert err.startswith("ercd: error: ") and err.count("\n") == 1, argv
        assert name in err, argv


def test_the_option_tables_differ_from_argparse_only_as_listed():
    for argv, old, new in _DIFFERENCES:
        assert _argparse_outcome(argv) == old, argv
        assert _outcome(argv)[0] == new, argv
    assert "--mass must be 0, or positive" in _outcome(["--mass", "-1e5"])[1]


_TOKENS = ("verify", "dump", "--suite", "--su", "--suite=cd", "cd", "fw",
           "all", "bogus", "--mass", "--mass=-2", "-1", "-5", "0", "2.5",
           "x", "--samples", "--samp", "--samp=3", "3", "--seed", "--see",
           "--tol", "--tol=momentum=1e-9", "closure=1e-3", "speed=1",
           "--format", "--fo", "json", "csv", "text", "--out", "-", "r.json",
           "--timings", "--tim", "--timings=1", "--inject-fault", "g0,1,2",
           "g9,0,0", "--set", "cd16", "--kind", "--k", "commutator",
           "--bogus", "--s", "-s", "--")


@settings(max_examples=150, deadline=None)
@given(argv=st.lists(st.sampled_from(_TOKENS), max_size=7))
def test_the_option_tables_agree_with_argparse_on_any_line(argv):
    # any line without -h or a number outside argparse's pattern
    assert _outcome(argv)[0] == _argparse_outcome(argv)


@pytest.mark.parametrize("argv,commands", [
    (["-h"], ("verify", "dump")),
    (["--help"], ("verify", "dump")),
    (["verify", "-h"], ("verify",)),
    (["--suite", "cd", "--he"], ("verify",)),
    (["dump", "--help"], ("dump",)),
])
def test_help_lists_every_option_and_choice(argv, commands, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: ercd ")
    subparsers = _argparse_parser()._subparsers._group_actions[0].choices
    for command in commands:
        for action in subparsers[command]._actions:
            for text in action.option_strings + list(action.choices or ()):
                assert text in out, (command, text)
    if "dump" in commands:
        assert all(name in out for name in ercd.suites.DUMP_SETS)


def test_a_bare_ercd_prints_usage_and_exits_2(capsys):
    assert main([]) == 2
    assert capsys.readouterr().out.startswith("usage: ercd [verify|dump]")


# ---------------------------------------------------------------------------
# dumps
# ---------------------------------------------------------------------------

def test_dump_multiplication_csv():
    content = dump_tables("cd16", "multiplication", "csv")
    rows = list(csv.reader(io.StringIO(content)))
    assert rows[0] == ["left", "right", "unit", "ort"]
    assert len(rows) == 1 + 256
    units = {r[2] for r in rows[1:]}
    assert units <= {"1", "-1", "i", "-i"}


def test_dump_structure_constants_json():
    payload = json.loads(dump_tables("percd29", "structure-constants", "json"))
    assert payload["set"] == "percd29"
    labels = {e[0] for e in payload["entries"]}
    assert "I" not in labels  # 28-generator table
    # delta-pattern constants times the basis normalization (orts are 2s)
    coeffs = {e[3] for e in payload["entries"]}
    assert coeffs == {"2", "-2"}
    assert not any("." in c for c in coeffs)  # never decimal


def test_dump_commutator_json_antisymmetric():
    payload = json.loads(dump_tables("cd16", "commutator", "json"))
    entries = {(e[0], e[1]): e[2] for e in payload["entries"]}
    for lbl in ("I", "alpha_01", "alpha_45"):
        assert entries[(lbl, lbl)] == "0"


def test_dump_sqrt2_rendering():
    # a32 products with the basis-changed elements stay in the field; the
    # pgi8 structure constants exercise plain rationals
    content = dump_tables("pgi8", "structure-constants", "csv")
    assert "0.7" not in content and "sqrt2" not in content


def test_dump_unknown_set_and_kind():
    with pytest.raises(ValueError):
        dump_tables("nope", "multiplication", "json")
    with pytest.raises(ValueError):
        dump_tables("cd16", "nope", "json")
    with pytest.raises(ValueError):
        dump_tables("cd16", "multiplication", "yaml")


def test_cli_dump(capsys):
    assert main(["dump", "--set", "cd16", "--kind", "multiplication",
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("left,right,unit,ort")


def test_dump_labels_round_trip():
    from ercd.algebras import cd16
    payload = json.loads(dump_tables("cd16", "multiplication", "json"))
    dumped = {e[0] for e in payload["entries"]}
    assert dumped == set(cd16().labels())


# ---------------------------------------------------------------------------
# the heap settings of the command line
# ---------------------------------------------------------------------------

def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def _python(code: str) -> str:
    """The last line that code prints in a fresh interpreter importing
    this ercd."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ercd.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=300)
    return done.stdout.splitlines()[-1]


_RECORD_HEAP = """
import ctypes, gc, json, os, weakref
calls = []

class Libc:
    def __getattr__(self, name):
        if name != "mallopt":
            raise AttributeError(name)
        return lambda *args: calls.append(list(args)) or 1

real = ctypes.CDLL
ctypes.CDLL = lambda name, *a, **k: Libc() if name is None else real(name, *a, **k)
import ercd, ercd.cli, ercd.suites, ercd.xops
imported = {"calls": list(calls), "frozen": gc.get_freeze_count(),
            "enabled": gc.isenabled()}
gc.collect()
tracked = len(gc.get_objects())  # the live start-up heap
after = []
for _ in range(2):
    ercd.cli.main(["verify", "--suite", "cd", "--out", os.devnull])
    after.append([gc.get_freeze_count(), gc.isenabled()])

class Node:
    pass

node = Node()
node.self = node
ref = weakref.ref(node)
del node
gc.collect()
print(json.dumps({"imported": imported, "tracked": tracked, "main": calls,
                  "after": after, "cycle_freed": ref() is None}))
"""


def test_only_the_command_line_sets_the_heap_and_collector_and_only_once():
    # the command line freezes the start-up heap once, so that neither its
    # collections nor shutdown's traverse the module graph again
    record = json.loads(_python(_RECORD_HEAP))
    assert record["imported"] == {"calls": [], "frozen": 0, "enabled": True}
    expected = [list(s) for s in ercd.cli._HEAP_SETTINGS]
    assert record["main"] == (expected if _on_glibc() else [])
    (first, on_first), (second, on_second) = record["after"]
    assert first == second >= record["tracked"]
    assert on_first and on_second
    # garbage made after the freeze is still collected
    assert record["cycle_freed"]


# the benchmark's traced runs index the time of each of these layers
# directly (bench/run.py, layer_metrics): a traced run of the exact suites
# once exited 1 with a KeyError there because the command line had stopped
# importing one of them
_LAYER_MODULES = ("operators", "spans", "relations", "algebras", "symbols",
                  "xops", "suites")


def test_the_command_line_loads_every_layer_module():
    loaded = _python("import sys, ercd.cli; "
                     "print(' '.join(m for m in sys.modules "
                     "if m.startswith('ercd.')))").split()
    assert {f"ercd.{name}" for name in _LAYER_MODULES} <= set(loaded)


def test_the_exact_layers_load_no_momentum_module():
    # the exact layers stand on their own: a process that decides only
    # exact claims never loads the momentum symbols, jets or the oracle
    loaded = _python("import sys, ercd.operators, ercd.algebras, "
                     "ercd.spans, ercd.relations; "
                     "print(' '.join(m for m in sys.modules "
                     "if m.startswith('ercd.')))").split()
    assert "ercd.relations" in loaded
    assert not {"ercd.symbols", "ercd.jets", "ercd.xops",
                "ercd.poincare_oracle"} & set(loaded)


def test_the_momentum_suites_load_no_numpy_random():
    # the seeded momenta come from ercd's own uniform stream
    loaded = _python("import contextlib, io, sys, ercd.cli\n"
                     "with contextlib.redirect_stdout(io.StringIO()):\n"
                     "    code = ercd.cli.main(['verify', '--suite', 'fw', "
                     "'--suite', 'poincare'])\n"
                     "print(code, ' '.join(m for m in sys.modules "
                     "if m.startswith('numpy.')))").split()
    assert loaded[0] == "0" and "numpy.linalg" in loaded
    assert not {m for m in loaded if m.startswith("numpy.random")}


def test_the_command_line_loads_no_argparse_gettext_or_locale():
    # argparse's start-up (its gettext calls import locale) costs a cold
    # process about 2.5 ms, a fifth of an exact suite's work; csv, which
    # only a CSV output needs, about 0.5 ms
    for argv in (["verify", "--suite", "cd"],
                 ["dump", "--set", "cd16", "--kind", "multiplication"]):
        loaded = _python("import contextlib, io, sys, ercd.cli\n"
                         "with contextlib.redirect_stdout(io.StringIO()):\n"
                         f"    code = ercd.cli.main({argv!r})\n"
                         "print(code, *(m for m in ('argparse', 'gettext', "
                         "'locale', 'csv') if m in sys.modules))").split()
        assert loaded == ["0"], argv


def _unknown_name(name):
    raise ValueError(f"unrecognized configuration name {name!r}")


def test_heap_settings_are_a_no_op_off_glibc(monkeypatch):
    # musl and other C libraries have no such name, or no value for it;
    # Windows has no os.confstr
    def no_libc(name, *args, **kwargs):
        raise AssertionError("the C library was opened off glibc")

    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    for confstr in (lambda name: None, _unknown_name):
        monkeypatch.setattr(os, "confstr", confstr)
        ercd.cli._hold_process_heap.__wrapped__()
    monkeypatch.delattr(os, "confstr")
    ercd.cli._hold_process_heap.__wrapped__()


def test_the_freeze_is_a_no_op_without_gc_freeze(monkeypatch):
    # an interpreter without gc.freeze runs the rest of the helper
    frozen = gc.get_freeze_count()
    monkeypatch.delattr(gc, "freeze")
    ercd.cli._hold_process_heap.__wrapped__()
    assert gc.get_freeze_count() == frozen


def test_heap_settings_survive_a_libc_without_mallopt(monkeypatch):
    def failing(name, *args, **kwargs):
        raise OSError("no such library")

    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(ctypes, "CDLL", failing)
    ercd.cli._hold_process_heap.__wrapped__()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    ercd.cli._hold_process_heap.__wrapped__()


_POINCARE_FAULTS = """
import os, resource
import ercd.cli
from ercd.reporting import SuiteConfig
from ercd.suites import run_suite

def cli():
    ercd.cli.main(["verify", "--suite", "poincare", "--format", "json",
                   "--out", os.devnull])

def library():
    run_suite(SuiteConfig(suites=("poincare",), fmt="json")).render()

def usage():
    # the minor faults and the peak RSS in KB: VmHWM, since ru_maxrss
    # starts from the RSS of the process that started this one
    with open("/proc/self/status") as status:
        peak = next(int(line.split()[1]) for line in status
                    if line.startswith("VmHWM:"))
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt, peak

faults, peak = usage()
{run}()
faults_after, peak_after = usage()
print(faults_after - faults,
      (peak_after - peak) * 1024 // resource.getpagesize())
"""


@pytest.mark.skipif(not _on_glibc(), reason="the heap settings are glibc's")
def test_the_command_line_keeps_the_poincare_heap_resident():
    # the same poincare run with the settings of the command line and
    # without them; counts of pages, not a time. A heap that keeps what it
    # frees faults about once per page of its peak; one that hands its
    # memory back faults again on every page it takes anew
    (cli, cli_pages), (library, library_pages) = (
        map(int, _python(_POINCARE_FAULTS.format(run=run)).split())
        for run in ("cli", "library"))
    assert cli < 1.5 * cli_pages, (cli, cli_pages)
    assert library > 1.5 * library_pages, (library, library_pages)
