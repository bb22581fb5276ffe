import contextlib
import csv
import ctypes
import io
import json
import os
import subprocess
import sys
import time
import warnings

import pytest
from hypothesis import given, settings, strategies as st

import ercd.cli
import ercd.suites
from ercd.cli import main
from ercd.reporting import CLAIM_REGISTRY, Claim, Ledger, SuiteConfig
from ercd.suites import dump_tables, run_suite
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
    # --samples 1 is echoed, but fw floors its sample set at 100 points and
    # some checks use only the first 4 or 40 of them
    rc, payload, claims = _json_run(capsys, "--suite", "fw", "--samples", "1")
    assert rc == 0 and payload["config"]["samples"] == 1
    details = {k: c["detail"] for k, c in claims.items()}
    assert details["fw.wave-operator"] == "40 points and q = 0"
    assert details["fw.local-hamiltonian"] == "40 points"
    for k in ("fw.transform-inverse", "fw.conjugation-identity",
              "fw.nonlocal-spin"):
        assert details[k] == "100 points"
    assert details["fw.nonlocal-rotations"] == "4 points"
    assert details["fw.nonlocal-generators"].endswith(
        "anticommutators on 4 points, conjugation on 40 points")


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


@pytest.mark.parametrize("flags", [
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
])
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
        except SystemExit as exc:  # argparse rejects a malformed value
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


_RECORD_MALLOPT = """
import ctypes, json, os
calls = []

class Libc:
    def __getattr__(self, name):
        if name != "mallopt":
            raise AttributeError(name)
        return lambda *args: calls.append(list(args)) or 1

real = ctypes.CDLL
ctypes.CDLL = lambda name, *a, **k: Libc() if name is None else real(name, *a, **k)
import ercd, ercd.cli, ercd.suites, ercd.xops
imported = list(calls)
for _ in range(2):
    ercd.cli.main(["verify", "--suite", "cd", "--out", os.devnull])
print(json.dumps({"imported": imported, "main": calls}))
"""


def test_only_the_command_line_sets_the_heap_and_only_once():
    calls = json.loads(_python(_RECORD_MALLOPT))
    assert calls["imported"] == []
    expected = [list(s) for s in ercd.cli._HEAP_SETTINGS]
    assert calls["main"] == (expected if _on_glibc() else [])


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
        ercd.cli._keep_freed_heap.__wrapped__()
    monkeypatch.delattr(os, "confstr")
    ercd.cli._keep_freed_heap.__wrapped__()


def test_heap_settings_survive_a_libc_without_mallopt(monkeypatch):
    def failing(name, *args, **kwargs):
        raise OSError("no such library")

    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(ctypes, "CDLL", failing)
    ercd.cli._keep_freed_heap.__wrapped__()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    ercd.cli._keep_freed_heap.__wrapped__()


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

before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
{run}()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _on_glibc(), reason="the heap settings are glibc's")
def test_the_command_line_keeps_the_poincare_heap_resident():
    # the same poincare run with the settings of the command line and
    # without them; the count of minor page faults, not a time
    cli, library = (int(_python(_POINCARE_FAULTS.format(run=run)))
                    for run in ("cli", "library"))
    assert cli < library / 3, (cli, library)
