import csv
import io
import json

import pytest

from ercd.cli import main
from ercd.reporting import CLAIM_REGISTRY, SuiteConfig
from ercd.suites import dump_tables, run_suite


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


def test_fault_injection_detected():
    config = SuiteConfig(suites=("cd",), inject_fault=("g2", 0, 1))
    ledger = run_suite(config)
    assert not ledger.passed
    failed = [c for c in ledger.claims if c.failed]
    assert any("anticommutation" in c.claim_id for c in failed)
    anti = next(c for c in failed if c.claim_id == "cd.anticommutation-5")
    assert "g2" in anti.detail  # violated pair identified


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


def test_csv_render_shape():
    config = SuiteConfig(suites=("pgi",), fmt="csv")
    rows = list(csv.reader(io.StringIO(run_suite(config).to_csv())))
    assert rows[0] == ["claim_id", "anchor", "status", "residual", "detail"]
    assert len(rows) == 4  # header + three claims


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
])
def test_cli_bad_numbers_exit_2_before_any_suite(flags, capsys, monkeypatch):
    import ercd.cli
    ran = []
    monkeypatch.setattr(ercd.cli, "run_suite", lambda config: ran.append(config))
    assert main(["verify", "--suite", "cd"] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("ercd: error:") and err.count("\n") == 1
    assert not ran


def test_cli_zero_mass_is_valid(capsys):
    assert main(["verify", "--suite", "cd", "--mass", "0", "--samples", "1",
                 "--tol", "closure=1e-3"]) == 0


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
