"""The byte-identical contract: the canonical JSON report of the seven
exact suites and the four table dumps of the benchmark, against the golden
outputs under bench/golden (read through bench/workloads.py), and the
canonical JSON of six momentum-suite runs, against the reports recorded
under tests/golden (their sampled residuals are floats, so a change of
host, numpy or BLAS may move their last digits). tests/golden also holds
the SHA-256 of all 18 dumps (6 sets x 3 kinds) in JSON and in CSV, the
full CSV report and the JSON report under --inject-fault g2,0,1. numpy is
the only runtime dependency: the same outputs come from a process in which
sympy cannot be imported."""

import hashlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import ercd
from ercd import suites
from ercd.algebras import OrtSet, ercd64
from ercd.cli import main
from ercd.suites import DUMP_KINDS

_BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
_GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
_SPEC = importlib.util.spec_from_file_location("bench_workloads",
                                               _BENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


def _run(argv, capsys):
    rc = main(argv)
    return {"rc": rc, "stdout": capsys.readouterr().out}


def test_exact_suites_match_the_golden_report(capsys):
    (argv,) = workloads.calls("exact", 42)
    out = _run(argv, capsys)
    text, rc, _ = workloads.expected_exact()
    assert out["rc"] == rc
    assert out["stdout"] == text


def test_table_dumps_match_the_golden_digests(capsys):
    outs = [_run(argv, capsys) for argv in workloads.calls("tables", 42)]
    assert len(outs) == len(workloads.TABLE_DUMPS)
    assert workloads.check_tables(outs) == (len(outs), 0)


def _dump_digests(capsys, *options):
    got = {}
    for name in ("cd16", "ercd64", "percd29", "so6", "a32", "pgi8"):
        for kind in DUMP_KINDS:
            out = _run(["dump", "--set", name, "--kind", kind, *options],
                       capsys)
            assert out["rc"] == 0
            got[f"{name}/{kind}"] = hashlib.sha256(
                out["stdout"].encode()).hexdigest()
    return got


def test_all_dumps_match_the_recorded_digests(capsys):
    digests = json.loads((_GOLDEN / "dumps.sha256.json").read_text())
    assert _dump_digests(capsys) == digests


def test_all_csv_dumps_match_the_recorded_digests(capsys):
    digests = json.loads((_GOLDEN / "dumps-csv.sha256.json").read_text())
    assert _dump_digests(capsys, "--format", "csv") == digests


@pytest.mark.parametrize("kind", DUMP_KINDS)
def test_the_json_dump_layout_is_that_of_json_dumps(kind, monkeypatch):
    # labels that need escapes; x and i x commute, so there are no
    # structure constants
    ops = ercd64().ops()
    odd = OrtSet("odd", (("\u00e9\"\\", ops[5]), ("tab\t\u2603", ops[21]),
                         ("I", ops[0])))
    monkeypatch.setitem(suites._DUMPABLE, "odd", lambda: odd)
    text = suites.dump_tables("odd", kind)
    doc = json.loads(text)
    assert (doc["entries"] == []) == (kind == "structure-constants")
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("argv, golden", [
    (["verify", "--format", "csv"], "verify.csv"),
    (["verify", "--inject-fault", "g2,0,1", "--format", "json"],
     "verify-fault-g2-0-1.json"),
])
def test_full_reports_match_the_recorded_reports(argv, golden, capsys):
    out = _run(argv, capsys)
    assert out["rc"] == 1
    # read as bytes: the CSV rows end in \r\n
    assert out["stdout"] == (_GOLDEN / golden).read_bytes().decode()


# recorded report -> verify options; each runs with --format json
MOMENTUM_RUNS = {
    "fw": ["--suite", "fw"],
    "fw-m2.5-s3-n7": ["--suite", "fw", "--mass", "2.5", "--seed", "3",
                      "--samples", "7"],
    "fw-m0": ["--suite", "fw", "--mass", "0"],
    "poincare": ["--suite", "poincare"],
    "poincare-m0": ["--suite", "poincare", "--mass", "0"],
    "poincare-m2.5-s7": ["--suite", "poincare", "--mass", "2.5",
                         "--seed", "7"],
}


# a floating-point warning (a division by w = 0 at q = 0 and m = 0, say)
# fails the run even where the report still matches
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(MOMENTUM_RUNS))
def test_momentum_runs_match_the_recorded_reports(name, capsys):
    out = _run(["verify", *MOMENTUM_RUNS[name], "--format", "json"], capsys)
    assert out["rc"] == 0
    assert out["stdout"] == (_GOLDEN / f"{name}.json").read_text()


# runs each argv of argv[1] (JSON) with sympy blocked and prints the outputs
_WITHOUT_SYMPY = """
import contextlib, io, json, sys
sys.modules["sympy"] = None  # every import of sympy raises ImportError
from ercd.cli import main
from ercd.suites import DUMP_KINDS
outs = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    outs.append({"rc": rc, "stdout": buf.getvalue()})
print(json.dumps(outs))
"""


def test_verify_all_and_a_dump_run_without_sympy():
    last = len(workloads.TABLE_DUMPS) - 1
    argv = [["verify", "--suite", "all", "--format", "json"],
            workloads.calls("tables", 42)[last]]
    src = os.path.dirname(os.path.dirname(os.path.abspath(ercd.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SYMPY, json.dumps(argv)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report, table = json.loads(done.stdout)
    assert workloads.check_tables([table], [last]) == (1, 0)

    # the exact claims byte for byte, the momentum claims in golden order
    # and passing, and the designed criterion-5 failure as the only one
    assert report["rc"] == 1
    claims = [{k: v for k, v in c.items() if k != "runtime_s"}
              for c in json.loads(report["stdout"])["claims"]]
    suite = [c["id"].split(".")[0] for c in claims]
    _, _, exact = workloads.expected_exact()
    assert [c for c, s in zip(claims, suite)
            if s in workloads.EXACT_SUITES] == exact
    momentum = json.loads((_BENCH / "golden" / "momentum.json").read_text())
    got = [c for c, s in zip(claims, suite) if s in workloads.MOMENTUM_SUITES]
    assert [c["id"] for c in got] == [c["id"] for c in momentum["claims"]]
    assert all(c["status"] == "pass" for c in got)
