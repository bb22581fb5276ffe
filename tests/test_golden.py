"""The byte-identical contract: the canonical JSON report of the seven
exact suites and the four table dumps of the benchmark, against the golden
outputs under bench/golden (read through bench/workloads.py)."""

import importlib.util
import pathlib

from ercd.cli import main

_BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
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
