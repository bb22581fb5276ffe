"""Tests of the benchmark itself: its correctness gate and its tracer.

    python3 -m pytest bench/tests -q

They spawn cold ercd processes the way the benchmark does; the slowest
(the exact workload twice, momentum once) take a minute or two together.
"""

import functools
import json
import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_arithmetic_of_nested_calls():
    tr = Tracer(clock=_fake_clock([0.0, 1.0, 3.0, 4.0, 4.5, 6.5, 7.0, 10.0]))

    def inner(x):
        return x or None

    def helper():
        return False

    w_inner = tr.wrap(inner, "b.inner", "B")
    w_helper = tr.wrap(helper, "a.helper", "A")

    def inner_with_helper(x):
        w_helper()              # clock 4.5 .. 6.5
        return inner(x)

    # a second wrapper registered under the same key shares its counters
    w_inner2 = tr.wrap(inner_with_helper, "b.inner", "B")

    def outer():
        w_inner(1)              # clock 1.0 .. 3.0
        w_inner2(0)             # clock 4.0 .. 7.0
        return "done"

    w_outer = tr.wrap(outer, "a.outer", "A")
    assert w_outer() == "done"

    s = tr.summary()
    f, layers = s["functions"], s["layers"]
    assert f["a.outer"]["calls"] == 1
    assert f["a.outer"]["incl_s"] == 10.0
    assert f["a.outer"]["self_s"] == 10.0 - 2.0 - 3.0
    assert f["b.inner"]["calls"] == 2
    assert f["b.inner"]["incl_s"] == 5.0
    assert f["b.inner"]["self_s"] == 2.0 + (3.0 - 2.0)
    assert f["b.inner"]["hits"] == 1           # 1 -> 1, 0 -> None
    assert f["a.helper"]["hits"] == 0          # False is no hit
    assert f["a.helper"]["self_s"] == 2.0
    # the helper's time belongs to layer A although B called it
    assert layers["A"]["self_s"] == 5.0 + 2.0
    assert layers["B"]["self_s"] == 3.0
    assert layers["A"]["incl_s"] == 10.0
    assert layers["B"]["incl_s"] == 5.0
    assert sum(v["self_s"] for v in layers.values()) == 10.0
    # every call crosses a layer boundary here: outer, inner, inner, helper
    names = [(sp[0], sp[1]) for sp in tr.spans]
    assert names == [("a.outer", -1), ("b.inner", 0), ("b.inner", 0),
                     ("a.helper", 2)]


def test_recursive_call_counts_inclusive_time_once():
    tr = Tracer(clock=_fake_clock([0.0, 1.0, 2.0, 3.0]))

    def rec(n):
        return rec_w(n - 1) if n else 0

    rec_w = tr.wrap(rec, "a.rec", "A")
    rec_w(1)
    st = tr.summary()["functions"]["a.rec"]
    assert st["calls"] == 2
    assert st["incl_s"] == 3.0
    assert st["self_s"] == 3.0
    assert len([sp for sp in tr.spans if sp is not None]) == 1


def test_wrapping_keeps_lru_cache_behaviour():
    calls = []

    @functools.lru_cache(maxsize=None)
    def build():
        calls.append(1)
        return object()

    w = Tracer().wrap(build, "algebras.build", "algebras")
    assert w() is w()
    assert len(calls) == 1
    assert w.cache_info().hits == 1
    w.cache_clear()
    w()
    assert len(calls) == 2


def test_expected_exact_of_all_suites_is_the_golden_file():
    with open(os.path.join(workloads.GOLDEN_DIR, "exact.json"),
              encoding="utf-8") as fh:
        golden = fh.read()
    text, rc, claims = workloads.expected_exact()
    assert text == golden
    assert rc == 1
    assert [c["id"] for c in claims if c["status"] == "fail"] == [
        "percd.explicit-forms-extra"]
    assert sum(c["status"] == "pass" for c in claims) == 32


def test_fault_injection_is_a_verdict_error():
    argv = workloads.verify_argv(("cd",))
    clean = run.spawn([argv])
    assert workloads.check_exact(clean["outputs"][0], ("cd",)) == (10, 0)
    faulty = run.spawn([argv + ["--inject-fault", "g2,0,1"]])
    attempted, failed = workloads.check_exact(faulty["outputs"][0], ("cd",))
    assert attempted == 10
    assert failed > 0


def test_momentum_gate_rejects_residual_above_tolerance():
    golden = json.load(open(os.path.join(workloads.GOLDEN_DIR,
                                         "momentum.json"), encoding="utf-8"))
    doc = {"claims": [{"id": c["id"], "anchor": c["anchor"],
                       "status": "pass", "residual": 1e-15, "detail": ""}
                      for c in golden["claims"]],
           "config": dict(golden["config"], seed=7),
           "flags": golden["flags"], "summary": golden["summary"]}
    out = {"rc": 0, "stdout": json.dumps(doc)}
    assert workloads.check_momentum(out, 7) == (14, 0)
    assert workloads.check_momentum(out, 8) == (14, 1)  # seed not echoed
    doc["claims"][0]["residual"] = 2e-12
    out = {"rc": 0, "stdout": json.dumps(doc)}
    assert workloads.check_momentum(out, 7) == (14, 1)


def test_momentum_gate_of_one_suite_keeps_its_claims_and_flags():
    golden = json.load(open(os.path.join(workloads.GOLDEN_DIR,
                                         "momentum.json"), encoding="utf-8"))

    def out(suite, flags):
        claims = [{"id": c["id"], "anchor": c["anchor"], "status": "pass",
                   "residual": 1e-15, "detail": ""}
                  for c in golden["claims"] if c["id"].startswith(suite)]
        n = len(claims)
        doc = {"claims": claims, "flags": flags,
               "config": dict(golden["config"], seed=7, suites=[suite]),
               "summary": dict(golden["summary"], total=n, passed=n)}
        return {"rc": 0, "stdout": json.dumps(doc)}

    flags = golden["flags"]
    assert workloads.check_momentum(out("fw", []), 7, ("fw",)) == (9, 0)
    assert workloads.check_momentum(out("fw", flags), 7, ("fw",)) == (9, 1)
    assert workloads.check_momentum(out("poincare", flags), 7,
                                    ("poincare",)) == (6, 0)
    assert workloads.check_momentum(out("poincare", []), 7,
                                    ("poincare",)) == (6, 1)


def test_components_run_the_workloads_calls():
    for workload in ("exact", "momentum", "tables"):
        calls = workloads.calls(workload, 7)
        parts = workloads.components(workload, 7)
        if workload == "tables":
            assert [argv for part in parts for argv in part] == calls
        else:
            suites = [argv[argv.index("--suite") + 1] for (argv,) in parts]
            assert suites == [calls[0][i + 1]
                              for i, a in enumerate(calls[0])
                              if a == "--suite"]


def test_single_processes_pass_their_component_gates():
    # the two cheapest processes of momentum and tables, run for real
    parts = workloads.components("momentum", 7)
    report = run.spawn(parts[0])
    assert workloads.check_component("momentum", 7, 0,
                                     report["outputs"]) == (9, 0)
    assert report["probe_s"] > 0
    assert report["scale"] == run.REF_S / report["probe_s"]
    parts = workloads.components("tables", 7)
    report = run.spawn(parts[3])
    assert workloads.check_component("tables", 7, 3,
                                     report["outputs"]) == (1, 0)
    assert workloads.check_component("tables", 7, 2,
                                     report["outputs"]) == (1, 1)


def test_tables_gate_rejects_a_changed_byte():
    golden = json.load(open(os.path.join(workloads.GOLDEN_DIR, "tables.json"),
                            encoding="utf-8"))
    assert [g["argv"] for g in golden] == workloads.calls("tables", 42)
    outs = [{"rc": 0, "stdout": "x"} for _ in golden]
    assert workloads.check_tables(outs) == (4, 4)


def test_exact_json_is_identical_with_and_without_tracing(tmp_path):
    calls = workloads.calls("exact", 42)
    plain = run.spawn(calls)
    traced = run.spawn(calls, trace_out=str(tmp_path / "trace.json"))
    assert traced["outputs"] == plain["outputs"]
    assert workloads.check_exact(plain["outputs"][0]) == (34, 0)
    # the traced time is spent inside the CLI call
    self_sum = sum(v["self_s"] for v in traced["trace"]["layers"].values())
    assert self_sum <= traced["work_s"]
    spans = json.load(open(tmp_path / "trace.json", encoding="utf-8"))
    assert spans["spans"][0][1] == "cli.main"


def test_names_are_patched_where_they_are_looked_up(tmp_path):
    calls = [workloads.verify_argv(("cd",)),
             ["dump", "--set", "cd16", "--kind", "multiplication"]]
    report = run.spawn(calls, trace_out=str(tmp_path / "trace.json"))
    fns = report["trace"]["functions"]
    # suites imports these with `from ... import`
    assert fns["relations.check_so15"]["calls"] == 1
    assert fns["spans.span_rank"]["calls"] > 0
    # dump_tables reaches cd16 through a module-level dict
    assert fns["algebras.cd16"]["calls"] >= 1
    assert fns["relations.match_to_basis"]["calls"] == 16 * 16
    metrics = run.layer_metrics(report["trace"], {})
    assert metrics["operators.matmul.calls"] > 0
    assert metrics["relations.match_to_basis.hit_ratio"] == 1.0


def test_momentum_at_a_second_seed_has_no_verdict_errors():
    report = run.spawn(workloads.calls("momentum", 7))
    assert workloads.check_momentum(report["outputs"][0], 7) == (14, 0)
