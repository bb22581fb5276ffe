"""Benchmark of the cold ``ercd`` command line, end to end and per layer.

    python3 bench/run.py --workload exact --seed 42 --seconds 40 --trace 0

Run from the repository root. Every measured process is a cold,
single-threaded child (bench/child.py) that imports ercd from ``src/`` and
makes CLI calls, one process at a time (closed loop, one client).

--trace 0  after a warm-up import and five import-only processes, cycles
           through the workload's processes (one per suite or dump) until
           the next would overrun --seconds, each at least once. Every
           time is scaled by the host's speed, which this process probes
           on the child's CPU while the child runs (see spawn and
           reference.py). Reports the end-to-end metrics.
--trace 1  runs one untraced and one traced process and reports the
           per-layer metrics of the traced one (see tracer.py), with the
           tracing overhead.

Every process's outputs are checked against golden/ (workloads.py). The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Run metadata is printed on the line before
it and, with the raw samples, written under .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import reference
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(ROOT, "bench", "child.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150
# scaled times are seconds on a host where one reference.probe() takes
# REF_S of CPU time (3-7 ms on the 2-vCPU host of bench/README.md)
REF_S = 0.005
PROBE_PERIOD_S = 0.2

# the six costliest claims of the baseline in ROADMAP.md
COSTLY_CLAIMS = ("poincare.generator-algebra", "ercd.ort-properties",
                 "percd.so8-table", "bosonic.so8-table",
                 "a32.maximal-invariance", "cd.so15-table")
SUITES = workloads.EXACT_SUITES + workloads.MOMENTUM_SUITES


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong program output)."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": SRC,
        "PYTHONHASHSEED": "0",
        # single-threaded: no BLAS or OpenMP worker threads
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def spawn(calls: List[List[str]], trace_out: Optional[str] = None,
          probe: bool = False) -> dict:
    """Run one cold child process; return its report plus wall_s.

    While it runs, this process probes the host's speed (reference.py)
    once before the spawn and every PROBE_PERIOD_S after it; the report's
    ``scale`` is REF_S over the probes' mean CPU time.
    """
    spec = {"src": SRC, "calls": calls, "trace_out": trace_out,
            "probe": probe}
    probes = [reference.probe()]
    t_spawn = time.monotonic()
    spec["t_spawn"] = t_spawn
    proc = subprocess.Popen([sys.executable, CHILD, json.dumps(spec)],
                            cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        while True:
            try:
                out, err = proc.communicate(timeout=PROBE_PERIOD_S)
                break
            except subprocess.TimeoutExpired:
                if time.monotonic() - t_spawn > CHILD_TIMEOUT_S:
                    raise BenchError(f"child exceeded {CHILD_TIMEOUT_S} s")
                probes.append(reference.probe())
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    wall = time.monotonic() - t_spawn
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    report = json.loads(out.splitlines()[-1])
    report["wall_s"] = wall
    report["probe_s"] = statistics.fmean(probes)
    report["scale"] = REF_S / report["probe_s"]
    return report


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    """Cycles through the workload's cold processes until --seconds.

    Each process's times are scaled by its ``scale`` (see spawn): the
    host's speed drifts by up to 1.8 times within a minute, and the scale
    takes most of that out. A time metric is the sum, over the workload's
    processes, of the median of each one's scaled times.
    """
    start = time.monotonic()
    warm = spawn([], probe=True)  # compiles bytecode, warms the file cache
    setups = [spawn([]) for _ in range(SETUP_PROBES)]
    components = workloads.components(workload, seed)
    runs: List[List[dict]] = [[] for _ in components]
    attempted = failed = 0
    i = 0
    while True:
        k = i % len(components)
        report = spawn(components[k])
        runs[k].append(report)
        a, f = workloads.check_component(workload, seed, k,
                                         report["outputs"])
        attempted += a
        failed += f
        i += 1
        # stop once every process has run and the next one, at its last
        # time, would overrun
        nxt = runs[i % len(components)]
        if nxt and time.monotonic() - start + nxt[-1]["wall_s"] > seconds:
            break

    def total(key):
        return sum(statistics.median(r[key] * r["scale"] for r in rs)
                   for rs in runs)

    everything = setups + [r for rs in runs for r in rs]
    metrics = {
        "wall_ref_s": total("wall_s"),
        "setup_s": statistics.median(r["setup_s"] * r["scale"]
                                     for r in everything),
        "work_ref_s": total("work_s"),
        "peak_rss_mb": max(statistics.median(r["peak_rss_kb"] for r in rs)
                           for rs in runs) / 1024.0,
    }
    keys = ("wall_s", "setup_s", "work_s", "probe_s", "peak_rss_kb")
    samples = {
        "setup": {key: [r[key] for r in setups] for key in keys},
        "processes": [dict(argv=calls, **{key: [r[key] for r in rs]
                                          for key in keys})
                      for calls, rs in zip(components, runs)],
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "samples": samples, "probe": warm["probe"]}


def _claim_times(outputs) -> Dict[str, float]:
    times: Dict[str, float] = {}
    for out in outputs:
        try:
            claims = json.loads(out["stdout"])["claims"]
        except (ValueError, KeyError, TypeError):
            continue
        for claim in claims:
            times[claim["id"]] = claim.get("runtime_s", 0.0)
    return times


def layer_metrics(summary: dict, claim_times: Dict[str, float]) -> dict:
    """The per-layer metrics of BENCHMARK.json from a traced child."""
    fns, layers = summary["functions"], summary["layers"]

    def fn(key, field="calls"):
        return fns.get(key, {}).get(field, 0 if field == "calls" else 0.0)

    def ratio(key):
        calls = fn(key)
        return fn(key, "hits") / calls if calls else 0.0

    op = "operators.GeneralOp."
    addsub = (op + "__add__", op + "__sub__")
    m = {
        "operators.self_s": layers["operators"]["self_s"],
        "operators.matmul.calls": fn(op + "__matmul__"),
        "operators.matmul.self_s": fn(op + "__matmul__", "self_s"),
        "operators.addsub.calls": sum(fn(k) for k in addsub),
        "operators.addsub.self_s": sum(fn(k, "self_s") for k in addsub),
        "operators.eq.calls": fn(op + "__eq__"),
        "operators.hash.calls": fn(op + "__hash__"),
        "operators.vectorize.calls": fn(op + "vectorize"),
        "spans.self_s": layers["spans"]["self_s"],
        "spans.express.calls": fn("spans.ExactSpan.express"),
        "spans.contains.calls": fn("spans.ExactSpan.contains"),
        "spans.add.calls": fn("spans.ExactSpan.add"),
        "spans.add.independent_ratio": ratio("spans.ExactSpan.add"),
        "spans.structure_constants.incl_s":
            fn("spans.structure_constants", "incl_s"),
        "spans.centralizer_kernel.incl_s":
            fn("spans.centralizer_kernel", "incl_s"),
        "relations.self_s": layers["relations"]["self_s"],
        "relations.check_rotation_table.incl_s":
            fn("relations.check_rotation_table", "incl_s"),
        "relations.squares_and_pairing_check.incl_s":
            fn("relations.squares_and_pairing_check", "incl_s"),
        "relations.closure_check.incl_s":
            fn("relations.closure_check", "incl_s"),
        "relations.match_to_basis.calls": fn("relations.match_to_basis"),
        "relations.match_to_basis.hit_ratio":
            ratio("relations.match_to_basis"),
        # outermost calls into algebras: the ort-set constructors' first,
        # uncached calls plus cache hits of a few microseconds
        "algebras.build.incl_s": layers["algebras"]["incl_s"],
        "symbols.self_s": layers["symbols"]["self_s"],
        "symbols.eval.calls": fn("symbols.MomentumSymbol.__call__"),
        "symbols.check_equation_symmetry.calls":
            fn("symbols.check_equation_symmetry"),
        "xops.closure_fit.self_s":
            fn("xops.poincare_closure_check", "self_s"),
        "xops.self_s": layers["xops"]["self_s"],
        "poincare_oracle.table.incl_s":
            fn("poincare_oracle.oracle_structure_table", "incl_s"),
        "reporting.render.incl_s": fn("reporting.Ledger.render", "incl_s"),
        "suites.self_s": layers["suites"]["self_s"],
    }
    for suite in SUITES:
        m[f"suite.{suite}.s"] = sum((t for cid, t in claim_times.items()
                                     if cid.split(".")[0] == suite), 0.0)
    for cid in COSTLY_CLAIMS:
        m[f"claim.{cid}.s"] = claim_times.get(cid, 0.0)
    return m


def traced_run(workload: str, seed: int) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_out = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    calls = workloads.calls(workload, seed)
    plain = spawn(calls)
    # --timings adds per-claim runtimes; the checks ignore them
    traced = spawn([argv + ["--timings"] if argv[0] == "verify" else argv
                    for argv in calls], trace_out=trace_out, probe=True)
    attempted = failed = 0
    for report in (plain, traced):
        a, f = workloads.check(workload, seed, report["outputs"])
        attempted += a
        failed += f
    summary = traced["trace"]
    metrics = layer_metrics(summary, _claim_times(traced["outputs"]))
    metrics.update({
        "trace.wall_s": traced["wall_s"],
        "trace.work_s": traced["work_s"],
        "trace.untraced_wall_s": plain["wall_s"],
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        "trace.self_sum_s": sum(v["self_s"]
                                for v in summary["layers"].values()),
        "trace.wrapped": len(summary["functions"]),
        "trace.called": sum(1 for v in summary["functions"].values()
                            if v["calls"]),
    })
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "functions": summary["functions"],
            "trace_file": os.path.relpath(trace_out, ROOT),
            "probe": traced["probe"]}


def declared_units(trace: int) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def _git_commit() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    """SHA-256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "ercd")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact", "momentum", "tables"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ercd", "cli.py")):
        print(f"bench: no ercd sources under {SRC}", file=sys.stderr)
        return 2
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }
    # the children inherit the CPU, so the probes run where they do
    meta["cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {meta["cpu"]})
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed)
        else:
            result = timed_run(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    meta.update(result.pop("probe"))
    units = declared_units(args.trace)
    if set(units) != set(result["metrics"]):
        print("bench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(units) ^ set(result['metrics']))}",
              file=sys.stderr)
        return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(result, meta=meta), fh, indent=1)
    if args.trace:
        for key, st in sorted(result["functions"].items()):
            print(f"{st['calls']:9d} calls  {st['self_s']:9.4f} s self  "
                  f"{key}")
    print("meta: " + json.dumps(meta))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k], "unit": unit}
                    for k, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
