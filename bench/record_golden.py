"""Record the golden outputs the benchmark checks against.

    python3 bench/record_golden.py

Run it from the repository root, at a commit whose outputs are known to
be right. It runs the workloads' CLI calls in this process and writes:

    golden/exact.json     the canonical JSON report of the exact suites
    golden/momentum.json  claim ids, anchors and tolerance keys, flags,
                          config (without the seed) and summary at seed 42
    golden/tables.json    SHA-256 and length of each table dump
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import ercd.cli  # noqa: E402

import workloads  # noqa: E402

# The ledger has no field naming the tolerance a claim was judged by. The
# closure claim reports max(symmetry residual, fit residual), so the
# tighter of the two tolerances bounds it; every other momentum claim is
# judged against the momentum tolerance (or a fixed bound equal to it).
TOLERANCE_KEYS = {"poincare.generator-algebra": ["symmetry", "closure"]}


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = ercd.cli.main(argv)
    return rc, buf.getvalue()


def _write(name, text):
    with open(os.path.join(workloads.GOLDEN_DIR, name), "w",
               encoding="utf-8") as fh:
        fh.write(text)


def main() -> None:
    os.makedirs(workloads.GOLDEN_DIR, exist_ok=True)
    (argv,) = workloads.calls("exact", 42)
    rc, text = _run(argv)
    if rc != 1:
        sys.exit(f"exact workload exited {rc}, expected 1")
    _write("exact.json", text)

    (argv,) = workloads.calls("momentum", 42)
    rc, text = _run(argv)
    if rc != 0:
        sys.exit(f"momentum workload exited {rc}, expected 0")
    doc = json.loads(text)
    doc["config"].pop("seed")
    golden = {
        "claims": [{"id": c["id"], "anchor": c["anchor"],
                    "tolerance_keys": TOLERANCE_KEYS.get(c["id"],
                                                         ["momentum"])}
                   for c in doc["claims"]],
        "flags": doc["flags"],
        "config": doc["config"],
        "summary": doc["summary"],
    }
    _write("momentum.json", json.dumps(golden, indent=2) + "\n")

    tables = []
    for argv in workloads.calls("tables", 42):
        rc, text = _run(argv)
        if rc != 0:
            sys.exit(f"{' '.join(argv)} exited {rc}")
        tables.append({"argv": argv, "digest": workloads.table_digest(text)})
    _write("tables.json", json.dumps(tables, indent=2) + "\n")


if __name__ == "__main__":
    main()
