"""The benchmark's workloads and the checks of their outputs.

Each workload is the list of ``ercd`` CLI calls one cold process makes,
and a check that compares what the calls printed, and their exit codes,
with the golden outputs under ``golden/``. A check returns
``(attempted, failed)``: the number of verdicts compared and the number
that differ from the golden ("verdict errors").
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Dict, List, Optional, Sequence, Tuple

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")

EXACT_SUITES = ("cd", "ercd", "percd", "so6", "a32", "pgi", "bosonic")
MOMENTUM_SUITES = ("fw", "poincare")
TABLE_DUMPS = (("ercd64", "multiplication"), ("ercd64", "commutator"),
               ("ercd64", "structure-constants"),
               ("a32", "structure-constants"))

Output = Dict[str, object]  # {"rc": exit code, "stdout": text}


def verify_argv(suites: Sequence[str], *extra: str) -> List[str]:
    argv = ["verify"]
    for suite in suites:
        argv += ["--suite", suite]
    return argv + ["--format", "json", *extra]


def calls(workload: str, seed: int) -> List[List[str]]:
    """CLI calls of one cold process. Only momentum uses the seed."""
    if workload == "exact":
        return [verify_argv(EXACT_SUITES)]
    if workload == "momentum":
        return [verify_argv(MOMENTUM_SUITES, "--seed", str(seed))]
    if workload == "tables":
        return [["dump", "--set", name, "--kind", kind, "--format", "json"]
                for name, kind in TABLE_DUMPS]
    raise ValueError(f"unknown workload {workload!r}")


def components(workload: str, seed: int) -> List[List[List[str]]]:
    """The cold processes of one timed cycle, each a list of CLI calls.

    A timed run (run.py) starts one process per suite or per dump, so that
    a run holds many short processes rather than two or three long ones.
    """
    if workload == "exact":
        return [[verify_argv((suite,))] for suite in EXACT_SUITES]
    if workload == "momentum":
        return [[verify_argv((suite,), "--seed", str(seed))]
                for suite in MOMENTUM_SUITES]
    return [[argv] for argv in calls(workload, seed)]


def _golden(name: str):
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
        return fh.read()


def _render(doc) -> str:
    # the ledger's canonical serialization (reporting.Ledger.to_json)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def canonical(text: str) -> str:
    """A verify JSON report without the opt-in --timings fields."""
    doc = json.loads(text)
    for claim in doc["claims"]:
        claim.pop("runtime_s", None)
    return _render(doc)


def expected_exact(suites: Sequence[str] = EXACT_SUITES
                   ) -> Tuple[str, int, list]:
    """Golden report, exit code and claims of the exact suites given.

    The golden file holds the report of all seven exact suites; a subset
    keeps its claims and recomputes the summary the way the ledger does.
    """
    doc = json.loads(_golden("exact.json"))
    claims = [c for c in doc["claims"] if c["id"].split(".")[0] in suites]
    failed = sum(c["status"] == "fail" for c in claims)
    doc["claims"] = claims
    doc["config"]["suites"] = list(suites)
    doc["summary"] = {
        "total": len(claims),
        "passed": sum(c["status"] == "pass" for c in claims),
        "failed": failed,
        "out_of_scope": sum(c["status"] == "out-of-scope" for c in claims),
        "overall": "fail" if failed else "pass",
    }
    return _render(doc), 1 if failed else 0, claims


def _claims_of(out: Output):
    try:
        doc = json.loads(out["stdout"])
        return doc, doc["claims"]
    except (ValueError, KeyError, TypeError):
        return None, []


def check_exact(out: Output, suites: Sequence[str] = EXACT_SUITES
                ) -> Tuple[int, int]:
    """Byte-for-byte against the golden report.

    One verdict per claim, plus one for the rest of the report and the
    exit code.
    """
    text, rc, claims = expected_exact(suites)
    doc, got = _claims_of(out)
    errors = sum(1 for i in range(max(len(claims), len(got)))
                 if i >= len(claims) or i >= len(got)
                 or {k: v for k, v in got[i].items() if k != "runtime_s"}
                 != claims[i])
    body_ok = doc is not None and canonical(out["stdout"]) == text
    if out["rc"] != rc or (not body_ok and errors == 0):
        errors += 1
    return len(claims) + 1, errors


# the claim whose check adds the sign flag to the ledger (suites.py)
FLAG_CLAIM = "poincare.casimirs"


def check_momentum(out: Output, seed: int,
                   suites: Sequence[str] = MOMENTUM_SUITES
                   ) -> Tuple[int, int]:
    """Claim ids in order, all pass, residuals below their tolerance,
    the sign flag and exit 0. Residual bytes are not compared: their last
    bits may change with the evaluation order. A subset of the suites
    keeps its claims, and the flag only if it runs FLAG_CLAIM.
    """
    golden = json.loads(_golden("momentum.json"))
    doc, got = _claims_of(out)
    expected = [c for c in golden["claims"]
                if c["id"].split(".")[0] in suites]
    errors = 0
    tolerances = golden["config"]["tolerances"]
    for i in range(max(len(expected), len(got))):
        if i >= len(expected) or i >= len(got):
            errors += 1
            continue
        want, claim = expected[i], got[i]
        tol = min(tolerances[k] for k in want["tolerance_keys"])
        residual = claim.get("residual")
        ok = (claim.get("id") == want["id"]
              and claim.get("anchor") == want["anchor"]
              and claim.get("status") == "pass"
              and isinstance(residual, float) and math.isfinite(residual)
              and residual < tol)
        errors += not ok
    config = dict(golden["config"], seed=seed, suites=list(suites))
    flags = (golden["flags"]
             if any(c["id"] == FLAG_CLAIM for c in expected) else [])
    summary = dict(golden["summary"], total=len(expected),
                   passed=len(expected))
    envelope_ok = (doc is not None and out["rc"] == 0
                   and doc.get("config") == config
                   and doc.get("flags") == flags
                   and doc.get("summary") == summary)
    errors += not envelope_ok
    return len(expected) + 1, errors


def table_digest(text: str) -> Dict[str, object]:
    data = text.encode("utf-8")
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def check_tables(outs: Sequence[Output],
                 dumps: Optional[Sequence[int]] = None) -> Tuple[int, int]:
    """Each dump byte for byte (by SHA-256 and length) and exit 0.

    ``dumps`` are the indices into TABLE_DUMPS that ``outs`` hold, in
    order; by default all of them.
    """
    golden = json.loads(_golden("tables.json"))
    want = [golden[i] for i in (range(len(golden)) if dumps is None
                                else dumps)]
    errors = sum(1 for i, w in enumerate(want)
                 if i >= len(outs) or outs[i]["rc"] != 0
                 or table_digest(outs[i]["stdout"]) != w["digest"])
    errors += max(0, len(outs) - len(want))
    return len(want), errors


def check(workload: str, seed: int, outs: Sequence[Output]
          ) -> Tuple[int, int]:
    """Check the outputs of workloads.calls(workload, seed)."""
    if workload == "exact":
        return check_exact(outs[0])
    if workload == "momentum":
        return check_momentum(outs[0], seed)
    return check_tables(outs)


def check_component(workload: str, seed: int, index: int,
                    outs: Sequence[Output]) -> Tuple[int, int]:
    """Check the outputs of components(workload, seed)[index]."""
    if workload == "exact":
        return check_exact(outs[0], (EXACT_SUITES[index],))
    if workload == "momentum":
        return check_momentum(outs[0], seed, (MOMENTUM_SUITES[index],))
    return check_tables(outs, (index,))
