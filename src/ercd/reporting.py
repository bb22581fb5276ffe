"""Run configuration, verification ledger and serialization.

A ledger is a list of claims, each tied to one relation of the algebra
(or marked out-of-scope). The ledger times the claims: a claim's runtime
is the wall time since the previous claim was recorded (or since the
ledger was created), so it includes any inputs the claim is the first to
need, and the runtimes of a run add up to its wall time. Reports are
reproducible: two runs with the same configuration serialize to
byte-identical JSON (the runtimes are excluded from the canonical body;
--timings opts them in).
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

SCHEMA_VERSION = 1

SUITE_NAMES = ("cd", "ercd", "percd", "so6", "a32", "pgi", "bosonic",
               "fw", "poincare")

DEFAULT_TOLERANCES: Dict[str, float] = {
    "momentum": 1e-12,    # sampled momentum-space identities
    "symmetry": 1e-10,    # generator/evolution commutators
    "closure": 1e-8,      # generator commutators minus oracle expansions
}


@dataclass(frozen=True)
class SuiteConfig:
    """Defaults fully determine a reproducible run."""

    suites: Tuple[str, ...] = ("all",)
    mass: float = 1.0
    samples: int = 200
    seed: int = 42
    tolerances: Tuple[Tuple[str, float], ...] = ()
    fmt: str = "text"
    inject_fault: Optional[Tuple[str, int, int]] = None
    timings: bool = False

    def tolerance(self, key: str) -> float:
        for k, v in self.tolerances:
            if k == key:
                return v
        return DEFAULT_TOLERANCES[key]

    def resolved_suites(self) -> Tuple[str, ...]:
        """The suites to run, in order, each once."""
        if "all" in self.suites:
            return SUITE_NAMES
        return tuple(dict.fromkeys(self.suites))


@dataclass
class Claim:
    claim_id: str
    anchor: str
    status: str            # pass | fail | out-of-scope
    residual: float = 0.0
    runtime_s: float = 0.0   # set by Ledger.add: time since the last claim
    detail: str = ""
    # the tolerance a sampled residual was judged against; 0.0 marks an
    # exact (zero-tolerance) claim. Not part of the canonical body.
    tolerance: float = 0.0

    @property
    def failed(self) -> bool:
        return self.status == "fail"


# claim_id -> anchor text; every relation of the verified algebra appears
# exactly once across the suites (checked by the coverage test and by
# run_suite when all suites run)
CLAIM_REGISTRY: Dict[str, str] = {
    "cd.adjoint-pattern": "time generator self-adjoint, space generators anti-self-adjoint",
    "cd.pauli-matrices": "Pauli matrix products and explicit 2x2 forms",
    "cd.gamma-blocks": "block forms of the four Dirac generators",
    "cd.gamma4": "fifth generator as the ordered product of the four",
    "cd.anticommutation-5": "five-generator anticommutation, metric (+----)",
    "cd.basis-16": "sixteen-ort basis {I, 2 s_mn} over six indices",
    "cd.quarter-commutators": "s_mn = [g_m, g_n]/4 with fifth-slot halves",
    "cd.so15-table": "full pseudo-rotation commutator table, diag(+1,-1x5)",
    "cd.generating-orts": "antisymmetric fifth-slot convention s_m5 = -s_5m = g_m/2",
    "poincare.canonical-pairs": "canonical pairs [p_n, x_m] = delta and momenta commuting",
    "pgi.set-8": "eight-element antilinear extension set closes as a real algebra",
    "pgi.lorentz-sextet": "six-generator Lorentz realization inside the eight-element set",
    "pgi.massless-symmetry": "eight-element set leaves the massless local equation invariant",
    "ercd.basis-64": "sixty-four orts: base set times {1, i, C, iC}",
    "ercd.independence": "the sixty-four orts are linearly independent over the reals",
    "ercd.hermiticity-split": "thirty-six Hermitian and twenty-eight anti-Hermitian orts",
    "ercd.ort-properties": "each ort squares to +-I; pairs commute or anticommute",
    "ercd.antihermitian-span": "anti-Hermitian orts span the twenty-eight rotation generators",
    "percd.seven-generators": "seven generating operators incl. the two antilinear ones",
    "percd.anticommutation-7": "seven-generator anticommutation equals -2 delta",
    "percd.basis-29": "twenty-nine-ort proper subalgebra basis {2 s_AB, I}",
    "percd.so8-table": "full compact rotation commutator table over eight indices",
    "percd.five-product": "ordered product of the five generators equals -I",
    "percd.seven-product": "ordered product of the seven equals I; g5 g6 = i",
    "percd.explicit-forms-extra": "tabulated closed forms of the seventh-index orts",
    "so6.basis-16": "sixteen-ort subalgebra over the first six indices",
    "so6.quarter-commutators": "six-index generators as quarter-commutators",
    "so6.generating-six": "first six generators generate the subalgebra",
    "so6.explicit-forms": "tabulated closed forms of the fifth/sixth-index orts",
    "a32.maximal-invariance": "thirty-two-dimensional maximal pure-matrix invariance set",
    "fw.wave-operator": "diagonalized Hamiltonian g0 omega(q)",
    "fw.local-hamiltonian": "local Hamiltonian alpha.q + beta m",
    "fw.transform-inverse": "basis-change symbols are mutually inverse",
    "fw.conjugation-identity": "conjugating the diagonalized Hamiltonian gives the local one",
    "fw.nonlocal-spin": "nonlocal spin commutes with the local Hamiltonian",
    "fw.nonlocal-rotations": "conjugated rotation generators keep the compact table",
    "fw.nonlocal-generators": "conjugated seven-generator set keeps -2 delta",
    "fw.negative-control": "a bare space generator is not an invariance of the diagonalized equation",
    "bosonic.so8-table": "bosonic-form rotation table holds exactly",
    "bosonic.generators": "bosonic forms of the seven generators match conjugation",
    "bosonic.extras": "bosonic forms of g0, i and conjugation match",
    "bosonic.basis-change": "basis change is invertible and fixes i g0",
    "poincare.generator-algebra": "ten generators: invariance and Lie closure",
    "poincare.spin-triplet": "explicit spin triplet: invariance and su(2) closure",
    "poincare.casimirs": "momentum square and spin square invariants",
    "poincare.spin-compositions": "spin triplet equals its generator compositions",
    "hilbert-space-setting": "function-space setting (out of scope: algebraic checks only)",
}


@dataclass
class Ledger:
    config: SuiteConfig
    claims: List[Claim] = field(default_factory=list)
    flags: List[str] = field(default_factory=list)
    _clock: float = field(default_factory=time.perf_counter, init=False,
                          repr=False)

    @property
    def passed(self) -> bool:
        return not any(c.failed for c in self.claims)

    def add(self, claim: Claim) -> None:
        if claim.claim_id in {c.claim_id for c in self.claims}:
            raise ValueError(f"duplicate claim id {claim.claim_id}")
        now = time.perf_counter()
        claim.runtime_s, self._clock = now - self._clock, now
        self.claims.append(claim)

    def summary(self) -> Dict[str, object]:
        return {
            "total": len(self.claims),
            "passed": sum(1 for c in self.claims if c.status == "pass"),
            "failed": sum(1 for c in self.claims if c.status == "fail"),
            "out_of_scope": sum(1 for c in self.claims
                                if c.status == "out-of-scope"),
            "overall": "pass" if self.passed else "fail",
        }

    def validate_coverage(self) -> None:
        """With all suites run, every registered relation appears; add
        refuses a repeated id, so each appears exactly once."""
        seen = [c.claim_id for c in self.claims]
        missing = [k for k in CLAIM_REGISTRY if k not in seen]
        extra = [k for k in seen if k not in CLAIM_REGISTRY]
        if missing or extra:
            raise AssertionError(
                f"claim coverage broken: missing={missing} extra={extra}")

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        claims = []
        for c in self.claims:
            row: Dict[str, object] = {
                "id": c.claim_id,
                "anchor": c.anchor,
                "status": c.status,
                "residual": c.residual,
                "detail": c.detail,
            }
            if self.config.timings:
                row["runtime_s"] = round(c.runtime_s, 3)
            claims.append(row)
        return {
            "schema_version": SCHEMA_VERSION,
            "config": {
                "suites": list(self.config.resolved_suites()),
                "mass": self.config.mass,
                "samples": self.config.samples,
                "seed": self.config.seed,
                "tolerances": {k: self.config.tolerance(k)
                               for k in DEFAULT_TOLERANCES},
            },
            "claims": claims,
            "flags": list(self.flags),
            "summary": self.summary(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["claim_id", "anchor", "status", "residual", "detail"])
        for c in self.claims:
            writer.writerow([c.claim_id, c.anchor, c.status,
                             repr(c.residual), c.detail])
        return buf.getvalue()

    def to_text(self) -> str:
        lines = []
        width = max(len(c.claim_id) for c in self.claims) if self.claims else 10
        for c in self.claims:
            status = c.status.upper()
            if c.residual == 0.0 and c.tolerance == 0.0:
                res = "mismatch" if c.status == "fail" else "exact"
            else:
                res = f"{c.residual:.2e}"
            lines.append(f"{c.claim_id:<{width}}  {status:<12} residual={res:<10}"
                         f" {c.runtime_s:7.3f}s  {c.detail}")
        for flag in self.flags:
            lines.append(f"FLAG: {flag}")
        s = self.summary()
        lines.append(f"{s['passed']}/{s['total']} passed, {s['failed']} failed, "
                     f"{s['out_of_scope']} out-of-scope -> {s['overall'].upper()}")
        return "\n".join(lines) + "\n"

    def render(self) -> str:
        if self.config.fmt == "json":
            return self.to_json()
        if self.config.fmt == "csv":
            return self.to_csv()
        return self.to_text()
