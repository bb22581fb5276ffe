"""Command-line verification harness.

    ercd verify --suite ercd --format json --out report.json
    ercd dump --set percd29 --kind structure-constants --format csv

Exit status: 0 all checks pass, 1 verification failure, 2 usage or
configuration error. ERCD_OUT_DIR sets the default output directory for
relative output paths.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import List, Optional

from .reporting import DEFAULT_TOLERANCES, SUITE_NAMES, SuiteConfig
from .suites import DUMP_KINDS, dump_tables, run_suite

_SUITE_CHOICES = SUITE_NAMES + ("all",)
_TOL_KEYS = tuple(DEFAULT_TOLERANCES)

# glibc's mallopt parameters (malloc.h) and the values the command line sets.
# A flip-law commutator at the default 200 points allocates and frees a few
# MB of 100 KB arrays. By default glibc hands free memory at the top of its
# heap back to the OS once 128 KiB gather there, and page-faults it in again
# for the next commutator. The values are the caps of glibc's own dynamic
# thresholds on 64-bit hosts: the heap keeps up to 64 MiB of freed memory,
# and it serves every array below 32 MiB, which is not mapped on its own.
# Setting either parameter stops glibc adjusting both, so both are set: with
# only the trim threshold, each 512 KB array of a 1000-point run would be
# mapped and unmapped anew.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_SETTINGS = ((_M_TRIM_THRESHOLD, 64 << 20), (_M_MMAP_THRESHOLD, 32 << 20))


@functools.cache
def _keep_freed_heap() -> None:
    """Let glibc's heap keep the memory it frees, once per process; a no-op
    on any other C library. Only the command line sets this: importing
    ercd leaves the importer's allocator alone."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):
        return
    import ctypes  # numpy has loaded it already
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _HEAP_SETTINGS:
        mallopt(param, value)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ercd",
        description="Verification engine for the 64-dimensional extended "
                    "real Clifford-Dirac operator algebra.")
    sub = parser.add_subparsers(dest="command")

    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument("--suite", action="append", choices=_SUITE_CHOICES,
                        help="suite to run (repeatable; default: all)")
    verify.add_argument("--mass", type=float, default=1.0,
                        help="mass parameter for momentum-space suites")
    verify.add_argument("--samples", type=int, default=200,
                        help="seeded momentum sample count: poincare uses "
                             "exactly this many points for every sampled "
                             "check; fw uses at least 100 and fixed counts "
                             "for some checks, named in each claim's detail")
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--tol", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="tolerance override: " + "|".join(_TOL_KEYS))
    verify.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
    verify.add_argument("--out", help="output path (default: stdout)")
    verify.add_argument("--timings", action="store_true",
                        help="include per-claim runtimes in JSON output: "
                             "the time since the previous claim, so a "
                             "suite's claims sum to its run")
    verify.add_argument("--inject-fault", metavar="GAMMA,ROW,COL",
                        help="test only: corrupt one generator matrix entry, "
                             "e.g. g2,0,1")

    dump = sub.add_parser("dump", help="dump complete operator tables")
    dump.add_argument("--set", required=True, dest="set_name",
                      help="cd16 | ercd64 | percd29 | so6 | a32 | pgi8")
    dump.add_argument("--kind", required=True, choices=DUMP_KINDS)
    dump.add_argument("--format", choices=("json", "csv"), default="json")
    dump.add_argument("--out", help="output path (default: stdout)")
    return parser


def _parse_tolerances(pairs: List[str]):
    out = []
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--tol must be KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        if key not in _TOL_KEYS:
            raise ValueError(f"--tol key must be {', '.join(_TOL_KEYS[:-1])} "
                             f"or {_TOL_KEYS[-1]}, got {key!r}")
        try:
            tol = float(value)
        except ValueError:
            raise ValueError(f"--tol {key} must be a number, "
                             f"got {value!r}") from None
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"--tol {key} must be finite and positive, "
                             f"got {value}")
        out.append((key, tol))
    return tuple(out)


def _check_run_numbers(mass: float, samples: int, seed: int) -> None:
    # the largest intermediate of the suites is 2 w (w + m) ~ 4 m^2, formed
    # by the fw closed forms (and m^2 by the Casimir p.p = -m^2); below a
    # normal 4 m^2 it loses its digits there or underflows to w(0) = 0
    square = 4.0 * mass * mass
    if not (mass >= 0 and math.isfinite(square)
            and (mass == 0 or square >= sys.float_info.min)):
        raise ValueError("--mass must be 0, or positive with 4 m^2 finite "
                         f"and normal, got {mass}")
    if samples < 1:
        raise ValueError(f"--samples must be at least 1, got {samples}")
    if seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {seed}")


def _parse_fault(spec: Optional[str]):
    if spec is None:
        return None
    parts = spec.split(",")
    if len(parts) != 3:
        raise ValueError("--inject-fault must be GAMMA,ROW,COL (e.g. "
                         f"g2,0,1), got {spec!r}")
    target = parts[0]
    try:
        row, col = int(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError("--inject-fault ROW and COL must be integers, "
                         f"got {spec!r}") from None
    if target not in ("g0", "g1", "g2", "g3", "g4"):
        raise ValueError("--inject-fault GAMMA must be one of g0..g4, "
                         f"got {target!r}")
    if not (0 <= row < 4 and 0 <= col < 4):
        raise ValueError("--inject-fault ROW and COL must be in 0..3, "
                         f"got {spec!r}")
    return (target, row, col)


def _resolve_out(path: Optional[str]) -> Optional[str]:
    if path is None:
        return None
    if os.path.isabs(path):
        return path
    base = os.environ.get("ERCD_OUT_DIR")
    return os.path.join(base, path) if base else path


def _emit(content: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(content)
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(content)


def main(argv: Optional[List[str]] = None) -> int:
    _keep_freed_heap()
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] not in ("verify", "dump", "-h", "--help"):
        argv.insert(0, "verify")  # bare flags mean verify
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command is None:
        parser.print_help()
        return 2

    try:
        if args.command == "dump":
            content = dump_tables(args.set_name, args.kind, args.format)
            _emit(content, _resolve_out(args.out))
            return 0

        _check_run_numbers(args.mass, args.samples, args.seed)
        config = SuiteConfig(
            suites=tuple(args.suite) if args.suite else ("all",),
            mass=args.mass,
            samples=args.samples,
            seed=args.seed,
            tolerances=_parse_tolerances(args.tol),
            fmt=args.format,
            inject_fault=_parse_fault(args.inject_fault),
            timings=args.timings,
        )
        ledger = run_suite(config)
        _emit(ledger.render(), _resolve_out(args.out))
        return 0 if ledger.passed else 1
    except (ValueError, OSError) as exc:
        print(f"ercd: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
