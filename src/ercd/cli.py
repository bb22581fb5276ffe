"""Command-line verification harness.

    ercd verify --suite ercd --format json --out report.json
    ercd dump --set percd29 --kind structure-constants --format csv

Each command reads its options from one table (_VERIFY, _DUMP), which
also gives its help. An option takes its value as --opt VALUE or
--opt=VALUE, and a unique prefix of its name names it (--samp 3). A
value may be a negative number (--mass -1); any other word that starts
with '-' is read as an option. --suite and --tol accumulate when
repeated; a --tol key given twice keeps its last value. Options with no
command mean verify. -h or --help prints help and exits 0; ercd with no
arguments prints it and exits 2.

Exit status: 0 all checks pass, 1 verification failure, 2 usage or
configuration error. A usage error prints one line, 'ercd: error: ...',
and raises SystemExit(2) before any suite runs. ERCD_OUT_DIR sets the
default output directory for relative output paths.
"""

from __future__ import annotations

import functools
import gc
import math
import os
import sys
from typing import Dict, List, NoReturn, Optional, Tuple

from .reporting import DEFAULT_TOLERANCES, SUITE_NAMES, SuiteConfig
from .suites import DUMP_KINDS, DUMP_SETS, dump_tables, run_suite

_TOL_KEYS = tuple(DEFAULT_TOLERANCES)

# `import ercd.cli` leaves about 22,500 objects that the cyclic collector
# tracks, numpy's and ercd's module graph, which live until exit. Every
# collection of the oldest generation traverses them, and so do the last
# collections of interpreter shutdown, which were most of a cold run's
# shutdown time (README, "Performance"). gc.freeze() moves them into the
# permanent generation, which no collection traverses; objects made during
# a run are collected as before.
#
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
def _hold_process_heap() -> None:
    """Once per process, freeze the start-up heap out of the collector's
    reach and let glibc's heap keep the memory it frees. The freeze is a
    no-op where the interpreter has no gc.freeze, and the heap setting on
    any C library but glibc. Only the command line sets these: importing
    ercd leaves the importer's allocator and collector alone."""
    freeze = getattr(gc, "freeze", None)
    if freeze is not None:
        freeze()
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


class _Opt:
    """One option of a command: the parser and the help text read it.
    kind str, int or float converts the one value, list appends each
    value, and bool takes no value."""

    def __init__(self, flag: str, kind: type, help: str, default=None,
                 choices: Tuple[str, ...] = (), metavar: str = "",
                 required: bool = False):
        self.flag, self.kind, self.help = flag, kind, help
        self.default, self.choices, self.required = default, choices, required
        self.dest = flag[2:].replace("-", "_")
        self.metavar = "{" + ",".join(choices) + "}" if choices else metavar


_HELP = _Opt("--help", bool, "(or -h) show this help and exit")
_OUT = _Opt("--out", str, "output path (default: stdout)", metavar="PATH")

_VERIFY = (
    _HELP,
    _Opt("--suite", list, "suite to run, repeatable", ("all",),
         SUITE_NAMES + ("all",)),
    _Opt("--mass", float, "mass parameter for momentum-space suites", 1.0,
         metavar="M"),
    _Opt("--samples", int, "seeded momentum points, one batch per momentum "
         "suite; fw's light-cone and conjugation checks read at most 40 of "
         "them and its flip checks at most 4, as each claim's detail names",
         200, metavar="N"),
    _Opt("--seed", int, "seed of the sampled momenta", 42, metavar="N"),
    _Opt("--tol", list, "tolerance override, repeatable: KEY is "
         + " | ".join(_TOL_KEYS), (), metavar="KEY=VALUE"),
    _Opt("--format", str, "report format", "text", ("text", "json", "csv")),
    _OUT,
    _Opt("--timings", bool, "include per-claim runtimes in JSON output: "
         "the time since the previous claim, so a suite's claims sum to "
         "its run", False),
    _Opt("--inject-fault", str, "test only: corrupt one generator matrix "
         "entry, e.g. g2,0,1", metavar="GAMMA,ROW,COL"),
)
_DUMP = (
    _HELP,
    _Opt("--set", str, "operator set: " + " | ".join(DUMP_SETS),
         metavar="SET", required=True),
    _Opt("--kind", str, "table kind", choices=DUMP_KINDS, required=True),
    _Opt("--format", str, "table format", "json", ("json", "csv")),
    _OUT,
)
_COMMANDS = {"verify": ("run verification suites", _VERIFY),
             "dump": ("dump complete operator tables", _DUMP)}


def _help(*commands: str) -> str:
    """Help for the commands given, with every option and choice."""
    lines = ["usage: ercd [verify|dump] [options]", "",
             "Verification engine for the 64-dimensional extended real "
             "Clifford-Dirac operator algebra. Options with no command mean "
             "verify. A unique prefix of an option names it, and "
             "--opt=VALUE is --opt VALUE. Exit status: 0 all checks pass, "
             "1 a verification failure, 2 a usage or configuration error."]
    for command in commands:
        about, table = _COMMANDS[command]
        lines += ["", f"ercd {command}: {about}"]
        for opt in table:
            shown = (",".join(opt.default) if opt.kind is list
                     else opt.default)
            note = (" (required)" if opt.required else
                    f" (default: {shown})" if shown not in (None, False, "")
                    else "")
            lines += [f"  {opt.flag} {opt.metavar}".rstrip(),
                      f"      {opt.help}{note}"]
    return "\n".join(lines) + "\n"


def _usage_error(message: str) -> NoReturn:
    print(f"ercd: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _is_value(token: str) -> bool:
    """Whether token is a value rather than an option: it does not start
    with '-', or it is '-' or a number such as -1 or -1e5."""
    if not token.startswith("-") or token == "-":
        return True
    try:
        float(token)
    except ValueError:
        return False
    return True


def _parse(argv: List[str]) -> Dict[str, object]:
    """The command and its option values, keyed by dest; a usage error
    prints one line and raises SystemExit(2), -h prints help and raises
    SystemExit(0)."""
    if argv[0] in ("-h", "--help"):
        sys.stdout.write(_help(*_COMMANDS))
        raise SystemExit(0)
    command = argv[0] if argv[0] in _COMMANDS else "verify"
    table = _COMMANDS[command][1]
    values: Dict[str, object] = {}
    tokens = iter(argv[1:] if argv[0] in _COMMANDS else argv)
    for token in tokens:
        if _is_value(token):
            _usage_error(f"unrecognized arguments: {token}")
        name, eq, value = token.partition("=")
        # a name in full or a unique prefix: no flag is a prefix of another
        prefix = "--help" if name == "-h" else name
        matches = [opt for opt in table if opt.flag.startswith(prefix)]
        if len(matches) != 1:
            _usage_error(f"ambiguous option: {name} could match "
                         + ", ".join(opt.flag for opt in matches)
                         if matches else f"unrecognized arguments: {name}")
        opt = matches[0]
        if opt.kind is bool:
            if eq:
                _usage_error(f"argument {opt.flag}: ignored explicit "
                             f"argument {value!r}")
            if opt is _HELP:
                sys.stdout.write(_help(command))
                raise SystemExit(0)
            values[opt.dest] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or not _is_value(value):
                _usage_error(f"argument {opt.flag}: expected one argument")
        if opt.choices and value not in opt.choices:
            _usage_error(f"argument {opt.flag}: invalid choice: {value!r} "
                         f"(choose from {', '.join(opt.choices)})")
        if opt.kind is list:
            values.setdefault(opt.dest, []).append(value)
            continue
        try:
            values[opt.dest] = opt.kind(value)
        except ValueError:
            _usage_error(f"argument {opt.flag}: invalid "
                         f"{opt.kind.__name__} value: {value!r}")
    missing = [opt.flag for opt in table
               if opt.required and opt.dest not in values]
    if missing:
        _usage_error("the following arguments are required: "
                     + ", ".join(missing))
    for opt in table:
        values.setdefault(opt.dest, opt.default)
    values["command"] = command
    return values


def _parse_tolerances(pairs: List[str]):
    """The --tol overrides as (key, value), the last value of each key."""
    out = {}
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
        out[key] = tol
    return tuple(out.items())


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
    _hold_process_heap()
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        sys.stdout.write(_help(*_COMMANDS))
        return 2
    opts = _parse(argv)

    try:
        if opts["command"] == "dump":
            content = dump_tables(opts["set"], opts["kind"], opts["format"])
            _emit(content, _resolve_out(opts["out"]))
            return 0

        _check_run_numbers(opts["mass"], opts["samples"], opts["seed"])
        config = SuiteConfig(
            suites=tuple(opts["suite"]),
            mass=opts["mass"],
            samples=opts["samples"],
            seed=opts["seed"],
            tolerances=_parse_tolerances(opts["tol"]),
            fmt=opts["format"],
            inject_fault=_parse_fault(opts["inject_fault"]),
            timings=opts["timings"],
        )
        ledger = run_suite(config)
        _emit(ledger.render(), _resolve_out(opts["out"]))
        return 0 if ledger.passed else 1
    except (ValueError, OSError) as exc:
        print(f"ercd: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
