"""One cold benchmark process: import ercd, run CLI calls, report.

    python3 bench/child.py '<spec json>'

The spec is a JSON object:

    t_spawn    time.monotonic() read by the parent just before the spawn
    src        directory that must hold the ercd package being measured
    calls      list of argv lists, each run through ercd.cli.main in order
    trace_out  path for the span file; when set, calls are traced
    probe      when true, also report interpreter and library facts

The child prints one JSON line: setup_s (spawn until ercd.cli and its
imports are loaded, before the first public call), work_s (time inside
the CLI entry calls), peak_rss_kb, and per call its exit code and stdout.
CLOCK_MONOTONIC is shared by all processes, so t_spawn and the child's own
reading compare directly.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _probe():
    import platform
    from importlib import metadata
    import numpy  # noqa: F401  (loads the BLAS library)
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "sympy": metadata.version("sympy"),
        "blas_threads": _blas_threads(),
    }


def main() -> None:
    spec = json.loads(sys.argv[1])
    import ercd.cli  # what setup_s measures
    t_setup = time.monotonic()

    src = os.path.realpath(spec["src"])
    loaded = os.path.realpath(ercd.cli.__file__)
    if not loaded.startswith(src + os.sep):
        sys.exit(f"ercd was imported from {loaded}, not from {src}")
    result = {"setup_s": t_setup - spec["t_spawn"]}
    tracer = None
    if spec.get("trace_out"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    outputs = []
    work = 0.0
    for argv in spec["calls"]:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = ercd.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception:  # the program crashed: report it as an output
            rc = "exception"
            traceback.print_exc()
        work += time.perf_counter() - t0
        outputs.append({"rc": rc, "stdout": buf.getvalue()})
    result["work_s"] = work
    result["outputs"] = outputs
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.write(spec["trace_out"])
        result["trace"] = tracer.summary()
    if spec.get("probe"):
        result["probe"] = _probe()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
