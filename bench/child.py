"""One timed `unot` CLI call in a fresh process.

Usage: python3 child.py REPORT TRACE_FILE|- RUN_ID -- UNOT_ARGS...

Imports `unot.cli`, calls `unot.cli.main(UNOT_ARGS)` once and writes a JSON
report with the import end time (on the system-wide monotonic clock, so the
parent can subtract its spawn time), the import and call durations, the
exit code, the peak resident memory and the library versions.  With a
TRACE_FILE other than `-`, the public functions of the package are wrapped
by `tracer.Tracer` first and the spans are written to TRACE_FILE after the
call.  The caller puts the package's `src` directory on PYTHONPATH.
"""

import json
import resource
import sys
import time


def _blas_info(module) -> dict:
    try:
        deps = module.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return {}
    blas = deps.get("blas", {})
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "config": blas.get("openblas configuration"),
    }


def main() -> int:
    report_path, trace_path, run_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py REPORT TRACE_FILE|- RUN_ID -- ARGS...")
    start = time.monotonic()
    import unot.cli

    imported = time.monotonic()

    tracer = None
    if trace_path != "-":
        from tracer import Tracer

        tracer = Tracer(run_id)
        tracer.install()

    call_start = time.perf_counter()
    code = unot.cli.main(argv)
    wall = time.perf_counter() - call_start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        tracer.dump(trace_path)

    import numpy
    import scipy

    report = {
        "imported_at": imported,
        "import_s": imported - start,
        "wall_s": wall,
        "exit_code": int(code),
        "peak_rss_mb": peak_kb / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numpy_blas": _blas_info(numpy),
            "scipy_blas": _blas_info(scipy),
        },
    }
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
