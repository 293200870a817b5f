"""One campaign run in a fresh process, through ssflab's CLI entry point.

    python3 perfbench/child.py REPORT.json [--trace] -- <ssflab CLI arguments>

Writes REPORT.json with the CLI exit code, the perf_counter instants at
which the campaign was first called and at which ``cli.main`` began and
returned (CLOCK_MONOTONIC, comparable with the parent's clock), the peak
resident set size, the numeric environment and, with --trace, the span
statistics of ``tracer.Tracer``.  The parent decides what the numbers mean.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ.get(k, "") for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "threads": threads}


def main(argv: list) -> int:
    report_path = Path(argv[0])
    trace = "--trace" in argv[1:argv.index("--")]
    cli_args = argv[argv.index("--") + 1:]

    from ssflab.harness import cli

    from tracer import Tracer

    src = Path(cli.__file__).resolve().parents[2]
    # untraced, only the campaign runners are wrapped: that marks first_call
    tracer = Tracer(layers=trace).install()
    t0 = time.perf_counter()
    rc = cli.main(cli_args)
    t1 = time.perf_counter()
    tracer.uninstall()

    report = {
        "rc": rc,
        "first_call": tracer.first_call,
        "main_start": t0, "main_end": t1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ssflab_src": str(src),
        "environment": _environment(),
        "trace": tracer.stats(t1 - t0) if trace else None,
    }
    report_path.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
