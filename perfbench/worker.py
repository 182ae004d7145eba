"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/worker.py JOB_JSON

JOB_JSON holds ``src`` (the program's source directory), ``cwd`` (the
repetition's directory), ``synth`` and ``pipeline`` (argument lists for
``thermokmd.cli.main``) and ``trace`` (a spans file to write, or null).  The
worker imports the CLI, then times one call of the generator subcommand and
one of the pipeline, each a call of ``main`` as the ``thermokmd`` console
script makes it in a fresh process.  Passes of the reference computation run
before, between and after the stages; each stage reports the passes on both
sides of it.  The worker prints one JSON line: both exit codes, both times,
its peak resident set size, and the BLAS thread count it actually ran with.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import sys
import time

REFERENCE_PASSES = 2


def blas_threads(np) -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, job["src"])
    os.chdir(job["cwd"])

    import numpy as np
    from thermokmd import cli, gradient, phaseavg, spectral, synth, timeseries

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        for module, prefix in ((synth, "synth"), (timeseries, "timeseries"),
                               (spectral, "spectral"), (phaseavg, "phaseavg"),
                               (gradient, "gradient")):
            tracer.install(module, prefix)

    import reference

    def reference_passes() -> list[float]:
        return [reference.pass_s() for _ in range(REFERENCE_PASSES)]

    result = {"blas_threads": blas_threads(np)}
    before = reference_passes()
    for stage, span in (("synth", "cli.synth"), ("pipeline", "cli.pipeline")):
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            if tracer is None:
                code = cli.main(job[stage])
            else:
                code = tracer.call(span, cli.main, job[stage])
            result[f"{stage}_s"] = time.perf_counter() - start
        result[f"{stage}_exit"] = code
        after = reference_passes()
        result[f"{stage}_reference_s"] = before + after
        before = after
        if code != 0:
            break
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        tracer.write(job["trace"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
