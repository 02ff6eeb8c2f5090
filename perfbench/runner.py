"""One benchmark pass in its own process.

Usage: runner.py SCENARIOS_JSON REPORTS_DIR RESULT_JSON TRACE(0|1) [SPANS_JSON]

Imports qgwb.cli, prints "ready" on stdout, then calls
qgwb.cli.run_scenario once per scenario, in order, timing each call from
outside.  The result file holds each call's exit code and wall time, the
batch time, the process's peak RSS and its environment stamp; a traced pass
adds the per-callable table and counters and writes its spans at the end.
"""

import json
import os
import resource
import sys
import time
import traceback

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import platform

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/meminfo", encoding="utf-8") as fh:
        mem_kb = next(int(line.split()[1]) for line in fh if line.startswith("MemTotal:"))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "mem_total_gib": round(mem_kb / 2 ** 20, 2)}


def main(argv):
    sys.path.insert(0, SRC)
    import qgwb.cli
    if not os.path.abspath(qgwb.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"qgwb imported from {qgwb.cli.__file__}, not from {SRC}")
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    scenarios_path, reports_dir, result_path, trace = argv[1:5]
    with open(scenarios_path, encoding="utf-8") as fh:
        scenarios = json.load(fh)
    if not scenarios:
        return 0
    tracer = None
    if trace == "1":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    rows = []
    batch_start = time.perf_counter()
    for sc in scenarios:
        if tracer is not None:
            tracer.scenario = sc["name"]
        t0 = time.perf_counter()
        try:
            code, _ = qgwb.cli.run_scenario(sc, out_dir=reports_dir)
        except Exception:  # a traceback is exit 1 from the CLI; keep the batch going
            traceback.print_exc()
            code = 1
        rows.append({"name": sc["name"], "code": code,
                     "seconds": time.perf_counter() - t0})
    batch_s = time.perf_counter() - batch_start
    result = {"scenarios": rows, "batch_s": batch_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "env": environment()}
    if tracer is not None:
        result["callables"] = tracing.summarize(tracer.spans)
        result["counters"] = tracer.counters
        result["unseen"] = tracer.unseen()
        with open(argv[5], "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "scenario"],
                       "spans": tracer.spans}, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
