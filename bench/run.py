"""uqtrain benchmark: one workload, one seed, one JSON line of results.

    python3 bench/run.py --workload alum-noisy30 --seed 0 --seconds 24 --trace 0

Run it from the root of a uqtrain checkout; it imports the package from
./src.  --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics of a traced run and writes its spans to bench/out/.  The last
line of standard output is {"correct", "attempted", "failed",
"metrics"}.  A failed output check still prints a result, with
"correct": false; a uqtrain command that fails stops the run with exit
code 1 and no result.
"""

import argparse
import ctypes
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cap_blas_threads():
    """Run BLAS on one thread, well within nproc; must run before numpy
    loads.  The whole run is then one thread, which the shared cores
    slow less erratically than two."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return nproc


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(nproc):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"]}


def parse_args(names):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def main():
    nproc = cap_blas_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import uqtrain
        import workloads
    except ImportError as e:
        print(f"cannot import the uqtrain sources under {ROOT}/src: {e}",
              file=sys.stderr)
        return 2
    if not uqtrain.__file__.startswith(os.path.join(ROOT, "src", "")):
        print(f"uqtrain was imported from {uqtrain.__file__}, not from this "
              "checkout", file=sys.stderr)
        return 2
    args = parse_args(sorted(workloads.WORKLOADS))
    w = workloads.WORKLOADS[args.workload]
    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(out_dir, f"{w.name}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir)
    env = environment(nproc)
    print("environment: " + json.dumps(env), flush=True)

    run = workloads.Run(w, args.seed, workdir)
    try:
        if args.trace:
            trace_path = os.path.join(out_dir,
                                      f"trace-{w.name}-s{args.seed}.json")
            values = run.trace(args.seconds, trace_path)
            units = workloads.PER_LAYER
            print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
        else:
            values = run.measure(args.seconds)
            units = workloads.END_TO_END
            print("speed: " + json.dumps(run.report))
    except workloads.OperationFailed as e:
        print(f"benchmark stopped: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in run.failures:
        print(f"output check failed: {failure}", file=sys.stderr)
    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": 0,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
