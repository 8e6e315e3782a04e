"""One workload in a fresh process; started by perfbench/run.py.

The BLAS thread count is pinned here, before numpy is imported, and eegtd
is imported from this checkout's src/ only. The result goes to the JSON
file named by --out.
"""

import argparse
import json
import os
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def import_eegtd() -> None:
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    import eegtd

    if Path(eegtd.__file__).resolve().parent != (src / "eegtd").resolve():
        raise SystemExit(f"eegtd imported from {eegtd.__file__}, not from {src}")


def library_versions() -> dict[str, str]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=("build", "setup", "run"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--model", type=Path, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    # numpy reads these when it is first imported, which happens below.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # The worker and the threads it starts run on one CPU. eegtd's work holds
    # the GIL (process CPU time equals wall time) and BLAS has one thread, so
    # one CPU is all it uses; spread over two vCPUs, the replay's three threads
    # hand the GIL across CPUs, and whenever the host descheduled either vCPU
    # the whole pipeline waited: unpaced replays then ran 10-40 % slower.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    import_eegtd()
    if args.mode == "build":
        from perfbench.recipe import build_model

        build_model(args.model)
        args.out.write_text(json.dumps({"built": str(args.model)}))
        return

    from perfbench import workloads

    tracer = None
    if args.trace:
        from perfbench.layers import add_trace_points, layer_metrics
        from perfbench.tracing import Tracer, to_records

        tracer = Tracer()
        add_trace_points(tracer)
    probe = workloads.Probe()
    probe.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir, args.model)
    if tracer is None:
        workload.setup()
    else:
        with tracer.active("setup"):
            workload.setup()
    ready = time.monotonic()
    if args.mode == "setup":
        args.out.write_text(json.dumps({"ready": ready}))
        return

    outcome = workload.run(args.seconds, probe, tracer)
    result = {
        "ready": ready,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "walls": outcome.walls,
        "traced_walls": outcome.traced_walls,
        "latencies_ms": outcome.latencies_ms,
        "notes": outcome.notes,
        "env": {**library_versions(), "worker_cpu": cpu},
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, outcome, threading.main_thread().ident)
        spans_path = args.out.with_suffix(".spans.json")
        spans_path.write_text(json.dumps(to_records(tracer.spans)))
        result["spans_file"] = str(spans_path)
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
