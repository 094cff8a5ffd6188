"""One pass of one workload, in a fresh process.

Started by run.py with BLAS/OpenMP threads pinned through the environment
and the library's src directory on PYTHONPATH.  Set-up (interpreter start,
`import opintegral`, input generation) is timed from the parent's spawn
timestamp; then every item runs once, back to back, and the pass result is
written as JSON to --out.  With --setup-only the process stops after set-up
and records provenance instead.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _provenance() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=int, required=True,
                        help="time.monotonic_ns() of the parent at spawn")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import workloads

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    items = workloads.build(args.workload, args.seed, workdir)
    setup_s = (time.monotonic_ns() - args.spawned) / 1e9
    if args.setup_only:
        Path(args.out).write_text(json.dumps({"setup_s": setup_s,
                                              "provenance": _provenance()}))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    results = []
    cpu0, t0 = time.process_time(), time.perf_counter()
    for item in items:
        before = tracer.snapshot() if tracer else None
        start = time.perf_counter()
        try:
            out = item.run()
        except Exception as exc:  # a raising item is a failed item, not a crash
            traceback.print_exc()
            out = workloads.Outcome(False, detail={"error": repr(exc)})
        results.append({"name": item.name, "seconds": time.perf_counter() - start,
                        "ok": bool(out.ok), "err_ratio": out.err_ratio,
                        "digest": out.digest, "detail": out.detail})
        if tracer:
            results[-1]["layers"] = tracer.since(before)
    wall_s, cpu_s = time.perf_counter() - t0, time.process_time() - cpu0

    payload = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               "items": results}
    if tracer is not None:
        payload["layers"] = tracer.stats
        payload["attributed_s"] = tracer.attributed_s()
    Path(args.out).write_text(json.dumps(payload, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
