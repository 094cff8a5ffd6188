"""opintegral benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs one workload (poly-suite, band-path, trace-formula or schur-cert) as a
closed loop of passes.  A pass is a fresh worker process (worker.py) that
sets up, runs every item of the workload once and exits, so no warm-up is
made: every pass pays what one `opintegral` invocation pays.  Passes run
back to back until --seconds is used (at least two).  BLAS/OpenMP threads
are pinned to 1 in the workers' environment.

--trace 0 prints the end-to-end metrics (medians over the passes; set-up is
also sampled by set-up-only processes).  --trace 1 alternates traced and
untraced passes, adds one untraced pass at 2 BLAS threads on workloads with
`opintegral` command items, and prints the per-layer metrics.  Every item is
checked against the tolerance the code states; a report digest that differs
between passes (or between 1 and 2 threads) makes the run incorrect.

The last line of standard output is the result JSON; the line before it
holds provenance and per-item details.  Exit code 1, and no result, if the
library cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("poly-suite", "band-path", "trace-formula", "schur-cert")
#: workloads whose items include `opintegral` command reports
CLI_WORKLOADS = ("trace-formula", "schur-cert")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_PASSES = 2
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 170

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("item_p50_s", "s"), ("item_max_s", "s"), ("peak_rss_mb", "MB"))

#: span -> work counts reported besides calls and self_s
LAYER_SPANS = {
    "spectral.decompose": ("work_n3",), "spectral.schatten_norm": (),
    "functions.eval": ("points",), "functions.partial": (), "functions.sample": (),
    "besov.lp_decompose": ("grid_points",), "besov.besov_norm": (),
    "divdiff.besov_representation": (), "divdiff.sinc_representation": (),
    "divdiff.polynomial_dd_rep": (),
    "toi.eval_representation": (), "toi.rep_norm_certificate": (),
    "doi.funcalc": ("work_n3",),
    "commutator.verify_theorem_41": (), "commutator.commutator_of_functions": (),
    "commutator.commutator_with_operator": (), "commutator.commutator_via_toi": (),
    "models.toeplitz_matrix": (), "models.principal_function": (),
    "models.winding_grid": (),
    "heltonhowe.rhs_integral": ("points",), "heltonhowe.corner_trace": (),
    "heltonhowe.trace_formula_experiment": (), "heltonhowe.polynomial_suite": (),
    "heltonhowe.winding_factor_experiment": (),
    "fileio": (),
}
KERNEL_COUNTS = (("kernel.eigh", "calls"), ("kernel.eigh", "work_n3"),
                 ("kernel.eigvalsh", "calls"), ("kernel.svd", "calls"),
                 ("kernel.svd", "work_mnk"), ("kernel.norm2", "calls"),
                 ("kernel.fft", "calls"), ("kernel.fft", "points"))


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric the traced run prints."""
    out = []
    for span, extra in LAYER_SPANS.items():
        out += [(f"{span}.calls", "count", "lower"), (f"{span}.self_s", "s", "lower")]
        out += [(f"{span}.{key}", "count", "lower") for key in extra]
    out += [("besov.window_eval.calls", "count", "lower"), ("cli.main.self_s", "s", "lower")]
    out += [(f"{span}.{key}", "count", "lower") for span, key in KERNEL_COUNTS]
    out += [("trace.overhead_s", "s", "lower"), ("unattributed.share", "ratio", "lower")]
    return out


class Runner:
    """Spawns the worker processes of one benchmark run."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        # relative to ROOT (the workers' cwd): reports name their input files,
        # so their bytes must not depend on where the checkout lives
        self.workdir = Path(".perfbench_work") / f"{workload}-{seed}"
        self.count = 0

    def spawn(self, *flags: str, threads: int = 1) -> dict:
        self.count += 1
        out = ROOT / self.workdir / f"pass-{self.count}.json"
        env = dict(os.environ)
        env.update({var: str(threads) for var in THREAD_VARS})
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--workdir", str(self.workdir),
                "--out", str(out), *flags, "--spawned", str(time.monotonic_ns())]
        started = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0 or not out.exists():
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        result = json.loads(out.read_text())
        result["elapsed_s"] = time.perf_counter() - started
        return result

    def cleanup(self) -> None:
        shutil.rmtree(ROOT / self.workdir, ignore_errors=True)
        base = ROOT / ".perfbench_work"
        if base.is_dir() and not any(base.iterdir()):
            base.rmdir()


def _median(values) -> float:
    return float(statistics.median(values))


def _provenance(seed: int, probe: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    return {**probe.get("provenance", {}), "seed": seed, "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit, "threads_env": {var: "1" for var in THREAD_VARS}}


def _items_summary(passes: list[dict]) -> tuple[list[dict], bool]:
    """Per-item details, and whether each item's report digest was the same in
    every pass."""
    names = [it["name"] for it in passes[0]["items"]]
    summary, stable = [], True
    for k, name in enumerate(names):
        runs = [p["items"][k] for p in passes]
        match = len({r["digest"] for r in runs}) == 1
        stable = stable and match
        ratios = [r["err_ratio"] for r in runs if r["err_ratio"] is not None]
        summary.append({"name": name, "median_s": _median(r["seconds"] for r in runs),
                        "ok": all(r["ok"] for r in runs),
                        "err_ratio_max": max(ratios) if ratios else None,
                        "digest": runs[0]["digest"], "digests_match": match,
                        "detail": runs[0]["detail"]})
        traced = [r["layers"] for r in runs if "layers" in r]
        if traced:
            summary[-1]["layers"] = traced[0]
    return summary, stable


def _counts(stats: dict) -> dict:
    return {span: {k: v for k, v in s.items() if k != "self_s"} for span, s in stats.items()}


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[dict, list[dict], dict]:
    """Run the passes; return (metrics, passes used for items, extra info)."""
    start = time.perf_counter()
    probes = [runner.spawn("--setup-only") for _ in range(1 if trace else SETUP_PROBES)]
    plain, traced, extra = [], [], []
    two_threads = trace and runner.workload in CLI_WORKLOADS

    def enough() -> bool:
        if not trace:
            return len(plain) >= MIN_PASSES
        return bool(traced and plain and (extra or not two_threads))

    # another pass starts while at least half of it fits in the time left
    while True:
        if enough():
            left = seconds - (time.perf_counter() - start)
            if 0.5 * _median(p["elapsed_s"] for p in plain + traced + extra) > left:
                break
        if not trace:
            plain.append(runner.spawn())
        elif len(traced) <= len(plain):
            traced.append(runner.spawn("--trace"))
        elif two_threads and not extra:
            extra.append(runner.spawn(threads=2))
        else:
            plain.append(runner.spawn())

    if not trace:
        # an item's latency is its median over the passes
        latencies = [_median(p["items"][k]["seconds"] for p in plain)
                     for k in range(len(plain[0]["items"]))]
        metrics = {
            "setup_s": _median([p["setup_s"] for p in probes + plain]),
            "wall_s": _median(p["wall_s"] for p in plain),
            "cpu_s": _median(p["cpu_s"] for p in plain),
            "item_p50_s": _median(latencies), "item_max_s": max(latencies),
            "peak_rss_mb": _median(p["peak_rss_mb"] for p in plain),
        }
        info = {"passes": len(plain), "setup_samples": len(probes) + len(plain),
                "pass_wall_s": [p["wall_s"] for p in plain], "provenance": probes[0]}
        return metrics, plain, info

    counts = [_counts(p["layers"]) for p in traced]
    info = {"passes": {"traced": len(traced), "untraced": len(plain),
                       "untraced_2_threads": len(extra)},
            "counts_repeat": all(c == counts[0] for c in counts)}
    first = traced[0]["layers"]

    def self_s(span: str) -> float:
        return _median(p["layers"].get(span, {}).get("self_s", 0.0) for p in traced)

    metrics = {}
    for span, keys in LAYER_SPANS.items():
        metrics[f"{span}.calls"] = first.get(span, {}).get("calls", 0)
        metrics[f"{span}.self_s"] = self_s(span)
        for key in keys:
            metrics[f"{span}.{key}"] = first.get(span, {}).get(key, 0)
    metrics["besov.window_eval.calls"] = first.get("besov.window_eval", {}).get("calls", 0)
    # the certificate layer runs only on schur-cert, which is not among the
    # workloads BENCHMARK.json names, so its figures go to the detail line
    schur = first.get("doi.schur_multiplier_norm", {})
    calls = schur.get("calls", 0)
    info["doi.schur_multiplier_norm"] = {
        "calls": calls,
        "self_s": self_s("doi.schur_multiplier_norm"),
        "converged_ratio": schur.get("converged", 0) / calls if calls else None,
        "eigh_per_call": schur.get("eigh_calls", 0) / calls if calls else None}
    metrics["cli.main.self_s"] = self_s("cli.main")
    for span, key in KERNEL_COUNTS:
        metrics[f"{span}.{key}"] = first.get(span, {}).get(key, 0)
    traced_wall = _median(p["wall_s"] for p in traced)
    metrics["trace.overhead_s"] = traced_wall - _median(p["wall_s"] for p in plain)
    metrics["unattributed.share"] = _median(
        (p["wall_s"] - p["attributed_s"]) / p["wall_s"] for p in traced)
    info["traced_wall_s"] = traced_wall
    info["untraced_wall_s"] = _median(p["wall_s"] for p in plain)
    info["wait_time"] = ("none: each pass is one single-threaded process with no "
                         "queues, so no layer waits for another")
    info["computed_counts"] = ["spectral.decompose.work_n3", "doi.funcalc.work_n3",
                               "besov.lp_decompose.grid_points", "functions.eval.points",
                               "heltonhowe.rhs_integral.points", "kernel.eigh.work_n3",
                               "kernel.svd.work_mnk", "kernel.fft.points"]
    if extra:
        _, info["digests_match_2_threads"] = _items_summary([plain[0], extra[0]])
    info["provenance"] = probes[0]
    return metrics, plain + traced + extra, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "opintegral" / "__init__.py").is_file():
        print(f"error: no opintegral sources under {SRC}", file=sys.stderr)
        return 1
    runner = Runner(args.workload, args.seed)
    try:
        metrics, passes, info = measure(runner, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.cleanup()

    items, digests_stable = _items_summary(passes)
    attempted = sum(len(p["items"]) for p in passes)
    failed = sum(not it["ok"] for p in passes for it in p["items"])
    correct = (failed == 0 and digests_stable and info.get("counts_repeat", True)
               and info.get("digests_match_2_threads", True))
    ratios = [it["err_ratio_max"] for it in items if it["err_ratio_max"] is not None]
    probe = info.pop("provenance")
    info.update({"workload": args.workload, "provenance": _provenance(args.seed, probe),
                 "digests_match_across_passes": digests_stable,
                 "fail_ratio": failed / attempted,
                 "err_ratio_max": max(ratios) if ratios else None, "items": items})
    print(json.dumps(info, sort_keys=True))

    units = dict(END_TO_END) if not args.trace else {
        name: unit for name, unit, _ in per_layer_metrics()}
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
