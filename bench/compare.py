"""Paired benchmark comparison: a base revision against the working tree.

    python3 bench/compare.py --base REV --workload W [--workload W ...]
                             --seed N [--seed N ...] --pairs P --out FILE

For every workload and seed, runs `perfbench/run.py` (at the run length
BENCHMARK.json sets) P times on each side, alternating which side runs
first.  The base side is an export (`git archive`) of REV in a temporary
directory, the committed files only; the change side is the working tree.
Writes FILE (JSON) with every pair's end-to-end metrics, each side's median
and quartiles per metric, the base's quartile spread, the change's win
count, the median change relative to the metric's BENCHMARK.json bound, and
the provenance line each run printed.  Per workload and seed it also writes
an item summary: each item's base and change medians of its per-pair
median_s, and whether its digest and details were equal on both sides in
every pair; for an item whose details differ, the largest relative
difference over the pairs of each numeric detail (a number or a list of
numbers) that moved.  At the end it prints, per workload and seed, one
summary line and one line per item to stdout.

A gain is shown when the change wins at least nine tenths of the pairs (ties
count for neither side) and the medians differ by more than the base's
quartile spread; a metric is within its bound when the change's median is
no worse than the base's by more than the bound (relative).
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3), linear interpolation between order statistics."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict], spec: list[dict]) -> dict:
    """Per-metric summary of pairs [{"base": {name: v}, "change": {name: v}}]
    for the end-to-end metrics spec [{"name", "better", "bound"}]."""
    out = {}
    for metric in spec:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [p["base"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(change)
        gains = [(b - c) if lower else (c - b) for b, c in zip(base, change)]
        wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
        improvement = (bmed - cmed) if lower else (cmed - bmed)
        worse = -improvement / bmed if bmed else 0.0
        out[name] = {
            "base_median": bmed, "base_q1": bq1, "base_q3": bq3,
            "base_spread": bq3 - bq1,
            "change_median": cmed, "change_q1": cq1, "change_q3": cq3,
            "ratio": cmed / bmed if bmed else None,
            "wins": wins, "losses": losses, "ties": len(pairs) - wins - losses,
            "worse_over_bound": worse / metric["bound"],
            "within_bound": worse <= metric["bound"],
            "gain_shown": wins >= 0.9 * len(pairs) and improvement > bq3 - bq1,
        }
    return out


def summary_line(result: dict) -> str:
    """One line for a workload and seed: for each end-to-end metric, the base
    and change medians, the change's wins/losses, within_bound and gain_shown."""
    metrics = [f"{name} {m['base_median']:.4g} -> {m['change_median']:.4g} "
               f"({m['wins']}/{m['losses']}, within_bound {m['within_bound']}, "
               f"gain_shown {m['gain_shown']})" for name, m in result["summary"].items()]
    return f"{result['workload']} seed {result['seed']}: " + "; ".join(metrics)


def item_summary(pairs: list[dict]) -> dict:
    """{item: {base_median_s, change_median_s, details_identical}} over pairs
    [{"base": {"items": ...}, "change": {"items": ...}}] of run_once results;
    an item missing on one side has no median there and is not identical.  An
    item whose numeric details moved also gets max_rel_diff: {detail: largest
    |change - base| / max(|base|, |change|) over the pairs and list entries}."""
    names = sorted({name for p in pairs for side in ("base", "change")
                    for name in p[side]["items"]})
    out = {}
    for name in names:
        runs = {side: [p[side]["items"].get(name) for p in pairs] for side in ("base", "change")}
        medians = {side: statistics.median(r["median_s"] for r in rs) if None not in rs else None
                   for side, rs in runs.items()}
        out[name] = {"base_median_s": medians["base"], "change_median_s": medians["change"],
                     "details_identical": all(b is not None and c is not None
                                              and _outputs(b) == _outputs(c)
                                              for b, c in zip(runs["base"], runs["change"]))}
        if moved := _max_rel_diff(runs["base"], runs["change"]):
            out[name]["max_rel_diff"] = moved
    return out


def _max_rel_diff(base: list, change: list) -> dict:
    out = {}
    for b, c in zip(base, change):
        for key in (b or {}).keys() & (c or {}).keys() - {"median_s"}:
            bv, cv = _numbers(b[key]), _numbers(c[key])
            if bv is None or cv is None or len(bv) != len(cv):
                continue
            diff = max((abs(y - x) / max(abs(x), abs(y)) for x, y in zip(bv, cv) if x != y),
                       default=0.0)
            if diff:
                out[key] = max(out.get(key, 0.0), diff)
    return dict(sorted(out.items()))


def _numbers(value) -> list | None:
    """A number or list of numbers as a list of them, anything else None."""
    values = value if isinstance(value, list) else [value]
    ok = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)
    return values if ok else None


def _outputs(item: dict) -> dict:
    return {k: v for k, v in item.items() if k != "median_s"}


def item_lines(result: dict) -> list[str]:
    """One line per item of a workload and seed: median seconds, base -> change,
    details_identical and any max_rel_diff."""
    return [f"  {name}: median_s {_fmt(s['base_median_s'])} -> {_fmt(s['change_median_s'])}"
            f" (details_identical {s['details_identical']}"
            + "".join(f"; {k} moved {v:.3g}" for k, v in s.get("max_rel_diff", {}).items())
            + ")" for name, s in result["items"].items()]


def _fmt(value) -> str:
    return "missing" if value is None else f"{value:.4g}"


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The committed files of rev, unpacked under dest."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in checkout root: its metrics, provenance and
    per-item median seconds, report digest and details."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"perfbench run failed in {root} ({workload}, seed {seed}): "
                           f"{proc.stderr.strip()}")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "provenance": info["provenance"],
            "items": {it["name"]: {"median_s": it["median_s"], "digest": it["digest"],
                                   **it["detail"]}
                      for it in info["items"]}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    report = {"base": {"rev": _git("rev-parse", args.base)},
              "change": {"rev": _git("rev-parse", "HEAD"),
                         "uncommitted_changes": bool(_git("status", "--porcelain"))},
              "run_seconds": seconds, "pairs": args.pairs, "results": []}
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        export(args.base, Path(tmp))
        sides = {"base": Path(tmp), "change": ROOT}
        for workload in args.workload:
            for seed in args.seed:
                pairs = []
                for k in range(args.pairs):
                    order = ("base", "change") if k % 2 == 0 else ("change", "base")
                    runs = {side: run_once(sides[side], workload, seed, seconds)
                            for side in order}
                    pairs.append({"first": order[0], **runs})
                    print(f"{workload} seed {seed} pair {k + 1}/{args.pairs}: wall_s "
                          f"base {runs['base']['metrics']['wall_s']:.3f} change "
                          f"{runs['change']['metrics']['wall_s']:.3f}", file=sys.stderr)
                values = [{side: p[side]["metrics"] for side in sides} for p in pairs]
                report["results"].append({
                    "workload": workload, "seed": seed,
                    "failed": {side: sum(p[side]["failed"] for p in pairs) for side in sides},
                    "attempted": {side: sum(p[side]["attempted"] for p in pairs)
                                  for side in sides},
                    "all_correct": all(p[side]["correct"] for p in pairs for side in sides),
                    "summary": summarize(values, bench["end_to_end"]),
                    "items": item_summary(pairs), "pairs": pairs})
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for result in report["results"]:
        print(summary_line(result))
        for line in item_lines(result):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
