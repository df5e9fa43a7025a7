"""Run-to-run spread of the benchmark, as its acceptance check computes it.

Run from the repository root:

    python3 bench/spread.py --workload ft-mcla --seeds 1-10

For each workload it runs ``bench/run.py`` once per seed, one run at a time,
and reports for every end-to-end metric the median over the runs and the
distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of that median, next to
the metric's bound from BENCHMARK.json. ``--all`` also covers the metrics that
BENCHMARK.json does not declare (those of operations that fail at some
commits), read from the ``all_metrics:`` line of each run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    every = next((json.loads(ln.split(":", 1)[1]) for ln in lines if ln.startswith("all_metrics:")), {})
    return result, every


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--all", action="store_true", help="include undeclared metrics")
    args = parser.parse_args(argv)

    section = declared["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in section}
    for workload in args.workload or [w["name"] for w in declared["workloads"]]:
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        for seed in _seeds(args.seeds):
            result, every = run_once(workload, seed, args.seconds, args.trace)
            failed += result["failed"]
            attempted += result["attempted"]
            source = every if args.all else {k: v["value"] for k, v in result["metrics"].items()}
            for name, value in source.items():
                values.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: correct={result['correct']} failed {result['failed']}/"
                  f"{result['attempted']}", file=sys.stderr, flush=True)
        print(f"{workload}: {len(_seeds(args.seeds))} runs, failed {failed}/{attempted}")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = f"{(q3 - q1) / abs(med):.4f}"
            else:
                spread = "n/a"
            bound = bounds.get(name)
            print(f"  {name:<34} median {med:<12.6g} spread {spread:<8} "
                  f"bound {bound if bound is not None else '-'}  n={len(vals)}  runs: "
                  + " ".join(f"{v:.5g}" for v in vals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
