"""Alternating pairs of benchmark runs on two checkouts, summarised per end-to-end metric.

Run from the repository root:

    python3 tools/bench_pairs.py PARENT CHANGE --workload ft-mcla --pairs 10

PARENT and CHANGE are checkouts of the repository, each with its own
``bench/`` and ``src/``. Pair i (1..N) runs ``bench/run.py --workload W
--seed i --seconds T --trace 0`` once in each checkout, one run at a time,
through that checkout's ``bench/spread.py`` ``run_once``, with T the
``run_seconds`` of PARENT's ``BENCHMARK.json``; odd pairs run
PARENT first and even pairs CHANGE first, so a drift of the machine's speed
does not favour one side. Each run prints one line with the 1-minute load
average (``os.getloadavg()``) read just before it starts, then the end-to-end
values of its JSON result line. The summary names the workload, the number
of pairs and the CPUs the runs may use (``os.sched_getaffinity(0)``, so a
``taskset``-pinned set reads apart from an unpinned one). Then, for each
end-to-end metric that PARENT's ``BENCHMARK.json`` declares, one line gives
both medians, the change of the CHANGE median against the PARENT median as
a share of it (positive: worse) next to the metric's bound, the PARENT
runs' q1-q3 (``statistics.quantiles(values, n=4)``) and the number of pairs
in which CHANGE is better; last, each side's failed and attempted
operations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import types
from pathlib import Path

SIDES = ("parent", "change")


def load_spread(checkout: Path) -> types.ModuleType:
    """`checkout`'s ``bench/spread.py`` as a module whose ``ROOT`` is `checkout`; no bytecode is cached."""
    path = checkout.resolve() / "bench" / "spread.py"
    module = types.ModuleType(f"spread_{checkout.name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), path, "exec"), module.__dict__)
    return module


def run_line(side: str, seed: int, load: float, result: dict) -> str:
    values = "  ".join(f"{name} {m['value']:.6g}" for name, m in result["metrics"].items())
    return f"{side:<6} seed {seed:<3} load {load:.2f}  failed {result['failed']}/{result['attempted']}  {values}"


def summary(end_to_end: list[dict], pairs: list[tuple[dict, dict]]) -> list[str]:
    """One line per declared metric, then one of failures, for `pairs` of (parent, change) results."""
    lines = []
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        parent, change = ([r["metrics"][name]["value"] for r in side] for side in zip(*pairs))
        med_p, med_c = statistics.median(parent), statistics.median(change)
        q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) >= 2 else (med_p, med_p, med_p)
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        worse = sign * (med_c - med_p) / abs(med_p) if med_p else 0.0
        lines.append(f"{name:<12} parent {med_p:.6g}  change {med_c:.6g}  worse by {worse:+.4f} "
                     f"(bound {metric.get('bound', '-')})  parent q1-q3 {q1:.6g}-{q3:.6g}  "
                     f"change better in {wins}/{len(pairs)}")
    failed = {side: (sum(r["failed"] for r in results), sum(r["attempted"] for r in results))
              for side, results in zip(SIDES, zip(*pairs))}
    lines.append("failed " + "  ".join(f"{side} {f}/{a}" for side, (f, a) in failed.items()))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    declared = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    spread = {side: load_spread(checkout) for side, checkout in zip(SIDES, (args.parent, args.change))}
    pairs = []
    for seed in range(1, args.pairs + 1):
        pair = {}
        for side in SIDES if seed % 2 else SIDES[::-1]:
            load = os.getloadavg()[0]
            pair[side], _ = spread[side].run_once(args.workload, seed, declared["run_seconds"], 0)
            print(run_line(side, seed, load, pair[side]), flush=True)
        pairs.append((pair["parent"], pair["change"]))
    cpus = ",".join(map(str, sorted(os.sched_getaffinity(0))))
    print(f"{args.workload}: {args.pairs} pairs on CPUs {cpus}")
    print("\n".join(summary(declared["end_to_end"], pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
