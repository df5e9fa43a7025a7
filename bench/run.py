"""mculora benchmark: the CLI pipeline end to end, and its layers when traced.

Run from the repository root:

    python3 bench/run.py --workload ft-mcla --seed 1 --seconds 30 --trace 0

One run repeats the closed-loop pipeline ``gen-data -> pretrain -> finetune
-> eval fixed -> eval random`` of one workload (see ``workloads.py``), in
process through ``mculora.cli.main``, for about ``--seconds`` seconds, and
reports each metric as the median over the passes after the first, which
warms caches. With ``--trace 0`` the
package is imported untouched and the end-to-end metrics are reported. With
``--trace 1`` passes alternate between untraced and traced (span shims
installed), the per-layer metrics come from the traced passes, the tracing
overhead is the difference between the two kinds, and the per-combination
step probe runs last.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` carrying the
metrics that BENCHMARK.json declares for the mode. ``correct`` is false when
a command completed but its output failed a check; commands that raise, exit
non-zero, or depend on a failed command count in ``failed``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# stdlib-only modules; numpy and the package load after the threads are pinned
import pipeline
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MCULORA_THREADS")
LOOP_LIMIT_S = 140.0  # keeps a run well inside the 180 s a run may take

# name -> (unit, better); every end-to-end metric the benchmark measures
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pretrain_samples_per_s": ("1/s", "higher"),
    "finetune_samples_per_s": ("1/s", "higher"),
    "eval_fixed_samples_per_s": ("1/s", "higher"),
    "eval_random_samples_per_s": ("1/s", "higher"),
    "pipeline_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "acc_fixed_avg": ("fraction", "higher"),
    "acc_random": ("fraction", "higher"),
}


def pin_threads() -> dict[str, tuple[str | None, str]]:
    """Pin BLAS and evaluation threads to at most nproc (default 1) before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    pinned = {}
    for var in THREAD_VARS:
        before = os.environ.get(var)
        try:
            want = int(before) if before is not None else 1
        except ValueError:
            want = 1
        os.environ[var] = str(min(max(want, 1), nproc))
        pinned[var] = (before, os.environ[var])
    return pinned


def environment(pinned) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        described = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                                   capture_output=True, text=True, timeout=10, check=False).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        described = ""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {var: after for var, (_, after) in pinned.items()},
        "threads_before_pinning": {var: before for var, (before, _) in pinned.items()},
        "git_describe": described or "unavailable (not a git checkout)",
    }


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if "ratio" in name:
        return "ratio"
    return "count"


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


@dataclass
class Pass:
    warmup: bool            # the first pass fills caches and is left out of every median
    traced: bool
    outcomes: dict          # operation -> pipeline.Outcome
    values: dict            # end-to-end values of this pass
    layers: dict | None     # per-layer values, traced passes only
    seconds: float


def measure(args, workload, cli_main, run_dir: Path) -> tuple[list[Pass], list, dict]:
    """Repeat the pipeline for about --seconds; returns the passes, their recorders and probe values."""
    cfg = workload.config(args.seed)
    n_train, n_test = workload.split_sizes()
    config_path = run_dir / "config.txt"
    config_path.write_text(workload.config_text(args.seed), encoding="utf-8")
    passes: list[Pass] = []
    recorders = []
    min_passes = 5 if args.trace else 4
    limit = min(args.seconds, LOOP_LIMIT_S)
    start = time.perf_counter()
    for index in itertools.count():
        traced = bool(args.trace) and index % 2 == 0 and index > 0
        paths = pipeline.Paths(root=run_dir / f"pass{index}", config=config_path)
        t0 = time.perf_counter()
        layers = None
        if traced:
            rec = tracing.Recorder()
            uninstall = tracing.install(rec)
            try:
                outcomes = pipeline.run_pipeline(cli_main, paths, cfg["num_samples"], span=rec.span)
            finally:
                uninstall()
            recorders.append(rec)
            layers = tracing.layer_metrics(rec)
        else:
            outcomes = pipeline.run_pipeline(cli_main, paths, cfg["num_samples"])
        took = time.perf_counter() - t0
        values = pipeline.pass_metrics(outcomes, cfg, n_train, n_test)
        passes.append(Pass(index == 0, traced, outcomes, values, layers, took))
        shutil.rmtree(run_dir / f"pass{index - 1}", ignore_errors=True)
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + max(p.seconds for p in passes[-2:]) > limit:
            break

    probe_values = {}
    if args.trace:
        import probe

        if passes[-1].outcomes["pretrain"].ok:
            probe_values = probe.step_probe(paths.dataset, paths.checkpoint("pretrain"), cfg)
        else:
            print("error: the step probe needs the pretrained checkpoint of the last pass", file=sys.stderr)
    return passes, recorders, probe_values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    pinned = pin_threads()
    if not (SRC / "mculora" / "__init__.py").is_file():
        print(f"error: no mculora package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mculora
    from mculora import cli

    if Path(mculora.__file__).resolve().parent != (SRC / "mculora").resolve():
        print(f"error: imported mculora from {mculora.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    env = environment(pinned)
    run_dir = WORK / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    start = time.perf_counter()
    try:
        passes, recorders, probe_values = measure(args, workload, cli.main, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    measured_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # ---- aggregate -------------------------------------------------------
    untraced = [p for p in passes if not p.traced and not p.warmup]
    traced = [p for p in passes if p.traced]
    samples = {name: [p.values[name] for p in untraced if name in p.values] for name in END_TO_END}
    samples["peak_rss_mb"] = [peak_rss_mb]
    e2e = {name: _median(vals) for name, vals in samples.items()}
    layer = {}
    if args.trace:
        layer = {name: _median([p.layers[name] for p in traced]) for name in traced[0].layers}
        layer.update(probe_values)
        plain = _median([p.values["pipeline_s"] for p in untraced])
        with_spans = _median([p.values["pipeline_s"] for p in traced])
        layer["trace.pipeline_untraced_s"] = plain
        layer["trace.pipeline_traced_s"] = with_spans
        layer["trace.overhead_ratio"] = with_spans / plain - 1.0
    attempted = len(passes) * len(pipeline.OPERATIONS)
    failed = sum(not p.outcomes[op].ok for p in passes for op in pipeline.OPERATIONS)
    correct = not any(p.outcomes[op].wrong_output for p in passes for op in pipeline.OPERATIONS)

    # ---- report ----------------------------------------------------------
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {len(passes)} passes "
          f"(1 warm-up, {len(untraced)} untraced, {len(traced)} traced) in {measured_s:.1f} s")
    print(f"  why: {workload.why}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print("operations (failed/attempted):")
    for op in pipeline.OPERATIONS:
        bad = [p.outcomes[op] for p in passes if not p.outcomes[op].ok]
        first = f"  first failure: {bad[0].error}" if bad else ""
        print(f"  {op:<12} {len(bad)}/{len(passes)}{first}")
    print(f"  total        {failed}/{attempted}")
    print(f"end-to-end (median of {len(untraced)} untraced passes):")
    for name, (unit, better) in END_TO_END.items():
        vals = samples[name]
        if not vals:
            print(f"  {name:<26} {'n/a':>12} {unit:<8} {better} is better; its operation failed in every pass")
            continue
        quartiles = statistics.quantiles(vals, n=4) if len(vals) >= 4 else None
        spread = f"  q1-q3 {quartiles[0]:.4g}-{quartiles[2]:.4g}" if quartiles else ""
        print(f"  {name:<26} {e2e[name]:>12.6g} {unit:<8} {better} is better  n={len(vals)}{spread}")
    if args.trace:
        print(f"per-layer (median of {len(traced)} traced passes; step.* from the step probe):")
        for name, value in layer.items():
            print(f"  {name:<34} {value:.6g} {_unit(name)}")
        print(f"tracing overhead: pipeline_s {layer['trace.pipeline_traced_s']:.4f} s traced vs "
              f"{layer['trace.pipeline_untraced_s']:.4f} s untraced ({100 * layer['trace.overhead_ratio']:+.1f}%)")
        if recorders[0].missing:
            print(f"shims not installed (targets absent): {', '.join(recorders[0].missing)}")
        trace_file = WORK / f"trace-{workload.name}.json"
        trace_file.write_text(json.dumps({"workload": workload.name, "seed": args.seed, "environment": env,
                                          "passes": [r.to_json() for r in recorders]}), encoding="utf-8")
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    measured = {k: v for k, v in {**e2e, **layer}.items() if v is not None}
    print("all_metrics: " + json.dumps(measured, sort_keys=True))

    section = declared["per_layer" if args.trace else "end_to_end"]
    absent = [m["name"] for m in section if m["name"] not in measured]
    if absent:
        print(f"error: declared metrics without a value: {', '.join(absent)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in section}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
