"""Peak resident memory and time of each CLI command of one benchmark workload, each in a fresh process.

Run from the repository root:

    python3 tools/command_peaks.py --workload eval-long --seed 1

It writes the config of one ``bench/workloads.py`` workload and seed, then
runs the five commands of the pipeline (gen-data, pretrain, finetune, eval
fixed, eval random) one after another, each as ``python -m mculora.cli`` in a
new process with one BLAS thread, on the package in ``src/``. It prints one
line ``<command>  exit <code>  <peak> MB  <wall> s wall  <cpu> s cpu`` per
command: the peak is that process's ``ru_maxrss``, the wall seconds run from
its start to its exit, and the CPU seconds are its user plus system time, so
a command that keeps more than one core busy shows more CPU than wall
seconds. A whole-run peak, as ``bench/run.py`` reports it, is
the largest of these plus everything one process accumulates across commands;
a traced run overstates both, so this tool runs untraced.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from artifact_digest import ROOT, pipeline_argv


def command_peaks(config_text: str, root: Path) -> list[tuple[str, int, float, float, float]]:
    """Write the config under `root` and run the five commands on it there,
    each in a fresh process; (command, exit code, peak RSS in MB, wall seconds,
    CPU seconds) per command.
    A command whose input comes from a failed one is still run, and fails too."""
    root.mkdir(parents=True, exist_ok=True)
    config = root / "config.txt"
    config.write_text(config_text, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    rows = []
    for name, argv in pipeline_argv(config, root):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "mculora.cli", *argv], env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        rows.append((name, proc.returncode, usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
                     wall, usage.ru_utime + usage.ru_stime))
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(sorted(WORKLOADS))}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, code, mb, wall, cpu in command_peaks(WORKLOADS[args.workload].config_text(args.seed), Path(tmp)):
            print(f"{name:<12} exit {code}  {mb:.1f} MB  {wall:.3f} s wall  {cpu:.3f} s cpu", flush=True)


if __name__ == "__main__":
    main()
