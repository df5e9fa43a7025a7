"""Peak resident memory, heap peak and time of each CLI command of one benchmark workload, each in a fresh process.

Run from the repository root:

    python3 tools/command_peaks.py --workload eval-long --seed 1

It writes the config of one ``bench/workloads.py`` workload and seed, then
runs the five commands of the pipeline (gen-data, pretrain, finetune, eval
fixed, eval random) one after another, each as ``python -m mculora.cli`` in a
new process with one BLAS thread, on the package in ``src/``. It prints one
line ``<command>  exit <code>  <peak> MB  <heap> MB heap  <wall> s wall  <cpu> s cpu``
per command: the peak is that process's ``ru_maxrss``, the wall seconds run
from its start to its exit, and the CPU seconds are its user plus system
time, so a command that keeps more than one core busy shows more CPU than
wall seconds. The heap peak comes from a second fresh process that runs the
same command again under ``tracemalloc``, started once the package is
imported: the most the command's Python and numpy allocations held at once.
Unlike ``ru_maxrss`` it does not move with where the allocator places
blocks, and it leaves out the import baseline. Gen-data's heap peak still
varies by about 0.1 MB from run to run, because its writer threads draw and
write concurrently. Every MB figure is printed with three decimals, so a
0.1 MB comparison never turns on rounding.

A whole-run peak, as ``bench/run.py`` reports it, is the largest resident
peak plus everything one process accumulates across commands and passes. So
the tool then runs the five commands for 3 passes in one more fresh process,
as ``bench/run.py`` does in process, and prints one line
``pass <n> <command>  exit <code>  <peak> MB`` after each command, the peak
being that process's ``ru_maxrss`` so far, and last the whole-run peak and
the command that first reached it. A traced run overstates every peak, so
this tool runs untraced.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from artifact_digest import ROOT, pipeline_argv


# runs `mculora.cli` with the arguments after the first, then writes its tracemalloc peak to the file named first
_HEAP_PEAK = """
import sys, tracemalloc
from mculora.cli import main
tracemalloc.start()
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as out:
    out.write(str(tracemalloc.get_traced_memory()[1]))
raise SystemExit(code)
"""

_PASSES = 3
# runs the passes of (name, argv) commands given as JSON after the file named first, all in this one
# process, and after each command writes `<pass> <command> <exit code> <ru_maxrss in KiB>` to that file
_WHOLE_RUN = """
import contextlib, io, json, resource, sys
from mculora.cli import main
with open(sys.argv[1], "w") as out:
    for index, commands in enumerate(json.loads(sys.argv[2]), start=1):
        for name, argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            out.write(f"{index} {name} {code} {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}\\n")
"""


def _setup(config_text: str, root: Path) -> tuple[Path, dict[str, str]]:
    """Write the config under `root`; its path, and the environment that runs
    the package in src/ on one BLAS thread."""
    root.mkdir(parents=True, exist_ok=True)
    config = root / "config.txt"
    config.write_text(config_text, encoding="utf-8")
    return config, {**os.environ, "PYTHONPATH": str(ROOT / "src"),
                    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def command_peaks(config_text: str, root: Path) -> list[tuple[str, int, float, float, float, float]]:
    """Write the config under `root` and run the five commands on it there,
    each in a fresh process and then again in another under tracemalloc;
    (command, exit code, peak RSS in MB, heap peak in MB, wall seconds, CPU
    seconds) per command. A command whose input comes from a failed one is
    still run, and fails too; the heap run must exit as the first did."""
    config, env = _setup(config_text, root)
    heap_file = root / "heap_peak.txt"
    rows = []
    for name, argv in pipeline_argv(config, root):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "mculora.cli", *argv], env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        heap_run = subprocess.run([sys.executable, "-c", _HEAP_PEAK, str(heap_file), *argv], env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if heap_run.returncode != proc.returncode:
            raise RuntimeError(f"{name}: exit {proc.returncode}, then {heap_run.returncode} under tracemalloc")
        heap = int(heap_file.read_text()) / 2 ** 20
        rows.append((name, proc.returncode, usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
                     heap, wall, usage.ru_utime + usage.ru_stime))
    return rows


def whole_run_peaks(config_text: str, root: Path) -> list[tuple[int, str, int, float]]:
    """Write the config under `root` and run the five commands on it there for
    3 passes, each pass in its own folder, all in one fresh process; (pass,
    command, exit code, the process's peak RSS in MB so far) after each command."""
    config, env = _setup(config_text, root)
    results = root / "whole_run.txt"
    passes = [pipeline_argv(config, root / f"pass{index}") for index in range(1, _PASSES + 1)]
    subprocess.run([sys.executable, "-c", _WHOLE_RUN, str(results), json.dumps(passes)], env=env,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
    return [(int(index), name, int(code), int(kib) / 1024.0)  # ru_maxrss is in KiB on Linux
            for index, name, code, kib in (line.split() for line in results.read_text().splitlines())]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(sorted(WORKLOADS))}")
    config_text = WORKLOADS[args.workload].config_text(args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        for name, code, mb, heap, wall, cpu in command_peaks(config_text, Path(tmp) / "fresh"):
            print(f"{name:<12} exit {code}  {mb:.3f} MB  {heap:.3f} MB heap  {wall:.3f} s wall  {cpu:.3f} s cpu",
                  flush=True)
        rows = whole_run_peaks(config_text, Path(tmp) / "whole")
    for index, name, code, mb in rows:
        print(f"pass {index} {name:<12} exit {code}  {mb:.3f} MB")
    index, name, _, mb = next(row for row in rows if row[3] == rows[-1][3])  # ru_maxrss never falls
    print(f"whole-run peak {mb:.3f} MB, first reached by pass {index} {name}")


if __name__ == "__main__":
    main()
