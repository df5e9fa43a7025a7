"""SHA-256 digests of the artifacts the CLI pipeline writes, for byte-identity checks.

Run from the repository root:

    python3 tools/artifact_digest.py --out DIR

For every workload of ``bench/workloads.py`` and seeds 1 and 2, it runs the
five CLI commands (gen-data, pretrain, finetune, eval fixed, eval random) in
process on the package in ``src/``, with one BLAS thread, writing under
``DIR/<workload>-s<seed>/``. It then prints one line ``<sha256>  <workload>-s<seed>/<file>``
for each of the nine compared files. The epoch logs are hashed without their
``wallclock_ms`` column and the metrics documents without their ``version:``
line, the only contents that may differ between runs of the same code.

To check that a change leaves every artifact byte-identical, run the tool on
a copy of the parent commit and on the change, and ``diff`` the two outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)
COMPARED = ("data/dataset.mcu", "pretrain/checkpoint.mcu", "pretrain/epoch_log.csv",
            "finetune/checkpoint.mcu", "finetune/epoch_log.csv", "finetune/schedule_log.csv",
            "finetune/probe_log.csv", "eval-fixed/metrics.txt", "eval-random/metrics.txt")


def pipeline_argv(config: Path, root: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of the five CLI commands of one pipeline on the config file
    `config`, each writing under `root`: gen-data, pretrain, finetune, eval-fixed, eval-random."""
    cfg = ["--config", str(config)]
    data, pre, fin = root / "data" / "dataset.mcu", root / "pretrain", root / "finetune"
    commands = [("gen-data", ["gen-data", *cfg, "--out", str(data.parent)]),
                ("pretrain", ["pretrain", *cfg, "--data", str(data), "--out", str(pre)]),
                ("finetune", ["finetune", *cfg, "--data", str(data), "--checkpoint", str(pre / "checkpoint.mcu"),
                              "--out", str(fin)])]
    commands += [(f"eval-{protocol}", ["eval", *cfg, "--checkpoint", str(fin / "checkpoint.mcu"), "--data", str(data),
                                       "--protocol", protocol, "--out", str(root / f"eval-{protocol}")])
                 for protocol in ("fixed", "random")]
    return commands


def run_pipeline(config_text: str, root: Path) -> None:
    """Write the config under `root` and run the five commands on it there."""
    from mculora.cli import main as cli_main  # imported once main() has pinned the BLAS threads

    root.mkdir(parents=True, exist_ok=True)
    config = root / "config.txt"
    config.write_text(config_text, encoding="utf-8")
    for _, argv in pipeline_argv(config, root):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
        if code != 0:
            raise SystemExit(f"{root}: `mculora {argv[0]}` exited {code}")


def digest(path: Path) -> str:
    """SHA-256 of the file, read without the contents that vary between runs."""
    data = path.read_bytes()
    if path.name == "epoch_log.csv":
        lines = data.decode("utf-8").splitlines()
        drop = lines[0].split(",").index("wallclock_ms")
        data = "\n".join(",".join(c for i, c in enumerate(ln.split(",")) if i != drop) for ln in lines).encode()
    elif path.name == "metrics.txt":
        data = "\n".join(ln for ln in data.decode("utf-8").splitlines()
                         if not ln.startswith("version:")).encode()
    return hashlib.sha256(data).hexdigest()


def digest_lines(root: Path, run: str) -> list[str]:
    """One `<sha256>  <run>/<file>` line per compared file under root/run."""
    return [f"{digest(root / run / name)}  {run}/{name}" for name in COMPARED]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory the runs write into")
    out = Path(parser.parse_args().out)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            run = f"{name}-s{seed}"
            run_pipeline(workload.config_text(seed), out / run)
            print("\n".join(digest_lines(out, run)), flush=True)


if __name__ == "__main__":
    main()
