"""One closed-loop pass of the user-facing pipeline, with output checks.

The five operations are the CLI commands ``gen-data``, ``pretrain``,
``finetune``, ``eval --protocol fixed`` and ``eval --protocol random``,
called in process through ``mculora.cli.main``. An operation fails when it
raises, exits non-zero, or its output fails a check; an operation whose input
comes from a failed one is not run and counts as failed too. No operation is
ever run on a stand-in input.

The checks read the artifacts with this file's own parsers, not the
program's: the manifest's SHA-256 of every artifact, the checkpoint phase in
the container header, and the metrics table.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

OPERATIONS = ("gen-data", "pretrain", "finetune", "eval-fixed", "eval-random")
DEPENDS_ON = {"pretrain": "gen-data", "finetune": "pretrain",
              "eval-fixed": "finetune", "eval-random": "finetune"}

FIXED_ROWS = ("a", "t", "v", "av", "at", "tv", "average", "atv")
N_FIXED_CONDITIONS = 7
_METRICS_HEADER = "# mculora metrics v1"


class CheckFailed(Exception):
    """An operation completed but its output is wrong."""


@dataclass
class Outcome:
    op: str
    seconds: float = 0.0
    ok: bool = False
    error: str | None = None
    wrong_output: bool = False
    acc: dict[str, float] = field(default_factory=dict)


@dataclass
class Paths:
    root: Path
    config: Path

    @property
    def dataset(self) -> Path:
        return self.root / "data" / "dataset.mcu"

    def out(self, op: str) -> Path:
        return self.root / op

    def checkpoint(self, op: str) -> Path:
        return self.out(op) / "checkpoint.mcu"


def _argv(op: str, p: Paths) -> list[str]:
    cfg = ["--config", str(p.config)]
    if op == "gen-data":
        return ["gen-data", *cfg, "--out", str(p.dataset.parent)]
    if op == "pretrain":
        return ["pretrain", *cfg, "--data", str(p.dataset), "--out", str(p.out(op))]
    if op == "finetune":
        return ["finetune", *cfg, "--data", str(p.dataset), "--checkpoint", str(p.checkpoint("pretrain")),
                "--out", str(p.out(op))]
    protocol = op.split("-", 1)[1]
    return ["eval", *cfg, "--checkpoint", str(p.checkpoint("finetune")), "--data", str(p.dataset),
            "--protocol", protocol, "--out", str(p.out(op))]


def run_pipeline(cli_main, paths: Paths, expected_samples: int, span=None) -> dict[str, Outcome]:
    """Run the five operations in order; `span(name)` brackets each command when tracing."""
    outcomes: dict[str, Outcome] = {}
    for op in OPERATIONS:
        outcome = Outcome(op)
        outcomes[op] = outcome
        dep = DEPENDS_ON.get(op)
        if dep is not None and not outcomes[dep].ok:
            outcome.error = f"not run: depends on failed {dep}"
            continue
        sink = io.StringIO()
        bracket = span(f"cli.{op}") if span is not None else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with bracket, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli_main(_argv(op, paths))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the program's own failure is the measurement
            outcome.seconds = time.perf_counter() - t0
            outcome.error = f"raised {type(exc).__name__}: {exc}"
            continue
        outcome.seconds = time.perf_counter() - t0
        if code != 0:
            last = sink.getvalue().strip().splitlines()[-1:] or [""]
            outcome.error = f"exit code {code}: {last[0]}"
            continue
        try:
            outcome.acc = _CHECKS[op](paths, op, expected_samples)
        except CheckFailed as exc:
            outcome.error = f"wrong output: {exc}"
            outcome.wrong_output = True
            continue
        outcome.ok = True
    return outcomes


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _check_manifest(out_dir: Path, artifacts: tuple[str, ...]) -> None:
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        listed = manifest["artifacts"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"{out_dir.name}/manifest.json unreadable: {exc}") from exc
    if sorted(listed) != sorted(artifacts):
        raise CheckFailed(f"{out_dir.name}/manifest.json lists {sorted(listed)}, expected {sorted(artifacts)}")
    for name in artifacts:
        path = out_dir / name
        if not path.is_file():
            raise CheckFailed(f"{out_dir.name}/{name} missing")
        if _sha256(path) != listed[name]:
            raise CheckFailed(f"{out_dir.name}/{name} does not match its manifest SHA-256")


def _container_header(path: Path) -> tuple[str, dict]:
    try:
        with path.open("rb") as fh:
            magic = fh.readline().decode("ascii").strip()
            header = json.loads(fh.readline().decode("utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: unreadable container header: {exc}") from exc
    if not magic.startswith("MCULORA-") or not magic.endswith(" v1"):
        raise CheckFailed(f"{path.name}: bad magic line {magic!r}")
    return magic[len("MCULORA-"):-len(" v1")], header.get("meta", {})


def _check_gen(paths: Paths, op: str, expected_samples: int) -> dict:
    _check_manifest(paths.dataset.parent, ("dataset.mcu",))
    kind, meta = _container_header(paths.dataset)
    n = meta.get("config", {}).get("num_samples")
    if kind != "DATASET" or n != expected_samples:
        raise CheckFailed(f"dataset container is {kind} with {n} samples, expected DATASET with {expected_samples}")
    return {}


def _check_training(phase: str, logs: tuple[str, ...]):
    def check(paths: Paths, op: str, expected_samples: int) -> dict:
        _check_manifest(paths.out(op), ("checkpoint.mcu", *logs))
        kind, meta = _container_header(paths.checkpoint(op))
        if kind != "CHECKPOINT" or meta.get("phase") != phase:
            raise CheckFailed(f"{op} wrote a {kind} in phase {meta.get('phase')!r}, expected {phase!r}")
        return {}
    return check


def _check_eval(paths: Paths, op: str, expected_samples: int) -> dict:
    out = paths.out(op)
    _check_manifest(out, ("metrics.txt",))
    protocol = op.split("-", 1)[1]
    lines = [ln for ln in (out / "metrics.txt").read_text(encoding="utf-8").splitlines() if ln.strip()]
    if not lines or lines[0] != _METRICS_HEADER or f"protocol: {protocol}" not in lines:
        raise CheckFailed(f"{op}: metrics.txt is not a {protocol}-protocol metrics document")
    try:
        table = lines[lines.index("condition,acc,f1,wa,ua") + 1:]
        rows = {}
        for ln in table:
            name, *vals = ln.split(",")
            if len(vals) != 4:
                raise ValueError(f"row {ln!r} has {len(vals)} values")
            rows[name] = [float(v) for v in vals]
    except ValueError as exc:
        raise CheckFailed(f"{op}: metrics.txt table does not parse: {exc}") from exc
    want = FIXED_ROWS if protocol == "fixed" else ("random",)
    if sorted(rows) != sorted(want):
        raise CheckFailed(f"{op}: metrics rows {sorted(rows)}, expected {sorted(want)}")
    for name, vals in rows.items():
        if not all(math.isfinite(v) for v in vals) or not 0.0 <= vals[0] <= 1.0:
            raise CheckFailed(f"{op}: condition {name} has ACC {vals[0]!r} outside [0, 1]")
    return {name: vals[0] for name, vals in rows.items()}


_CHECKS = {
    "gen-data": _check_gen,
    "pretrain": _check_training("pretrained", ("epoch_log.csv",)),
    "finetune": _check_training("finetuned", ("epoch_log.csv", "schedule_log.csv", "probe_log.csv")),
    "eval-fixed": _check_eval,
    "eval-random": _check_eval,
}


# ---------------------------------------------------------------------------
# end-to-end metrics of one pass
# ---------------------------------------------------------------------------

def pass_metrics(outcomes: dict[str, Outcome], cfg: dict, n_train: int, n_test: int) -> dict[str, float]:
    """End-to-end values of one pass; a metric of a failed operation is absent."""
    o = outcomes
    values = {"pipeline_s": sum(x.seconds for x in o.values())}
    if o["gen-data"].ok:
        values["setup_s"] = o["gen-data"].seconds
    if o["pretrain"].ok:
        values["pretrain_samples_per_s"] = n_train * cfg["pretrain_epochs"] / o["pretrain"].seconds
    if o["finetune"].ok:
        values["finetune_samples_per_s"] = n_train * cfg["finetune_epochs"] / o["finetune"].seconds
    if o["eval-fixed"].ok:
        values["eval_fixed_samples_per_s"] = n_test * N_FIXED_CONDITIONS / o["eval-fixed"].seconds
        values["acc_fixed_avg"] = o["eval-fixed"].acc["average"]
    if o["eval-random"].ok:
        values["eval_random_samples_per_s"] = n_test / o["eval-random"].seconds
        values["acc_random"] = o["eval-random"].acc["random"]
    return values
