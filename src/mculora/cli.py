"""Command-line entry point for reproducible generation/training/evaluation runs.

Subcommands: gen-data, pretrain, finetune, eval, report. Gen-data, pretrain,
finetune and eval each take the whole experiment from --config, seed and
ablation switches included: no flag sets a config value. Each is a pure
function of (config file, input artifacts) up to wallclock columns in the
epoch logs, reads only the split of the dataset file it uses
(:func:`_split_rows`), and writes its outputs into --out with a
manifest.json (:func:`~mculora.config.write_manifest`). Report compares
finished runs and writes no manifest: report.txt holds each run's ACC per
row of the runs' metrics tables, and curves/ one condition_<row>.csv per
row, each run's metrics in that row.

Exit codes: 0 success, 2 input/config error, 3 state/contract error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ExperimentConfig, load_config, split_bounds, version_string, write_manifest
from .errors import ConfigError, ContractError
from .model import load_checkpoint, save_checkpoint
from .serialize import write_text
from .synthgen import DatasetFile, save_dataset
from .trainer import (
    Metrics,
    MetricsRecord,
    csv_text,
    evaluate,
    finetune,
    format_metrics_document,
    parse_metrics_document,
    pretrain,
    write_epoch_log,
    write_probe_log,
    write_schedule_log,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_STATE = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mculora", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate a synthetic multimodal dataset file")
    gen.add_argument("--config", required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen_data)

    pre = sub.add_parser("pretrain", help="train the frozen base on complete data")
    pre.add_argument("--config", required=True)
    pre.add_argument("--data", required=True)
    pre.add_argument("--out", required=True)
    pre.set_defaults(func=cmd_pretrain)

    fin = sub.add_parser("finetune", help="combination-aware fine-tuning of a pretrained checkpoint")
    fin.add_argument("--config", required=True)
    fin.add_argument("--data", required=True)
    fin.add_argument("--checkpoint", required=True)
    fin.add_argument("--out", required=True)
    fin.set_defaults(func=cmd_finetune)

    ev = sub.add_parser("eval", help="evaluate a checkpoint under a missing-modality protocol")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--protocol", required=True, choices=["fixed", "random"])
    ev.add_argument("--out", required=True)
    ev.add_argument("--config", required=True)
    ev.set_defaults(func=cmd_eval)

    rep = sub.add_parser("report", help="compare completed runs: report.txt and one curves/condition_<row>.csv per row")
    rep.add_argument("runs", nargs="+", help="run directories containing metrics.txt")
    rep.add_argument("--out", required=True)
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        # a path the OS refuses, e.g. a --data or --checkpoint path that is missing, a directory, under a
        # file, unreadable, too long or a symlink loop; for a failed rename (an output whose name a
        # directory takes) the target is filename2. An error that names no path, such as a full disk
        # during a write, is no input's fault and propagates
        if exc.filename is None:
            raise
        print(f"error: cannot open {exc.filename2 or exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_INPUT
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STATE


def _prepare(args) -> tuple[ExperimentConfig, Path]:
    return load_config(args.config), _make_out_dir(args.out)


def _make_out_dir(path) -> Path:
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out_dir}: cannot make the output directory: {exc.strerror}") from exc
    return out_dir


def _split_rows(cfg: ExperimentConfig, data_path: str, split: str, dims: dict[str, int]) -> DatasetFile:
    """The rows of one split of the dataset file, opened as a
    :class:`~mculora.synthgen.DatasetFile`: "train" (for pretrain and
    finetune), "probe" (the first ``probe_size`` validation samples or, with
    no validation split, the last ``probe_size`` training samples) or "test"
    (for eval). This is the one place a dataset file meets a model: a file
    whose raw_dim or classes are not the model's, ``dims["raw_dim"]`` and
    ``dims["classes"]`` (the config's for pretrain, the checkpoint's for
    finetune and eval), is a :class:`ContractError` naming both values."""
    def rows(n: int) -> slice:
        n_train, n_val = split_bounds(n, cfg.train_frac, cfg.val_frac)
        probe = (slice(n_train, n_train + min(cfg.probe_size, n_val)) if n_val
                 else slice(max(0, n_train - cfg.probe_size), n_train))
        return {"train": slice(0, n_train), "probe": probe, "test": slice(n_train + n_val, n)}[split]
    data = DatasetFile(data_path, rows)
    for key, size in (("raw_dim", "raw_dim {}"), ("classes", "{} classes")):
        if getattr(data, key) != dims[key]:
            data.close()
            raise ContractError(f"{data_path} holds a dataset of {size.format(getattr(data, key))}, "
                                f"but the model has {size.format(dims[key])}")
    return data


def cmd_gen_data(args) -> int:
    cfg, out_dir = _prepare(args)
    write_manifest(out_dir, "gen-data", cfg, args.config, {"dataset.mcu": save_dataset(out_dir / "dataset.mcu", cfg)})
    print(f"wrote {out_dir / 'dataset.mcu'} ({cfg.num_samples} samples)")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    cfg, out_dir = _prepare(args)
    with _split_rows(cfg, args.data, "train", {"raw_dim": cfg.raw_dim, "classes": cfg.classes}) as train:
        result = pretrain(train, cfg)
    write_manifest(out_dir, "pretrain", cfg, args.config, {
        "checkpoint.mcu": save_checkpoint(result.model, out_dir / "checkpoint.mcu"),
        "epoch_log.csv": write_epoch_log(out_dir / "epoch_log.csv", result.epoch_rows)})
    print(f"pretrained {cfg.pretrain_epochs} epochs; checkpoint at {out_dir / 'checkpoint.mcu'}")
    return EXIT_OK


def cmd_finetune(args) -> int:
    cfg, out_dir = _prepare(args)
    model = load_checkpoint(args.checkpoint)
    dims = model.dims()
    with _split_rows(cfg, args.data, "probe", dims) as probe, _split_rows(cfg, args.data, "train", dims) as train:
        result = finetune(model, train, cfg, probe)
    write_manifest(out_dir, "finetune", cfg, args.config, {
        "checkpoint.mcu": save_checkpoint(result.model, out_dir / "checkpoint.mcu"),
        "epoch_log.csv": write_epoch_log(out_dir / "epoch_log.csv", result.epoch_rows),
        "schedule_log.csv": write_schedule_log(out_dir / "schedule_log.csv", result.schedule_rows),
        "probe_log.csv": write_probe_log(out_dir / "probe_log.csv", result.schedule_rows)})
    dpft = "on" if cfg.dpft else "off"
    if cfg.dpft and not cfg.mcla:
        dpft += ", but with no adapters to score the schedule stayed uniform"
    print(f"finetuned {cfg.finetune_epochs} epochs (mcla={'on' if cfg.mcla else 'off'}, dpft={dpft})")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg, out_dir = _prepare(args)
    model = load_checkpoint(args.checkpoint)
    with _split_rows(cfg, args.data, "test", model.dims()) as test:
        record = evaluate(model, test, args.protocol, cfg)
    text = format_metrics_document(record, json.dumps(cfg.echo(), sort_keys=True), version_string())
    write_manifest(out_dir, "eval", cfg, args.config, {"metrics.txt": write_text(out_dir / "metrics.txt", text)})
    print(text, end="")
    return EXIT_OK


def cmd_report(args) -> int:
    # a run's name, its directory's own name, heads its column and names its curve rows
    names = [Path(run_dir).resolve().name for run_dir in args.runs]
    first_dir: dict[str, str] = {}
    for name, run_dir in zip(names, args.runs):
        if name in first_dir:
            raise ConfigError(f"two runs are named {name!r}: {first_dir[name]} and {run_dir}")
        first_dir[name] = run_dir
    out_dir = _make_out_dir(args.out)
    runs: list[tuple[str, MetricsRecord]] = []
    for name, run_dir in zip(names, args.runs):
        try:
            record, _ = parse_metrics_document((Path(run_dir) / "metrics.txt").read_text(encoding="utf-8"))
            runs.append((name, record))
        except (OSError, ContractError, ValueError) as exc:
            print(f"warning: skipping {run_dir}: {exc}", file=sys.stderr)
    if not runs:
        print("error: no valid run directories", file=sys.stderr)
        return EXIT_INPUT

    conditions = list(dict.fromkeys(cond for _, record in runs for cond in record.rows))
    lines = ["# run comparison (ACC per condition; delta vs first run)", ",".join(["condition", *(n for n, _ in runs)])]
    for cond in conditions:
        accs = [record.rows.get(cond) for _, record in runs]
        lines.append(",".join([cond, *("" if m is None else f"{100 * m.acc:.2f}" for m in accs)]))
    base, *others = [record.rows.get("average") for _, record in runs]
    if base is not None and any(m is not None for m in others):
        deltas = ("" if m is None else f"{100 * (m.acc - base.acc):+.2f}" for m in others)
        lines.append(",".join(["average_delta", "", *deltas]))
    write_text(out_dir / "report.txt", "\n".join(lines) + "\n")

    curves = out_dir / "curves"
    curves.mkdir(exist_ok=True)
    for cond in conditions:
        rows = [[name, *m] for name, record in runs if (m := record.rows.get(cond)) is not None]
        write_text(curves / f"condition_{cond}.csv", csv_text(["run", *Metrics._fields], rows))
    print(f"report written to {out_dir / 'report.txt'} ({len(runs)} runs)")
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
