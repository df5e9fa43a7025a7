import contextlib
import dataclasses
import errno
import hashlib
import json
import os
import re
import subprocess
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mculora import __version__, cli, config, serialize, trainer
from mculora.cli import _split_rows, main
from mculora.config import ExperimentConfig, parse_config_text, version_string
from mculora.errors import ConfigError, ContractError
from mculora.modalities import MODALITIES, Combo
from mculora.model import attach_adapters, build_model, load_checkpoint, save_checkpoint
from mculora.rng import Rng
from mculora.serialize import load_container, save_container
from mculora.synthgen import Dataset, apply_random_missing, generate_dataset, save_dataset, split_dataset

from conftest import read_dataset


TINY_CONFIG = """
# desk-scale smoke configuration
num_samples = 80
seq_len = 3
raw_dim = 8
classes = 3
shared_dim = 3
private_dim = 2
model_dim = 8
rank = 2
pretrain_epochs = 2
finetune_epochs = 2
batch_size = 16
probe_size = 12
noise_std = 0.3
seed = 66
"""


@pytest.fixture()
def workspace(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(TINY_CONFIG)
    return tmp_path, cfg_path


FIXED_ROWS = ["a", "t", "v", "av", "at", "tv", "average", "atv"]  # a fixed-protocol table's rows, in order


def run(*argv):
    return main([str(a) for a in argv])


def test_gen_data_writes_dataset_and_manifest(workspace):
    tmp, cfg = workspace
    out = tmp / "data"
    assert run("gen-data", "--config", cfg, "--out", out) == 0
    dataset = read_dataset(out / "dataset.mcu")
    assert len(dataset) == 80
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "gen-data"
    assert "dataset.mcu" in manifest["artifacts"]
    assert manifest["config"]["num_samples"] == 80


def test_gen_data_is_checksum_reproducible(workspace):
    tmp, cfg = workspace
    out1, out2 = tmp / "d1", tmp / "d2"
    assert run("gen-data", "--config", cfg, "--out", out1) == 0
    assert run("gen-data", "--config", cfg, "--out", out2) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())["artifacts"]
    m2 = json.loads((out2 / "manifest.json").read_text())["artifacts"]
    assert m1 == m2


def test_gen_data_rejects_bad_config(workspace, capsys):
    tmp, _ = workspace
    bad = tmp / "bad.cfg"
    bad.write_text("num_samples = 0\n")
    assert run("gen-data", "--config", bad, "--out", tmp / "x") == 2
    assert "num_samples" in capsys.readouterr().err


@pytest.mark.parametrize("line, field", [
    ("learning_rate = nan", "learning_rate"),
    ("beta = inf", "beta"),
    ("alpha = -inf", "alpha"),
    ("mask_hi = nan", "mask_hi"),
])
def test_non_finite_config_values_rejected(workspace, capsys, line, field):
    tmp, _ = workspace
    bad = tmp / "bad.cfg"
    bad.write_text(TINY_CONFIG + line + "\n")
    assert run("gen-data", "--config", bad, "--out", tmp / "x") == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("line, field", [
    ("p_min = 0.6", "p_min"),
    ("p_min = 0.2", "p_min"),  # above the uniform start 1/7
    ("p_max = 1.5", "p_max"),
    ("q_base = 0", "q_base"),
    ("lam = 0", "lam"),
])
def test_schedule_fields_checked_at_config_load(workspace, capsys, line, field):
    tmp, cfg = workspace
    assert run("gen-data", "--config", cfg, "--out", tmp / "data") == 0
    bad = tmp / "bad.cfg"
    bad.write_text(TINY_CONFIG + line + "\n")
    assert run("gen-data", "--config", bad, "--out", tmp / "x") == 2
    assert field in capsys.readouterr().err
    assert run("pretrain", "--config", bad, "--data", tmp / "data" / "dataset.mcu", "--out", tmp / "p") == 2
    assert field in capsys.readouterr().err


def test_unknown_config_key_rejected(workspace, capsys):
    tmp, _ = workspace
    bad = tmp / "bad.cfg"
    bad.write_text("numsamples = 10\n")
    assert run("gen-data", "--config", bad, "--out", tmp / "x") == 2
    assert "numsamples" in capsys.readouterr().err


def test_config_file_with_the_removed_task_key_is_rejected(workspace, capsys):
    tmp, _ = workspace
    old = tmp / "old.cfg"
    old.write_text(TINY_CONFIG + "task = classification\n")
    assert run("gen-data", "--config", old, "--out", tmp / "x") == 2
    assert "'task'" in capsys.readouterr().err


def full_pipeline(tmp, cfg):
    data = tmp / "data"
    pre = tmp / "pre"
    fin = tmp / "fin"
    assert run("gen-data", "--config", cfg, "--out", data) == 0
    assert run("pretrain", "--config", cfg, "--data", data / "dataset.mcu", "--out", pre) == 0
    assert run("finetune", "--config", cfg, "--data", data / "dataset.mcu",
               "--checkpoint", pre / "checkpoint.mcu", "--out", fin) == 0
    return data, pre, fin


def test_pipeline_produces_expected_artifacts(workspace):
    tmp, cfg = workspace
    data, pre, fin = full_pipeline(tmp, cfg)
    assert (pre / "checkpoint.mcu").exists()
    assert (pre / "epoch_log.csv").read_text().startswith("epoch,phase,l_task")
    for name in ("checkpoint.mcu", "epoch_log.csv", "schedule_log.csv", "probe_log.csv", "manifest.json"):
        assert (fin / name).exists(), name


def test_finetune_clamps_rounding_noise_in_scores_at_zero(tmp_path):
    # at this learning rate private and common adapters stay near-equal, and
    # the divergence of near-equal rows rounds to about -2e-16
    cfg = tmp_path / "run.cfg"
    cfg.write_text("num_samples = 200\npretrain_epochs = 1\nfinetune_epochs = 3\n"
                   "probe_size = 32\nlearning_rate = 1e-9\n")
    _, _, fin = full_pipeline(tmp_path, cfg)
    header, *rows = (fin / "schedule_log.csv").read_text().splitlines()
    score_cols = [i for i, name in enumerate(header.split(",")) if name.startswith("s_")]
    assert len(rows) == 3 and len(score_cols) == 7
    assert all(float(row.split(",")[i]) >= 0.0 for row in rows for i in score_cols)


@pytest.mark.parametrize("switches, summary", [
    ("", "(mcla=on, dpft=on)"),
    ("dpft = off\n", "(mcla=on, dpft=off)"),
    ("mcla = off\n", "(mcla=off, dpft=on, but with no adapters to score the schedule stayed uniform)"),
    ("mcla = off\ndpft = off\n", "(mcla=off, dpft=off)"),
])
def test_finetune_summary_says_what_the_schedule_did(workspace, capsys, switches, summary):
    tmp, cfg = workspace
    cfg.write_text(TINY_CONFIG + switches)
    _, _, fin = full_pipeline(tmp, cfg)
    assert capsys.readouterr().out.splitlines()[-1] == f"finetuned 2 epochs {summary}"
    header, *rows = (fin / "schedule_log.csv").read_text().splitlines()
    q = {row.split(",")[i] for row in rows for i, name in enumerate(header.split(",")) if name.startswith("q_")}
    assert (q == {repr(1 / 7)}) == (summary != "(mcla=on, dpft=on)")  # q moves only when DPFT scores adapters


def test_finetune_refuses_finetuned_checkpoint(workspace, capsys):
    tmp, cfg = workspace
    data, _, fin = full_pipeline(tmp, cfg)
    rc = run("finetune", "--config", cfg, "--data", data / "dataset.mcu",
             "--checkpoint", fin / "checkpoint.mcu", "--out", tmp / "fin2")
    assert rc == 3
    assert "pretrained" in capsys.readouterr().err


def test_missing_data_file_is_input_error(workspace):
    tmp, cfg = workspace
    rc = run("pretrain", "--config", cfg, "--data", tmp / "nope.mcu", "--out", tmp / "p")
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["pretrain", "--data", "DIR"],
    ["finetune", "--data", "DIR", "--checkpoint", "CKPT"],
    ["finetune", "--data", "DATA", "--checkpoint", "DIR"],
    ["eval", "--protocol", "fixed", "--data", "DIR", "--checkpoint", "CKPT"],
    ["eval", "--protocol", "fixed", "--data", "DATA", "--checkpoint", "DIR"],
], ids=["pretrain-data", "finetune-data", "finetune-checkpoint", "eval-data", "eval-checkpoint"])
def test_input_path_naming_a_directory_is_input_error(workspace, capsys, argv):
    # the checkpoint is read before the dataset, so DATA is never opened
    tmp, cfg = workspace
    model = build_model(ExperimentConfig(raw_dim=8, model_dim=8, classes=3, rank=2), Rng(0))
    model.phase = "pretrained"
    save_checkpoint(model, tmp / "ckpt.mcu")
    paths = {"DIR": tmp / "dir", "CKPT": tmp / "ckpt.mcu", "DATA": tmp / "data.mcu"}
    paths["DIR"].mkdir()
    assert run(*[paths.get(arg, arg) for arg in argv], "--config", cfg, "--out", tmp / "out") == 2
    assert str(paths["DIR"]) in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--data", "--checkpoint"])
@pytest.mark.parametrize("fault", ["parent-is-a-file", "unreadable", "name-too-long", "symlink-loop"])
def test_unopenable_input_path_is_input_error(workspace, capsys, monkeypatch, fault, flag):
    tmp, cfg = workspace
    assert run("gen-data", "--config", cfg, "--out", tmp / "data") == 0
    model = build_model(ExperimentConfig(raw_dim=8, model_dim=8, classes=3, rank=2), Rng(0))
    model.phase = "pretrained"
    save_checkpoint(model, tmp / "ckpt.mcu")
    paths = {"--data": tmp / "data" / "dataset.mcu", "--checkpoint": tmp / "ckpt.mcu"}
    if fault == "parent-is-a-file":
        paths[flag] = cfg / "x"  # NotADirectoryError
    elif fault == "name-too-long":
        paths[flag] = tmp / ("x" * 300)  # a plain OSError, errno ENAMETOOLONG
    elif fault == "symlink-loop":
        paths[flag] = tmp / "loop"  # a plain OSError, errno ELOOP
        paths[flag].symlink_to(paths[flag])
    else:  # as root every file is readable, so the refusal is simulated
        open_path = Path.open

        def refuse(self, *args, **kwargs):
            if self == paths[flag]:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))
            return open_path(self, *args, **kwargs)
        monkeypatch.setattr(Path, "open", refuse)
    capsys.readouterr()
    assert run("finetune", "--config", cfg, *(x for item in paths.items() for x in item), "--out", tmp / "out") == 2
    assert f"cannot open {paths[flag]}" in capsys.readouterr().err


@pytest.mark.parametrize("lines, counts", [("num_samples = 1\n", "1 training and 0 test"),
                                           ("num_samples = 3\ntrain_frac = 0.1\n", "0 training and 3 test"),
                                           ("num_samples = 6\ntrain_frac = 0.8\n", "5 training and 0 test")],
                         ids=["one-sample", "train-rounds-to-zero", "test-rounds-to-zero"])
def test_split_rounding_to_an_empty_split_is_input_error(workspace, capsys, lines, counts):
    tmp, cfg = workspace
    data, pre, fin = full_pipeline(tmp, cfg)
    bad = tmp / "bad.cfg"
    bad.write_text(TINY_CONFIG.replace("num_samples = 80\n", "") + lines)
    commands = [("gen-data",), ("pretrain", "--data", data / "dataset.mcu"),
                ("finetune", "--data", data / "dataset.mcu", "--checkpoint", pre / "checkpoint.mcu"),
                ("eval", "--data", data / "dataset.mcu", "--checkpoint", fin / "checkpoint.mcu", "--protocol", "fixed")]
    for command, *flags in commands:
        capsys.readouterr()
        assert run(command, "--config", bad, *flags, "--out", tmp / command) == 2, command
        err = capsys.readouterr().err
        assert all(key in err for key in ("num_samples", "train_frac", "val_frac", counts)), err
        assert not (tmp / command).exists()


def test_empty_training_split_is_state_error_naming_the_split(workspace, capsys):
    # a valid config meets a dataset file of fewer rows than its num_samples: round(4 * 0.1) = 0 training samples
    tmp, cfg = workspace
    data, pre, _ = full_pipeline(tmp, cfg)
    _, meta, arrays = load_container(data / "dataset.mcu", expected_kind="dataset")
    meta["config"]["num_samples"] = 4
    save_container(tmp / "four.mcu", "dataset", meta, {name: arr[:4] for name, arr in arrays.items()})
    few = tmp / "few.cfg"
    few.write_text(TINY_CONFIG + "train_frac = 0.1\n")
    capsys.readouterr()
    assert run("pretrain", "--config", few, "--data", tmp / "four.mcu", "--out", tmp / "p") == 3
    assert "pretrain: the training split is empty" in capsys.readouterr().err
    assert run("finetune", "--config", few, "--data", tmp / "four.mcu", "--checkpoint", pre / "checkpoint.mcu",
               "--out", tmp / "f") == 3
    assert "finetune: the training split is empty" in capsys.readouterr().err
    assert not (tmp / "p" / "checkpoint.mcu").exists() and not (tmp / "f" / "checkpoint.mcu").exists()


def test_dataset_file_with_a_presence_array_is_state_error(workspace, capsys):
    tmp, cfg = workspace
    assert run("gen-data", "--config", cfg, "--out", tmp / "data") == 0
    _, meta, arrays = load_container(tmp / "data" / "dataset.mcu", expected_kind="dataset")
    arrays["presence"] = np.ones((len(arrays["labels"]), 3), dtype=np.uint8)  # the old layout's fifth array
    save_container(tmp / "old.mcu", "dataset", meta, arrays)
    capsys.readouterr()
    assert run("pretrain", "--config", cfg, "--data", tmp / "old.mcu", "--out", tmp / "p") == 3
    err = capsys.readouterr().err
    assert "old.mcu" in err and "presence" in err


@pytest.mark.parametrize("corrupt", [lambda meta: meta["config"].pop("classes"),
                                     lambda meta: meta["config"].update(classes=3.0),
                                     lambda meta: meta.update(config=[3])],
                         ids=["no-classes", "float-classes", "config-not-an-object"])
def test_dataset_header_without_integer_classes_is_state_error(workspace, capsys, corrupt):
    # the labels are checked against the header's classes, so a header without them is refused
    tmp, cfg = workspace
    assert run("gen-data", "--config", cfg, "--out", tmp / "data") == 0
    _, meta, arrays = load_container(tmp / "data" / "dataset.mcu", expected_kind="dataset")
    corrupt(meta)
    save_container(tmp / "bad.mcu", "dataset", meta, arrays)
    capsys.readouterr()
    assert run("pretrain", "--config", cfg, "--data", tmp / "bad.mcu", "--out", tmp / "p") == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {tmp / 'bad.mcu'}: the header's config holds no integer 'classes'"]
    assert list((tmp / "p").iterdir()) == []


@pytest.mark.parametrize("where", ["config-file", "eval_seed"])
def test_negative_seed_is_input_error(workspace, capsys, where):
    tmp, cfg = workspace
    bad = tmp / "bad.cfg"
    if where == "config-file":
        bad.write_text(TINY_CONFIG.replace("seed = 66", "seed = -3"))
        field, argv = "seed", ("gen-data", "--config", bad, "--out", tmp / "x")
    else:
        data = tmp / "data" / "dataset.mcu"
        assert run("gen-data", "--config", cfg, "--out", tmp / "data") == 0
        assert run("pretrain", "--config", cfg, "--data", data, "--out", tmp / "pre") == 0
        bad.write_text(TINY_CONFIG + "eval_seed = -1\n")
        field, argv = "eval_seed", ("eval", "--checkpoint", tmp / "pre" / "checkpoint.mcu", "--data", data,
                                    "--protocol", "random", "--config", bad, "--out", tmp / "ev")
    capsys.readouterr()
    assert run(*argv) == 2
    assert f"{field} must be >= 0" in capsys.readouterr().err


def test_config_file_not_utf8_is_input_error(workspace, capsys):
    tmp, _ = workspace
    bad = tmp / "latin1.cfg"
    bad.write_bytes(TINY_CONFIG.encode() + b"# caf\xe9\n")
    assert run("gen-data", "--config", bad, "--out", tmp / "x") == 2
    assert str(bad) in capsys.readouterr().err


def test_config_path_naming_a_directory_is_input_error(workspace, capsys):
    tmp, _ = workspace
    assert run("gen-data", "--config", tmp, "--out", tmp / "x") == 2
    assert str(tmp) in capsys.readouterr().err


def test_out_naming_an_existing_file_is_input_error(workspace, capsys):
    tmp, cfg = workspace
    assert run("gen-data", "--config", cfg, "--out", cfg) == 2
    assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen-data", "report"])
def test_out_name_too_long_is_input_error(workspace, capsys, command):
    tmp, cfg = workspace
    out = tmp / ("x" * 300)
    argv = ["--config", cfg] if command == "gen-data" else [tmp]
    assert run(command, *argv, "--out", out) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: --out {out}: cannot make the output directory: {os.strerror(errno.ENAMETOOLONG)}"]


@pytest.mark.parametrize("command", ["pretrain", "finetune", "eval"])
def test_dataset_of_another_class_count_is_state_error_naming_both(workspace, capsys, command):
    # the model of pretrain comes from the config (3 classes, raw_dim 8), that of finetune and eval from the
    # checkpoint; a dataset of another raw_dim is refused the same way
    tmp, cfg = workspace
    _, pre, fin = full_pipeline(tmp, cfg)
    argv = {"pretrain": [], "finetune": ["--checkpoint", pre / "checkpoint.mcu"],
            "eval": ["--checkpoint", fin / "checkpoint.mcu", "--protocol", "fixed"]}[command]
    for name, old, new, named in (("six", "classes = 3", "classes = 6", "6 classes, but the model has 3 classes"),
                                  ("wide", "raw_dim = 8", "raw_dim = 12", "raw_dim 12, but the model has raw_dim 8")):
        (tmp / f"{name}.cfg").write_text(TINY_CONFIG.replace(old, new))
        assert run("gen-data", "--config", tmp / f"{name}.cfg", "--out", tmp / name) == 0
        other = tmp / name / "dataset.mcu"
        capsys.readouterr()
        assert run(command, *argv, "--config", cfg, "--data", other, "--out", tmp / "out") == 3
        assert capsys.readouterr().err.splitlines() == [f"error: {other} holds a dataset of {named}"]
        assert list((tmp / "out").iterdir()) == []


@pytest.mark.parametrize("command, blocked", [("eval", "metrics.txt"), ("gen-data", "manifest.json")])
def test_text_output_that_cannot_replace_its_target_leaves_no_temporary(workspace, capsys, command, blocked):
    tmp, cfg = workspace
    argv = [command]
    if command == "eval":
        data, _, fin = full_pipeline(tmp, cfg)
        argv += ["--checkpoint", fin / "checkpoint.mcu", "--data", data / "dataset.mcu", "--protocol", "fixed"]
    out = tmp / "out"
    (out / blocked).mkdir(parents=True)  # the text file's name is taken by a directory
    assert run(*argv, "--config", cfg, "--out", out) == 2
    assert blocked in capsys.readouterr().err
    assert (out / blocked).is_dir() and not list(out.glob("*.tmp"))


def test_output_blocked_at_its_rename_names_the_target_not_the_temporary(workspace, capsys):
    tmp, cfg = workspace
    out = tmp / "out"
    (out / "manifest.json").mkdir(parents=True)
    assert run("gen-data", "--config", cfg, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"cannot open {out / 'manifest.json'}:" in err and ".tmp" not in err


def open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


def test_commands_close_the_dataset_file_also_when_they_fail(workspace, monkeypatch):
    tmp, cfg = workspace
    assert run("gen-data", "--config", cfg, "--out", tmp / "data") == 0
    data = tmp / "data" / "dataset.mcu"
    before = open_descriptors()
    assert run("pretrain", "--config", cfg, "--data", data, "--out", tmp / "pre") == 0
    assert open_descriptors() == before
    assert run("finetune", "--config", cfg, "--data", data, "--checkpoint", tmp / "pre" / "checkpoint.mcu",
               "--out", tmp / "fin") == 0
    assert open_descriptors() == before
    for protocol in ("fixed", "random"):
        assert run("eval", "--config", cfg, "--data", data, "--checkpoint", tmp / "fin" / "checkpoint.mcu",
                   "--protocol", protocol, "--out", tmp / protocol) == 0
        assert open_descriptors() == before

    def failing(*args, **kwargs):
        raise ContractError("pretrain failed mid-epoch")
    monkeypatch.setattr(trainer, "forward_batch", failing)
    assert run("pretrain", "--config", cfg, "--data", data, "--out", tmp / "failed") == 3
    assert open_descriptors() == before


def test_dataset_truncated_after_it_was_checked_is_state_error_naming_it(workspace, capsys, monkeypatch):
    tmp, cfg = workspace
    assert run("gen-data", "--config", cfg, "--out", tmp / "data") == 0
    data = tmp / "data" / "dataset.mcu"
    real = cli.DatasetFile

    def checked_then_truncated(path, rows):
        opened = real(path, rows)
        os.truncate(path, os.path.getsize(path) // 2)
        return opened
    monkeypatch.setattr(cli, "DatasetFile", checked_then_truncated)
    before = open_descriptors()
    capsys.readouterr()
    assert run("pretrain", "--config", cfg, "--data", data, "--out", tmp / "pre") == 3
    err = capsys.readouterr().err
    assert str(data) in err and "shrank" in err and "Traceback" not in err
    assert open_descriptors() == before
    assert not (tmp / "pre" / "checkpoint.mcu").exists()


def test_corrupt_dataset_file_is_state_error(workspace, capsys):
    tmp, cfg = workspace
    assert run("gen-data", "--config", cfg, "--out", tmp / "data") == 0
    data = tmp / "data" / "dataset.mcu"
    blob = data.read_bytes()
    newline_free = (("zeros.mcu", bytes(3 << 20)), ("long-header.mcu", b"MCULORA-DATASET v1\n" + bytes(3 << 20)))
    for name, content in (("truncated.mcu", blob[:len(blob) // 2]), ("junk.mcu", blob + b"junk"), *newline_free):
        (tmp / name).write_bytes(content)
        assert run("pretrain", "--config", cfg, "--data", tmp / name, "--out", tmp / "p") == 3
        assert name in capsys.readouterr().err
    for name, _ in newline_free:  # a line with no newline in its first bytes is refused in one short line
        for argv in (("pretrain", "--data", tmp / name), ("eval", "--data", data, "--checkpoint", tmp / name,
                                                          "--protocol", "fixed")):
            assert run(*argv, "--config", cfg, "--out", tmp / "p") == 3
            err = capsys.readouterr().err
            assert name in err and len(err.splitlines()) == 1 and len(err) < 300, err[:300]


OLD_HEADER = {"raw_dim": 8, "model_dim": 8, "classes": 3, "rank": 2, "alpha": 1.0}  # the sizes the arrays give


def _old_format(meta):
    """The metadata of the format that recorded the sizes in a header beside the arrays."""
    del meta["alpha"]
    meta.update(config=OLD_HEADER, has_adapters=False)


@pytest.mark.parametrize("corrupt, message", [
    (lambda meta: meta.pop("phase"), "metadata keys ['alpha'], expected ['alpha', 'phase']"),
    (lambda meta: meta.update(phase="banana"), "metadata key 'phase' has invalid value 'banana'"),
    (lambda meta: meta.pop("alpha"), "metadata keys ['phase'], expected ['alpha', 'phase']"),
    (lambda meta: meta.update(alpha=float("nan")), "alpha must be finite, got nan"),
    (lambda meta: meta.update(alpha=True), "metadata key 'alpha' has invalid value True"),
    (_old_format, "metadata keys ['config', 'has_adapters', 'phase'], expected ['alpha', 'phase']"),
    (lambda meta: meta.update(config=OLD_HEADER),
     "metadata keys ['alpha', 'config', 'phase'], expected ['alpha', 'phase']"),
    (lambda meta: meta.update(has_adapters=False),
     "metadata keys ['alpha', 'has_adapters', 'phase'], expected ['alpha', 'phase']"),
], ids=["no-phase", "unknown-phase", "no-alpha", "nan-alpha", "boolean-alpha", "old-format", "unknown-config-key",
        "has_adapters-key"])
def test_malformed_checkpoint_metadata_is_state_error(workspace, capsys, corrupt, message):
    tmp, cfg = workspace
    assert run("gen-data", "--config", cfg, "--out", tmp / "data") == 0
    model = build_model(ExperimentConfig(raw_dim=8, model_dim=8, classes=3, rank=2), Rng(0))
    model.phase = "pretrained"
    save_checkpoint(model, tmp / "good.mcu")
    _, meta, arrays = load_container(tmp / "good.mcu", expected_kind="checkpoint")
    assert meta == {"alpha": 1.0, "phase": "pretrained"}
    corrupt(meta)
    save_container(tmp / "bad.mcu", "checkpoint", meta, arrays)
    capsys.readouterr()
    for command in (["eval", "--protocol", "fixed"], ["finetune"]):
        assert run(*command, "--config", cfg, "--data", tmp / "data" / "dataset.mcu", "--checkpoint", tmp / "bad.mcu",
                   "--out", tmp / "out") == 3
        assert capsys.readouterr().err.splitlines() == [f"error: checkpoint {tmp / 'bad.mcu'}: {message}"]
        assert list((tmp / "out").iterdir()) == []


def _drop_rank(arrays):
    for name in [k for k in arrays if k.startswith("adapter.")]:  # every pair to rank 0: A (0, D), B (d, 0)
        arrays[name] = arrays[name][:0] if name.endswith(".A") else arrays[name][:, :0]


@pytest.mark.parametrize("checkpoint, edit, message", [
    ("pre", lambda arrays: arrays.pop("enc.a.W1"), "{} lacks parameter enc.a.W1, which the model's sizes are read off"),
    ("pre", lambda arrays: arrays.pop("head.com.W"),
     "{} lacks parameter head.com.W, which the model's sizes are read off"),
    ("pre", lambda arrays: arrays.update({"enc.a.W1": arrays["enc.a.W1"][0]}),
     "{}: parameter enc.a.W1 has shape (8,), expected 2-D"),
    ("pre", lambda arrays: arrays.update({"head.com.W": arrays["head.com.W"][None]}),
     "{}: parameter head.com.W has shape (1, 8, 3), expected 2-D"),
    ("fin", lambda arrays: arrays.pop("adapter.a.com.A"),
     "{} lacks parameter adapter.a.com.A, which the model's sizes are read off"),
    ("fin", _drop_rank, "{}: rank must be >= 1, got 0"),
], ids=["no-enc.a.W1", "no-head.com.W", "1-D-enc.a.W1", "3-D-head.com.W", "no-adapter.a.com.A", "zero-rank"])
def test_checkpoint_whose_sizes_cannot_be_read_or_are_out_of_range_is_state_error(workspace, capsys, checkpoint,
                                                                                   edit, message):
    tmp, cfg = workspace
    assert run("gen-data", "--config", cfg, "--out", tmp / "data") == 0
    model = build_model(parse_config_text(TINY_CONFIG), Rng(0))
    model.phase = "pretrained"
    if checkpoint == "fin":
        attach_adapters(model, Rng(1), rank=2)
        model.phase = "finetuned"
    save_checkpoint(model, tmp / "good.mcu")
    _, meta, arrays = load_container(tmp / "good.mcu", expected_kind="checkpoint")
    edit(arrays)
    save_container(tmp / "bad.mcu", "checkpoint", meta, arrays)
    capsys.readouterr()
    for command in (["eval", "--protocol", "fixed"], ["finetune"]):
        assert run(*command, "--config", cfg, "--data", tmp / "data" / "dataset.mcu", "--checkpoint", tmp / "bad.mcu",
                   "--out", tmp / "out") == 3
        assert capsys.readouterr().err.splitlines() == ["error: checkpoint " + message.format(tmp / "bad.mcu")]
        assert list((tmp / "out").iterdir()) == []


def test_checkpoint_with_arrays_the_model_lacks_is_state_error(workspace, capsys):
    tmp, cfg = workspace
    assert run("gen-data", "--config", cfg, "--out", tmp / "data") == 0
    model = build_model(ExperimentConfig(raw_dim=8, model_dim=8, classes=3, rank=2), Rng(0))
    model.phase = "pretrained"
    save_checkpoint(model, tmp / "good.mcu")
    _, meta, arrays = load_container(tmp / "good.mcu", expected_kind="checkpoint")
    arrays.update({"adapter.a.com.A": np.zeros((2, 8)), "junk": np.zeros(1)})
    save_container(tmp / "bad.mcu", "checkpoint", meta, arrays)
    for command in (["eval", "--protocol", "fixed"], ["finetune"]):
        assert run(*command, "--config", cfg, "--data", tmp / "data" / "dataset.mcu", "--checkpoint", tmp / "bad.mcu",
                   "--out", tmp / "out") == 3
        err = capsys.readouterr().err
        assert "bad.mcu" in err and "adapter.a.com.A" in err and "junk" in err


def test_pretrained_checkpoint_holding_adapters_is_state_error(workspace, capsys):
    # only finetune attaches adapters, and it writes a finetuned checkpoint; a pretrained one holding
    # adapters would have them trained and saved, stale, by a finetune with MCLA off
    tmp, _ = workspace
    assert run("gen-data", "--config", tmp / "run.cfg", "--out", tmp / "data") == 0
    model = build_model(parse_config_text(TINY_CONFIG), Rng(0))
    model.phase = "pretrained"
    attach_adapters(model, Rng(1), rank=2)
    save_checkpoint(model, tmp / "stale.mcu")
    (tmp / "off.cfg").write_text(TINY_CONFIG + "mcla = off\n")
    capsys.readouterr()
    for command in (["finetune"], ["eval", "--protocol", "fixed"]):
        assert run(*command, "--config", tmp / "off.cfg", "--data", tmp / "data" / "dataset.mcu",
                   "--checkpoint", tmp / "stale.mcu", "--out", tmp / "out") == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert re.search(r"stale\.mcu holds adapters, but its phase is 'pretrained'", err[0])
        assert list((tmp / "out").iterdir()) == []


def test_checkpoint_lacking_a_parameter_names_exactly_that_parameter(workspace, capsys):
    tmp, cfg = workspace
    assert run("gen-data", "--config", cfg, "--out", tmp / "data") == 0
    model = build_model(ExperimentConfig(raw_dim=8, model_dim=8, classes=3, rank=2), Rng(0))
    model.phase = "pretrained"
    save_checkpoint(model, tmp / "good.mcu")
    _, meta, arrays = load_container(tmp / "good.mcu", expected_kind="checkpoint")
    del arrays["head.com.b"]
    save_container(tmp / "bad.mcu", "checkpoint", meta, arrays)
    for command in (["eval", "--protocol", "fixed"], ["finetune"]):
        assert run(*command, "--config", cfg, "--data", tmp / "data" / "dataset.mcu", "--checkpoint", tmp / "bad.mcu",
                   "--out", tmp / "out") == 3
        err = capsys.readouterr().err.strip()
        assert "bad.mcu" in err and err.endswith("lacks parameters: ['head.com.b']")


def test_eval_fixed_emits_full_condition_table(workspace, capsys):
    tmp, cfg = workspace
    data, _, fin = full_pipeline(tmp, cfg)
    out = tmp / "ev"
    assert run("eval", "--checkpoint", fin / "checkpoint.mcu", "--data", data / "dataset.mcu",
               "--protocol", "fixed", "--config", cfg, "--out", out) == 0
    lines = (out / "metrics.txt").read_text().splitlines()
    table_start = lines.index("condition,acc,f1,wa,ua")
    names = [ln.split(",")[0] for ln in lines[table_start + 1:]]
    assert names == FIXED_ROWS


def test_eval_random_protocol_single_row(workspace):
    tmp, cfg = workspace
    data, _, fin = full_pipeline(tmp, cfg)
    out = tmp / "evr"
    assert run("eval", "--checkpoint", fin / "checkpoint.mcu", "--data", data / "dataset.mcu",
               "--protocol", "random", "--config", cfg, "--out", out) == 0
    lines = (out / "metrics.txt").read_text().splitlines()
    rows = lines[lines.index("condition,acc,f1,wa,ua") + 1:]
    assert len(rows) == 1
    assert rows[0].startswith("random,")


def test_eval_metrics_are_byte_reproducible(workspace):
    tmp, cfg = workspace
    data, _, fin = full_pipeline(tmp, cfg)
    o1, o2 = tmp / "e1", tmp / "e2"
    for out in (o1, o2):
        assert run("eval", "--checkpoint", fin / "checkpoint.mcu", "--data", data / "dataset.mcu",
                   "--protocol", "fixed", "--config", cfg, "--out", out) == 0
    assert (o1 / "metrics.txt").read_bytes() == (o2 / "metrics.txt").read_bytes()


@pytest.mark.parametrize("argv, named", [
    (["eval", "--protocol", "fixed"], "--config"),
    (["gen-data", "--config", "c", "--seed", "1"], "unrecognized arguments: --seed 1"),
    (["finetune", "--config", "c", "--data", "d", "--checkpoint", "k", "--mcla", "off"],
     "unrecognized arguments: --mcla off"),
    (["eval", "--protocol", "fixed", "--config", "c", "--combo", "av"], "unrecognized arguments: --combo av"),
], ids=["eval-without-config", "gen-data-seed", "finetune-mcla", "eval-combo"])
def test_settings_come_only_from_the_config_file(workspace, capsys, argv, named):
    tmp, _ = workspace
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--checkpoint", tmp / "c.mcu", "--data", tmp / "d.mcu", "--out", tmp / "out")
    assert exc.value.code == 2
    assert named in capsys.readouterr().err
    assert not (tmp / "out").exists()


def test_each_manifest_reproduces_its_command(workspace):
    tmp, cfg = workspace
    data, pre, fin = full_pipeline(tmp, cfg)
    for protocol in ("fixed", "random"):
        assert run("eval", "--config", cfg, "--checkpoint", fin / "checkpoint.mcu", "--data", data / "dataset.mcu",
                   "--protocol", protocol, "--out", tmp / protocol) == 0
    outs = (data, pre, fin, tmp / "fixed", tmp / "random")
    manifests = {out: json.loads((out / "manifest.json").read_text()) for out in outs}
    assert sorted(m["command"] for m in manifests.values()) == ["eval", "eval", "finetune", "gen-data", "pretrain"]
    for out, manifest in manifests.items():
        assert manifest["config"] == config.load_config(manifest["config_path"]).echo(), out
    # the config path and the input paths alone give finetune's checkpoint again
    again = tmp / "again"
    assert run("finetune", "--config", manifests[fin]["config_path"], "--data", data / "dataset.mcu",
               "--checkpoint", pre / "checkpoint.mcu", "--out", again) == 0
    digest = hashlib.sha256((again / "checkpoint.mcu").read_bytes()).hexdigest()
    assert digest == manifests[fin]["artifacts"]["checkpoint.mcu"]


def test_report_compares_runs_and_emits_curves(workspace, capsys):
    tmp, cfg = workspace
    data, pre, fin = full_pipeline(tmp, cfg)
    ev1, ev2 = tmp / "ev1", tmp / "ev2"
    run("eval", "--checkpoint", fin / "checkpoint.mcu", "--data", data / "dataset.mcu",
        "--protocol", "fixed", "--config", cfg, "--out", ev1)
    run("eval", "--checkpoint", fin / "checkpoint.mcu", "--data", data / "dataset.mcu",
        "--protocol", "fixed", "--config", cfg, "--out", ev2)
    out = tmp / "rep"
    assert run("report", ev1, ev2, "--out", out) == 0
    assert (out / "report.txt").exists()
    assert (out / "curves" / "condition_a.csv").exists()
    assert (out / "curves" / "condition_average.csv").exists()


def write_metrics(run_dir: Path, record: trainer.MetricsRecord) -> Path:
    run_dir.mkdir(parents=True)
    (run_dir / "metrics.txt").write_text(trainer.format_metrics_document(record, "{}", "0.1.0"))
    return run_dir


def test_report_refuses_two_runs_of_the_same_name(tmp_path, capsys):
    record = trainer.MetricsRecord("fixed", {"a": trainer.Metrics(0.5, 0.25, 0.5, 0.5),
                                             "average": trainer.Metrics(0.5, 0.25, 0.5, 0.5)})
    first, second = (write_metrics(tmp_path / pipeline / "eval-fixed", record) for pipeline in ("p1", "p2"))
    assert run("report", first, second, "--out", tmp_path / "rep") == 2
    err = capsys.readouterr().err
    assert "'eval-fixed'" in err and str(first) in err and str(second) in err
    assert not (tmp_path / "rep").exists()


def test_report_of_runs_without_an_average_writes_no_average_row(tmp_path):
    runs = [write_metrics(tmp_path / name, trainer.MetricsRecord("random", {"random": trainer.Metrics(acc, 0, acc, 0)}))
            for name, acc in (("r1", 0.5), ("r2", 0.75))]
    assert run("report", *runs, "--out", tmp_path / "rep") == 0
    assert (tmp_path / "rep" / "report.txt").read_text().splitlines()[1:] == ["condition,r1,r2", "random,50.00,75.00"]
    assert sorted(p.name for p in (tmp_path / "rep" / "curves").iterdir()) == ["condition_random.csv"]


def fixed_record(*accs):
    return trainer.MetricsRecord("fixed", {row: trainer.Metrics(acc, 0.0, acc, 0.0)
                                           for row, acc in zip(FIXED_ROWS, accs)})


def random_record(acc):
    return trainer.MetricsRecord("random", {"random": trainer.Metrics(acc, 0.0, acc, 0.0)})


def test_report_of_two_fixed_runs_writes_each_row_and_the_average_delta(tmp_path):
    runs = [write_metrics(tmp_path / "f1", fixed_record(0.5, 0.625, 0.75, 0.875, 0.25, 0.375, 0.5625, 1.0)),
            write_metrics(tmp_path / "f2", fixed_record(0.375, 0.5, 0.625, 0.75, 0.125, 0.25, 0.4375, 0.875))]
    assert run("report", *runs, "--out", tmp_path / "rep") == 0
    assert (tmp_path / "rep" / "report.txt").read_text().splitlines() == [
        "# run comparison (ACC per condition; delta vs first run)",
        "condition,f1,f2",
        "a,50.00,37.50",
        "t,62.50,50.00",
        "v,75.00,62.50",
        "av,87.50,75.00",
        "at,25.00,12.50",
        "tv,37.50,25.00",
        "average,56.25,43.75",
        "atv,100.00,87.50",
        "average_delta,,-12.50",
    ]
    assert (tmp_path / "rep" / "curves" / "condition_average.csv").read_text().splitlines() == [
        "run,acc,f1,wa,ua", "f1,0.5625,0.0,0.5625,0.0", "f2,0.4375,0.0,0.4375,0.0"]


def test_report_of_a_fixed_then_a_random_run_writes_no_average_delta_and_only_condition_curves(tmp_path, capsys):
    fixed = write_metrics(tmp_path / "fixed", fixed_record(0.5, 0.625, 0.75, 0.875, 0.25, 0.375, 0.5625, 1.0))
    rand = write_metrics(tmp_path / "rand", random_record(0.75))
    fin = tmp_path / "finetune"  # a finetune directory: an epoch log and no metrics.txt
    fin.mkdir()
    (fin / "epoch_log.csv").write_text("epoch,phase,l_task,l_ort,l_total,wallclock_ms\n1,finetune,1.0,0.0,1.0,2.0\n")
    assert run("report", fixed, rand, fin, "--out", tmp_path / "rep") == 0
    assert f"skipping {fin}" in capsys.readouterr().err
    assert (tmp_path / "rep" / "report.txt").read_text().splitlines() == [
        "# run comparison (ACC per condition; delta vs first run)",
        "condition,fixed,rand",
        "a,50.00,",
        "t,62.50,",
        "v,75.00,",
        "av,87.50,",
        "at,25.00,",
        "tv,37.50,",
        "average,56.25,",
        "atv,100.00,",
        "random,,75.00",
    ]
    assert sorted(p.name for p in (tmp_path / "rep" / "curves").iterdir()) == sorted(
        f"condition_{row}.csv" for row in [*FIXED_ROWS, "random"])


def test_report_names_each_run_by_its_resolved_directory(tmp_path, monkeypatch):
    ev = write_metrics(tmp_path / "ev", fixed_record(*[0.5] * 8))
    write_metrics(tmp_path / "evrandom", random_record(0.75))
    monkeypatch.chdir(ev)
    assert run("report", ".", "../evrandom", "--out", tmp_path / "rep") == 0
    assert (tmp_path / "rep" / "report.txt").read_text().splitlines()[1] == "condition,ev,evrandom"
    assert (tmp_path / "rep" / "curves" / "condition_a.csv").read_text().splitlines()[1:] == ["ev,0.5,0.0,0.5,0.0"]
    # "." and "../ev" are one directory, so one name
    assert run("report", ".", "../ev", "--out", tmp_path / "rep2") == 2
    assert not (tmp_path / "rep2").exists()


def test_report_skips_malformed_dirs_but_succeeds_with_one_valid(workspace, capsys):
    tmp, cfg = workspace
    data, _, fin = full_pipeline(tmp, cfg)
    ev = tmp / "ev1"
    run("eval", "--checkpoint", fin / "checkpoint.mcu", "--data", data / "dataset.mcu",
        "--protocol", "fixed", "--config", cfg, "--out", ev)
    bogus = tmp / "bogus"
    bogus.mkdir()
    (bogus / "metrics.txt").write_text("not a metrics file\n")
    assert run("report", ev, bogus, "--out", tmp / "rep") == 0
    assert "skipping" in capsys.readouterr().err
    assert run("report", bogus, "--out", tmp / "rep2") == 2


@pytest.mark.parametrize("row", ["a,0.5,0.5", "a,0.5,0.5,0.5,0.5,0.5"], ids=["short", "long"])
def test_report_skips_a_metrics_row_with_the_wrong_number_of_cells(workspace, capsys, row):
    tmp, cfg = workspace
    data, _, fin = full_pipeline(tmp, cfg)
    ev = tmp / "ev1"
    run("eval", "--checkpoint", fin / "checkpoint.mcu", "--data", data / "dataset.mcu",
        "--protocol", "fixed", "--config", cfg, "--out", ev)
    bad = tmp / "bad"
    bad.mkdir()
    text = (ev / "metrics.txt").read_text()
    (bad / "metrics.txt").write_text(text + row + "\n")
    capsys.readouterr()
    assert run("report", ev, bad, "--out", tmp / "rep") == 0
    err = capsys.readouterr().err
    assert "skipping" in err and repr(row) in err
    assert run("report", bad, "--out", tmp / "rep2") == 2


def test_checkpoint_write_is_atomic(workspace, monkeypatch):
    tmp, cfg = workspace
    data, pre, _ = full_pipeline(tmp, cfg)
    import mculora.serialize as ser
    original = ser.os.replace
    calls = []
    monkeypatch.setattr(ser.os, "replace", lambda a, b: calls.append((a, b)) or original(a, b))
    run("pretrain", "--config", cfg, "--data", data / "dataset.mcu", "--out", tmp / "pre2")
    assert any(str(b).endswith("checkpoint.mcu") for _, b in calls)
    assert not list((tmp / "pre2").glob("*.tmp"))


def test_finetune_config_sets_the_ablations_rank_and_beta(workspace):
    tmp, cfg = workspace
    data, pre, _ = full_pipeline(tmp, cfg)
    ablation = tmp / "ablation.cfg"
    ablation.write_text(TINY_CONFIG.replace("rank = 2", "rank = 1") + "mcla = off\ndpft = off\nbeta = 0\n")
    out = tmp / "fin_ablation"
    assert run("finetune", "--config", ablation, "--data", data / "dataset.mcu",
               "--checkpoint", pre / "checkpoint.mcu", "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["mcla"] is False
    assert manifest["config"]["dpft"] is False
    assert manifest["config"]["rank"] == 1
    assert manifest["config"]["beta"] == 0.0
    sched = (out / "schedule_log.csv").read_text().splitlines()
    first = [float(x) for x in sched[1].split(",")[1:]]
    q = first[-7:]
    assert all(abs(v - 1 / 7) < 1e-12 for v in q)
    # with MCLA off the finetuned checkpoint holds no adapters, so no rank
    _, meta, arrays = load_container(out / "checkpoint.mcu", expected_kind="checkpoint")
    assert meta == {"alpha": 1.0, "phase": "finetuned"} and "head.prt.W" not in arrays
    assert not any(name.startswith("adapter.") for name in arrays)
    rank1 = tmp / "rank1.cfg"
    rank1.write_text(TINY_CONFIG.replace("rank = 2", "rank = 1") + "mcla = on\n")
    mcla_out = tmp / "fin_rank1"
    assert run("finetune", "--config", rank1, "--data", data / "dataset.mcu",
               "--checkpoint", pre / "checkpoint.mcu", "--out", mcla_out) == 0
    _, meta, arrays = load_container(mcla_out / "checkpoint.mcu", expected_kind="checkpoint")
    assert meta == {"alpha": 1.0, "phase": "finetuned"} and "head.prt.W" in arrays
    assert arrays["adapter.a.com.A"].shape == (1, 8)  # the finetune config's rank, not the pretrain config's 2


def test_parse_config_text_handles_comments_and_types():
    cfg = parse_config_text("mcla = off\nbeta = 0.01 # inline comment\n\n# full comment\nrank = 8\n"
                            "dpft = 0\nreduce_fast_learners = NO\n")
    assert cfg.mcla is False and cfg.dpft is False and cfg.reduce_fast_learners is False
    assert cfg.beta == 0.01
    assert cfg.rank == 8
    with pytest.raises(ConfigError, match="beta"):
        parse_config_text("beta = maybe\n")
    with pytest.raises(ConfigError, match="expected key"):
        parse_config_text("just some words\n")


def test_config_key_set_twice_is_input_error(workspace, capsys):
    tmp, _ = workspace
    bad = tmp / "bad.cfg"
    bad.write_text("seed = 1\nrank = 2\n\n# later\nseed = 2\n")
    assert run("gen-data", "--config", bad, "--out", tmp / "x") == 2
    err = capsys.readouterr().err
    assert f"{bad}:5: config key 'seed' is set twice, on lines 1 and 5" in err and len(err.splitlines()) == 1
    assert not (tmp / "x").exists()
    with pytest.raises(ConfigError, match="'rank' is set twice, on lines 1 and 2"):
        parse_config_text("rank = 2\nrank = 2\n")  # even to the same value


def test_version_string_does_not_depend_on_the_working_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    version_string.cache_clear()
    from_repo = version_string()
    monkeypatch.chdir(tmp_path)
    version_string.cache_clear()
    assert version_string() == from_repo


def test_version_string_runs_git_once_per_process(monkeypatch):
    version_string.cache_clear()
    first = version_string()

    def no_subprocess(*args, **kwargs):
        raise AssertionError("version_string ran a subprocess a second time")
    monkeypatch.setattr(subprocess, "run", no_subprocess)
    assert version_string() == first


def test_version_string_falls_back_to_the_bare_version_when_git_hangs(monkeypatch):
    def hang(argv, **kwargs):
        raise subprocess.TimeoutExpired(argv, kwargs["timeout"])
    monkeypatch.setattr(subprocess, "run", hang)
    version_string.cache_clear()
    try:
        assert version_string() == __version__
    finally:
        version_string.cache_clear()


# ---------------------------------------------------------------------------
# each command reads only the rows it uses
# ---------------------------------------------------------------------------

def test_each_command_loads_only_its_own_rows(workspace, monkeypatch):
    tmp, cfg = workspace
    assert run("gen-data", "--config", cfg, "--out", tmp / "data") == 0
    loaded = []
    real = serialize.ContainerFile.read

    def spy(self, name, rows=None, out=None):
        arr = real(self, name, rows, out)
        if self.kind == "dataset":
            assert rows is not None, name  # a command never reads a whole array
            got = tuple(range(*rows.indices(80)) if isinstance(rows, slice) else rows.tolist())  # TINY_CONFIG's 80
            assert len(arr) == len(got) and (out is None or arr is out)
            loaded.append((name, got, out is not None))
        return arr
    monkeypatch.setattr(serialize.ContainerFile, "read", spy)
    monkeypatch.setattr(trainer, "_EVAL_POSITIONS", 5 * 3 + 2)  # chunks of 5 rows at L = 3
    data = tmp / "data" / "dataset.mcu"

    def reads(*argv):
        """The label reads and the nonempty feature reads of `mculora argv`:
        the rows of each label read, and (rows, modalities, buffered) of each
        run of feature reads of the same rows, which read those modalities one
        after another in order, all into a caller's buffer or none."""
        loaded.clear()
        assert run(*argv, "--config", cfg, "--data", data) == 0
        runs = []
        for name, rows, buffered in loaded:
            if name == "labels" or not rows:
                continue
            m = name.removeprefix("features_")
            if runs and runs[-1][0] == rows and MODALITIES.index(m) > MODALITIES.index(runs[-1][1][-1]):
                assert runs[-1][2] == buffered
                runs[-1][1].append(m)
            else:
                runs.append((rows, [m], buffered))
        return [rows for name, rows, _ in loaded if name == "labels"], runs

    def all_three(runs, buffered):
        """The rows of each run; each reads all three modalities, into a buffer when `buffered`."""
        assert all(mods == list(MODALITIES) and got == buffered for _, mods, got in runs)
        return [rows for rows, _, _ in runs]

    def chunks(reads):
        """The reads as [lo, hi) ranges; each must be contiguous and ascending."""
        assert all(rows == tuple(range(rows[0], rows[-1] + 1)) for rows in reads)
        return [(rows[0], rows[-1] + 1) for rows in reads]

    def in_order(chunks, lo, hi):
        """The chunks cover rows [lo, hi) exactly once, in order."""
        return [a for a, _ in chunks] == [lo] + [b for _, b in chunks[:-1]] and chunks[-1][1] == hi
    # TINY_CONFIG: 80 samples split 56 / 12 / 12; the probe is the first 12 validation samples
    labels, runs = reads("pretrain", "--out", tmp / "pre")
    batches = all_three(runs, buffered=False)
    assert chunks(labels) == [(0, 56)]
    # one read per batch of at most 16 train rows; each of the 2 epochs reads every train row once
    assert max(len(rows) for rows in batches) == 16 and len(batches) == 2 * 4
    for epoch in (batches[:4], batches[4:]):
        assert sorted(row for rows in epoch for row in rows) == list(range(56))
    labels, runs = reads("finetune", "--checkpoint", tmp / "pre" / "checkpoint.mcu", "--out", tmp / "fin")
    # the probe first, then the train rows, each in chunks through one buffer: all 68 rows read once
    assert chunks(labels) == [(56, 68), (0, 56)]
    got = chunks(all_three(runs, buffered=True))
    assert in_order(got[:3], 56, 68) and in_order(got[3:], 0, 56) and max(hi - lo for lo, hi in got) == 5
    labels, runs = reads("eval", "--checkpoint", tmp / "fin" / "checkpoint.mcu", "--protocol", "fixed",
                         "--out", tmp / "fixed")
    got = chunks(all_three(runs, buffered=True))
    assert chunks(labels) == [(68, 80)] and in_order(got, 68, 80) and max(hi - lo for lo, hi in got) == 5
    # random: a chunk reads a modality only when some row of it keeps that modality
    labels, runs = reads("eval", "--checkpoint", tmp / "fin" / "checkpoint.mcu", "--protocol", "random",
                         "--out", tmp / "random")
    tiny = parse_config_text(TINY_CONFIG)
    masks = apply_random_missing(12, (tiny.mask_lo, tiny.mask_hi), seed=tiny.eval_seed)
    got = chunks([rows for rows, _, _ in runs])
    assert chunks(labels) == [(68, 80)] and in_order(got, 68, 80) and max(hi - lo for lo, hi in got) == 5
    for (lo, hi), (_, mods, buffered) in zip(got, runs):
        keeps = np.bitwise_or.reduce(masks[lo - 68:hi - 68])
        assert buffered and mods == [m for m in MODALITIES if keeps & Combo.from_modalities(m).mask], (lo, hi)
    assert any(len(mods) < len(MODALITIES) for _, mods, _ in runs)  # some chunk skips a modality


def assert_same_dataset(got, want):
    for a, b in [(got.labels, want.labels),
                 *[(got.features[m], want.features[m]) for m in MODALITIES]]:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_gen_data_file_is_generate_dataset_of_its_config(workspace):
    # test_gen_data_is_checksum_reproducible checks that the bytes repeat
    tmp, cfg = workspace
    assert run("gen-data", "--config", cfg, "--out", tmp / "data") == 0
    assert_same_dataset(read_dataset(tmp / "data" / "dataset.mcu"), generate_dataset(parse_config_text(TINY_CONFIG)))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 40), seq_len=st.integers(1, 4), train_frac=st.floats(0.05, 0.9),
       val_share=st.floats(0.0, 0.95), probe_size=st.integers(1, 12))
@example(n=1, seq_len=2, train_frac=0.7, val_share=0.5, probe_size=3)  # no validation or test row
@example(n=3, seq_len=2, train_frac=0.1, val_share=0.0, probe_size=3)  # no training or validation row
def test_command_row_ranges_are_the_splits_of_a_full_load(n, seq_len, train_frac, val_share, probe_size):
    # the command's config validates at 1000 samples; the file holds the first n rows of a valid 40-sample
    # dataset, so the fractions may round a split of it to empty, as for a dataset file whose N is not the config's
    cfg = ExperimentConfig(num_samples=1000, seq_len=seq_len, raw_dim=3, train_frac=train_frac,
                           val_frac=val_share * (1 - train_frac), probe_size=probe_size).validate()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.mcu"
        save_dataset(path, dataclasses.replace(cfg, num_samples=40, train_frac=0.7, val_frac=0.15))
        _, meta, arrays = load_container(path, expected_kind="dataset")
        meta["config"]["num_samples"] = n
        save_container(path, "dataset", meta, {name: arr[:n] for name, arr in arrays.items()})
        train, val, test = split_dataset(read_dataset(path), cfg.train_frac, cfg.val_frac)
        probe = val[:probe_size] if len(val) else train[-probe_size:]  # an empty validation split: the last train rows
        for split, want in (("train", train), ("probe", probe), ("test", test)):
            with _split_rows(cfg, path, split, {"raw_dim": cfg.raw_dim, "classes": cfg.classes}) as rows:
                assert len(rows) == len(want) and rows.seq_len == want.seq_len == seq_len
                order = np.random.default_rng(n).permutation(len(want))  # rows by index, in any order
                for part in (slice(None), slice(1, -1), order):
                    assert_same_dataset(Dataset({m: rows.read(m, part) for m in MODALITIES}, rows.labels[part]),
                                        want[part])


def test_a_row_index_past_the_probe_raises_and_never_reads_the_next_split(workspace):
    tmp, cfg = workspace
    assert run("gen-data", "--config", cfg, "--out", tmp / "data") == 0
    full = read_dataset(tmp / "data" / "dataset.mcu")
    tiny = parse_config_text(TINY_CONFIG)
    with _split_rows(tiny, tmp / "data" / "dataset.mcu", "probe", {"raw_dim": 8, "classes": 3}) as probe:
        assert len(probe) == 12  # rows 56 to 67 of the file; row 68 is the first test row
        assert probe.read("t", np.array([11, 0])).tobytes() == full.features["t"][[67, 56]].tobytes()
        assert probe.read("t", slice(0, 99)).tobytes() == full.features["t"][56:68].tobytes()
        for rows in (np.array([12]), np.array([0, 12]), np.array([-1])):
            with pytest.raises(IndexError, match=r"dataset\.mcu: rows out of range for a range of 12 rows"):
                probe.read("t", rows)


# ---------------------------------------------------------------------------
# non-finite training
# ---------------------------------------------------------------------------

def test_finetune_of_a_nan_weight_exits_3_naming_the_step_and_writes_no_checkpoint(workspace, capsys):
    tmp, cfg = workspace
    assert run("gen-data", "--config", cfg, "--out", tmp / "data") == 0
    assert run("pretrain", "--config", cfg, "--data", tmp / "data" / "dataset.mcu", "--out", tmp / "pre") == 0
    _, meta, arrays = load_container(tmp / "pre" / "checkpoint.mcu", expected_kind="checkpoint")
    for m in MODALITIES:  # whichever combination is drawn first reads one of them
        arrays[next(k for k in arrays if k.startswith(f"enc.{m}."))][0] = float("nan")
    save_container(tmp / "nan.mcu", "checkpoint", meta, arrays)
    capsys.readouterr()
    assert run("finetune", "--config", cfg, "--data", tmp / "data" / "dataset.mcu",
               "--checkpoint", tmp / "nan.mcu", "--out", tmp / "fin") == 3
    assert re.search(r"finetune epoch 1 step 1 combination [atv]+: loss contains non-finite values",
                     capsys.readouterr().err)
    assert not (tmp / "fin" / "checkpoint.mcu").exists()


def _set_at(name, index, value):
    def edit(meta, arrays):
        arrays[name][index] = value
    return edit


def _nan_at(name, index):
    return _set_at(name, index, float("nan"))


def _widen(name):
    def edit(meta, arrays):
        arrays[name] = np.concatenate([arrays[name], arrays[name][..., :1]], axis=-1)
    return edit


def _header(key, value):
    def edit(meta, arrays):
        meta["config"][key] = value
    return edit


def _as_dtype(names, dtype, plus=0):
    def edit(meta, arrays):
        for name in names:
            arrays[name] = arrays[name].astype(dtype) + plus
    return edit


def _zero_length_sequences(meta, arrays):
    for m in MODALITIES:
        arrays[f"features_{m}"] = arrays[f"features_{m}"][:, :0]
    meta["config"]["seq_len"] = 0  # the header agrees with the arrays


# TINY_CONFIG splits its 80 rows 56 / 12 / 12: row 56 is the probe's first row, row 70 a test row.
# case: (the container corrupted, its edit, the command, finetune_epochs, what the one error line names)
CORRUPT_INPUTS = {
    "eval-fixed-of-a-nan-parameter": ("pre", _nan_at("head.com.W", (0, 0)), ["eval", "--protocol", "fixed"], 2,
                                      r"eval combination a: logits contains non-finite values$"),
    "eval-random-of-a-nan-parameter": ("pre", _nan_at("head.com.W", (0, 0)), ["eval", "--protocol", "random"], 2,
                                       r"eval combination [atv]+: logits contains non-finite values$"),
    "eval-of-a-nan-test-row": ("data", _nan_at("features_v", (70, 1, 2)), ["eval", "--protocol", "fixed"], 2,
                               r"eval combination v: logits contains non-finite values$"),
    "finetune-1-epoch-of-a-nan-probe-row": ("data", _nan_at("features_t", (56, 0, 0)), ["finetune"], 1,
                                            r"finetune epoch 1: .*non-finite$"),
    "finetune-2-epochs-of-a-nan-probe-row": ("data", _nan_at("features_t", (56, 0, 0)), ["finetune"], 2,
                                             r"finetune epoch 1: .*non-finite$"),
    "parameter-of-the-wrong-shape": ("fin", _widen("gate.W2"), ["eval", "--protocol", "fixed"], 2,
                                     r"bad\.mcu: parameter gate\.W2 has shape \(16, 2\), expected \(16, 1\)$"),
    "dataset-features-of-two-widths": ("data", _widen("features_t"), ["pretrain"], 2,
                                       r"bad\.mcu: need features for \('a', 't', 'v'\) of one \(N, L, D\) shape"),
    "dataset-labels-of-another-length": ("data", lambda meta, arrays: arrays.update(labels=arrays["labels"][:79]),
                                         ["pretrain"], 2, r"bad\.mcu: need features .* and \(N,\) labels, "
                                                          r"got .* and \(79,\)$"),
    # a parameter of another dtype than the float64 save_checkpoint writes; a complex one lost its imaginary part
    **{f"{command[0]}-of-a-{dtype}-parameter": ("pre", _as_dtype([name], dtype, plus), command, 2,
                                                rf"bad\.mcu: parameter {re.escape(name)} has dtype {dtype}, "
                                                r"expected float64$")
       for command in (["finetune"], ["eval", "--protocol", "fixed"])
       for name, dtype, plus in (("head.com.W", "float32", 0), ("enc.v.W2", "complex128", 1j))},
    # a dataset file that save_dataset never writes: sequences of length 0, or float32 features
    **{f"{command[0]}-of-{case}": ("data", edit, command, 2, named)
       for command in (["pretrain"], ["finetune"], ["eval", "--protocol", "fixed"])
       for case, edit, named in (
           ("zero-length-sequences", _zero_length_sequences,
            r"bad\.mcu: need features .* with L, D >= 1 .*got .*\(80, 0, 8\).* and \(80,\)$"),
           ("float32-features", _as_dtype([f"features_{m}" for m in MODALITIES], np.float32),
            r"bad\.mcu: array 'features_a' has dtype float32, expected float64$"))},
    # a header size that is not the feature arrays' (80, 3, 8)
    **{f"dataset-header-of-another-{key}": ("data", _header(key, value), ["pretrain"], 2,
                                            rf"bad\.mcu: the header's config gives {key} {value}, "
                                            r"but the features have shape \(80, 3, 8\)$")
       for key, value in (("num_samples", 81), ("seq_len", 4), ("raw_dim", 12))},
    # a label that is not a whole number in [0, classes); each command checks the labels of the rows it reads
    **{f"{command[0]}-of-label-{value}": ("data", _set_at("labels", row, value), command, 2,
                                          rf"bad\.mcu: row {row} has label {value}, "
                                          r"expected a whole number in \[0, 3\)$")
       for command, row in ((["pretrain"], 3), (["eval", "--protocol", "fixed"], 70))
       for value in (0.5, 7.0, float("nan"))},
}


@pytest.mark.parametrize("case", CORRUPT_INPUTS)
def test_corrupt_input_exits_3_with_one_error_line_naming_it_and_writes_nothing(workspace, capsys, case):
    tmp, cfg = workspace
    target, edit, command, epochs, named = CORRUPT_INPUTS[case]
    assert run("gen-data", "--config", cfg, "--out", tmp / "data") == 0
    model = build_model(parse_config_text(TINY_CONFIG), Rng(0))
    model.phase = "pretrained"
    save_checkpoint(model, tmp / "pre.mcu")
    attach_adapters(model, Rng(1), rank=2)
    model.phase = "finetuned"
    save_checkpoint(model, tmp / "fin.mcu")
    paths = {"data": tmp / "data" / "dataset.mcu", "pre": tmp / "pre.mcu", "fin": tmp / "fin.mcu"}
    kind = "dataset" if target == "data" else "checkpoint"
    _, meta, arrays = load_container(paths[target], expected_kind=kind)
    edit(meta, arrays)
    save_container(tmp / "bad.mcu", kind, meta, arrays)
    paths[target] = tmp / "bad.mcu"
    (tmp / "case.cfg").write_text(TINY_CONFIG.replace("finetune_epochs = 2", f"finetune_epochs = {epochs}"))
    checkpoint = [] if command == ["pretrain"] else ["--checkpoint", paths["fin" if target == "fin" else "pre"]]
    capsys.readouterr()
    # a warning the command prints, such as numpy's RuntimeWarning, would be a second line of output, so it is an
    # error; only while the command runs, so that an earlier test's garbage finalized here fails nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(*command, "--config", tmp / "case.cfg", "--data", paths["data"], *checkpoint, "--out", tmp / "out")
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and re.search(named, err[0]), err
    assert list((tmp / "out").iterdir()) == []


def test_finetune_without_a_validation_split_scores_the_last_training_rows(workspace):
    tmp, _ = workspace
    cfg = tmp / "noval.cfg"
    cfg.write_text(TINY_CONFIG + "val_frac = 0\n")
    data, pre, fin = full_pipeline(tmp, cfg)
    config = parse_config_text(cfg.read_text())
    train = read_dataset(data / "dataset.mcu", rows=lambda n: slice(0, round(n * config.train_frac)))
    assert len(train) == 56 > config.probe_size
    result = trainer.finetune(load_checkpoint(pre / "checkpoint.mcu"), train, config, train[-config.probe_size:])
    trainer.write_schedule_log(tmp / "schedule_log.csv", result.schedule_rows)
    trainer.write_probe_log(tmp / "probe_log.csv", result.schedule_rows)
    for name in ("schedule_log.csv", "probe_log.csv"):
        assert (fin / name).read_bytes() == (tmp / name).read_bytes(), name


GOLDEN_MANIFEST = (
    "{\n"
    '  "artifacts": {\n'
    '    "checkpoint.mcu": "cccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccc",\n'
    '    "epoch_log.csv": "28be021ebf99a1ffbdff796fbbf7de41185e7b1da7003dad64c6872a4214613e",\n'
    '    "probe_log.csv": "87f7a693a5a9119a0453a5570eda6848359c530272a60c2d21d0667ff8c4ee08",\n'
    '    "schedule_log.csv": "5e03322a40f8a8b76b3168545df1475aff4503948c47022624896107bb9e5c9e"\n'
    "  },\n"
    '  "command": "finetune",\n'
    '  "config": {\n'
    '    "alpha": 1.0,\n'
    '    "batch_size": 32,\n'
    '    "beta": 0.01,\n'
    '    "classes": 4,\n'
    '    "dpft": true,\n'
    '    "dropout": 0.5,\n'
    '    "eval_seed": 66,\n'
    '    "finetune_epochs": 100,\n'
    '    "lam": 1.0,\n'
    '    "learning_rate": 0.0001,\n'
    '    "mask_hi": 0.6,\n'
    '    "mask_lo": 0.4,\n'
    '    "mcla": true,\n'
    '    "model_dim": 32,\n'
    '    "noise_std": 1.0,\n'
    '    "num_samples": 2000,\n'
    '    "p_max": 0.5,\n'
    '    "p_min": 0.05,\n'
    '    "pair_interaction_strength": 0.8,\n'
    '    "pretrain_epochs": 100,\n'
    '    "private_dim": 2,\n'
    '    "private_strength": 0.6,\n'
    '    "probe_size": 256,\n'
    '    "q_base": 0.1,\n'
    '    "rank": 2,\n'
    '    "raw_dim": 16,\n'
    '    "reduce_fast_learners": true,\n'
    '    "seed": 5,\n'
    '    "seq_len": 8,\n'
    '    "shared_dim": 4,\n'
    '    "shared_strength": 1.0,\n'
    '    "train_frac": 0.7,\n'
    '    "val_frac": 0.15\n'
    "  },\n"
    '  "config_path": "run.cfg",\n'
    '  "out_dir": "out",\n'
    '  "seed": 5,\n'
    '  "version": "0.1.0+pinned"\n'
    "}\n"
)


def test_manifest_bytes_are_pinned(tmp_path, monkeypatch):
    # a fixed config, config path and artifact map; the logs' digests pin their CSV bytes too: finetune's
    # model, data and training are stubbed, the checkpoint digest is "c" * 64 and the version is pinned
    result = trainer.TrainResult(
        model=None,
        epoch_rows=[trainer.EpochRow(1, "finetune", 0.5, 1 / 3, 0.1 + 0.2, 12.0),
                    trainer.EpochRow(2, "finetune", 0.25, 0.0, 0.25, 7.5)],
        schedule_rows=[trainer.ScheduleRow(1, np.arange(7) / 7, -np.arange(7) / 3, np.full(7, 1 / 7), 0.125),
                       trainer.ScheduleRow(2, np.zeros(7), np.zeros(7), np.full(7, 1 / 7), -1e-20)])
    monkeypatch.setattr(cli, "load_checkpoint", lambda path: SimpleNamespace(dims=lambda: {"classes": 4}))
    monkeypatch.setattr(cli, "_split_rows", lambda cfg, path, split, classes: contextlib.nullcontext([]))
    monkeypatch.setattr(cli, "finetune", lambda model, train, cfg, probe: result)
    monkeypatch.setattr(cli, "save_checkpoint", lambda model, path: "c" * 64)
    monkeypatch.setattr(config, "version_string", lambda: "0.1.0+pinned")
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text("seed = 5\nrank = 2\nbeta = 0.01\n")
    assert run("finetune", "--config", "run.cfg", "--data", "d.mcu", "--checkpoint", "c.mcu", "--out", "out") == 0
    assert Path("out/manifest.json").read_bytes() == GOLDEN_MANIFEST.encode()


def test_report_output_that_cannot_be_written_exits_2_naming_it(tmp_path, capsys):
    record = trainer.MetricsRecord("fixed", {"a": trainer.Metrics(0.5, 0.25, 0.5, 0.5)})
    run_dir = tmp_path / "ev"
    run_dir.mkdir()
    (run_dir / "metrics.txt").write_text(trainer.format_metrics_document(record, "{}", "0.1.0"))
    blocked = tmp_path / "rep" / "curves" / "condition_a.csv"
    blocked.mkdir(parents=True)  # the curve's name is taken by a directory
    assert run("report", run_dir, "--out", tmp_path / "rep") == 2
    assert f"cannot open {blocked}:" in capsys.readouterr().err
    assert blocked.is_dir() and not list((tmp_path / "rep").rglob("*.tmp"))
