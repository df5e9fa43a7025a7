"""Per-combination finetune step probe.

On the pretrained checkpoint of the last pipeline pass, with adapters attached
as the workload's finetune would attach them, it drives single finetune steps
for each of the seven modality combinations through the same calls the
trainer makes: ``forward_batch``, ``task_loss``, ``orthogonality_loss``,
``total_loss``, ``autodiff.gradients`` and ``Adam.step``. It times forward,
backward and the optimizer step apart and counts the tape ops, which repeat
exactly. One extra traced FULL step splits the tape ops by layer and counts
the parameter gradients computed against those trained.

It needs no working ``finetune`` command, so it gives the step's per-layer
baseline even while that command fails.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import tracing
from mculora import autodiff as ad
from mculora import losses, model as mmodel
from mculora.config import ExperimentConfig
from mculora.modalities import ALL_COMBINATIONS, FULL, MODALITIES
from mculora.rng import Rng
from mculora.serialize import load_container
from mculora.trainer import Adam

_DEFAULTS = ExperimentConfig()  # beta and learning rate are left at their defaults by every workload


def _step(model, opt, feats, labels, combo, mcla: bool):
    # module attributes are looked up at call time, so the traced step sees the shims
    opt.zero_grad()
    t0 = time.perf_counter()
    with ad.Tape() as tape:
        out = mmodel.forward_batch(model, feats)
        l_task = losses.task_loss(out["y_last"], labels, "classification")
        if mcla:
            l_ort = losses.orthogonality_loss(out["com_pooled"], {combo: out["prt_pooled"]}, out["enc_pooled"])
        else:
            l_ort = ad.constant(0.0)
        l_tot = losses.total_loss(l_task, l_ort, _DEFAULTS.beta)
    t1 = time.perf_counter()
    ad.gradients(l_tot, tape)
    t2 = time.perf_counter()
    opt.step()
    t3 = time.perf_counter()
    return (t1 - t0, t2 - t1, t3 - t2), len(tape)


def step_probe(dataset_path, checkpoint_path, cfg: dict, repeats: int = 15, warmup: int = 3) -> dict[str, float]:
    """The ``step.*`` metrics on the first training batch of the dataset."""
    _, _, arrays = load_container(dataset_path, expected_kind="dataset")
    batch = cfg["batch_size"]
    feats_all = {m: np.ascontiguousarray(arrays[f"features_{m}"][:batch]) for m in MODALITIES}
    labels = arrays["labels"][:batch].astype(np.int64)

    model = mmodel.load_checkpoint(checkpoint_path)
    mmodel.attach_adapters(model, Rng(cfg["seed"]), rank=cfg["rank"], mcla=cfg["mcla"])
    opt = Adam(model.parameters("finetune"), lr=_DEFAULTS.learning_rate)

    values: dict[str, float] = {}
    for combo in ALL_COMBINATIONS:
        feats = {m: feats_all[m] for m in combo.modalities}
        times, ops_seen = [], set()
        for i in range(warmup + repeats):
            split, ops = _step(model, opt, feats, labels, combo, cfg["mcla"])
            ops_seen.add(ops)
            if i >= warmup:
                times.append(split)
        if len(ops_seen) != 1:
            raise RuntimeError(f"step probe: combination {combo.name} recorded varying tape op counts {ops_seen}")
        for k, phase in enumerate(("forward_ms", "backward_ms", "adam_ms")):
            values[f"step.{combo.name}.{phase}"] = 1e3 * statistics.median(t[k] for t in times)
        values[f"step.{combo.name}.tape_ops"] = float(ops_seen.pop())

    rec = tracing.Recorder()
    uninstall = tracing.install(rec)
    try:
        _step(model, opt, feats_all, labels, FULL, cfg["mcla"])
    finally:
        uninstall()
    layers = tracing.layer_metrics(rec)
    for layer in tracing.TAPE_LAYERS:
        values[f"step.{FULL.name}.tape_ops.{layer}"] = layers[f"autodiff.tape_ops.{layer}"]
    values[f"step.{FULL.name}.lora_rows"] = layers["model.lora_rows"]
    values[f"step.{FULL.name}.useful_grad_ratio"] = layers["autodiff.useful_grad_ratio"]
    return values
