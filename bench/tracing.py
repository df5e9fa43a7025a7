"""Span recording around the package's public layer functions.

:func:`install` replaces each traced function or method with a shim that
records a span (name, start, end, parent) and, where the layer does work the
benchmark counts, a counter. It rebinds every ``mculora`` module attribute
that refers to the original, so names imported with ``from x import y`` are
traced too, and returns the function that restores the originals. Spans stay
in memory until the run ends. Nothing is installed in an untraced run.

A span's self time is its duration minus that of its traced children (the
program is single-threaded, so children never overlap). Spans that run while
a :class:`mculora.autodiff.Tape` is active also record how many tape ops
their layer appended, so per-layer op counts are measured where the ops are
made.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name) for functions; (module, class, method, span name) for methods.
FUNCTIONS = (
    ("mculora.synthgen", "generate_dataset", "synthgen.generate"),
    ("mculora.synthgen", "apply_random_missing", "synthgen.random_missing"),
    ("mculora.synthgen", "split_dataset", "synthgen.split"),
    ("mculora.serialize", "save_container", "serialize.save"),
    ("mculora.serialize", "load_container", "serialize.load"),
    ("mculora.config", "write_manifest", "config.manifest"),
    ("mculora.model", "forward_batch", "model.forward"),
    ("mculora.losses", "task_loss", "losses.task"),
    ("mculora.losses", "orthogonality_loss", "losses.ortho"),
    ("mculora.autodiff", "gradients", "autodiff.backward"),
    ("mculora.trainer", "finetune", "trainer.finetune"),
    ("mculora.trainer", "predict_dataset", "trainer.predict"),
    ("mculora.trainer", "compute_metrics", "trainer.metrics"),
    ("mculora.dpft", "separability_scores", "dpft.score"),
    ("mculora.dpft", "update_probabilities", "dpft.update"),
    ("mculora.dpft", "sample_combination", "dpft.sample"),
)
METHODS = (
    ("mculora.model", "Encoder", "forward", "model.encoder"),
    ("mculora.model", "LoraPair", "apply", "model.lora_apply"),
    ("mculora.model", "FusionBlock", "fuse_batch", "model.fusion"),
    ("mculora.model", "Heads", "common_logits", "model.heads"),
    ("mculora.model", "Heads", "private_logits", "model.heads"),
    ("mculora.model", "Heads", "gate_weight", "model.heads"),
    ("mculora.trainer", "Adam", "step", "trainer.adam"),
)

# layer -> span whose self tape ops it owns; forward_other is forward_batch's
# own pooling, residual adds and prediction blending
TAPE_LAYERS = {
    "encoder": "model.encoder",
    "adapters": "model.lora_apply",
    "fusion": "model.fusion",
    "heads": "model.heads",
    "forward_other": "model.forward_train",
    "task": "losses.task",
    "ortho": "losses.ortho",
}


class Recorder:
    """In-memory spans and counters of one traced region."""

    def __init__(self):
        self.spans: list[tuple] = []   # (name, start, end, parent index, self seconds, self tape ops)
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._open: list[list] = []    # [index, name, start, tape, ops at start, child seconds, child ops, parent]
        self._tapes: list = []

    def enter(self, name: str) -> list:
        tape = self._tapes[-1] if self._tapes else None
        frame = [len(self.spans), name, time.perf_counter(), tape, len(tape) if tape is not None else 0, 0.0, 0,
                 self._open[-1][0] if self._open else -1]
        self.spans.append(None)
        self._open.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        index, name, start, tape, ops_before, child_s, child_ops, parent = frame
        self._open.pop()
        duration = end - start
        ops = len(tape) - ops_before if tape is not None and self._tapes and self._tapes[-1] is tape else 0
        self.spans[index] = (name, start, end, parent, duration - child_s, ops - child_ops)
        if self._open:
            self._open[-1][5] += duration
            self._open[-1][6] += ops

    @contextmanager
    def span(self, name: str):
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: inclusive seconds, self seconds, self tape ops."""
        incl: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        ops: dict[str, int] = defaultdict(int)
        for name, start, end, _, self_s, self_ops in self.spans:
            incl[name] += end - start
            own[name] += self_s
            ops[name] += self_ops
        return incl, own, ops

    def to_json(self) -> dict:
        return {"fields": ["name", "start", "end", "parent", "self_s", "self_tape_ops"],
                "spans": self.spans, "counts": dict(self.counts), "missing": self.missing}


def _shim(rec: Recorder, name: str, fn, after=None):
    def shim(*args, **kwargs):
        frame = rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(frame)
        if after is not None:
            after(rec.counts, args, result)
        return result
    shim.__wrapped__ = fn
    return shim


def _forward_shim(rec: Recorder, fn):
    # forward_batch under a tape is a training forward; without one, inference
    def shim(*args, **kwargs):
        frame = rec.enter("model.forward_train" if rec._tapes else "model.forward_infer")
        try:
            return fn(*args, **kwargs)
        finally:
            rec.exit(frame)
    shim.__wrapped__ = fn
    return shim


def _count_encoder(counts, args, result):
    counts["model.encoder_calls"] += 1


def _count_lora(counts, args, result):
    counts["model.lora_apply_calls"] += 1
    counts["model.lora_rows"] += args[1].shape[0]


def _count_bytes(counts, args, result):
    counts["serialize.bytes"] += os.path.getsize(args[0])


def _count_backward(counts, args, result):
    counts["autodiff.steps"] += 1
    counts["autodiff.tape_ops"] += len(args[1])
    counts["autodiff.grads_computed"] += len(result)


def _count_adam(counts, args, result):
    params = getattr(args[0], "params", {})
    counts["trainer.adam_params"] += sum(p.grad is not None for p in params.values())


_AFTER = {
    "model.encoder": _count_encoder,
    "model.lora_apply": _count_lora,
    "serialize.save": _count_bytes,
    "serialize.load": _count_bytes,
    "autodiff.backward": _count_backward,
    "trainer.adam": _count_adam,
}


def install(rec: Recorder):
    """Install every shim; returns a callable that restores the originals."""
    restore: list[tuple] = []
    packages = [m for n, m in sys.modules.items() if n == "mculora" or n.startswith("mculora.")]
    for module_name, attr, name in FUNCTIONS:
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            rec.missing.append(f"{module_name}.{attr}")
            continue
        shim = (_forward_shim(rec, original) if name == "model.forward"
                else _shim(rec, name, original, _AFTER.get(name)))
        for module in packages:
            if getattr(module, attr, None) is original:
                setattr(module, attr, shim)
                restore.append((module, attr, original))
    for module_name, cls_name, method, name in METHODS:
        cls = getattr(sys.modules.get(module_name), cls_name, None)
        original = cls.__dict__.get(method) if cls is not None else None
        if original is None:
            rec.missing.append(f"{module_name}.{cls_name}.{method}")
            continue
        setattr(cls, method, _shim(rec, name, original, _AFTER.get(name)))
        restore.append((cls, method, original))
    tape_cls = getattr(sys.modules.get("mculora.autodiff"), "Tape", None)
    if tape_cls is not None:
        enter, exit_ = tape_cls.__enter__, tape_cls.__exit__

        def tape_enter(tape):
            rec._tapes.append(tape)
            return enter(tape)

        def tape_exit(tape, *exc):
            rec._tapes.pop()
            return exit_(tape, *exc)

        tape_cls.__enter__, tape_cls.__exit__ = tape_enter, tape_exit
        restore += [(tape_cls, "__enter__", enter), (tape_cls, "__exit__", exit_)]
    else:
        rec.missing.append("mculora.autodiff.Tape")

    def uninstall():
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
    return uninstall


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer values of one traced pipeline pass (seconds, counts, ratios)."""
    incl, own, ops = rec.totals()
    c = rec.counts
    steps = c["autodiff.steps"]
    values = {
        "synthgen.generate_s": incl["synthgen.generate"],
        "synthgen.random_missing_s": incl["synthgen.random_missing"],
        "synthgen.split_s": incl["synthgen.split"],
        "serialize.save_s": incl["serialize.save"],
        "serialize.load_s": incl["serialize.load"],
        "serialize.bytes": c["serialize.bytes"],
        "config.manifest_s": incl["config.manifest"],
        "model.encoder_s": incl["model.encoder"],
        "model.encoder_calls": c["model.encoder_calls"],
        "model.lora_apply_s": incl["model.lora_apply"],
        "model.lora_apply_calls": c["model.lora_apply_calls"],
        "model.lora_rows": c["model.lora_rows"],
        "model.fusion_s": incl["model.fusion"],
        "model.heads_s": incl["model.heads"],
        "model.forward_train_s": incl["model.forward_train"],
        "model.forward_infer_s": incl["model.forward_infer"],
        "losses.task_s": incl["losses.task"],
        "losses.ortho_s": incl["losses.ortho"],
        "autodiff.backward_s": incl["autodiff.backward"],
        "autodiff.steps": steps,
        "autodiff.tape_ops_per_step": c["autodiff.tape_ops"] / steps if steps else 0.0,
        "autodiff.useful_grad_ratio": (c["trainer.adam_params"] / c["autodiff.grads_computed"]
                                       if c["autodiff.grads_computed"] else 0.0),
        "trainer.adam_s": incl["trainer.adam"],
        "trainer.adam_params": c["trainer.adam_params"],
        "trainer.predict_s": incl["trainer.predict"],
        "trainer.metrics_s": incl["trainer.metrics"],
        "trainer.finetune_self_s": own["trainer.finetune"],
        "dpft.score_s": incl["dpft.score"],
        "dpft.update_s": incl["dpft.update"],
        "dpft.sample_s": incl["dpft.sample"],
    }
    for layer, span in TAPE_LAYERS.items():
        values[f"autodiff.tape_ops.{layer}"] = ops[span] / steps if steps else 0.0
    return values
