"""The multimodal model: frozen base plus combination-aware adapter banks.

Structure
---------
* one small feed-forward encoder per modality (raw_dim -> d -> d, tanh),
  trained on complete data and frozen afterwards;
* a single-head cross-attention fusion block with one learned query token and
  per-modality key/value projections, turning 1-3 pooled modality vectors
  into one fused token (set-wise: input order is irrelevant), trained with
  the encoders and frozen with them;
* a common prediction head with one logit per class, plus - once adapters
  are attached - a characteristic prediction head and a scalar gate blending
  the two.

The forward pass has two halves. :func:`encode` runs the base's encoders on
every position and pools each row, giving per modality the encoder output
averaged over positions and the sequence-mean raw row. Each encoder is one
fused tape op (:func:`mculora.autodiff.tanh_mlp_mean`): while it trains, the
tape holds its rows, tanh outputs and dropout mask, (B*L, raw_dim) and two
(B*L, d); frozen, it records nothing and holds nothing. :func:`forward_pooled`
runs the adapters, fusion, heads and gate on those pooled rows. Once the base
is frozen a row's pooled values never change, so training after pretraining
and evaluation encode each row once and reuse it; pretraining, which trains
the encoders, runs both halves per batch (:func:`forward_batch`).

Adapters are a low-rank path in parallel to the frozen encoder, not a delta
on one of its weights. Each modality owns one low-rank pair per combination
containing it (private) and one pair shared by all combinations (common). A
pair maps each sample's sequence-mean raw row (D) to d: the pair is linear
with no bias, so this equals the mean of its per-position outputs, at 1/L of
the work. Its outputs are added to the pooled encoder output before fusion,
so with zero-initialized up-projections the fine-tuned model starts exactly
at the pretrained model's behavior. MCLA is on exactly when the table holds
adapters (``MculoraModel.has_adapters``); with ``mcla=False``,
:func:`attach_adapters` adds none and the frozen base feeds the common head
alone.

The model is its parameter table, ``MculoraModel.params``: one trainable
tensor per name, built from arrays by the constructor and extended by
:func:`attach_adapters`. The layers hold no parameters of their own: the
encoders and the fusion block keep the table's tensors, and the heads and
:meth:`MculoraModel.adapter`, which gives the :class:`LoraPair` serving a
modality under a combination, read theirs by name at each call. A name's
prefix says what it is: ``enc.*`` and ``fusion.*`` are the base,
``head.com.*`` the common head, and ``adapter.*``, ``head.prt.*`` and
``gate.*`` what adapters attach. The parameter groups are prefix rules:
``parameters("pretrain")`` is the base plus the common head, and
``parameters("finetune")`` everything outside the base.
:meth:`MculoraModel.freeze_base` freezes the tensors under the base
prefixes, so the common head stays trainable in finetuning.

Settings come from the one schema, :class:`~mculora.config.ExperimentConfig`,
which holds every default; :func:`save_checkpoint` states what a checkpoint
holds and :func:`load_checkpoint` what it checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ExperimentConfig
from .errors import ConfigError, ContractError
from .modalities import ALL_COMBINATIONS, MODALITIES, Combo
from .rng import Rng
from .serialize import load_container, save_container

_GATE_HIDDEN = 16
_GATE_PREACT_LIMIT = 30.0  # keeps the logistic output strictly inside (0, 1)
# size -> (parameter, axis) it is read off: raw_dim, model_dim and classes are the base's
_DIM_SOURCES = {"raw_dim": ("enc.a.W1", 0), "model_dim": ("enc.a.W1", 1), "classes": ("head.com.W", 1)}
_BASE = ("enc.", "fusion.")  # the name prefixes of the base: pretraining trains it, freeze_base freezes it


class Encoder:
    """Per-modality feed-forward stack, raw_dim -> d (tanh) -> d, pooled over positions."""

    def __init__(self, params: dict[str, Tensor], modality: str):
        self.W1, self.b1, self.W2, self.b2 = (params[f"enc.{modality}.{k}"] for k in ("W1", "b1", "W2", "b2"))

    def forward(self, x: Tensor, dropout_p: float = 0.0, rng: Rng | None = None, work=None) -> Tensor:
        """(B, L, raw_dim) rows -> (B, d): the stack on every position, averaged
        over positions, with dropout on the hidden layer. One tape op; off the
        tape it works in the buffers `work` when given (see
        :func:`~mculora.autodiff.tanh_mlp_mean`)."""
        return ad.tanh_mlp_mean(x, self.W1, self.b1, self.W2, self.b2, dropout_p, rng, work)


class LoraPair:
    """Trainable low-rank path x -> alpha * (B A) x, rank <= r, from a row's
    sequence-mean raw features (D) to d, added to the row's pooled encoder
    output: a bypass beside the frozen encoder, not a delta on its weights."""

    def __init__(self, A: Tensor, B: Tensor, alpha: float):
        self.A, self.B, self.alpha = A, B, float(alpha)

    def apply(self, x2d: Tensor) -> Tensor:
        """(N, d_in) -> (N, d_out), down- then up-projection per row."""
        down = ad.matmul(x2d, ad.transpose(self.A))
        up = ad.matmul(down, ad.transpose(self.B))
        return ad.mul(up, ad.constant(self.alpha))


class FusionBlock:
    """Single-head cross-attention from a learned query over per-modality tokens."""

    def __init__(self, params: dict[str, Tensor]):
        self.query = params["fusion.query"]  # (1, d)
        self.keys = {m: params[f"fusion.{m}.Wk"] for m in MODALITIES}  # per-modality (d, d)
        self.values = {m: params[f"fusion.{m}.Wv"] for m in MODALITIES}

    def fuse_batch(self, reps: dict[str, Tensor]) -> Tensor:
        mods = [m for m in MODALITIES if m in reps]
        if not mods:
            raise ContractError("fuse: no representations given")
        d = self.query.shape[1]
        scale = ad.constant(1.0 / np.sqrt(d))
        scores = [ad.mul(ad.matmul(ad.matmul(reps[m], self.keys[m]), ad.transpose(self.query)), scale)
                  for m in mods]
        attn = ad.softmax(ad.concat(scores, axis=1), axis=1)
        fused = None
        for j, m in enumerate(mods):
            weighted = ad.mul(ad.narrow(attn, 1, j, 1), ad.matmul(reps[m], self.values[m]))
            fused = weighted if fused is None else ad.add(fused, weighted)
        return fused


class Heads:
    """Common head, characteristic head, and the adaptive blending gate. Each
    call reads its tensors from the model's table by name, so the heads and
    gate that :func:`attach_adapters` adds need no rebinding."""

    def __init__(self, params: dict[str, Tensor]):
        self.params = params

    def common_logits(self, token: Tensor) -> Tensor:
        return ad.add(ad.matmul(token, self.params["head.com.W"]), self.params["head.com.b"])

    def private_logits(self, token: Tensor) -> Tensor:
        return ad.add(ad.matmul(token, self.params["head.prt.W"]), self.params["head.prt.b"])

    def gate_weight(self, token: Tensor) -> Tensor:
        """(B, d) -> (B, 1) blending weight, strictly inside (0, 1)."""
        p = self.params
        h = ad.tanh(ad.add(ad.matmul(token, p["gate.W1"]), p["gate.b1"]))
        pre = ad.add(ad.matmul(h, p["gate.W2"]), p["gate.b2"])
        return ad.sigmoid(ad.clip(pre, -_GATE_PREACT_LIMIT, _GATE_PREACT_LIMIT))


def combine_predictions(y_com: Tensor, y_hat: Tensor, w: Tensor) -> Tensor:
    """(1 - w) * common prediction + w * characteristic prediction."""
    return ad.add(ad.mul(ad.sub(ad.constant(1.0), w), y_com), ad.mul(w, y_hat))


class MculoraModel:
    """The parameter table, the layers that read it, and the LoRA scale alpha
    last given to the model."""

    def __init__(self, arrays: dict[str, np.ndarray], alpha: float):
        """The model whose table holds `arrays`, named as
        :func:`_parameter_shapes` names them: the base, plus the adapters,
        characteristic head and gate when `arrays` holds them. Every parameter
        is trainable; phase "init"."""
        self.params = {name: Tensor(a, requires_grad=True) for name, a in arrays.items()}
        self.alpha = alpha
        self.phase = "init"
        self.encoders = {m: Encoder(self.params, m) for m in MODALITIES}
        self.fusion = FusionBlock(self.params)
        self.heads = Heads(self.params)

    @property
    def has_adapters(self) -> bool:
        """Whether adapters are attached: the table holds the characteristic head."""
        return "head.prt.W" in self.params

    def adapter(self, modality: str, combo: Combo | None) -> LoraPair:
        """The pair of `modality` that serves `combo` (its common pair for
        None), over the table's tensors and scaled by the model's alpha; a
        :class:`ContractError` without one (no adapters, or `modality` not in `combo`)."""
        name = f"adapter.{modality}." + ("com" if combo is None else f"prt.{combo.name}")
        if f"{name}.A" not in self.params:
            raise ContractError(f"the model has no adapter pair {name}")
        return LoraPair(self.params[f"{name}.A"], self.params[f"{name}.B"], self.alpha)

    def dims(self) -> dict[str, int]:
        """raw_dim, model_dim and classes, read off the base's parameters."""
        return {key: self.params[name].shape[axis] for key, (name, axis) in _DIM_SOURCES.items()}

    def parameters(self, group: str) -> dict[str, Tensor]:
        """The base and common head that pretraining trains ("pretrain"), or
        everything outside the base ("finetune")."""
        in_group = {"pretrain": lambda name: name.startswith((*_BASE, "head.com.")),
                    "finetune": lambda name: not name.startswith(_BASE)}[group]
        return {name: t for name, t in self.params.items() if in_group(name)}

    def freeze_base(self) -> None:
        """Freeze the encoders and fusion, which no phase after pretraining trains."""
        ad.freeze(t for name, t in self.params.items() if name.startswith(_BASE))


def _parameter_shapes(raw_dim: int, model_dim: int, classes: int, rank: int, adapters: bool) -> dict[str, tuple]:
    """The name and shape of each parameter of a model of these sizes, with or
    without adapters: the keys of the model's table."""
    D, d, H = raw_dim, model_dim, _GATE_HIDDEN
    shapes = {"fusion.query": (1, d), "head.com.W": (d, classes), "head.com.b": (1, classes)}
    for m in MODALITIES:
        shapes.update({f"enc.{m}.W1": (D, d), f"enc.{m}.b1": (1, d), f"enc.{m}.W2": (d, d), f"enc.{m}.b2": (1, d),
                       f"fusion.{m}.Wk": (d, d), f"fusion.{m}.Wv": (d, d)})
    if adapters:
        shapes.update({"head.prt.W": (d, classes), "head.prt.b": (1, classes), "gate.W1": (d, H), "gate.b1": (1, H),
                       "gate.W2": (H, 1), "gate.b2": (1, 1)})
        for m in MODALITIES:
            for pair in ["com", *(f"prt.{c.name}" for c in ALL_COMBINATIONS if m in c)]:
                shapes.update({f"adapter.{m}.{pair}.A": (rank, D), f"adapter.{m}.{pair}.B": (d, rank)})
    return shapes


def build_model(cfg: ExperimentConfig, rng: Rng) -> MculoraModel:
    """Fresh base model (no adapters) of the sizes raw_dim, model_dim and
    classes of `cfg`, with its alpha; all parameters trainable."""
    init = rng.child("init")
    d, D = cfg.model_dim, cfg.raw_dim
    arrays = {}
    for m in MODALITIES:
        r = init.child(f"enc-{m}")
        arrays.update({f"enc.{m}.W1": r.normal(0.0, 1.0 / np.sqrt(D), size=(D, d)), f"enc.{m}.b1": np.zeros((1, d)),
                       f"enc.{m}.W2": r.normal(0.0, 1.0 / np.sqrt(d), size=(d, d)), f"enc.{m}.b2": np.zeros((1, d))})
    fr = init.child("fusion")
    arrays["fusion.query"] = fr.normal(0.0, 1.0 / np.sqrt(d), size=(1, d))
    for m in MODALITIES:
        arrays[f"fusion.{m}.Wk"] = fr.child(f"k-{m}").normal(0.0, 1.0 / np.sqrt(d), size=(d, d))
        arrays[f"fusion.{m}.Wv"] = fr.child(f"v-{m}").normal(0.0, 1.0 / np.sqrt(d), size=(d, d))
    hr = init.child("heads")
    arrays["head.com.W"] = hr.normal(0.0, 1.0 / np.sqrt(d), size=(d, cfg.classes))
    arrays["head.com.b"] = np.zeros((1, cfg.classes))
    return MculoraModel(arrays, float(cfg.alpha))


def attach_adapters(model: MculoraModel, rng: Rng, rank: int, alpha: float = ExperimentConfig.alpha,
                    mcla: bool = True) -> None:
    """Create zero-initialized adapter banks of the given rank and LoRA scale
    alpha, the characteristic head (a copy of the pretrained common head), and
    the gate. Requires a pretrained model and a rank that
    ``ExperimentConfig.validate`` passed. The model takes `alpha` also with
    mcla=False, when nothing is attached."""
    if model.phase != "pretrained":
        raise ContractError(f"adapters attach to a pretrained model, phase is {model.phase!r}")
    model.alpha = float(alpha)
    if not mcla:
        return
    init = rng.child("adapters")
    dims = model.dims()
    d, D = dims["model_dim"], dims["raw_dim"]
    arrays = {}
    for m in MODALITIES:
        for pair in ["com", *(f"prt.{c.name}" for c in ALL_COMBINATIONS if m in c)]:
            # standard convention: Gaussian down-projection, zero up-projection,
            # so adapters contribute exactly nothing until trained
            r = init.child(f"{m}-{pair.replace('.', '-')}")
            arrays.update({f"adapter.{m}.{pair}.A": r.normal(0.0, 0.02, size=(rank, D)),
                           f"adapter.{m}.{pair}.B": np.zeros((d, rank))})
    gr = rng.child("gate")
    arrays.update({"head.prt.W": model.params["head.com.W"].data.copy(),
                   "head.prt.b": model.params["head.com.b"].data.copy(),
                   "gate.W1": gr.normal(0.0, 1.0 / np.sqrt(d), size=(d, _GATE_HIDDEN)),
                   "gate.b1": np.zeros((1, _GATE_HIDDEN)),
                   "gate.W2": gr.normal(0.0, 1.0 / np.sqrt(_GATE_HIDDEN), size=(_GATE_HIDDEN, 1)),
                   "gate.b2": np.zeros((1, 1))})
    model.params.update({name: Tensor(a, requires_grad=True) for name, a in arrays.items()})


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

@dataclass
class Pooled:
    """Rows after the frozen base, per modality: the encoder output averaged
    over positions, (n, d), and the sequence-mean raw row, (n, D), that the
    adapters read."""

    enc: dict[str, Tensor]
    raw: dict[str, np.ndarray]

    def rows(self, idx, mods) -> "Pooled":
        """The rows `idx` of the modalities `mods`, off the tape."""
        return Pooled({m: ad.constant(self.enc[m].data[idx]) for m in mods}, {m: self.raw[m][idx] for m in mods})


def encode(model: MculoraModel, feats: dict[str, np.ndarray], *,
           dropout_p: float = 0.0, dropout_rng: Rng | None = None, work=None) -> Pooled:
    """The frozen-base half of the forward pass, on stacked (B, L, raw_dim)
    features: each modality's encoder runs on every position and is pooled
    after, in one tape op per modality, and each row's raw features are
    averaged over positions. Under a tape, an encoder that trains keeps its
    rows, tanh outputs and dropout mask for the backward pass; a frozen one
    records no op, keeps nothing and works in the buffers `work` when given
    (see :func:`~mculora.autodiff.tanh_mlp_mean`)."""
    enc: dict[str, Tensor] = {}
    raw: dict[str, np.ndarray] = {}
    for m in MODALITIES:
        if m not in feats:
            continue
        x = np.asarray(feats[m], dtype=np.float64)
        enc[m] = model.encoders[m].forward(ad.constant(x), dropout_p=dropout_p, rng=dropout_rng, work=work)
        raw[m] = x.mean(axis=1)
    return Pooled(enc, raw)


def forward_pooled(model: MculoraModel, pooled: Pooled) -> dict:
    """The other half: adapters, fusion, heads and gate on pooled rows of one
    combination, the modalities of ``pooled.enc``. Returns the pooled encoder,
    common-adapter and private-adapter outputs per modality (``enc_pooled``,
    ``com_pooled``, ``prt_pooled``; the adapter ones empty without adapters)
    and the prediction ``y_last``: the gate's blend of both heads, or the
    common head alone without adapters."""
    mods = [m for m in MODALITIES if m in pooled.enc]
    if not mods:
        raise ContractError("forward: no modalities given")
    combo = Combo.from_modalities(mods)
    enc_pooled = pooled.enc
    out = {"enc_pooled": enc_pooled, "com_pooled": {}, "prt_pooled": {}}
    if not model.has_adapters:
        out["y_last"] = model.heads.common_logits(model.fusion.fuse_batch(enc_pooled))
        return out
    com_pooled, prt_pooled = out["com_pooled"], out["prt_pooled"]
    for m in mods:
        x_pooled = ad.constant(pooled.raw[m])
        com_pooled[m] = model.adapter(m, None).apply(x_pooled)
        prt_pooled[m] = model.adapter(m, combo).apply(x_pooled)
    com_in = {m: ad.add(enc_pooled[m], com_pooled[m]) for m in mods}
    prt_in = {m: ad.add(enc_pooled[m], prt_pooled[m]) for m in mods}
    fused_prt = model.fusion.fuse_batch(prt_in)
    y_com = model.heads.common_logits(model.fusion.fuse_batch(com_in))
    y_hat = model.heads.private_logits(fused_prt)
    out["y_last"] = combine_predictions(y_com, y_hat, model.heads.gate_weight(fused_prt))
    return out


def forward_batch(model: MculoraModel, feats: dict[str, np.ndarray], *,
                  dropout_p: float = 0.0, dropout_rng: Rng | None = None) -> dict:
    """Both halves on stacked (B, L, raw_dim) features of one combination:
    the forward pass of a step that trains the base."""
    return forward_pooled(model, encode(model, feats, dropout_p=dropout_p, dropout_rng=dropout_rng))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(model: MculoraModel, path) -> str:
    """Write the checkpoint; returns the SHA-256 of its bytes.

    A checkpoint is the parameter table, one array per name, plus the
    metadata ``phase`` and ``alpha``: the alpha of the pretrain config for a
    pretrained checkpoint, and that of the finetune config for a finetuned
    one, with MCLA on or off. Every size is read off the arrays: raw_dim,
    model_dim and classes off ``enc.a.W1`` and ``head.com.W``, and, when the
    table holds ``head.prt.W`` and so adapters, rank off ``adapter.a.com.A``."""
    return save_container(path, "checkpoint", {"phase": model.phase, "alpha": model.alpha},
                          {k: t.data for k, t in sorted(model.params.items())})


def load_checkpoint(path) -> MculoraModel:
    """The model the checkpoint at `path` holds, its base frozen unless it is
    phase "init"; nothing is drawn.

    The metadata must be exactly ``phase``, one of the model's phases, and
    ``alpha``, a JSON float. The sizes read off the arrays (see
    :func:`save_checkpoint`) and alpha must pass the range check a config file
    gets, only a finetuned checkpoint may hold adapters (finetune attaches
    them), and the arrays must be exactly the parameters, names and shapes, of
    a model of those sizes. Any failure raises :class:`ContractError` naming
    the file and the key, size or parameter."""
    _, meta, arrays = load_container(path, expected_kind="checkpoint")
    if sorted(meta) != ["alpha", "phase"]:
        raise ContractError(f"checkpoint {path}: metadata keys {sorted(meta)}, expected ['alpha', 'phase']")
    for key, valid in (("phase", meta["phase"] in ("init", "pretrained", "finetuned")),
                       ("alpha", isinstance(meta["alpha"], float))):
        if not valid:
            raise ContractError(f"checkpoint {path}: metadata key {key!r} has invalid value {meta[key]!r}")
    adapters = "head.prt.W" in arrays
    sources = {**_DIM_SOURCES, "rank": ("adapter.a.com.A", 0)} if adapters else _DIM_SOURCES
    for name, _ in sources.values():
        if name not in arrays:
            raise ContractError(f"checkpoint {path} lacks parameter {name}, which the model's sizes are read off")
        if arrays[name].ndim != 2:
            raise ContractError(f"checkpoint {path}: parameter {name} has shape {arrays[name].shape}, expected 2-D")
    try:
        cfg = ExperimentConfig(**{key: arrays[name].shape[axis] for key, (name, axis) in sources.items()},
                               alpha=meta["alpha"]).validate()
    except ConfigError as exc:
        raise ContractError(f"checkpoint {path}: {exc}") from exc
    if adapters and meta["phase"] != "finetuned":
        raise ContractError(f"checkpoint {path} holds adapters, but its phase is {meta['phase']!r}, "
                            f"and only a finetuned checkpoint holds adapters")
    shapes = _parameter_shapes(cfg.raw_dim, cfg.model_dim, cfg.classes, cfg.rank, adapters)
    missing, extra = set(shapes) - set(arrays), set(arrays) - set(shapes)
    if missing:
        raise ContractError(f"checkpoint {path} lacks parameters: {sorted(missing)}")
    if extra:
        raise ContractError(f"checkpoint {path} holds arrays the model does not have: {sorted(extra)}")
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise ContractError(f"checkpoint {path}: parameter {name} has shape {arrays[name].shape}, expected {shape}")
        if arrays[name].dtype != np.float64:
            raise ContractError(f"checkpoint {path}: parameter {name} has dtype {arrays[name].dtype}, expected float64")
    model = MculoraModel(arrays, cfg.alpha)
    model.phase = meta["phase"]
    if model.phase in ("pretrained", "finetuned"):
        model.freeze_base()
    return model
