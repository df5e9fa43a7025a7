"""Two-phase training and missing-modality evaluation.

Training and evaluation read their settings from the one experiment schema,
:class:`mculora.config.ExperimentConfig`; pretrain and finetune validate it
on entry.

Both phases run one epoch loop: each batch is seen under one modality
combination and takes one Adam step on task loss + beta * orthogonality loss
over the phase's parameters. Pretrain (encoders, fusion, common head) runs it
on the model without adapters, every batch under the full set, with dropout on
the encoder hidden layer (here only): the fine-tuning objective, whose
orthogonality term is 0 without adapters. It runs both halves of the forward
pass (:func:`mculora.model.encode`, then :func:`mculora.model.forward_pooled`)
per batch, on the batch's rows alone, each read just before its forward pass.
Encoders and fusion are then frozen, so a row's pooled encoder output never
changes again: finetune encodes the training rows once, then each batch
indexes those pooled rows and runs only the second half; the probe is pooled
once. Finetune and evaluation run the frozen base through
:func:`_encode_rows`. Finetune (adapter banks, both heads, gate) draws each
batch's combination from the schedule (uniform when the dynamic scheduler is
off). Rows are read as :class:`~mculora.synthgen.DatasetFile` states.
After every epoch, one pass over the adapters on the probe gives the
separability scores and the probe cosine and, when the scheduler is on, the
sampling probabilities are re-balanced.

Ablations: mcla=False trains only the common head on the frozen base and,
with no adapters to score, keeps combination probabilities uniform, as
dpft=False does.

Non-finite training fails loudly: a NaN or infinite loss, or an Adam update
that would make a parameter non-finite, raises :class:`ContractError` naming
the phase, epoch, step (1-based within the epoch), combination and parameter,
before any parameter takes the bad value; so does a non-finite separability
score or probe cosine, naming the epoch. Evaluation refuses non-finite
logits, naming the combination, rather than predicting class 0 for them.

Evaluation reports ACC, macro-F1, WA (class-frequency-weighted recall) and
UA (mean per-class recall) per testing condition. WA equals ACC by definition,
sum_c (support_c / n) * (tp_c / support_c) = sum_c tp_c / n, so it is reported
as ACC rather than computed apart. A record's table is one ordered mapping of
row name to metrics, written to and read from the metrics document as it
stands. Under the fixed protocol, all seven conditions are imposed on the
full test set, and the table's eight rows are a, t, v, av, at, tv, average,
atv: "average", the unweighted mean over the six incomplete conditions, is
one more row of the table. Under the random protocol, each sample's
combination is drawn once from the configured probability range, seeded by
``eval_seed``, and the table's one row is "random". Evaluation works
through the test rows in windows (:func:`predict_dataset` states how), so of
what it holds only the labels, masks and predictions grow with the split.

CSV interfaces (column orders are part of the interface):

* epoch log:     epoch,phase,l_task,l_ort,l_total,wallclock_ms
* schedule log:  epoch,s_<c>...,ds_<c>...,q_<c>... for c in a,t,v,av,at,tv,atv
* probe log:     epoch,mean_cos_prt_com

:func:`csv_text` formats every CSV line the package writes - these logs, the
metrics document's table and the report's curves - with each float cell the
shortest text that reads back as the same float. Each log writer writes
through :func:`mculora.serialize.write_text` and returns the SHA-256 it gives.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ExperimentConfig
from .dpft import N_COMBINATIONS, sample_combination, separability_scores, update_probabilities
from .errors import ContractError
from .losses import orthogonality_loss, task_loss, total_loss
from .modalities import ALL_COMBINATIONS, FULL, INCOMPLETE_COMBINATIONS, MODALITIES, Combo
from .model import MculoraModel, Pooled, attach_adapters, build_model, encode, forward_batch, forward_pooled
from .rng import Rng
from .serialize import write_text
from .synthgen import Dataset, DatasetFile, apply_random_missing

_EVAL_POSITIONS = 2048  # rows x L read and encoded at a time: 256 rows at L = 8, 64 at L = 32
_HEAD_ROWS = 512  # test rows encoded and then run through the adapters, fusion and heads at a time
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator guard


class EpochRow(NamedTuple):
    """One epoch's mean losses and wallclock; its fields are the epoch log's columns."""
    epoch: int
    phase: str
    l_task: float
    l_ort: float
    l_total: float
    wallclock_ms: float


@dataclass
class ScheduleRow:
    """One finetune epoch's DPFT record: the separability scores, their change
    since the last epoch and the sampling probabilities after the update (the
    schedule log), and the probe's mean private/common cosine (the probe log)."""
    epoch: int
    scores: np.ndarray
    deltas: np.ndarray
    q: np.ndarray
    mean_cos: float


@dataclass
class TrainResult:
    model: MculoraModel
    epoch_rows: list[EpochRow] = field(default_factory=list)
    schedule_rows: list[ScheduleRow] = field(default_factory=list)


class Adam:
    """Adaptive-moment gradient step; parameters without a fresh gradient are skipped."""

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = dict(sorted(params.items()))
        self.lr = lr
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.t = {k: 0 for k in self.params}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self, where: str = "Adam") -> None:
        """One update of every parameter with a gradient; `where` names the
        training step in the error raised for a non-finite update."""
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            self.t[name] += 1
            t = self.t[name]
            self.m[name] = _BETA1 * self.m[name] + (1 - _BETA1) * g
            self.v[name] = _BETA2 * self.v[name] + (1 - _BETA2) * (g * g)
            m_hat = self.m[name] / (1 - _BETA1 ** t)
            v_hat = self.v[name] / (1 - _BETA2 ** t)
            updated = p.data - self.lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
            if not np.isfinite(updated).all():
                raise ContractError(f"{where}: update of parameter {name!r} is non-finite")
            p.data = updated


# ---------------------------------------------------------------------------
# training: one epoch loop for both phases
# ---------------------------------------------------------------------------

def _train(model: MculoraModel, labels: np.ndarray, cfg: ExperimentConfig, phase: str, epochs: int,
           draw, forward):
    """Adam steps on ``model.parameters(phase)``, each batch seen under the
    combination ``draw()`` returns when the batch starts; ``forward(idx,
    combo)`` is the forward pass on the training rows idx. Yields (epoch, mean
    (l_task, l_ort, l_total), epoch start time) after each epoch."""
    n = len(labels)
    if not n:
        raise ContractError(f"{phase}: the training split is empty")
    opt = Adam(model.parameters(phase), lr=cfg.learning_rate)
    order_rng = Rng(cfg.seed).child(f"{phase}-order")
    for epoch in range(1, epochs + 1):
        t0 = time.perf_counter()
        order = order_rng.permutation(n)
        sums = np.zeros(3)
        for step, start in enumerate(range(0, n, cfg.batch_size), start=1):
            idx = order[start:start + cfg.batch_size]
            combo = draw()
            where = f"{phase} epoch {epoch} step {step} combination {combo.name}"
            opt.zero_grad()
            with ad.Tape() as tape:
                out = forward(idx, combo)
                l_task = task_loss(out["y_last"], labels[idx])
                l_ort = orthogonality_loss(out["com_pooled"], {combo: out["prt_pooled"]}, out["enc_pooled"])
                l_tot = ad.check_finite(total_loss(l_task, l_ort, cfg.beta), f"{where}: loss")
            ad.gradients(l_tot, tape)
            opt.step(where)
            sums += (l_task.item(), l_ort.item(), l_tot.item())
        yield epoch, sums / step, t0


def pretrain(dataset, cfg: ExperimentConfig) -> TrainResult:
    """Train encoders + fusion + common head on complete data, then freeze encoders and fusion.

    `dataset` is a :class:`Dataset` or a :class:`~mculora.synthgen.DatasetFile`
    of the config's raw_dim and classes, the sizes of the model it builds.
    Each batch's rows are read just before its forward pass, so from a file
    pretrain holds its labels and one batch of rows, never the split."""
    cfg.validate()
    root = Rng(cfg.seed)
    model = build_model(cfg, root)
    result = TrainResult(model=model)
    dropout_rng = root.child("pretrain-dropout")

    def forward(idx, combo):  # the encoders train, so every batch runs both halves
        return forward_batch(model, {m: dataset.read(m, idx) for m in combo}, dropout_p=cfg.dropout,
                             dropout_rng=dropout_rng)
    for epoch, losses, t0 in _train(model, dataset.labels, cfg, "pretrain", cfg.pretrain_epochs, lambda: FULL,
                                    forward):
        result.epoch_rows.append(EpochRow(epoch, "pretrain", *losses, (time.perf_counter() - t0) * 1e3))
    model.freeze_base()
    model.phase = "pretrained"
    return result


def finetune(model: MculoraModel, dataset: Dataset | DatasetFile, cfg: ExperimentConfig,
             probe: Dataset | DatasetFile) -> TrainResult:
    """Fine-tune adapters/heads/gate of a pretrained model (:func:`attach_adapters`
    checks the phase) under scheduled incomplete batches, scoring every row of
    `probe` (the caller chooses them) after each epoch; a non-finite score or
    probe cosine raises :class:`ContractError` naming the epoch."""
    cfg.validate()
    root = Rng(cfg.seed)
    # scoring reads only the probe's sequence-mean raw rows
    probe_raw = _encode_rows(model, probe, 0, np.full(len(probe), FULL.mask)).raw
    attach_adapters(model, root.child("attach"), rank=cfg.rank, alpha=cfg.alpha, mcla=cfg.mcla)
    # the base is frozen: each training row goes through it once
    train = _encode_rows(model, dataset, 0, np.full(len(dataset), FULL.mask))
    q = np.full(N_COMBINATIONS, 1.0 / N_COMBINATIONS)
    samp_rng = root.child("combo-sampling")
    s_prev = np.zeros(N_COMBINATIONS)
    result = TrainResult(model=model)
    # the draw reads q when called, so each epoch samples from the latest update
    for epoch, losses, t0 in _train(model, dataset.labels, cfg, "finetune", cfg.finetune_epochs,
                                    lambda: sample_combination(q, samp_rng),
                                    lambda idx, combo: forward_pooled(model, train.rows(idx, combo))):
        scores, mean_cos = separability_scores(model, probe_raw)
        if not np.isfinite([*scores, mean_cos]).all():
            raise ContractError(f"finetune epoch {epoch}: the probe's separability scores or cosine are non-finite")
        deltas = scores - s_prev
        if cfg.dpft and model.has_adapters:
            q = update_probabilities(q, deltas, cfg)
        result.schedule_rows.append(ScheduleRow(epoch, scores, deltas, q, mean_cos))
        s_prev = scores
        result.epoch_rows.append(EpochRow(epoch, "finetune", *losses, (time.perf_counter() - t0) * 1e3))
    model.phase = "finetuned"
    return result


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

class Metrics(NamedTuple):
    """One row of a metrics table, in the document's column order."""
    acc: float
    f1: float
    wa: float
    ua: float


@dataclass
class MetricsRecord:
    """One evaluation's metrics table: row name -> metrics, in document order.
    The fixed protocol's rows are ``_ROW_ORDER``, its "average" row among
    them; the random protocol's one row is "random"."""
    protocol: str
    rows: dict[str, Metrics]


_ROW_ORDER = ["a", "t", "v", "av", "at", "tv", "average", "atv"]


def compute_metrics(preds, labels) -> Metrics:
    """ACC, macro-F1, WA and UA (mean per-class recall). WA, the frequency-weighted
    recall sum_c (support_c / n) * (tp_c / support_c) = sum_c tp_c / n, is ACC."""
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.size == 0 or preds.shape != labels.shape:
        raise ContractError(f"compute_metrics: need equal-length nonempty inputs, got {preds.shape} and {labels.shape}")
    acc = float(np.mean(preds == labels))
    recalls = [np.sum((preds == c) & (labels == c)) / np.sum(labels == c) for c in np.unique(labels)]
    ua = float(np.mean(recalls))
    f1s = []
    for c in np.unique(np.concatenate([labels, preds])):
        tp = float(np.sum((preds == c) & (labels == c)))
        fp = float(np.sum((preds == c) & (labels != c)))
        fn = float(np.sum((preds != c) & (labels == c)))
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0)
    return Metrics(acc=acc, f1=float(np.mean(f1s)), wa=acc, ua=ua)


# ---------------------------------------------------------------------------
# evaluation under missing-modality protocols
# ---------------------------------------------------------------------------

def _encode_rows(model: MculoraModel, dataset, start: int, need: np.ndarray) -> Pooled:
    """The rows start, start + 1, ... of `dataset` (a
    :class:`~mculora.synthgen.Dataset` or :class:`~mculora.synthgen.DatasetFile`),
    one per entry of `need`, through the frozen base: the one place rows are
    encoded off the tape.

    Row start + i is encoded once for each modality of the combination
    bitmask need[i], one chunk of at most ``_EVAL_POSITIONS`` positions
    (rows x L) and one modality at a time; a modality no row of a chunk
    needs is not read. Each call makes the result's arrays and then one set
    of buffers that every chunk reuses: a modality's rows as read, the rows
    that need it when not all do (made on first use), and the encoder's
    (rows x L, d) hidden and output arrays. Made after the result, the
    buffers once freed lie above the pooled rows the caller keeps (made
    before, they left holes that raised eval-long's whole-run peak).
    Finetune makes one set for its probe and one for its training rows, eval
    one per window. Only the pooled rows are kept; a row holds zeros for a
    modality it was not encoded for."""
    dims, seq_len = model.dims(), dataset.seq_len
    enc = {m: np.zeros((len(need), dims["model_dim"])) for m in MODALITIES}
    raw = {m: np.zeros((len(need), dims["raw_dim"])) for m in MODALITIES}
    step = max(1, _EVAL_POSITIONS // seq_len)
    rows = np.empty((step, seq_len, dims["raw_dim"]))
    picked = None
    work = tuple(np.empty((step * seq_len, dims["model_dim"])) for _ in range(2))
    for lo in range(0, len(need), step):
        hi = min(lo + step, len(need))
        for m in MODALITIES:
            at = np.nonzero(need[lo:hi] & Combo.from_modalities(m).mask)[0]
            if not at.size:
                continue
            x = dataset.read(m, slice(start + lo, start + hi), out=rows[:hi - lo])
            if at.size < hi - lo:
                if picked is None:
                    picked = np.empty_like(rows)
                x = np.take(x, at, axis=0, out=picked[:at.size], mode="clip")
            pooled = encode(model, {m: x}, work=work)
            enc[m][lo + at] = pooled.enc[m].data
            raw[m][lo + at] = pooled.raw[m]
            del pooled  # before the next chunk is encoded
    return Pooled({m: ad.constant(x) for m, x in enc.items()}, raw)


def predict_dataset(model: MculoraModel, dataset, masks: np.ndarray) -> np.ndarray:
    """Class predictions with row i seen under the combination of bitmask
    masks[..., i], in the shape of `masks`.

    `masks` holds one or more views of every row of `dataset`. The rows are
    taken one window of ``_HEAD_ROWS`` rows at a time: each row of the window
    is encoded once per modality that some view of it keeps (three times per
    row under the fixed protocol, only the modalities a row keeps under the
    random one) by one :func:`_encode_rows` call, whose buffers are freed
    before the window's rows of each view and combination run through the
    adapters, fusion and heads as one group, the arrays that set eval's heap
    peak. Only the predictions outlive the window.
    Non-finite logits raise :class:`ContractError` naming the combination."""
    views = masks.reshape(-1, len(dataset))
    need = np.bitwise_or.reduce(views, axis=0)
    preds = np.zeros(views.shape, dtype=np.int64)
    for lo in range(0, len(dataset), _HEAD_ROWS):
        pooled = _encode_rows(model, dataset, lo, need[lo:lo + _HEAD_ROWS])
        for view, pred in zip(views[:, lo:lo + _HEAD_ROWS], preds[:, lo:lo + _HEAD_ROWS]):
            for combo in ALL_COMBINATIONS:
                rows = np.nonzero(view == combo.mask)[0]
                if rows.size:
                    logits = ad.check_finite(forward_pooled(model, pooled.rows(rows, combo))["y_last"],
                                             f"eval combination {combo.name}: logits")
                    pred[rows] = np.argmax(logits.data, axis=1)
    return preds.reshape(masks.shape)


def evaluate(model: MculoraModel, dataset, protocol: str, cfg: ExperimentConfig) -> MetricsRecord:
    """Score a model on the test rows `dataset` (a :class:`Dataset` or a
    :class:`~mculora.synthgen.DatasetFile`, read one chunk at a time) under
    the fixed or random missing protocol."""
    n = len(dataset)
    if not n:
        raise ContractError("evaluate: empty dataset")
    if protocol == "fixed":
        preds = predict_dataset(model, dataset, np.array([[c.mask] for c in ALL_COMBINATIONS]).repeat(n, axis=1))
        rows = {c.name: compute_metrics(p, dataset.labels) for c, p in zip(ALL_COMBINATIONS, preds)}
        rows["average"] = Metrics(*map(float, np.mean([rows[c.name] for c in INCOMPLETE_COMBINATIONS], axis=0)))
        return MetricsRecord(protocol="fixed", rows={name: rows[name] for name in _ROW_ORDER})
    if protocol == "random":
        masks = apply_random_missing(n, (cfg.mask_lo, cfg.mask_hi), seed=cfg.eval_seed)
        preds = predict_dataset(model, dataset, masks)
        return MetricsRecord(protocol="random", rows={"random": compute_metrics(preds, dataset.labels)})
    raise ContractError(f"unknown protocol {protocol!r}, expected 'fixed' or 'random'")


# ---------------------------------------------------------------------------
# log and document formatting
# ---------------------------------------------------------------------------

def csv_text(header: list[str] | tuple[str, ...], rows) -> str:
    """The CSV lines of `header` and then each row, each line ending in a
    newline; a float cell (numpy's too) is its shortest round-tripping repr,
    any other cell its str()."""
    return "".join(",".join(repr(float(c)) if isinstance(c, (float, np.floating)) else str(c) for c in row) + "\n"
                   for row in [header, *rows])


def write_epoch_log(path, rows: list[EpochRow]) -> str:
    return write_text(path, csv_text(EpochRow._fields, rows))


def write_schedule_log(path, rows: list[ScheduleRow]) -> str:
    header = ["epoch", *(f"{kind}_{c.name}" for kind in ("s", "ds", "q") for c in ALL_COMBINATIONS)]
    return write_text(path, csv_text(header, [[r.epoch, *r.scores, *r.deltas, *r.q] for r in rows]))


def write_probe_log(path, rows: list[ScheduleRow]) -> str:
    return write_text(path, csv_text(["epoch", "mean_cos_prt_com"], [[r.epoch, r.mean_cos] for r in rows]))


_METRICS_HEADER = "# mculora metrics v1"
_METRICS_COLUMNS = ["condition", *Metrics._fields]


def format_metrics_document(record: MetricsRecord, config_echo: str, version: str) -> str:
    """Structured-text metrics table, its rows in the record's order, plus config echo and version string."""
    return (f"{_METRICS_HEADER}\nversion: {version}\nprotocol: {record.protocol}\nconfig: {config_echo}\n"
            + csv_text(_METRICS_COLUMNS, [[name, *m] for name, m in record.rows.items()]))


def parse_metrics_document(text: str) -> tuple[MetricsRecord, dict]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _METRICS_HEADER:
        raise ContractError("not a mculora metrics document")
    meta = {}
    idx = 1
    while idx < len(lines) and ":" in lines[idx] and not lines[idx].startswith("condition,"):
        key, _, val = lines[idx].partition(":")
        meta[key.strip()] = val.strip()
        idx += 1
    if idx >= len(lines) or lines[idx] != ",".join(_METRICS_COLUMNS):
        raise ContractError("metrics document lacks its table header")
    rows: dict[str, Metrics] = {}
    for ln in lines[idx + 1:]:
        name, *vals = ln.split(",")
        if len(vals) != len(Metrics._fields):
            raise ContractError(f"metrics row {ln!r} has {len(vals)} values, expected {len(Metrics._fields)}")
        rows[name] = Metrics(*(float(v) for v in vals))
    return MetricsRecord(protocol=meta.get("protocol", "?"), rows=rows), meta
