"""Dynamic combination scheduling (DPFT) driven by decoupling-progress scores.

The scheduler's state is two arrays over the 7 modality combinations in
canonical order, held by the fine-tuning loop: the sampling probabilities
``q`` (1/7 each at the start) and the previous epoch's scores (zeros at the
start). Its settings are the ``p_min``, ``p_max``, ``q_base``, ``lam`` and
``reduce_fast_learners`` fields of :class:`mculora.config.ExperimentConfig`.

Once per epoch, each combination gets a separability score: the un-halved
Jensen-Shannon divergence (range [0, 2 ln 2]) between the softmax-normalized
private and common adapter outputs, averaged over a fixed probe batch and
over the combination's modalities, and clamped at 0 against rounding. The
adapters read the probe's pooled rows (each sample's sequence-mean raw
features, computed once per fine-tuning run) off the tape. A large score
means the private adapter has moved far from the shared one: the combination
has extracted much characteristic information. The same pass gives the probe
log's mean cosine, over the 12 (combination, modality) pairs, of the
row-mean cosine between private and common adapter outputs.

Epoch-over-epoch score deltas rank the combinations by learning speed: the
larger the delta, the faster the learner, and of two equal deltas the one
earlier in canonical order counts as the slower learner. With the default
reduce_fast_learners=True the three fastest learners get their sampling
probability reduced, the three slowest increased, and the median one is
untouched, so batches shift toward the combinations still behind;
reduce_fast_learners=False inverts this. So all-equal deltas raise a, t and
v and lower at, tv and atv (the reverse when inverted). Each
adjustment has magnitude q_base * lam * sigmoid(delta), and probabilities
are clamped to [p_min, p_max] and normalized only at sampling time.

q stays uniform with ``dpft`` off, and for a model without adapters, which
has no private space to score: its seven scores and its mean cosine are 0.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .config import ExperimentConfig
from .errors import ContractError
from .modalities import ALL_COMBINATIONS, Combo
from .model import MculoraModel
from .rng import Rng

_LOG_EPS = 1e-12

N_COMBINATIONS = len(ALL_COMBINATIONS)


# ---------------------------------------------------------------------------
# divergence
# ---------------------------------------------------------------------------

def _js_rows(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Row-wise un-halved Jensen-Shannon divergence for (B, d) distribution
    matrices: symmetric, zero iff the rows are equal, at most 2 ln 2. A small
    epsilon inside the logs guards zero entries."""
    M = 0.5 * (P + Q)
    kl_pm = np.sum(P * np.log((P + _LOG_EPS) / (M + _LOG_EPS)), axis=1)
    kl_qm = np.sum(Q * np.log((Q + _LOG_EPS) / (M + _LOG_EPS)), axis=1)
    return kl_pm + kl_qm


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def separability_scores(model: MculoraModel, probe: dict[str, np.ndarray]) -> tuple[np.ndarray, float]:
    """The (7,) separability scores in canonical combination order and the
    mean cosine, as the module states, from one pass over the 15 adapter
    pairs on the probe's pooled rows (each modality's (n, D) sequence-mean
    raw rows)."""
    if not len(next(iter(probe.values()))):
        raise ContractError("separability_scores: the probe batch is empty")
    scores = np.zeros(N_COMBINATIONS)
    if not model.has_adapters:
        return scores, 0.0
    rows = {m: ad.constant(x) for m, x in probe.items()}
    com = {m: model.adapter(m, None).apply(rows[m]) for m in rows}
    com_dist = {m: ad.softmax(com[m], axis=1).data for m in rows}
    cosines = []
    for idx, combo in enumerate(ALL_COMBINATIONS):
        divergences = []
        for m in combo:
            prt = model.adapter(m, combo).apply(rows[m])
            divergences.append(_js_rows(ad.softmax(prt, axis=1).data, com_dist[m]).mean())
            cosines.append(ad.row_cosine(com[m], prt).data.mean())
        scores[idx] = np.mean(divergences)
    return np.maximum(scores, 0.0), float(np.mean(cosines))


# ---------------------------------------------------------------------------
# probability updates
# ---------------------------------------------------------------------------

def _sigmoid(x: np.ndarray) -> np.ndarray:
    # scalar math per element: adjustment magnitudes must equal the scalar
    # definition q_base * lambda * sigmoid(delta) bit for bit, and score
    # deltas are bounded by the JS range so overflow is not a concern
    return np.array([1.0 / (1.0 + math.exp(-min(max(xi, -500.0), 500.0))) for xi in x])


def schedule_deltas(delta_s: np.ndarray, cfg: ExperimentConfig) -> np.ndarray:
    """Signed pre-clamp probability adjustments for each combination, ranked
    by score delta as the module states."""
    order = np.argsort(delta_s, kind="stable")  # ascending progress
    if not cfg.reduce_fast_learners:
        order = order[::-1]
    idx_of = np.empty(N_COMBINATIONS, dtype=np.int64)
    idx_of[order] = np.arange(1, N_COMBINATIONS + 1)  # 1-based rank
    threshold = (N_COMBINATIONS + 1) // 2  # median rank of 7 -> 4
    magnitude = np.abs(cfg.q_base * cfg.lam * _sigmoid(delta_s))
    deltas = np.where(idx_of > threshold, -magnitude, magnitude)
    deltas[idx_of == threshold] = 0.0
    return deltas


def update_probabilities(q: np.ndarray, delta_s: np.ndarray, cfg: ExperimentConfig) -> np.ndarray:
    """Apply ranked adjustments to `q` and clamp each probability to [p_min, p_max]."""
    return np.clip(q + schedule_deltas(delta_s, cfg), cfg.p_min, cfg.p_max)


def sample_combination(q: np.ndarray, rng: Rng) -> Combo:
    """Categorical draw proportional to q (normalized at draw time)."""
    return ALL_COMBINATIONS[rng.categorical(q)]
