"""Dynamic combination scheduling driven by decoupling-progress scores.

Once per epoch, each of the 7 modality combinations gets a separability
score: the Jensen-Shannon divergence (un-halved form, so the range is
[0, 2 ln 2]) between the softmax-normalized pooled private and common adapter
representations, averaged over a fixed probe batch and over the modalities in
the combination. A large score means the private adapter has moved far from
the shared one, i.e. the combination has extracted a lot of characteristic
information.

Epoch-over-epoch score deltas rank the combinations in descending order
(rank 1 = fastest-rising score). With the default reduce_fast_learners=True
the top half - the fast learners, whose private space pulls away from the
shared one fastest - gets its sampling probability reduced, the bottom half
increased, and the median-ranked combination is untouched, so batches shift
toward the combinations still behind. reduce_fast_learners=False inverts
this. Each adjustment has magnitude q_base * lambda * sigmoid(delta), and
probabilities are clamped to [p_min, p_max]. Probabilities are normalized
only at sampling time.

For models trained without adapter banks the per-modality score is undefined;
as a stand-in, the score is the divergence between the fused token
distribution under the combination and under the full modality set, and the
same rule reads it: the combinations furthest from the full set count as fast
learners and are sampled less. Without adapters only the common head trains,
and the stand-in does not read it, so only the first update (from the
all-zero initial scores) depends on the stand-in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError
from .modalities import ALL_COMBINATIONS, Combo
from .model import MculoraModel, forward_batch
from .rng import Rng
from .synthgen import Dataset

_LOG_EPS = 1e-12

N_COMBINATIONS = len(ALL_COMBINATIONS)


@dataclass
class SeparabilityVector:
    """Per-combination decoupling scores for one epoch (canonical order)."""

    values: np.ndarray
    epoch: int

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (N_COMBINATIONS,):
            raise ContractError(f"expected {N_COMBINATIONS} scores, got shape {self.values.shape}")
        if (self.values < 0).any():
            raise ContractError("separability scores must be nonnegative")


@dataclass(frozen=True)
class CombinationSchedule:
    """Sampling probabilities plus the update hyperparameters."""

    q: np.ndarray
    p_min: float = 0.05
    p_max: float = 0.5
    q_base: float = 0.1
    lam: float = 1.0
    reduce_fast_learners: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", np.asarray(self.q, dtype=np.float64))
        if self.q.shape != (N_COMBINATIONS,):
            raise ContractError(f"schedule needs {N_COMBINATIONS} probabilities, got {self.q.shape}")
        if not (0.0 < self.p_min < self.p_max < 1.0):
            raise ContractError(f"need 0 < p_min < p_max < 1, got [{self.p_min}, {self.p_max}]")
        if not (0.0 < self.q_base < 1.0):
            raise ContractError(f"q_base must be in (0, 1), got {self.q_base}")
        if self.lam <= 0.0:
            raise ContractError(f"lambda must be > 0, got {self.lam}")
        if ((self.q < self.p_min - 1e-12) | (self.q > self.p_max + 1e-12)).any():
            raise ContractError("probabilities must start within [p_min, p_max]")


def uniform_schedule(p_min: float = 0.05, p_max: float = 0.5, q_base: float = 0.1,
                     lam: float = 1.0, reduce_fast_learners: bool = True) -> CombinationSchedule:
    return CombinationSchedule(np.full(N_COMBINATIONS, 1.0 / N_COMBINATIONS),
                               p_min=p_min, p_max=p_max, q_base=q_base, lam=lam,
                               reduce_fast_learners=reduce_fast_learners)


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


def _softmax_rows(X: np.ndarray) -> np.ndarray:
    e = np.exp(X - X.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def separability_scores(model: MculoraModel, probe_batch: Dataset, epoch: int = 0) -> SeparabilityVector:
    """Score each combination's decoupling degree on an all-modalities probe batch."""
    probe_batch.require_complete("separability_scores probe batch")
    feats = probe_batch.features
    scores = np.zeros(N_COMBINATIONS)
    if model.cfg.mcla and model.adapters is not None:
        pooled_com = {m: model.adapters[m].common.pooled_map(feats[m]) for m in feats}
        for idx, combo in enumerate(ALL_COMBINATIONS):
            per_mod = []
            for m in combo:
                prt = model.adapters[m].private_pair(combo).pooled_map(feats[m])
                div = _js_rows(_softmax_rows(prt), _softmax_rows(pooled_com[m]))
                per_mod.append(div.mean())
            scores[idx] = float(np.mean(per_mod))
    else:
        # adapter-free fallback: compare each combination's fused token
        # distribution against the full-modality one
        full_tok = forward_batch(model, feats)["fused_com"].data
        full_dist = _softmax_rows(full_tok)
        for idx, combo in enumerate(ALL_COMBINATIONS):
            sub = {m: feats[m] for m in combo}
            tok = forward_batch(model, sub)["fused_com"].data
            scores[idx] = float(_js_rows(_softmax_rows(tok), full_dist).mean())
    return SeparabilityVector(values=scores, epoch=epoch)


def score_delta(s_prev: SeparabilityVector | np.ndarray, s_next: SeparabilityVector | np.ndarray) -> np.ndarray:
    """Elementwise difference between consecutive score vectors."""
    prev = s_prev.values if isinstance(s_prev, SeparabilityVector) else np.asarray(s_prev, dtype=np.float64)
    nxt = s_next.values if isinstance(s_next, SeparabilityVector) else np.asarray(s_next, dtype=np.float64)
    if prev.shape != nxt.shape:
        raise ContractError(f"score vectors differ in length: {prev.shape} vs {nxt.shape}")
    return nxt - prev


def initial_scores() -> SeparabilityVector:
    """Scores before any training: all zero."""
    return SeparabilityVector(np.zeros(N_COMBINATIONS), epoch=0)


# ---------------------------------------------------------------------------
# probability updates
# ---------------------------------------------------------------------------

def _sigmoid(x: np.ndarray) -> np.ndarray:
    # scalar math per element: adjustment magnitudes must equal the scalar
    # definition q_base * lambda * sigmoid(delta) bit for bit, and score
    # deltas are bounded by the JS range so overflow is not a concern
    return np.array([1.0 / (1.0 + math.exp(-min(max(xi, -500.0), 500.0))) for xi in x])


def schedule_deltas(sched: CombinationSchedule, delta_s: np.ndarray) -> np.ndarray:
    """Signed pre-clamp probability adjustments for each combination.

    Combinations are ranked by their score delta (ties broken by index).
    With reduce_fast_learners, the top half of progress is decremented and the
    bottom half incremented; the median-ranked combination is left unchanged.
    Magnitudes are q_base * lambda * sigmoid(delta_i).
    """
    delta_s = np.asarray(delta_s, dtype=np.float64)
    if delta_s.shape != (N_COMBINATIONS,):
        raise ContractError(f"expected {N_COMBINATIONS} score deltas, got shape {delta_s.shape}")
    order = np.argsort(delta_s, kind="stable")  # ascending progress
    if not sched.reduce_fast_learners:
        order = order[::-1]
    idx_of = np.empty(N_COMBINATIONS, dtype=np.int64)
    idx_of[order] = np.arange(1, N_COMBINATIONS + 1)  # 1-based rank
    threshold = (N_COMBINATIONS + 1) // 2  # median rank of 7 -> 4
    magnitude = np.abs(sched.q_base * sched.lam * _sigmoid(delta_s))
    deltas = np.where(idx_of > threshold, -magnitude, magnitude)
    deltas[idx_of == threshold] = 0.0
    return deltas


def update_probabilities(sched: CombinationSchedule, delta_s: np.ndarray) -> CombinationSchedule:
    """Apply ranked adjustments and clamp each probability to [p_min, p_max]."""
    q = np.clip(sched.q + schedule_deltas(sched, delta_s), sched.p_min, sched.p_max)
    return replace(sched, q=q)


def sample_combination(sched: CombinationSchedule, rng: Rng) -> Combo:
    """Categorical draw proportional to q (normalized at draw time)."""
    return ALL_COMBINATIONS[rng.categorical(sched.q)]
