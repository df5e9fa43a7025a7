import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mculora.config import ExperimentConfig
from mculora.dpft import (
    _js_rows,
    sample_combination,
    schedule_deltas,
    separability_scores,
    update_probabilities,
)
from mculora.errors import ConfigError, ContractError
from mculora.modalities import ALL_COMBINATIONS, MODALITIES
from mculora.model import attach_adapters, build_model
from mculora.rng import Rng
from mculora.synthgen import generate_dataset

from conftest import js_oracle

UNIFORM = np.full(7, 1.0 / 7.0)
CFG = ExperimentConfig()


def random_distribution(rng, n):
    v = rng.uniform(0.01, 1.0, size=n)
    return v / v.sum()


def js_divergence(p, q):
    """The row-wise divergence on one pair of distributions."""
    return float(_js_rows(np.array([p], dtype=np.float64), np.array([q], dtype=np.float64))[0])


# ---------------------------------------------------------------------------
# js divergence
# ---------------------------------------------------------------------------

def test_js_identical_distributions_zero():
    assert js_divergence([0.3, 0.7], [0.3, 0.7]) == pytest.approx(0.0, abs=1e-12)


def test_js_disjoint_support_is_two_ln_two():
    assert js_divergence([1.0, 0.0], [0.0, 1.0]) == pytest.approx(2.0 * math.log(2.0), abs=1e-9)


def test_js_half_half_vs_point_mass_oracle():
    val = js_divergence([0.5, 0.5], [1.0, 0.0])
    assert val == pytest.approx(0.43152, abs=1e-5)
    assert val == pytest.approx(js_oracle([0.5, 0.5], [1.0, 0.0]), abs=1e-12)


def test_js_matches_term_by_term_oracle_on_random_pairs():
    rng = Rng(41)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        p = random_distribution(rng, n)
        q = random_distribution(rng, n)
        assert js_divergence(p, q) == pytest.approx(js_oracle(p, q), abs=1e-10)


def test_js_symmetry_and_range():
    rng = Rng(42)
    for _ in range(100):
        p = random_distribution(rng, 6)
        q = random_distribution(rng, 6)
        d_pq = js_divergence(p, q)
        d_qp = js_divergence(q, p)
        assert abs(d_pq - d_qp) <= 1e-12
        assert -1e-12 <= d_pq <= 2.0 * math.log(2.0) + 1e-9


# ---------------------------------------------------------------------------
# separability scores
# ---------------------------------------------------------------------------

def probe_model(seed=0, mcla=True):
    model = build_model(ExperimentConfig(model_dim=8, classes=3, rank=2), 6, Rng(seed))
    model.phase = "pretrained"
    model.freeze_base()
    attach_adapters(model, Rng(seed + 1), 2, mcla=mcla)
    return model


def private_pairs(model, m):
    """Modality m's private adapter pairs, one per combination containing it, through the model's lookup."""
    return [model.adapter(m, c) for c in ALL_COMBINATIONS if m in c]


def probe_batch(n=12, seed=5):
    cfg = ExperimentConfig(num_samples=n, raw_dim=6, seq_len=3, classes=3)
    return generate_dataset(cfg, Rng(seed))


def pooled(batch):
    """The probe rows the scores read: each sample's sequence-mean raw features."""
    return {m: x.mean(axis=1) for m, x in batch.features.items()}


def scores_of(model, batch):
    return separability_scores(model, pooled(batch))[0]


def test_untrained_adapters_score_zero():
    scores, mean_cos = separability_scores(probe_model(), pooled(probe_batch()))
    assert np.allclose(scores, 0.0, atol=1e-12)
    assert mean_cos == 0.0  # zero up-projections: every output is degenerate, whose cosine is 0


def test_private_equal_to_common_scores_zero():
    model = probe_model(seed=2)
    rng = Rng(9)
    for m in MODALITIES:
        common = model.adapter(m, None)
        common.A.data = rng.normal(size=common.A.shape)
        common.B.data = rng.normal(size=common.B.shape)
        for pair in private_pairs(model, m):
            pair.A.data = common.A.data.copy()
            pair.B.data = common.B.data.copy()
    scores = scores_of(model, probe_batch())
    assert np.allclose(scores, 0.0, atol=1e-12)


def test_scores_match_per_sample_brute_force():
    model = probe_model(seed=3)
    rng = Rng(10)
    for m in MODALITIES:
        common = model.adapter(m, None)
        common.B.data = rng.normal(size=common.B.shape)
        for pair in private_pairs(model, m):
            pair.B.data = rng.normal(size=pair.B.shape)
    batch = probe_batch(n=6, seed=6)
    scores, mean_cos = separability_scores(model, pooled(batch))

    def softmax(v):
        e = np.exp(v - v.max())
        return e / e.sum()

    cosines = []
    for idx, combo in enumerate(ALL_COMBINATIONS):
        acc = []
        for m in combo:
            per_sample = []
            for x in batch.features[m]:
                prt_pair, com_pair = model.adapter(m, combo), model.adapter(m, None)
                prt = (prt_pair.alpha * prt_pair.B.data @ prt_pair.A.data @ x.T).T.mean(axis=0)
                com = (com_pair.alpha * com_pair.B.data @ com_pair.A.data @ x.T).T.mean(axis=0)
                per_sample.append(js_oracle(softmax(prt), softmax(com)))
                cosines.append(float(prt @ com) / math.sqrt(float(prt @ prt) * float(com @ com)))
            acc.append(np.mean(per_sample))
        assert scores[idx] == pytest.approx(float(np.mean(acc)), abs=1e-10)
    # the same pass gives the mean over (combination, modality, sample) of the private-common cosine
    assert mean_cos == pytest.approx(float(np.mean(cosines)), abs=1e-12)


def test_scores_deterministic_and_validate_probe():
    model = probe_model(seed=4)
    batch = probe_batch(n=8, seed=7)
    s1 = separability_scores(model, pooled(batch))
    s2 = separability_scores(model, pooled(batch))
    assert np.array_equal(s1[0], s2[0]) and s1[1] == s2[1]
    with pytest.raises(ContractError):
        separability_scores(model, pooled(batch[:0]))


def test_adapter_free_scores_are_defined_and_zero_for_full_set():
    # without adapter banks there is no private space to score: all seven are 0
    scores, mean_cos = separability_scores(probe_model(seed=5, mcla=False), pooled(probe_batch(n=8, seed=8)))
    assert np.array_equal(scores, np.zeros(7)) and mean_cos == 0.0


# ---------------------------------------------------------------------------
# probability updates
# ---------------------------------------------------------------------------

# score deltas drawn partly from a small pool, so that ties are common
DELTAS = st.lists(st.one_of(st.sampled_from([-1.0, -0.25, 0.0, 0.25, 1.0]),
                            st.floats(-5.0, 5.0, allow_nan=False)), min_size=7, max_size=7).map(np.array)
FLIPPED = ExperimentConfig(reduce_fast_learners=False)


def ranks(ds):
    """1-based rank of each combination, ascending in delta, ties by index."""
    return {i: pos + 1 for pos, i in enumerate(sorted(range(7), key=lambda i: (ds[i], i)))}


@given(ds=DELTAS)
def test_lambda_to_zero_keeps_q_unchanged(ds):
    out = update_probabilities(UNIFORM, ds, ExperimentConfig(lam=1e-12))
    assert np.allclose(out, UNIFORM, atol=1e-10)


@given(q=st.lists(st.floats(CFG.p_min, CFG.p_max), min_size=7, max_size=7).map(np.array),
       steps=st.lists(DELTAS, min_size=1, max_size=20), reduce=st.booleans())
def test_updates_respect_clamp_bounds(q, steps, reduce):
    cfg = CFG if reduce else FLIPPED
    for ds in steps:
        q = update_probabilities(q, ds, cfg)
        assert np.all(q >= cfg.p_min) and np.all(q <= cfg.p_max)


@given(ds=DELTAS)
def test_delta_signs_and_magnitudes_against_rank_oracle(ds):
    deltas = schedule_deltas(ds, CFG)
    # independent scalar recomputation of the rank rule
    rank = ranks(ds)
    for i in range(7):
        mag = CFG.q_base * CFG.lam * (1.0 / (1.0 + math.exp(-ds[i])))
        assert deltas[i] == (0.0 if rank[i] == 4 else -mag if rank[i] > 4 else mag)


@given(ds=DELTAS, reduce=st.booleans())
def test_median_ranked_combination_is_untouched(ds, reduce):
    median = next(i for i, r in ranks(ds).items() if r == 4)
    cfg = CFG if reduce else FLIPPED
    assert schedule_deltas(ds, cfg)[median] == 0.0
    assert update_probabilities(UNIFORM, ds, cfg)[median] == UNIFORM[median]


@given(ds=DELTAS)
def test_monotone_sign_rule(ds):
    deltas = schedule_deltas(ds, CFG)
    order = np.argsort(ds, kind="stable")
    slow_half, fast_half = order[:3], order[4:]
    assert np.all(deltas[slow_half] >= 0.0)
    assert np.all(deltas[fast_half] <= 0.0)


@given(ds=DELTAS)
def test_direction_flag_inverts_the_rule(ds):
    assert np.array_equal(schedule_deltas(ds, FLIPPED), -schedule_deltas(ds, CFG))


@given(ds=DELTAS)
def test_equal_deltas_rank_by_index(ds):
    # of two combinations with equal deltas, the lower index ranks as the slower learner
    deltas = schedule_deltas(ds, CFG)
    for i in range(7):
        for j in range(i + 1, 7):
            if ds[i] == ds[j]:
                assert deltas[i] >= deltas[j]
    mag = CFG.q_base * CFG.lam * 0.5
    assert np.array_equal(schedule_deltas(np.zeros(7), CFG), [mag, mag, mag, 0.0, -mag, -mag, -mag])


def test_schedule_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(p_min=0.5, p_max=0.1).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(q_base=1.5).validate()


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sampling_matches_normalized_weights():
    q = np.full(7, 0.05)
    q[2] = 0.5
    rng = Rng(66)
    draws = np.array([ALL_COMBINATIONS.index(sample_combination(q, rng)) for _ in range(100_000)])
    freq = np.bincount(draws, minlength=7) / draws.size
    expected = 0.5 / (0.5 + 6 * 0.05)
    assert abs(freq[2] - expected) <= 0.01


def test_uniform_sampling_is_uniform():
    rng = Rng(67)
    draws = np.array([ALL_COMBINATIONS.index(sample_combination(UNIFORM, rng)) for _ in range(100_000)])
    freq = np.bincount(draws, minlength=7) / draws.size
    assert np.all(np.abs(freq - 1.0 / 7.0) <= 0.01)


def test_sampling_deterministic_given_seed():
    d1 = [sample_combination(UNIFORM, Rng(66).child("draws")) for _ in range(1)]
    r1, r2 = Rng(66), Rng(66)
    seq1 = [sample_combination(UNIFORM, r1) for _ in range(200)]
    seq2 = [sample_combination(UNIFORM, r2) for _ in range(200)]
    assert seq1 == seq2
