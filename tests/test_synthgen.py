import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mculora import synthgen
from mculora.config import ExperimentConfig
from mculora.errors import ConfigError, ContractError
from mculora.modalities import FULL, MODALITIES, Combo
from mculora.rng import Rng, derive_seed
from mculora.serialize import load_container
from mculora.synthgen import (
    _PAIR_NOISE,
    _PAIRS,
    _PRIVATE_JITTER,
    _SHARED_JITTER,
    Dataset,
    _class_anchors,
    _pair_bit,
    _unit_columns,
    apply_random_missing,
    generate_dataset,
    save_dataset,
    split_dataset,
)

from conftest import lstsq_probe_accuracy, read_dataset


def pooled(dataset, modality):
    return dataset.features[modality].mean(axis=1)


def labels_of(dataset):
    return dataset.labels.astype(np.int64)


def combos(masks):
    return [Combo(int(k)) for k in masks]


def synth(seed, **fields):
    """(config, dataset) of the generator fields given, drawn from the stream Rng(seed)."""
    cfg = ExperimentConfig(**fields)
    return cfg, generate_dataset(cfg, Rng(seed))


def reference_generate(cfg: ExperimentConfig, seed: int):
    """The generator one sample at a time: (per-modality (N, L, D) features, labels)."""
    root = Rng(seed)
    geom = root.child("geometry")
    shared_anchors = _class_anchors(cfg.classes, cfg.shared_dim, geom.child("shared"))
    private_anchors = {
        m: _class_anchors(cfg.classes, cfg.private_dim, geom.child(f"private-{m}"))[
            geom.child(f"private-perm-{m}").permutation(cfg.classes)
        ]
        for m in MODALITIES
    }
    shared_proj = {m: _unit_columns(geom.child(f"proj-shared-{m}"), cfg.raw_dim, cfg.shared_dim) for m in MODALITIES}
    private_proj = {m: _unit_columns(geom.child(f"proj-private-{m}"), cfg.raw_dim, cfg.private_dim) for m in MODALITIES}
    pair_dirs = {
        (m1, m2): (
            _unit_columns(geom.child(f"pair-{m1}{m2}-lead"), cfg.raw_dim, 1)[:, 0],
            _unit_columns(geom.child(f"pair-{m1}{m2}-follow"), cfg.raw_dim, 1)[:, 0],
        )
        for (m1, m2) in _PAIRS
    }

    samples = root.child("samples")
    n, L, D = cfg.num_samples, cfg.seq_len, cfg.raw_dim
    shared_noise = samples.child("shared").normal(size=(n, cfg.shared_dim))
    private_noise = {m: samples.child(f"private-{m}").normal(size=(n, cfg.private_dim)) for m in MODALITIES}
    pair_noise = {p: samples.child(f"pair-{p[0]}{p[1]}").normal(0.0, _PAIR_NOISE, size=n) for p in _PAIRS}
    feature_noise = {m: samples.child(f"noise-{m}").normal(size=(n, L, D)) for m in MODALITIES}

    features = {m: [] for m in MODALITIES}
    labels = []
    for i in range(n):
        label = i % cfg.classes
        z_shared = shared_anchors[label] + _SHARED_JITTER * shared_noise[i]
        base = {}
        for m in MODALITIES:
            vec = cfg.shared_strength * (shared_proj[m] @ z_shared)
            z_m = private_anchors[m][label] + _PRIVATE_JITTER * private_noise[m][i]
            vec = vec + cfg.private_strength * (private_proj[m] @ z_m)
            base[m] = vec
        for j, (lead_m, partner_m) in enumerate(_PAIRS):
            eps = pair_noise[(lead_m, partner_m)][i]
            h = _pair_bit(label, j)
            lead, follow = pair_dirs[(lead_m, partner_m)]
            base[lead_m] = base[lead_m] + cfg.pair_interaction_strength * (h + eps) * lead
            base[partner_m] = base[partner_m] + cfg.pair_interaction_strength * eps * follow
        for m in MODALITIES:
            features[m].append(base[m][None, :] + cfg.noise_std * feature_noise[m][i])
        labels.append(label)
    return {m: np.stack(rows) for m, rows in features.items()}, np.array(labels, dtype=np.float64)


def reference_random_combos(n, mask_prob_range, seed):
    """The random protocol one sample at a time, on Combo objects: the
    modalities not dropped, or, where all three were, the one retained. The
    draws come from the protocol's stream in its order: the drop
    probabilities, the drop draws, then the retained modality."""
    rng = Rng(seed).child("random-missing")
    probs = rng.uniform(*mask_prob_range, size=(n, len(MODALITIES)))
    dropped = rng.uniform(size=(n, len(MODALITIES))) < probs
    retained = rng.integers(0, len(MODALITIES), size=n)
    out = []
    for before, keep in zip(dropped, retained):
        kept = [m for k, m in enumerate(MODALITIES) if not before[k]] if not before.all() else [MODALITIES[keep]]
        out.append(Combo.from_modalities(kept))
    return out


def test_cardinality_and_label_range():
    ds = synth(1, num_samples=1000, classes=4)[1]
    assert len(ds) == 1000
    labels = labels_of(ds)
    assert labels.min() >= 0 and labels.max() < 4


def test_generation_is_deterministic():
    cfg = ExperimentConfig(num_samples=64)
    a = generate_dataset(cfg, Rng(66))
    b = generate_dataset(cfg, Rng(66))
    assert np.array_equal(a.labels, b.labels)
    for m in MODALITIES:
        assert np.array_equal(a.features[m], b.features[m])


def test_generator_matches_per_sample_reference_bitwise():
    cfg, ds = synth(21, num_samples=37, seq_len=5, raw_dim=7, classes=5, shared_dim=3, private_dim=2)
    features, labels = reference_generate(cfg, 21)
    assert ds.labels.tobytes() == labels.tobytes()
    for m in MODALITIES:
        assert ds.features[m].tobytes() == features[m].tobytes(), m


def test_shared_signal_alone_is_linearly_decodable_from_each_modality():
    # independent least-squares probe oracle: the label is a deterministic
    # function of the shared latent planted in every modality
    cfg, ds = synth(
        3,
        num_samples=400,
        shared_strength=1.0,
        private_strength=0.0,
        pair_interaction_strength=0.0,
        noise_std=0.0,
    )
    labels = labels_of(ds)
    for m in MODALITIES:
        acc = lstsq_probe_accuracy(pooled(ds, m), labels, cfg.classes)
        assert acc >= 0.95, f"modality {m} probe accuracy {acc:.3f}"


def test_label_marginals_are_stratified():
    counts = np.bincount(labels_of(synth(5, num_samples=10_000, classes=4)[1]), minlength=4)
    assert np.all(np.abs(counts / 10_000 - 0.25) <= 0.05 * 0.25)


def test_random_missing_keeps_at_least_one_modality():
    masks = apply_random_missing(200, (1.0, 1.0), seed=7)
    assert masks.shape == (200,) and all(len(c) >= 1 for c in combos(masks))


def test_invalid_config_rejected():
    with pytest.raises(ConfigError, match="num_samples"):
        ExperimentConfig(num_samples=0).validate()
    with pytest.raises(ConfigError, match="classes"):
        ExperimentConfig(classes=1).validate()
    with pytest.raises(ConfigError, match="noise_std"):
        ExperimentConfig(noise_std=-0.1).validate()


# ---------------------------------------------------------------------------
# random missing protocol
# ---------------------------------------------------------------------------

def test_random_missing_zero_probability_drops_nothing():
    assert combos(apply_random_missing(32, (0.0, 0.0), seed=4)) == [FULL] * 32


def test_random_missing_certain_drop_leaves_exactly_one_modality():
    assert all(len(c) == 1 for c in combos(apply_random_missing(64, (1.0, 1.0), seed=4)))


def test_random_missing_empirical_drop_rate_monte_carlo():
    # each modality drops with mean probability 0.5, so all three drop with probability 0.5**3 = 0.125, and
    # retention then keeps each modality in a third of those: its drop rate after retention is 0.5 - 0.125/3
    masks = apply_random_missing(10_000, (0.4, 0.6), seed=66)
    assert np.all(masks != 0)
    rates = np.array([np.mean((masks & Combo.from_modalities(m).mask) == 0) for m in MODALITIES])
    # seeds 1-9 and 66 gave 0.446-0.467; the binomial spread on 10,000 samples is 0.005
    assert np.all(np.abs(rates - (0.5 - 0.125 / 3)) <= 0.025), rates


def test_random_missing_is_deterministic_given_seed():
    m1 = apply_random_missing(128, (0.4, 0.6), seed=66)
    m2 = apply_random_missing(128, (0.4, 0.6), seed=66)
    assert np.array_equal(m1, m2)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), lo=st.floats(0.0, 1.0), width=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_random_missing_matches_per_sample_rule(n, lo, width, seed):
    hi = min(1.0, lo + width)
    masks = apply_random_missing(n, (lo, hi), seed=seed)
    assert masks.shape == (n,) and ((1 <= masks) & (masks <= 7)).all()
    assert combos(masks) == reference_random_combos(n, (lo, hi), seed)


def test_dataset_needs_three_features_of_one_shape_and_matching_labels():
    # every sample holds all three modalities, each of one (N, L, D) shape
    features, labels = {m: np.zeros((2, 2, 3)) for m in MODALITIES}, np.zeros(2)
    assert len(Dataset(features, labels)) == 2
    with pytest.raises(ContractError):
        Dataset(features={"a": np.zeros((2, 2, 3))}, labels=labels)
    with pytest.raises(ContractError):
        Dataset(features=features, labels=labels[:1])
    with pytest.raises(ContractError):
        Dataset(features={**features, "t": np.zeros((2, 2, 4))}, labels=labels)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_dataset_roundtrip_is_bitwise(tmp_path):
    cfg = ExperimentConfig(num_samples=40, seed=11)
    path = tmp_path / "data.mcu"
    save_dataset(path, cfg)
    loaded = read_dataset(path)
    # the header records the 10 generator fields and seed (11 keys), seed being that of the default data stream
    generator_fields = ("num_samples", "seq_len", "raw_dim", "classes", "shared_dim", "private_dim", "shared_strength",
                        "private_strength", "pair_interaction_strength", "noise_std")
    header = load_container(path, expected_kind="dataset")[1]["config"]
    assert header == {**{k: getattr(cfg, k) for k in generator_fields}, "seed": derive_seed(cfg.seed, "data")}
    # ... the stream that drew the file: the header's seed regenerates it
    ds = generate_dataset(cfg, Rng(header["seed"]))
    assert len(loaded) == len(ds)
    assert load_container(path)[2].keys() == {"features_a", "features_t", "features_v", "labels"}
    for got, want in [(loaded.labels, ds.labels),
                      *[(loaded.features[m], ds.features[m]) for m in MODALITIES]]:
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_dataset_file_bytes_are_reproducible(tmp_path):
    cfg = ExperimentConfig(num_samples=16, seed=12)
    p1, p2 = tmp_path / "a.mcu", tmp_path / "b.mcu"
    save_dataset(p1, cfg)
    save_dataset(p2, cfg)
    assert p1.read_bytes() == p2.read_bytes()


def test_dataset_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch):
    cfg = ExperimentConfig(num_samples=300, seq_len=4, raw_dim=8, seed=14)
    want = generate_dataset(cfg)
    digests = []
    # one row per block; blocks of 7 rows, the last of 6; the default, 256 rows, the last of 44
    for positions in (cfg.seq_len, 7 * cfg.seq_len, synthgen._BLOCK_POSITIONS):
        monkeypatch.setattr(synthgen, "_BLOCK_POSITIONS", positions)
        path = tmp_path / f"b{positions}.mcu"
        digests.append(save_dataset(path, cfg))
        got = read_dataset(path)
        for m in MODALITIES:  # Philox draws in consecutive blocks continue one stream
            assert got.features[m].tobytes() == want.features[m].tobytes(), (positions, m)
        assert got.labels.tobytes() == want.labels.tobytes()
    assert len(set(digests)) == 1


def test_save_dataset_holds_one_feature_array_at_a_time(tmp_path):
    cfg = ExperimentConfig(num_samples=2000, seq_len=8, raw_dim=16)
    feature_bytes = cfg.num_samples * cfg.seq_len * cfg.raw_dim * 8
    save_dataset(tmp_path / "warm.mcu", ExperimentConfig(num_samples=4, seq_len=2))  # first-call imports
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        save_dataset(tmp_path / "d.mcu", cfg)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # features are drawn and written a block of rows at a time: not even one whole array is alive
    assert peak < feature_bytes


def test_generator_builds_the_base_rows_in_place():
    # the three (N, D) base rows that the blocks read, one (N, D) temporary and the narrow latents: 4.7
    # arrays at N = 3000, D = 16, against 6.7 for a build from whole-array sums
    cfg = ExperimentConfig(num_samples=3000)
    array_bytes = cfg.num_samples * cfg.raw_dim * 8
    synthgen._generator(ExperimentConfig(num_samples=4, seq_len=2), None)  # first-call imports
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        synthgen._generator(cfg, None)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * array_bytes, peak / array_bytes


def test_split_is_contiguous_and_balanced():
    ds = synth(13, num_samples=200, classes=4)[1]
    train, val, test = split_dataset(ds, 0.7, 0.15)
    assert len(train) == 140 and len(val) == 30 and len(test) == 30
    assert all(np.shares_memory(part.features[m], ds.features[m]) for part in (train, val, test) for m in MODALITIES)
    counts = np.bincount(labels_of(train), minlength=4)
    assert counts.max() - counts.min() <= 1

