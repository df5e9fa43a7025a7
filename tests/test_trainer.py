import dataclasses
import tracemalloc

import numpy as np
import pytest

from mculora.config import ExperimentConfig
from mculora.errors import ConfigError, ContractError
from mculora.modalities import ALL_COMBINATIONS, FULL, INCOMPLETE_COMBINATIONS, MODALITIES, Combo
from mculora.rng import Rng
from mculora.synthgen import DatasetFile, apply_random_missing, generate_dataset, save_dataset, split_dataset
from mculora import trainer
from mculora.autodiff import Tensor
from mculora.trainer import (
    Adam,
    Metrics,
    MetricsRecord,
    compute_metrics,
    evaluate,
    finetune,
    format_metrics_document,
    parse_metrics_document,
    predict_dataset,
    pretrain,
    write_epoch_log,
    write_probe_log,
    write_schedule_log,
)
from mculora.model import Encoder, forward_batch, load_checkpoint, save_checkpoint

from conftest import lstsq_probe_accuracy, read_dataset


def tiny_synth(n=60, seed=1, **kw):
    defaults = dict(num_samples=n, seq_len=3, raw_dim=8, classes=3, shared_dim=3,
                    private_dim=2, noise_std=0.3)
    defaults.update(kw)
    return generate_dataset(ExperimentConfig(**defaults), Rng(seed))


def tiny_cfg(**kw):
    defaults = dict(pretrain_epochs=2, finetune_epochs=2, batch_size=16, raw_dim=8, model_dim=8,
                    classes=3, rank=2, probe_size=16, seed=5)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def encoder_state_bytes(model):
    """Byte snapshot of every encoder parameter, names included."""
    return b"".join(name.encode() + t.data.tobytes() for m in MODALITIES
                    for name, t in sorted(model.params.items()) if name.startswith(f"enc.{m}."))


def metrics_oracle(preds, labels):
    """Independent confusion-matrix computation with plain loops."""
    n = len(labels)
    acc = sum(int(p == l) for p, l in zip(preds, labels)) / n
    label_classes = sorted(set(labels))
    recalls, wa = [], 0.0
    for c in label_classes:
        support = sum(int(l == c) for l in labels)
        rec = sum(int(p == c and l == c) for p, l in zip(preds, labels)) / support
        recalls.append(rec)
        wa += (support / n) * rec
    ua = sum(recalls) / len(recalls)
    f1s = []
    for c in sorted(set(labels) | set(preds)):
        tp = sum(int(p == c and l == c) for p, l in zip(preds, labels))
        fp = sum(int(p == c and l != c) for p, l in zip(preds, labels))
        fn = sum(int(p != c and l == c) for p, l in zip(preds, labels))
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return acc, sum(f1s) / len(f1s), wa, ua


# ---------------------------------------------------------------------------
# pretraining
# ---------------------------------------------------------------------------

def test_pretrain_one_epoch_finite_and_reproducible():
    ds = tiny_synth(n=10)
    cfg = tiny_cfg(pretrain_epochs=1)
    r1 = pretrain(ds, cfg)
    r2 = pretrain(ds, cfg)
    assert np.isfinite(r1.epoch_rows[0].l_total)
    assert r1.epoch_rows[0].l_total == r2.epoch_rows[0].l_total


def test_pretrain_twice_same_seed_bitwise_equal_checkpoints(tmp_path):
    ds = tiny_synth(n=24)
    p1, p2 = tmp_path / "a.mcu", tmp_path / "b.mcu"
    save_checkpoint(pretrain(ds, tiny_cfg()).model, p1)
    save_checkpoint(pretrain(ds, tiny_cfg()).model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_pretrain_rows_have_no_orthogonality_term():
    # pretrain is the finetune objective on a model without adapters: l_total is l_task exactly
    res = pretrain(tiny_synth(n=40), tiny_cfg(pretrain_epochs=3, beta=0.5))
    assert len(res.epoch_rows) == 3
    for row in res.epoch_rows:
        assert row.phase == "pretrain" and row.l_ort == 0.0 and row.l_total == row.l_task


def test_pretrain_reaches_high_accuracy_on_linearly_separable_data():
    # the least-squares probe oracle establishes separability first
    ds = tiny_synth(n=900, seed=8, noise_std=0.05, private_strength=0.0,
                    pair_interaction_strength=0.0)
    feats = ds.features["t"].mean(axis=1)
    labels = ds.labels.astype(np.int64)
    assert lstsq_probe_accuracy(feats, labels, 3) >= 0.95
    cfg = tiny_cfg(pretrain_epochs=50, model_dim=16, seed=11)
    model = pretrain(ds, cfg).model
    preds = predict_dataset(model, ds, np.full(len(ds), FULL.mask))
    correct = int(np.sum(preds == labels))
    assert correct / len(ds) >= 0.95
    assert model.phase == "pretrained"
    assert not any(t.requires_grad for name, t in model.params.items() if name.startswith("enc."))


# ---------------------------------------------------------------------------
# fine-tuning
# ---------------------------------------------------------------------------

def test_finetune_requires_pretrained_phase():
    ds = tiny_synth(n=20)
    res = pretrain(ds, tiny_cfg())
    res.model.phase = "finetuned"
    cfg = tiny_cfg()
    with pytest.raises(ContractError):
        finetune(res.model, ds, cfg, ds[-cfg.probe_size:])


def test_finetune_dpft_off_keeps_uniform_schedule():
    ds = tiny_synth(n=40)
    model = pretrain(ds, tiny_cfg()).model
    cfg = tiny_cfg(dpft=False, finetune_epochs=3)
    res = finetune(model, ds, cfg, ds[-cfg.probe_size:])
    assert len(res.schedule_rows) == 3
    for row in res.schedule_rows:
        assert np.allclose(row.q, 1.0 / 7.0, atol=1e-15)


def test_finetune_without_adapters_keeps_the_schedule_uniform(tmp_path):
    # with MCLA off there is nothing to score, so DPFT on trains exactly as DPFT off
    ds = tiny_synth(n=40)
    for dpft in (True, False):
        cfg = tiny_cfg(mcla=False, dpft=dpft, finetune_epochs=3)
        res = finetune(pretrain(ds, cfg).model, ds, cfg, ds[-cfg.probe_size:])
        assert len(res.schedule_rows) == 3
        for row in res.schedule_rows:
            assert np.array_equal(row.scores, np.zeros(7)) and np.array_equal(row.deltas, np.zeros(7))
            assert np.array_equal(row.q, np.full(7, 1.0 / 7.0))
        save_checkpoint(res.model, tmp_path / f"dpft-{dpft}.mcu")
    assert (tmp_path / "dpft-True.mcu").read_bytes() == (tmp_path / "dpft-False.mcu").read_bytes()


def test_finetune_dpft_on_emits_one_schedule_row_per_epoch_within_bounds():
    ds = tiny_synth(n=40)
    cfg = tiny_cfg(finetune_epochs=4)
    model = pretrain(ds, cfg).model
    res = finetune(model, ds, cfg, ds[-cfg.probe_size:])
    assert len(res.schedule_rows) == cfg.finetune_epochs
    for row in res.schedule_rows:
        assert np.all(row.q >= cfg.p_min) and np.all(row.q <= cfg.p_max)


def test_first_logged_deltas_equal_first_scores():
    # the previous scores start at zero, so the first epoch's deltas are its scores
    ds = tiny_synth(n=40)
    cfg = tiny_cfg()
    model = pretrain(ds, cfg).model
    first = finetune(model, ds, cfg, ds[-cfg.probe_size:]).schedule_rows[0]
    assert np.array_equal(first.deltas, first.scores)


@pytest.mark.parametrize("mcla", [True, False])
def test_finetune_computes_no_fusion_gradients(mcla):
    ds = tiny_synth(n=40)
    cfg = tiny_cfg(finetune_epochs=1, mcla=mcla)
    model = pretrain(ds, cfg).model
    finetune(model, ds, cfg, ds[-cfg.probe_size:])
    for name, t in model.params.items():
        if name.startswith("fusion."):
            assert not t.requires_grad and t.grad is None, name


def test_finetune_loss_ledger_consistency():
    ds = tiny_synth(n=40)
    cfg = tiny_cfg(finetune_epochs=2, beta=0.001)
    model = pretrain(ds, cfg).model
    res = finetune(model, ds, cfg, ds[-cfg.probe_size:])
    for row in res.epoch_rows:
        assert abs(row.l_total - (row.l_task + cfg.beta * row.l_ort)) <= 1e-12


def test_finetune_leaves_encoder_parameters_untouched():
    ds = tiny_synth(n=40)
    cfg = tiny_cfg(finetune_epochs=3)
    model = pretrain(ds, cfg).model
    before = encoder_state_bytes(model)
    finetune(model, ds, cfg, ds[-cfg.probe_size:])
    assert encoder_state_bytes(model) == before



def test_finetune_beta_zero_vs_beta_diverge_in_ort_trajectories():
    ds = tiny_synth(n=60)
    cfg_a = tiny_cfg(finetune_epochs=3, beta=0.0)
    cfg_b = tiny_cfg(finetune_epochs=3, beta=0.01)
    model_a = pretrain(ds, tiny_cfg()).model
    model_b = pretrain(ds, tiny_cfg()).model
    res_a = finetune(model_a, ds, cfg_a, ds[-cfg_a.probe_size:])
    res_b = finetune(model_b, ds, cfg_b, ds[-cfg_b.probe_size:])
    traj_a = [r.l_ort for r in res_a.epoch_rows]
    traj_b = [r.l_ort for r in res_b.epoch_rows]
    assert traj_a != traj_b
    for res in (res_a, res_b):
        for row in res.schedule_rows:
            assert np.all(row.q >= 0.05) and np.all(row.q <= 0.5)


def test_finetune_mcla_off_trains_common_head_only():
    ds = tiny_synth(n=40)
    cfg = tiny_cfg(mcla=False, finetune_epochs=2)
    model = pretrain(ds, cfg).model
    head_before = model.params["head.com.W"].data.copy()
    fusion_before = model.params["fusion.query"].data.copy()
    res = finetune(model, ds, cfg, ds[-cfg.probe_size:])
    assert not res.model.has_adapters
    assert "head.prt.W" not in res.model.params
    assert not np.array_equal(model.params["head.com.W"].data, head_before)
    assert np.array_equal(model.params["fusion.query"].data, fusion_before)
    assert all(row.l_ort == 0.0 for row in res.epoch_rows)


def test_full_pipeline_seed_determinism():
    ds = tiny_synth(n=48)
    records = []
    for _ in range(2):
        cfg = tiny_cfg(finetune_epochs=2)
        model = pretrain(ds, cfg).model
        finetune(model, ds, cfg, ds[-cfg.probe_size:])
        records.append(evaluate(model, tiny_synth(n=24, seed=2), "fixed", cfg))
    r1, r2 = records
    for name in r1.rows:
        assert r1.rows[name] == r2.rows[name]
    assert r1.rows["average"] == r2.rows["average"]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_metrics_all_correct():
    m = compute_metrics([0, 1, 2, 1], [0, 1, 2, 1])
    assert m.acc == m.f1 == m.wa == m.ua == 1.0


def test_metrics_hand_computed_case():
    m = compute_metrics([0, 0, 0, 0], [0, 0, 1, 1])
    assert m.acc == pytest.approx(0.5, abs=1e-12)
    assert m.ua == pytest.approx(0.5, abs=1e-12)
    assert m.f1 == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert m.wa == pytest.approx(0.5, abs=1e-12)


def test_metrics_single_sample():
    m = compute_metrics([2], [2])
    assert m.acc == m.f1 == m.wa == m.ua == 1.0


def test_metrics_match_independent_oracle_on_random_cases():
    rng = Rng(77)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        c = int(rng.integers(2, 5))
        labels = rng.integers(0, c, size=n)
        preds = rng.integers(0, c, size=n)
        ours = compute_metrics(preds, labels)
        acc, f1, wa, ua = metrics_oracle(list(preds), list(labels))
        assert ours.acc == pytest.approx(acc, abs=1e-12)
        assert ours.f1 == pytest.approx(f1, abs=1e-12)
        assert ours.wa == pytest.approx(wa, abs=1e-12)
        assert ours.ua == pytest.approx(ua, abs=1e-12)
        assert ours.wa == ours.acc  # support-weighted recall is accuracy, reported once


def test_metrics_empty_is_contract_error():
    with pytest.raises(ContractError):
        compute_metrics([], [])


def test_adam_refuses_a_non_finite_update_naming_the_step_and_parameter():
    params = {"w": Tensor(np.ones(3), requires_grad=True), "b": Tensor(np.zeros(2), requires_grad=True)}
    opt = Adam(params, lr=0.1)
    params["w"].grad = np.array([1.0, np.nan, 0.0])
    params["b"].grad = np.ones(2)
    with pytest.raises(ContractError, match="finetune epoch 2 step 7 combination av: update of parameter 'w'"):
        opt.step("finetune epoch 2 step 7 combination av")
    assert np.array_equal(params["w"].data, np.ones(3))  # the bad value is never taken


def test_pretrain_names_the_step_of_a_non_finite_loss():
    ds = tiny_synth(n=40)
    ds.features["t"][5, 0, 0] = np.nan
    cfg = tiny_cfg()
    # oracle: the step whose batch holds sample 5 in the first epoch's order
    order = Rng(cfg.seed).child("pretrain-order").permutation(len(ds))
    step = int(np.nonzero(order == 5)[0][0]) // cfg.batch_size + 1
    with pytest.raises(ContractError, match=rf"^pretrain epoch 1 step {step} combination atv: "
                                            r"loss contains non-finite values$"):
        pretrain(ds, cfg)


# ---------------------------------------------------------------------------
# evaluation protocols
# ---------------------------------------------------------------------------

def trained_tiny_model():
    ds = tiny_synth(n=60)
    cfg = tiny_cfg()
    model = pretrain(ds, cfg).model
    finetune(model, ds, cfg, ds[-cfg.probe_size:])
    return model, cfg


def test_fixed_protocol_emits_exact_condition_set():
    model, cfg = trained_tiny_model()
    record = evaluate(model, tiny_synth(n=30, seed=3), "fixed", cfg)
    assert list(record.rows) == ["a", "t", "v", "av", "at", "tv", "average", "atv"]
    assert record.rows["average"] is not None


def test_average_is_unweighted_mean_over_six_incomplete_conditions():
    model, cfg = trained_tiny_model()
    record = evaluate(model, tiny_synth(n=30, seed=3), "fixed", cfg)
    accs = [record.rows[c.name].acc for c in INCOMPLETE_COMBINATIONS]
    assert record.rows["average"].acc == pytest.approx(float(np.mean(accs)), abs=1e-12)
    assert "atv" not in [c.name for c in INCOMPLETE_COMBINATIONS]


def test_random_protocol_single_row_and_mask_reproducibility():
    model, cfg = trained_tiny_model()
    test_set = tiny_synth(n=50, seed=4)
    r1 = evaluate(model, test_set, "random", cfg)
    r2 = evaluate(model, test_set, "random", cfg)
    assert list(r1.rows) == ["random"]
    assert r1.rows["random"] == r2.rows["random"]


def test_random_protocol_at_missing_rate_zero_is_the_fixed_protocols_full_row():
    # the missing-rate sweep's r = 0 end: no modality is dropped, so every row is scored with all three
    model, cfg = trained_tiny_model()
    test_set = tiny_synth(n=50, seed=4)
    fixed = evaluate(model, test_set, "fixed", cfg).rows
    at_zero = evaluate(model, test_set, "random", dataclasses.replace(cfg, mask_lo=0.0, mask_hi=0.0)).rows
    assert tuple(at_zero["random"]) == tuple(fixed["atv"])  # all four metrics, bit for bit
    assert any(fixed[c.name] != fixed["atv"] for c in INCOMPLETE_COMBINATIONS)  # the rows tell conditions apart


def one_row_prediction(model, dataset, i, combo):
    return int(np.argmax(forward_batch(model, {m: dataset.features[m][i:i + 1] for m in combo})["y_last"].data))


def test_random_protocol_predicts_each_row_under_its_own_combination(monkeypatch):
    # oracle: the row alone through forward_batch, under the combination its mask names
    model, cfg = trained_tiny_model()
    test_set = tiny_synth(n=50, seed=4)
    scored = []
    real = trainer.compute_metrics
    monkeypatch.setattr(trainer, "compute_metrics", lambda preds, labels: scored.append(preds) or real(preds, labels))
    evaluate(model, test_set, "random", cfg)
    masks = apply_random_missing(len(test_set), (cfg.mask_lo, cfg.mask_hi), seed=cfg.eval_seed)
    want = [one_row_prediction(model, test_set, i, Combo(int(k))) for i, k in enumerate(masks)]
    assert scored[0].tolist() == want
    # the oracle tells the combinations apart: the full set predicts some row differently
    assert want != [one_row_prediction(model, test_set, i, FULL) for i in range(len(test_set))]


def test_unknown_protocol_rejected():
    model, cfg = trained_tiny_model()
    with pytest.raises(ContractError):
        evaluate(model, tiny_synth(n=10, seed=4), "sometimes", cfg)


def test_perfect_predictor_scores_100_everywhere(monkeypatch):
    model, cfg = trained_tiny_model()
    test_set = tiny_synth(n=30, seed=6)
    labels = test_set.labels.astype(np.int64)
    monkeypatch.setattr(trainer, "predict_dataset", lambda m, ds, masks: np.broadcast_to(labels, masks.shape))
    record = evaluate(model, test_set, "fixed", cfg)
    for name, m in record.rows.items():
        assert m.acc == m.f1 == m.wa == m.ua == 1.0, name
    assert record.rows["average"].acc == 1.0


def test_constant_predictor_on_balanced_labels(monkeypatch):
    model, cfg = trained_tiny_model()
    test_set = tiny_synth(n=32, seed=6, classes=4)
    monkeypatch.setattr(trainer, "predict_dataset",
                        lambda m, ds, masks: np.zeros(masks.shape, dtype=np.int64))
    record = evaluate(model, test_set, "fixed", cfg)
    m = record.rows["atv"]
    assert m.acc == pytest.approx(0.25, abs=1e-12)
    assert m.ua == pytest.approx(0.25, abs=1e-12)


def test_eval_chunking_does_not_change_results(monkeypatch):
    model, cfg = trained_tiny_model()
    test_set = tiny_synth(n=40, seed=7)
    seq_len = test_set.features["a"].shape[1]
    assert len(test_set) * seq_len <= trainer._EVAL_POSITIONS  # the default runs it in one chunk
    masks = apply_random_missing(len(test_set), (cfg.mask_lo, cfg.mask_hi), seed=cfg.eval_seed)
    base = {protocol: evaluate(model, test_set, protocol, cfg).rows for protocol in ("fixed", "random")}
    base_preds = predict_dataset(model, test_set, masks)
    for rows_per_chunk in (8, 1):
        monkeypatch.setattr(trainer, "_EVAL_POSITIONS", rows_per_chunk * seq_len)
        monkeypatch.setattr(trainer, "_HEAD_ROWS", rows_per_chunk)
        assert {protocol: evaluate(model, test_set, protocol, cfg).rows for protocol in base} == base
        assert np.array_equal(predict_dataset(model, test_set, masks), base_preds)


def test_finetune_chunking_does_not_change_results(tmp_path, monkeypatch):
    save_dataset(tmp_path / "d.mcu", ExperimentConfig(num_samples=60, seq_len=3, raw_dim=8, classes=3, shared_dim=3,
                                                      private_dim=2, noise_std=0.3))
    cfg = tiny_cfg()
    save_checkpoint(pretrain(read_dataset(tmp_path / "d.mcu", rows=lambda n: slice(0, 44)), cfg).model,
                    tmp_path / "pre.mcu")

    def finetuned(name):
        """Finetune on the file's first 44 rows with the last 16 as probe: the checkpoint's bytes and the
        logs' text, the epoch log without its wallclock column."""
        with DatasetFile(tmp_path / "d.mcu", lambda n: slice(0, 44)) as train, \
                DatasetFile(tmp_path / "d.mcu", lambda n: slice(44, n)) as probe:
            result = finetune(load_checkpoint(tmp_path / "pre.mcu"), train, cfg, probe)
        save_checkpoint(result.model, tmp_path / f"{name}.mcu")
        write_schedule_log(tmp_path / f"{name}.s.csv", result.schedule_rows)
        write_probe_log(tmp_path / f"{name}.p.csv", result.schedule_rows)
        return ((tmp_path / f"{name}.mcu").read_bytes(), [row[:-1] for row in result.epoch_rows],
                (tmp_path / f"{name}.s.csv").read_text(), (tmp_path / f"{name}.p.csv").read_text())
    assert 44 * 3 <= trainer._EVAL_POSITIONS  # the default reads the train rows in one chunk
    base = finetuned("default")
    # 1 row a chunk; and 5 rows, which leaves shorter last chunks (4 train rows, 1 probe row) behind the
    # reused buffers' longer ones
    for positions in (3, 5 * 3 + 2):
        monkeypatch.setattr(trainer, "_EVAL_POSITIONS", positions)
        assert finetuned(f"chunks-{positions}") == base, positions


def test_eval_encodes_each_row_once_per_modality_it_keeps(monkeypatch):
    model, cfg = trained_tiny_model()
    test_set = tiny_synth(n=40, seed=7)
    seq_len = test_set.features["a"].shape[1]
    bound = 5 * seq_len + 2  # not a multiple of L: chunks of 5 rows
    monkeypatch.setattr(trainer, "_EVAL_POSITIONS", bound)
    row_of = {m: {x.tobytes(): i for i, x in enumerate(test_set.features[m])} for m in MODALITIES}
    modality_of = {id(enc): m for m, enc in model.encoders.items()}
    real = Encoder.forward
    encoded, positions = [], []

    def spy(self, x, *args, **kwargs):
        m = modality_of[id(self)]
        positions.append(x.shape[0] * x.shape[1])
        encoded.extend((m, row_of[m][row.tobytes()]) for row in x.data)
        return real(self, x, *args, **kwargs)
    monkeypatch.setattr(Encoder, "forward", spy)

    def encodings(protocol):
        encoded.clear()
        evaluate(model, test_set, protocol, cfg)
        return sorted(encoded)
    rows = range(len(test_set))
    # fixed: every row once per modality, not once per condition that holds it
    assert encodings("fixed") == sorted((m, i) for m in MODALITIES for i in rows)
    # random: each row only for the modalities its combination keeps
    masks = apply_random_missing(len(test_set), (cfg.mask_lo, cfg.mask_hi), seed=cfg.eval_seed)
    assert encodings("random") == sorted((m, i) for i in rows for m in Combo(int(masks[i])))
    assert len({int(k) for k in masks}) > 1  # the combinations differ between rows
    assert max(positions) == 5 * seq_len <= bound


def test_finetune_encodes_each_probe_and_training_row_once_per_modality(monkeypatch):
    cfg = tiny_cfg()
    train, val, _ = split_dataset(tiny_synth(n=80, seed=7), 0.5, 0.3)
    probe = val[:cfg.probe_size]
    model = pretrain(train, cfg).model
    seq_len = train.features["a"].shape[1]
    monkeypatch.setattr(trainer, "_EVAL_POSITIONS", 5 * seq_len + 2)  # chunks of 5 rows
    row_of = {m: {x.tobytes(): (name, i) for name, rows in (("train", train), ("probe", probe))
                  for i, x in enumerate(rows.features[m])} for m in MODALITIES}
    assert all(len(rows) == len(train) + len(probe) for rows in row_of.values())  # the row sets are disjoint
    modality_of = {id(enc): m for m, enc in model.encoders.items()}
    real_forward, real_scores = Encoder.forward, trainer.separability_scores
    encoded, scored = [], []

    def spy(self, x, *args, **kwargs):
        m = modality_of[id(self)]
        encoded.extend((m, *row_of[m][row.tobytes()]) for row in x.data)
        return real_forward(self, x, *args, **kwargs)

    def scores_spy(model, probe_raw):
        scored.append(probe_raw)
        return real_scores(model, probe_raw)
    monkeypatch.setattr(Encoder, "forward", spy)
    monkeypatch.setattr(trainer, "separability_scores", scores_spy)
    finetune(model, train, cfg, probe)
    assert sorted(encoded) == sorted((m, name, i) for m in MODALITIES
                                     for name, rows in (("train", train), ("probe", probe)) for i in range(len(rows)))
    assert len(scored) == cfg.finetune_epochs
    for probe_raw in scored:
        assert sorted(probe_raw) == sorted(MODALITIES)
        for m in MODALITIES:
            want = probe.features[m].mean(axis=1)
            assert probe_raw[m].dtype == want.dtype and probe_raw[m].tobytes() == want.tobytes(), m


def test_chunked_eval_holds_less_than_one_modality_of_the_test_split(tmp_path):
    data = ExperimentConfig(num_samples=2560, seq_len=32, raw_dim=8, classes=3, shared_dim=3, private_dim=2,
                            train_frac=0.1, val_frac=0.1)
    save_dataset(tmp_path / "d.mcu", data)
    train = read_dataset(tmp_path / "d.mcu", rows=lambda n: slice(0, 64))
    cfg = tiny_cfg(pretrain_epochs=1, finetune_epochs=1)
    model = pretrain(train, cfg).model
    finetune(model, train, cfg, train[-cfg.probe_size:])
    with DatasetFile(tmp_path / "d.mcu", lambda n: slice(512, n)) as test:
        assert len(test) == 2048 and len(test) * data.seq_len >= 8 * trainer._EVAL_POSITIONS  # read in 32 chunks
        feature_bytes = len(test) * data.seq_len * data.raw_dim * 8  # one modality of the test split
        for protocol in ("fixed", "random"):
            want = evaluate(model, read_dataset(tmp_path / "d.mcu", rows=lambda n: slice(512, n)), protocol, cfg)
            record, peak = eval_heap_peak(model, test, protocol, cfg)
            assert record.rows == want.rows  # the fixed protocol's "average" row included
            assert peak < feature_bytes, protocol


def eval_heap_peak(model, test, protocol, cfg):
    """The record of evaluating on `test` and the most its allocations held at once."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        record = evaluate(model, test, protocol, cfg)
        return record, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_eval_heap_peak_does_not_grow_with_the_test_split(tmp_path):
    data = ExperimentConfig(num_samples=4608, seq_len=32, raw_dim=8, classes=3, shared_dim=3, private_dim=2,
                            train_frac=0.1, val_frac=0.1)
    save_dataset(tmp_path / "d.mcu", data)
    train = read_dataset(tmp_path / "d.mcu", rows=lambda n: slice(0, 64))
    cfg = tiny_cfg(pretrain_epochs=1, finetune_epochs=1)
    model = pretrain(train, cfg).model
    finetune(model, train, cfg, train[-cfg.probe_size:])
    for protocol in ("fixed", "random"):
        peaks = []
        for rows in (2048, 4096):
            with DatasetFile(tmp_path / "d.mcu", lambda n: slice(512, 512 + rows)) as test:
                assert len(test) == rows
                peaks.append(eval_heap_peak(model, test, protocol, cfg)[1])
        # 2048 more rows add their labels, masks and predictions: 16 int64s a row under the fixed protocol
        # (measured +258 kB fixed, +55 kB random). Pooled rows kept for the split would add (d + D) float64s
        # per modality a row, 384 bytes here: holding them measured +1043 kB fixed, +858 kB random.
        assert peaks[1] - peaks[0] < 2048 * 20 * 8, (protocol, peaks)


def test_finetune_heap_peak_grows_only_by_the_added_rows_pooled_rows(tmp_path):
    data = ExperimentConfig(num_samples=4608, seq_len=32, raw_dim=8, classes=3, shared_dim=3, private_dim=2,
                            train_frac=0.1, val_frac=0.1)
    save_dataset(tmp_path / "d.mcu", data)
    cfg = tiny_cfg(pretrain_epochs=1, finetune_epochs=1)
    assert data.raw_dim == cfg.model_dim == 8
    save_checkpoint(pretrain(read_dataset(tmp_path / "d.mcu", rows=lambda n: slice(0, 64)), cfg).model,
                    tmp_path / "pre.mcu")
    probe = read_dataset(tmp_path / "d.mcu", rows=lambda n: slice(64, 64 + cfg.probe_size))
    peaks = []
    for rows in (2048, 4096):
        model = load_checkpoint(tmp_path / "pre.mcu")
        with DatasetFile(tmp_path / "d.mcu", lambda n: slice(512, 512 + rows)) as train:
            assert len(train) == rows
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                finetune(model, train, cfg, probe)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            finally:
                tracemalloc.stop()
    # 2048 more rows add their pooled rows, (d + D) float64s per modality, and their label and order
    # entries: about 0.8 MB (measured +803 kB). Holding one modality of those rows would add 4.2 MB.
    assert peaks[1] - peaks[0] < 1 << 20, peaks


def encode_heap_peak(model, test, need):
    """The most `_encode_rows` on every row of `test` held at once, the buffers it makes
    included, above the pooled rows it returns."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        pooled = trainer._encode_rows(model, test, 0, need)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return peak - sum(t.data.nbytes for t in pooled.enc.values()) - sum(x.nbytes for x in pooled.raw.values())


def test_encode_heap_peak_is_one_chunk_of_buffers_whatever_the_rows(tmp_path):
    data = ExperimentConfig(num_samples=4608, seq_len=32, raw_dim=8, classes=3, shared_dim=3, private_dim=2,
                            train_frac=0.1, val_frac=0.1)
    save_dataset(tmp_path / "d.mcu", data)
    cfg = tiny_cfg(pretrain_epochs=1)
    model = pretrain(read_dataset(tmp_path / "d.mcu", rows=lambda n: slice(0, 64)), cfg).model
    assert data.raw_dim == cfg.model_dim == 8 and trainer._EVAL_POSITIONS % data.seq_len == 0
    chunk = trainer._EVAL_POSITIONS * 8 * 8  # one chunk's positions of one (rows x L, 8) float64 buffer
    for needs, buffers in ((lambda n: np.full(n, FULL.mask), 3 * chunk),  # rows, hidden, output
                           (lambda n: apply_random_missing(n, (0.4, 0.6), seed=3), 4 * chunk)):  # and picked rows
        peaks = []
        for rows in (2048, 4096):
            with DatasetFile(tmp_path / "d.mcu", lambda n: slice(512, 512 + rows)) as test:
                peaks.append(encode_heap_peak(model, test, needs(rows)))
        # measured 71-73 kB above the buffers, the same at both sizes. Reading all three modalities of a chunk
        # into fresh arrays, and encoding in fresh ones, measured 734 kB above the pooled rows (1.9 chunks more)
        assert max(peaks) <= buffers + 96 * 1024 and abs(peaks[1] - peaks[0]) < 16 * 1024, (buffers, peaks)


def test_streamed_pretrain_matches_held_pretrain_in_less_than_one_modality(tmp_path):
    data = ExperimentConfig(num_samples=2560, seq_len=32, raw_dim=8, classes=3, shared_dim=3, private_dim=2,
                            train_frac=0.8, val_frac=0.1)
    save_dataset(tmp_path / "d.mcu", data)
    cfg = tiny_cfg(pretrain_epochs=2, batch_size=16)
    held = read_dataset(tmp_path / "d.mcu", rows=lambda n: slice(0, 2048))
    save_checkpoint(pretrain(held, cfg).model, tmp_path / "held.mcu")
    feature_bytes = held.features["a"].nbytes  # one modality of the train split
    del held
    with DatasetFile(tmp_path / "d.mcu", lambda n: slice(0, 2048)) as train:
        assert len(train) == 2048
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            model = pretrain(train, cfg).model
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    save_checkpoint(model, tmp_path / "streamed.mcu")
    assert (tmp_path / "streamed.mcu").read_bytes() == (tmp_path / "held.mcu").read_bytes()
    assert peak < feature_bytes


# ---------------------------------------------------------------------------
# logs and documents
# ---------------------------------------------------------------------------

def test_log_files_have_documented_headers(tmp_path):
    ds = tiny_synth(n=40)
    cfg = tiny_cfg()
    res = pretrain(ds, cfg)
    fres = finetune(res.model, ds, cfg, ds[-cfg.probe_size:])
    ep, sp, pp = tmp_path / "e.csv", tmp_path / "s.csv", tmp_path / "p.csv"
    write_epoch_log(ep, res.epoch_rows + fres.epoch_rows)
    write_schedule_log(sp, fres.schedule_rows)
    write_probe_log(pp, fres.schedule_rows)
    assert ep.read_text().splitlines()[0] == "epoch,phase,l_task,l_ort,l_total,wallclock_ms"
    sched_header = sp.read_text().splitlines()[0]
    assert sched_header.startswith("epoch,s_a,s_t,s_v,s_av,s_at,s_tv,s_atv,ds_a")
    assert sched_header.endswith("q_a,q_t,q_v,q_av,q_at,q_tv,q_atv")
    assert pp.read_text().splitlines()[0] == "epoch,mean_cos_prt_com"
    # one schedule row per finetune epoch
    assert len(sp.read_text().splitlines()) == 1 + cfg.finetune_epochs


def test_log_cells_are_plain_numbers(tmp_path):
    ds = tiny_synth(n=40)
    cfg = tiny_cfg()
    res = pretrain(ds, cfg)
    fres = finetune(res.model, ds, cfg, ds[-cfg.probe_size:])
    write_epoch_log(tmp_path / "e.csv", res.epoch_rows + fres.epoch_rows)
    write_schedule_log(tmp_path / "s.csv", fres.schedule_rows)
    write_probe_log(tmp_path / "p.csv", fres.schedule_rows)
    for name in ("e.csv", "s.csv", "p.csv"):
        header, *rows = (tmp_path / name).read_text().splitlines()
        assert rows, name
        for row in rows:
            for column, cell in zip(header.split(","), row.split(",")):
                if column != "phase":
                    float(cell)  # raises on e.g. "np.float64(0.5)"


def test_metrics_document_roundtrip():
    rows = {c.name: Metrics(0.5, 0.4, 0.5, 0.45) for c in ALL_COMBINATIONS}
    record = MetricsRecord(protocol="fixed", rows={**rows, "average": Metrics(0.5, 0.4, 0.5, 0.45)})
    doc = format_metrics_document(record, '{"seed": 66}', "0.1.0-test")
    parsed, meta = parse_metrics_document(doc)
    assert meta["version"] == "0.1.0-test"
    assert parsed.protocol == "fixed"
    assert parsed.rows["av"] == record.rows["av"]
    assert parsed.rows["average"] == record.rows["average"]


def test_train_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(learning_rate=0.0).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(rank=0).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(beta=-1.0).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(pretrain_epochs=0).validate()
    for model_dim in (0, -1):
        with pytest.raises(ConfigError, match="model_dim"):
            ExperimentConfig(model_dim=model_dim).validate()
