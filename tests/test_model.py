import math

import numpy as np
import pytest

from mculora import autodiff as ad, model as model_module, serialize
from mculora.config import ExperimentConfig
from mculora.errors import ContractError
from mculora.losses import orthogonality_loss, task_loss, total_loss
from mculora.modalities import ALL_COMBINATIONS, AT, MODALITIES
from mculora.model import (
    LoraPair,
    _parameter_shapes,
    attach_adapters,
    build_model,
    combine_predictions,
    encode,
    forward_batch,
    load_checkpoint,
    save_checkpoint,
)
from mculora.rng import Rng

from conftest import central_difference, rel_err


CFG = ExperimentConfig(raw_dim=6, model_dim=8, classes=3, rank=2)


def small_model(seed=0, pretrained=True, adapters=True, rank=2):
    model = build_model(ExperimentConfig(raw_dim=6, model_dim=8, classes=3, rank=rank), Rng(seed))
    if pretrained:
        model.phase = "pretrained"
        model.freeze_base()
    if adapters:
        attach_adapters(model, Rng(seed + 1), rank=rank)
    return model


def adapter_pairs(model, m):
    """(name, pair) of each of modality m's adapter pairs: the common one, then
    the private one of each combination containing m, through the model's lookup."""
    return [("com", model.adapter(m, None)),
            *((f"prt.{c.name}", model.adapter(m, c)) for c in ALL_COMBINATIONS if m in c)]


def sample_features(seed=0, L=4):
    rng = Rng(seed)
    return {m: rng.normal(size=(L, 6)) for m in MODALITIES}


def predict_one(features, model):
    """One sample's prediction y_last as plain values."""
    return forward_batch(model, {m: x[None] for m, x in features.items()})["y_last"].data[0]


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------

def test_encoder_zero_input_zero_bias_gives_zero_output():
    model = build_model(CFG, Rng(3))
    out = model.encoders["a"].forward(ad.constant(np.zeros((4, 3, 6))))
    assert np.array_equal(out.data, np.zeros((4, 8)))


def test_encoder_shape_contract():
    model = build_model(CFG, Rng(3))
    for m in MODALITIES:
        out = model.encoders[m].forward(ad.constant(np.ones((5, 3, 6))))
        assert out.shape == (5, 8)
    with pytest.raises(ContractError):
        model.encoders["a"].forward(ad.constant(np.ones((5, 3, 7))))
    with pytest.raises(ContractError):
        model.encoders["a"].forward(ad.constant(np.ones((15, 6))))


def test_encoder_frozen_determinism():
    model = small_model(adapters=False)
    x = Rng(9).normal(size=(4, 3, 6))
    with ad.Tape() as tape:
        out1 = model.encoders["t"].forward(ad.constant(x))
        out2 = model.encoders["t"].forward(ad.constant(x))
    assert np.array_equal(out1.data, out2.data)
    assert not any(t.requires_grad for name, t in model.params.items() if name.startswith("enc.t."))
    assert len(tape) == 0  # a frozen encoder records nothing, so it holds none of its intermediates


def reference_encoder(enc, x, dropout_p, rng):
    """The encoder as the chain of autodiff primitives it fuses: each position
    through the stack, then the mean over positions. Dropout is a product with
    its inverted mask: a uniform draw per unit keeps it, scaled by 1 / (1 - p),
    when at least p."""
    B, L, D = x.shape
    h = ad.tanh(ad.add(ad.matmul(ad.constant(x.data.reshape(B * L, D)), enc.W1), enc.b1))
    if dropout_p > 0.0:
        h = ad.mul(h, ad.constant((rng.uniform(size=h.shape) >= dropout_p) / (1.0 - dropout_p)))
    z = ad.add(ad.matmul(h, enc.W2), enc.b2)
    return ad.tmean(ad.reshape(z, (B, L, -1)), axis=1)


@pytest.mark.parametrize("dropout_p", [0.0, 0.5], ids=["no-dropout", "dropout"])
def test_fused_encoder_is_bit_identical_to_its_primitive_chain(dropout_p):
    model = build_model(CFG, Rng(3))
    enc = model.encoders["v"]
    enc.b1.data = Rng(4).normal(size=enc.b1.shape)  # nonzero biases, so that both layers' outputs move
    enc.b2.data = Rng(5).normal(size=enc.b2.shape)
    x = ad.constant(Rng(6).normal(size=(5, 3, 6)))
    upstream = ad.constant(Rng(7).normal(size=(5, 8)))
    results = []
    for forward in (enc.forward, lambda x, p, rng: reference_encoder(enc, x, p, rng)):
        with ad.Tape() as tape:
            out = forward(x, dropout_p, Rng(8))  # the same dropout stream for both
            loss = ad.tmean(ad.mul(out, upstream))
        ad.gradients(loss, tape)
        ops = len(tape) - 2  # the loss's mul and tmean
        results.append((ops, out.data, *(t.grad for t in (enc.W1, enc.b1, enc.W2, enc.b2))))
    (fused_ops, *fused), (chain_ops, *chain) = results
    assert (fused_ops, chain_ops) == (1, 8 if dropout_p else 7)
    for got, want in zip(fused, chain):
        assert np.array_equal(got, want)
    assert all(np.abs(g).max() > 0 for g in fused[1:])


# ---------------------------------------------------------------------------
# adapters
# ---------------------------------------------------------------------------

def test_private_adapter_zero_init_outputs_zero():
    model = small_model()
    out = model.adapter("a", AT).apply(ad.constant(np.ones((4, 6))))
    assert np.array_equal(out.data, np.zeros((4, 8)))


def test_adapter_rank_one_all_ones_analytic():
    A_ = ad.Tensor(np.ones((1, 6)), requires_grad=True)
    B_ = ad.Tensor(np.ones((8, 1)), requires_grad=True)
    pair = LoraPair(A_, B_, alpha=1.0)
    out = pair.apply(ad.constant(np.ones((4, 6))))
    assert np.allclose(out.data, 6.0)


def test_effective_rank_at_most_r():
    model = small_model(rank=2)
    rng = Rng(42)
    for m in MODALITIES:
        for _, pair in adapter_pairs(model, m):
            pair.B.data = rng.normal(size=pair.B.shape)
            sv = np.linalg.svd(pair.alpha * (pair.B.data @ pair.A.data), compute_uv=False)
            assert np.all(sv[pair.A.shape[0]:] <= 1e-10)


def test_private_adapter_requires_membership():
    model = small_model()
    with pytest.raises(ContractError):
        model.adapter("v", AT)


def test_common_adapter_is_combination_independent():
    model = small_model()
    rng = Rng(1)
    model.adapter("t", None).B.data = rng.normal(size=(8, 2))
    x = rng.normal(size=(4, 6))
    out1 = model.adapter("t", None).apply(ad.constant(x))
    out2 = model.adapter("t", None).apply(ad.constant(x))
    assert np.array_equal(out1.data, out2.data)
    assert not np.allclose(out1.data, 0.0)


def test_each_modality_has_one_private_pair_per_containing_combo():
    model = small_model()
    for m in MODALITIES:
        combos = {c for c in ALL_COMBINATIONS if f"adapter.{m}.prt.{c.name}.A" in model.params}
        assert combos == {c for c in ALL_COMBINATIONS if m in c}
        assert len(combos) == 4


def test_attach_requires_pretrained_phase():
    model = build_model(CFG, Rng(0))
    with pytest.raises(ContractError):
        attach_adapters(model, Rng(1), 2)


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

def test_fuse_single_input_equals_value_projection():
    model = small_model()
    r = Rng(7).normal(size=(1, 8))
    out = model.fusion.fuse_batch({"t": ad.constant(r)})
    expected = r @ model.fusion.values["t"].data
    assert np.allclose(out.data, expected, atol=1e-12)


def test_fuse_is_setwise_under_input_order():
    model = small_model()
    rng = Rng(8)
    reps = {m: ad.constant(rng.normal(size=(1, 8))) for m in MODALITIES}
    out1 = model.fusion.fuse_batch({"a": reps["a"], "t": reps["t"], "v": reps["v"]})
    out2 = model.fusion.fuse_batch({"v": reps["v"], "a": reps["a"], "t": reps["t"]})
    assert np.array_equal(out1.data, out2.data)


def test_fuse_three_equal_vectors_with_equal_projections_brute_force():
    # independent hand computation for d=2
    q = np.array([[0.4, -0.6]])
    Wk = np.array([[0.3, -0.1], [0.2, 0.5]])
    Wv = np.array([[1.0, 0.5], [-0.2, 0.7]])
    r = np.array([1.0, 2.0])
    model = small_model()
    fusion = model.fusion
    fusion.query = ad.Tensor(q)
    for m in MODALITIES:
        fusion.keys[m] = ad.Tensor(Wk.copy())
        fusion.values[m] = ad.Tensor(Wv.copy())

    one = fusion.fuse_batch({"a": ad.constant(r[None])}).data[0]
    three = fusion.fuse_batch({m: ad.constant(r[None].copy()) for m in MODALITIES}).data[0]

    # brute-force attention arithmetic with plain floats
    score = sum(q[0][i] * (r @ Wk)[i] for i in range(2)) / math.sqrt(2)
    weights = [math.exp(score - score)] * 3
    attn = [w / sum(weights) for w in weights]
    v = [sum(r[k] * Wv[k][j] for k in range(2)) for j in range(2)]
    expected = [sum(attn[i] * v[j] for i in range(3)) / 1.0 for j in range(2)]
    assert np.allclose(one, v, atol=1e-12)
    assert np.allclose(three, expected, atol=1e-12)
    assert np.allclose(three, one, atol=1e-12)


def test_fuse_empty_set_is_contract_error():
    model = small_model()
    with pytest.raises(ContractError):
        model.fusion.fuse_batch({})


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def test_combine_predictions_gate_zero_is_common_exactly():
    y_com = ad.constant([[1.5, -2.0]])
    y_hat = ad.constant([[9.9, 9.9]])
    out = combine_predictions(y_com, y_hat, ad.constant([[0.0]]))
    assert np.array_equal(out.data, y_com.data)


def test_combine_predictions_gate_one_is_characteristic_exactly():
    y_com = ad.constant([[1.5, -2.0]])
    y_hat = ad.constant([[9.9, -9.9]])
    out = combine_predictions(y_com, y_hat, ad.constant([[1.0]]))
    assert np.array_equal(out.data, y_hat.data)


def test_combine_predictions_midpoint():
    out = combine_predictions(ad.constant([[0.0, 2.0]]), ad.constant([[2.0, 0.0]]), ad.constant([[0.5]]))
    assert np.array_equal(out.data, [[1.0, 1.0]])


def test_predict_consistency_and_purity(monkeypatch):
    model = small_model()
    utt = sample_features(3)
    blends = []  # the (y_com, y_hat, gate weight) of each blend the forward pass makes

    def recorded(y_com, y_hat, w):
        blends.append((y_com.data[0], y_hat.data[0], float(w.data[0, 0])))
        return combine_predictions(y_com, y_hat, w)
    monkeypatch.setattr(model_module, "combine_predictions", recorded)
    y_last = predict_one(utt, model)
    (y_com, y_hat, w), = blends
    assert 0.0 < w < 1.0
    assert np.allclose(y_last, (1 - w) * y_com + w * y_hat, atol=1e-12)
    again = predict_one(utt, model)
    assert np.array_equal(y_last, again)


def test_zero_init_adapters_reproduce_pretrained_predictions():
    base = small_model(adapters=False)
    tuned = small_model(adapters=True)
    utt = sample_features(4)
    for combo in ALL_COMBINATIONS:
        masked = {m: utt[m] for m in combo}
        y_base = predict_one(masked, base)
        y_tuned = predict_one(masked, tuned)
        assert np.max(np.abs(y_base - y_tuned)) <= 1e-12


@pytest.mark.parametrize("mcla", [True, False], ids=["mcla", "base"])
def test_forward_returns_the_pooled_rows_and_the_prediction(mcla):
    model = small_model(adapters=False)
    attach_adapters(model, Rng(1), rank=2, mcla=mcla)
    feats, _ = batch_features(seed=13)
    for combo in ALL_COMBINATIONS:
        out = forward_batch(model, {m: feats[m] for m in combo})
        assert list(out) == ["enc_pooled", "com_pooled", "prt_pooled", "y_last"]
        assert list(out["enc_pooled"]) == list(combo)
        assert list(out["com_pooled"]) == list(out["prt_pooled"]) == (list(combo) if mcla else [])
        assert out["y_last"].shape == (5, 3)


def test_forward_batch_empty_presence_is_contract_error():
    model = small_model()
    with pytest.raises(ContractError, match="no modalities"):
        forward_batch(model, {})


# ---------------------------------------------------------------------------
# the finetune objective through forward_batch
# ---------------------------------------------------------------------------

def finetune_objective(model, feats, labels, combo, beta):
    """One finetune step's loss, built from the calls the trainer makes."""
    out = forward_batch(model, {m: feats[m] for m in combo})
    l_task = task_loss(out["y_last"], labels)
    if model.has_adapters:
        l_ort = orthogonality_loss(out["com_pooled"], {combo: out["prt_pooled"]}, out["enc_pooled"])
    else:
        l_ort = ad.constant(0.0)
    return total_loss(l_task, l_ort, beta)


def trained_adapters_model(seed=0):
    """A small model as after some finetuning: adapters with nonzero
    up-projections and a characteristic head apart from the common head."""
    model = small_model(seed=seed)
    rng = Rng(seed + 100)
    for m in MODALITIES:
        for _, pair in adapter_pairs(model, m):
            pair.A.data = rng.normal(size=pair.A.shape)
            pair.B.data = rng.normal(0.0, 0.5, size=pair.B.shape)
    prt_W = model.params["head.prt.W"]
    prt_W.data = prt_W.data + rng.normal(0.0, 2.0, size=prt_W.shape)
    return model


def batch_features(seed=0, n=5, L=4):
    rng = Rng(seed)
    return {m: rng.normal(size=(n, L, 6)) for m in MODALITIES}, np.arange(n) % 3


def test_adapter_outputs_are_the_position_mean_of_apply():
    model = trained_adapters_model(seed=2)
    feats, _ = batch_features(seed=3)
    for combo in ALL_COMBINATIONS:
        out = forward_batch(model, {m: feats[m] for m in combo})
        for m in combo:
            x = feats[m]
            rows = ad.constant(x.reshape(-1, x.shape[2]))
            for key, pair in (("com_pooled", model.adapter(m, None)), ("prt_pooled", model.adapter(m, combo))):
                per_position = pair.apply(rows).data.reshape(x.shape[0], x.shape[1], -1).mean(axis=1)
                assert np.max(np.abs(out[key][m].data - per_position)) <= 1e-12


def test_finetune_objective_gradients_match_central_differences():
    model = trained_adapters_model(seed=4)
    feats, labels = batch_features(seed=5)
    beta = 0.5  # weighs the orthogonality term enough to matter in the adapter gradients
    params = model.parameters("finetune")
    checked = ["adapter.a.prt.at.A", "adapter.a.prt.at.B", "adapter.t.com.A", "adapter.t.com.B",
               "head.prt.W", "gate.W1"]
    with ad.Tape() as tape:
        loss = finetune_objective(model, feats, labels, AT, beta)
    ad.gradients(loss, tape)
    for name in checked:
        tensor = params[name]
        analytic, orig = tensor.grad.copy(), tensor.data

        def f(x):
            tensor.data = x
            return finetune_objective(model, feats, labels, AT, beta).item()

        # h = 1e-5 keeps rounding below 1e-5 of the gate's smallest entries and
        # truncation below 1e-5 of the adapters' (checked over 12 seeds)
        numeric = central_difference(f, orig.copy(), h=1e-5)
        tensor.data = orig
        assert np.abs(numeric).max() > 1e-6, name
        for a, b in zip(analytic.ravel(), numeric.ravel()):
            assert rel_err(a, b) <= 1e-5, name


def pretrain_objective(model, feats, labels, dropout_seed):
    """One pretrain step's loss, built from the calls the trainer makes, with
    dropout 0.5 drawn from a stream seeded afresh on every call."""
    out = forward_batch(model, feats, dropout_p=0.5, dropout_rng=Rng(dropout_seed))
    return total_loss(task_loss(out["y_last"], labels), ad.constant(0.0), 0.5)


def test_pretrain_objective_encoder_gradients_match_central_differences():
    model = small_model(seed=7, pretrained=False, adapters=False)
    feats, labels = batch_features(seed=8)
    params = model.parameters("pretrain")
    with ad.Tape() as tape:
        loss = pretrain_objective(model, feats, labels, dropout_seed=9)
    ad.gradients(loss, tape)
    for name in [f"enc.{m}.{p}" for m in MODALITIES for p in ("W1", "b1", "W2", "b2")]:
        tensor = params[name]
        analytic, orig = tensor.grad.copy(), tensor.data

        def f(x):
            tensor.data = x
            return pretrain_objective(model, feats, labels, dropout_seed=9).item()

        numeric = central_difference(f, orig.copy(), h=1e-5)
        tensor.data = orig
        assert np.abs(numeric).max() > 1e-6, name
        for a, b in zip(analytic.ravel(), numeric.ravel()):
            assert rel_err(a, b) <= 1e-5, name


def test_pretrain_step_records_one_encoder_op_per_modality():
    model = small_model(pretrained=False, adapters=False)
    feats, _ = batch_features(seed=10)
    with ad.Tape() as tape:
        pooled = encode(model, feats, dropout_p=0.5, dropout_rng=Rng(11))
    assert len(tape) == len(MODALITIES)
    assert [op_id for op_id, _ in tape.ops] == [pooled.enc[m]._id for m in MODALITIES]


@pytest.mark.parametrize("mcla", [True, False], ids=["mcla", "base"])
@pytest.mark.parametrize("combo", ALL_COMBINATIONS, ids=[c.name for c in ALL_COMBINATIONS])
def test_finetune_step_tape_op_count(combo, mcla, monkeypatch):
    model = small_model(adapters=False)
    attach_adapters(model, Rng(1), rank=2, mcla=mcla)
    feats, labels = batch_features(seed=6)
    ortho_ops, ortho = [], orthogonality_loss

    def counted_orthogonality_loss(*args):
        start = len(tape)
        l_ort = ortho(*args)
        ortho_ops.append(len(tape) - start)
        return l_ort

    monkeypatch.setitem(globals(), "orthogonality_loss", counted_orthogonality_loss)
    with ad.Tape() as tape:
        finetune_objective(model, feats, labels, combo, 0.001)
    k = len(combo.modalities)
    assert len(tape) == ({1: 54, 2: 85, 3: 116}[k] if mcla else 7)
    # per modality: the two fused cosines, their difference, its batch mean and the running sum
    assert ortho_ops == ([5 * k] if mcla else [])


# ---------------------------------------------------------------------------
# the parameter table
# ---------------------------------------------------------------------------

class ReadRecorder:
    """Stands in for the autodiff module inside ``mculora.model``, noting the
    id of every tensor handed to one of its functions."""

    def __init__(self):
        self.read = set()

    def __getattr__(self, name):
        op = getattr(ad, name)
        if not callable(op) or isinstance(op, type):
            return op

        def recorded(*args, **kwargs):
            self.read.update(id(a) for a in args if isinstance(a, ad.Tensor))
            return op(*args, **kwargs)
        return recorded


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
@pytest.mark.parametrize("mcla", [True, False], ids=["mcla", "base"])
def test_parameter_table(mcla, loaded, tmp_path, monkeypatch):
    model = build_model(CFG, Rng(0))
    model.phase = "pretrained"
    attach_adapters(model, Rng(1), rank=2, mcla=mcla)
    model.freeze_base()
    if loaded:
        model.phase = "finetuned"
        save_checkpoint(model, tmp_path / "ckpt.mcu")
        model = load_checkpoint(tmp_path / "ckpt.mcu")
    table = model.params
    assert set(table) == set(_parameter_shapes(6, 8, 3, 2, adapters=mcla))

    groups = {group: model.parameters(group) for group in ("pretrain", "finetune")}
    assert set(groups["pretrain"]) | set(groups["finetune"]) == set(table)
    assert set(groups["pretrain"]) & set(groups["finetune"]) == {"head.com.W", "head.com.b"}
    assert all(t is table[name] for group in groups.values() for name, t in group.items())

    base = {name for name in table if name.startswith(("enc.", "fusion."))}
    assert len(base) == 19
    assert {name for name, t in table.items() if not t.requires_grad} == base

    # every tensor a layer holds is the table's own object ...
    held = [(f"enc.{m}.{k}", getattr(model.encoders[m], k)) for m in MODALITIES for k in ("W1", "b1", "W2", "b2")]
    held += [("fusion.query", model.fusion.query)]
    held += [(f"fusion.{m}.W{kind}", side[m]) for m in MODALITIES
             for kind, side in (("k", model.fusion.keys), ("v", model.fusion.values))]
    for m in MODALITIES if model.has_adapters else ():
        for pair_name, pair in adapter_pairs(model, m):
            held += [(f"adapter.{m}.{pair_name}.A", pair.A), (f"adapter.{m}.{pair_name}.B", pair.B)]
    assert len(held) == (19 + 30 if mcla else 19)
    assert all(t is table[name] for name, t in held)
    # ... and the forward passes of the seven combinations read every table entry, heads and gate included
    recorder = ReadRecorder()
    monkeypatch.setattr(model_module, "ad", recorder)
    feats, _ = batch_features(seed=12)
    for combo in ALL_COMBINATIONS:
        forward_batch(model, {m: feats[m] for m in combo})
    assert {name for name, t in table.items() if id(t) in recorder.read} == set(table)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_bitwise(tmp_path):
    model = small_model(seed=5)
    model.phase = "finetuned"
    path = tmp_path / "ckpt.mcu"
    save_checkpoint(model, path)
    assert serialize.load_container(path)[1] == {"alpha": 1.0, "phase": "finetuned"}
    loaded = load_checkpoint(path)
    assert loaded.phase == "finetuned"
    orig = model.params
    new = loaded.params
    assert set(orig) == set(new)
    for name in orig:
        assert np.array_equal(orig[name].data, new[name].data), name
    utt = sample_features(6)
    assert np.array_equal(predict_one(utt, model), predict_one(utt, loaded))


def test_checkpoint_bytes_reproducible(tmp_path):
    p1, p2 = tmp_path / "a.mcu", tmp_path / "b.mcu"
    save_checkpoint(small_model(seed=7), p1)
    save_checkpoint(small_model(seed=7), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_save_starts_no_thread(tmp_path, monkeypatch):
    def refuse(writer):
        raise AssertionError(f"checkpoint save started writer thread {writer.name}")
    monkeypatch.setattr(serialize._BlobWriter, "start", refuse)
    model = small_model(seed=7)
    model.phase = "finetuned"  # only a finetuned checkpoint holds adapters
    save_checkpoint(model, tmp_path / "ckpt.mcu")  # a checkpoint holds no chunked array
    loaded = load_checkpoint(tmp_path / "ckpt.mcu")
    assert all(np.array_equal(t.data, loaded.params[k].data) for k, t in model.params.items())


def test_model_construction_is_seed_deterministic():
    m1 = small_model(seed=11)
    m2 = small_model(seed=11)
    p1, p2 = m1.params, m2.params
    for name in p1:
        assert np.array_equal(p1[name].data, p2[name].data)


def test_gate_weight_strictly_inside_unit_interval():
    model = small_model()
    huge = ad.constant(np.full((2, 8), 1e6))
    w = model.heads.gate_weight(huge)
    assert np.all(w.data > 0.0) and np.all(w.data < 1.0)
