import math

import numpy as np
import pytest

from mculora import autodiff as ad
from mculora.errors import ContractError
from mculora.losses import orthogonality_loss, task_loss, total_loss
from mculora.modalities import ALL_COMBINATIONS, A, T
from mculora.rng import Rng

from conftest import central_difference, rel_err


def vec(*vals):
    return ad.constant(np.array(vals, dtype=np.float64))


# ---------------------------------------------------------------------------
# orthogonality loss
# ---------------------------------------------------------------------------

def test_equal_vectors_cancel():
    r = vec(1.0, 2.0, 3.0)
    out = orthogonality_loss({"a": r}, {A: {"a": r}}, {"a": r})
    assert out.item() == pytest.approx(0.0, abs=1e-12)


def test_orthogonal_private_parallel_encoder_gives_minus_one():
    com = vec(1.0, 0.0)
    prt = vec(0.0, 1.0)
    enc = vec(2.0, 0.0)
    out = orthogonality_loss({"a": com}, {A: {"a": prt}}, {"a": enc})
    assert out.item() == pytest.approx(-1.0, abs=1e-12)


def oracle_cos(u, v):
    nu = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(x * x for x in v))
    if nu <= 1e-12 or nv <= 1e-12:
        return 0.0
    return sum(a * b for a, b in zip(u, v)) / (nu * nv)


def test_random_vectors_match_term_by_term_oracle():
    rng = Rng(21)
    mods = ("a", "t")
    combos = ALL_COMBINATIONS[3:6]
    common = {m: rng.normal(size=8) for m in mods}
    encoder = {m: rng.normal(size=8) for m in mods}
    private = {c: {m: rng.normal(size=8) for m in mods} for c in combos}

    out = orthogonality_loss(
        {m: ad.constant(v) for m, v in common.items()},
        {c: {m: ad.constant(v) for m, v in per.items()} for c, per in private.items()},
        {m: ad.constant(v) for m, v in encoder.items()},
    )
    expected = 0.0
    for c in combos:
        for m in mods:
            expected += oracle_cos(common[m], private[c][m]) - oracle_cos(common[m], encoder[m])
    assert out.item() == pytest.approx(expected, abs=1e-12)


def test_orthogonality_bound():
    rng = Rng(22)
    for _ in range(20):
        mods = ("a", "t", "v")
        combos = list(ALL_COMBINATIONS)
        common = {m: ad.constant(rng.normal(size=5)) for m in mods}
        encoder = {m: ad.constant(rng.normal(size=5)) for m in mods}
        private = {c: {m: ad.constant(rng.normal(size=5)) for m in mods} for c in combos}
        out = orthogonality_loss(common, private, encoder)
        assert abs(out.item()) <= 2 * len(combos) * len(mods) + 1e-12


def test_scale_invariance():
    rng = Rng(23)
    common = rng.normal(size=6)
    prt = rng.normal(size=6)
    enc = rng.normal(size=6)
    base = orthogonality_loss({"a": ad.constant(common)}, {A: {"a": ad.constant(prt)}},
                              {"a": ad.constant(enc)}).item()
    for c in (0.01, 3.0, 1e4):
        scaled = orthogonality_loss({"a": ad.constant(common * c)}, {A: {"a": ad.constant(prt)}},
                                    {"a": ad.constant(enc)}).item()
        assert scaled == pytest.approx(base, abs=1e-9)


def test_degenerate_vectors_contribute_zero():
    zero = vec(0.0, 0.0)
    r = vec(1.0, 1.0)
    out = orthogonality_loss({"a": zero}, {A: {"a": r}}, {"a": r})
    assert out.item() == 0.0


def test_batched_rows_average_over_samples():
    u = ad.constant([[1.0, 0.0], [0.0, 1.0]])
    v = ad.constant([[1.0, 0.0], [1.0, 0.0]])
    enc = ad.constant([[1.0, 0.0], [0.0, 1.0]])
    out = orthogonality_loss({"a": u}, {A: {"a": v}}, {"a": enc})
    # row cosines: (1, 0) vs (1, 1) baselines -> mean(1,0) - mean(1,1) = -0.5
    assert out.item() == pytest.approx(-0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# task losses
# ---------------------------------------------------------------------------

def test_uniform_logits_cross_entropy_is_ln4():
    out = task_loss(ad.constant([[1.0, 1.0, 1.0, 1.0]]), [0], "classification")
    assert out.item() == pytest.approx(math.log(4.0), abs=1e-12)


def test_task_loss_accepts_classification_only():
    logits = ad.constant([[1.0, 1.0, 1.0, 1.0]])
    assert task_loss(logits, [0]).item() == task_loss(logits, [0], "classification").item()
    for kind in ("regression", "Classification", ""):
        with pytest.raises(ContractError, match="unknown task kind"):
            task_loss(logits, [0], kind)


def test_cross_entropy_analytic_case():
    # logits (2,0,0,0) label 0 -> ln(1 + 3 e^-2)
    out = task_loss(ad.constant([[2.0, 0.0, 0.0, 0.0]]), [0], "classification")
    expected = math.log(1.0 + 3.0 * math.exp(-2.0))
    assert out.item() == pytest.approx(expected, abs=1e-12)


def test_cross_entropy_nonnegative_and_tight_only_when_confident():
    rng = Rng(31)
    for _ in range(50):
        logits = rng.normal(size=(4, 5)) * 3
        labels = rng.integers(0, 5, size=4)
        val = task_loss(ad.constant(logits), labels, "classification").item()
        assert val >= 0.0
    confident = np.full((1, 4), -50.0)
    confident[0, 2] = 50.0
    assert task_loss(ad.constant(confident), [2], "classification").item() == pytest.approx(0.0, abs=1e-12)


def test_label_out_of_range_rejected():
    with pytest.raises(ContractError):
        task_loss(ad.constant([[0.0, 0.0]]), [2], "classification")
    with pytest.raises(ContractError):
        task_loss(ad.constant([[0.0, 0.0]]), [-1], "classification")


# ---------------------------------------------------------------------------
# total loss
# ---------------------------------------------------------------------------

def test_total_loss_beta_zero():
    out = total_loss(vec(1.25), vec(77.0), 0.0)
    assert out.item() == 1.25


def test_total_loss_paper_beta():
    out = total_loss(vec(1.0), vec(2.0), 0.001)
    assert out.item() == pytest.approx(1.002, abs=1e-15)


def test_total_loss_zero_regularizer():
    for beta in (0.0, 0.5, 10.0):
        assert total_loss(vec(3.0), vec(0.0), beta).item() == 3.0


def test_loss_report_invariant():
    lt, lo = vec(0.7), vec(-0.4)
    total = total_loss(lt, lo, 0.001)
    assert abs(total.item() - (lt.item() + 0.001 * lo.item())) <= 1e-12


# ---------------------------------------------------------------------------
# gradients of the combined objective
# ---------------------------------------------------------------------------

def test_total_loss_gradient_matches_finite_differences():
    rng = Rng(33)
    com0 = rng.normal(size=6)
    prt0 = rng.normal(size=6)
    enc = rng.normal(size=6)
    logits0 = rng.normal(size=(2, 3))

    def run(com_np, prt_np, logits_np):
        com = ad.Tensor(com_np, requires_grad=True)
        prt = ad.Tensor(prt_np, requires_grad=True)
        logits = ad.Tensor(logits_np, requires_grad=True)
        with ad.Tape() as tape:
            l_ort = orthogonality_loss({"t": com}, {T: {"t": prt}}, {"t": ad.constant(enc)})
            l_task = task_loss(logits, [0, 2], "classification")
            ltot = total_loss(l_task, l_ort, 0.001)
        ad.gradients(ltot, tape)
        return float(ltot.data), com.grad, prt.grad, logits.grad

    _, g_com, g_prt, g_logits = run(com0, prt0, logits0)
    fd_com = central_difference(lambda x: run(x, prt0, logits0)[0], com0)
    fd_prt = central_difference(lambda x: run(com0, x, logits0)[0], prt0)
    fd_logits = central_difference(lambda x: run(com0, prt0, x)[0], logits0)
    for a, b in zip(
        np.concatenate([g_com, g_prt, g_logits.ravel()]),
        np.concatenate([fd_com, fd_prt, fd_logits.ravel()]),
    ):
        assert rel_err(a, b) <= 1e-5
