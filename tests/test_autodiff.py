import math
import tracemalloc

import numpy as np
import pytest

from mculora import autodiff as ad
from mculora.errors import ContractError
from mculora.rng import Rng

from conftest import central_difference, rel_err


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def test_matmul_identity():
    eye = ad.constant(np.eye(2))
    m = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(eye, m)
    assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_analytic_2x2_2x1():
    a = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    b = ad.constant([[1.0], [1.0]])
    out = ad.matmul(a, b)
    assert np.array_equal(out.data, [[3.0], [7.0]])


def test_matmul_zero_annihilates():
    z = ad.constant(np.zeros((2, 2)))
    b = ad.constant(np.arange(6.0).reshape(2, 3))
    assert np.array_equal(ad.matmul(z, b).data, np.zeros((2, 3)))


def test_matmul_shape_error_names_both_shapes():
    a = ad.constant(np.zeros((2, 3)))
    b = ad.constant(np.zeros((2, 3)))
    with pytest.raises(ContractError) as exc:
        ad.matmul(a, b)
    assert "(2, 3)" in str(exc.value)


def test_matmul_associativity_random_chains():
    rng = Rng(123)
    for _ in range(25):
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 3))
        c = rng.normal(size=(3, 6))
        left = (a @ b) @ c
        right = a @ (b @ c)
        assert np.max(np.abs(left - right)) <= 1e-9


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_gradient_of_sum_of_squares():
    x = ad.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.tsum(ad.mul(x, x))
    grads = ad.gradients(loss, tape)
    assert np.allclose(x.grad, [2.0, 4.0, 6.0])
    assert grads[x._id] is x.grad


def test_gradient_of_constant_loss_is_zero():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.tsum(ad.mul(x, ad.constant([0.0, 0.0])))
    ad.gradients(loss, tape)
    assert np.array_equal(x.grad, [0.0, 0.0])


def test_gradient_cosine_matches_central_differences():
    u0 = np.array([1.0, 0.0])
    v0 = np.array([1.0, 1.0])

    def loss_fn(u_np, v_np):
        u = ad.Tensor(u_np, requires_grad=True)
        v = ad.Tensor(v_np, requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.row_cosine(u, v)
        ad.gradients(loss, tape)
        return loss.item(), u.grad, v.grad

    _, gu, gv = loss_fn(u0, v0)
    fd_u = central_difference(lambda x: float_cos(x, v0), u0)
    fd_v = central_difference(lambda x: float_cos(u0, x), v0)
    for a, b in zip(np.concatenate([gu, gv]), np.concatenate([fd_u, fd_v])):
        assert rel_err(a, b) <= 1e-5


def float_cos(u, v):
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


def test_gradients_requires_scalar_loss():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with ad.Tape() as tape:
        y = ad.mul(x, x)
    with pytest.raises(ContractError):
        ad.gradients(y, tape)


def test_tensor_off_tape_absent_from_map():
    x = ad.Tensor([1.0], requires_grad=True)
    bystander = ad.Tensor([5.0], requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.tsum(ad.mul(x, x))
    grads = ad.gradients(loss, tape)
    assert bystander._id not in grads
    assert bystander.grad is None


def test_backward_visits_each_op_once_with_shared_subexpression():
    # y = (x*x) reused twice; gradient must accumulate both consumers.
    x = ad.Tensor([3.0], requires_grad=True)
    with ad.Tape() as tape:
        sq = ad.mul(x, x)
        loss = ad.tsum(ad.add(sq, sq))
    ad.gradients(loss, tape)
    assert np.allclose(x.grad, [12.0])  # d/dx 2x^2 = 4x


def test_backward_holds_a_few_gradients_of_a_long_chain_and_leaves_the_tape():
    # K elementwise ops on one array of S bytes: each op output's gradient is
    # dropped once its op has replayed, so backward holds a few arrays of S
    # bytes at a time, not one per op
    k, x = 40, ad.Tensor(np.linspace(-1.0, 1.0, 1 << 14), requires_grad=True)
    size = x.data.nbytes
    with ad.Tape() as tape:
        y = x
        for i in range(k):
            y = ad.tanh(y) if i % 2 else ad.mul(y, 1.01)
        loss = ad.tsum(y)
    ops = len(tape)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ad.gradients(loss, tape)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(tape) == ops == k + 1
    assert peak < 5 * size, (peak, size)
    assert x.grad.shape == x.shape and loss.grad is None  # only the leaf that requires a gradient gets one


@pytest.mark.parametrize("trial", range(4))
def test_random_graph_gradients_match_finite_differences(trial):
    # 100+ random coordinate checks across a mixed op graph (25 per trial x 4 trials x >1 coords)
    rng = Rng(1000 + trial)
    w0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=(1, 4)) * 0.1
    x = rng.normal(size=(5, 3))

    def run(w_np, b_np):
        w = ad.Tensor(w_np, requires_grad=True)
        b = ad.Tensor(b_np, requires_grad=True)
        with ad.Tape() as tape:
            h = ad.tanh(ad.add(ad.matmul(ad.constant(x), w), b))
            s = ad.softmax(h, axis=1)
            loss = ad.tmean(ad.mul(s, ad.sigmoid(h)))
        ad.gradients(loss, tape)
        return float(loss.data), w.grad, b.grad

    _, gw, gb = run(w0, b0)
    fd_w = central_difference(lambda m: run(m, b0)[0], w0)
    fd_b = central_difference(lambda m: run(w0, m)[0], b0)
    for a, b_ in zip(gw.ravel(), fd_w.ravel()):
        assert rel_err(a, b_) <= 1e-5
    for a, b_ in zip(gb.ravel(), fd_b.ravel()):
        assert rel_err(a, b_) <= 1e-5


# ---------------------------------------------------------------------------
# cosine similarity
# ---------------------------------------------------------------------------

def test_cosine_parallel_is_one():
    u = ad.constant([3.0, 4.0])
    assert ad.row_cosine(u, u).item() == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal_is_zero():
    out = ad.row_cosine(ad.constant([1.0, 0.0]), ad.constant([0.0, 1.0]))
    assert out.item() == pytest.approx(0.0, abs=1e-12)


def test_cosine_analytic_inv_sqrt2():
    out = ad.row_cosine(ad.constant([1.0, 0.0]), ad.constant([1.0, 1.0]))
    assert out.item() == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_row_cosine_matches_scalar_and_masks_degenerate_rows():
    u = ad.constant([[1.0, 0.0], [0.0, 0.0], [2.0, 2.0]])
    v = ad.constant([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    out = ad.row_cosine(u, v)
    assert out.data[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert out.data[1] == 0.0
    assert out.data[2] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def test_softmax_symmetric_pair():
    out = ad.softmax(ad.constant([0.0, 0.0]))
    assert np.allclose(out.data, [0.5, 0.5], atol=1e-12)


def test_softmax_analytic_ln2():
    out = ad.softmax(ad.constant([math.log(2.0), 0.0]))
    assert np.allclose(out.data, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_softmax_large_inputs_do_not_overflow():
    out = ad.softmax(ad.constant([1000.0, 0.0]))
    assert np.isfinite(out.data).all()
    assert out.data[0] == pytest.approx(1.0)
    assert out.data[1] == pytest.approx(0.0, abs=1e-300)


def test_softmax_sums_to_one():
    rng = Rng(7)
    for _ in range(20):
        v = rng.normal(size=9) * 10
        out = ad.softmax(ad.constant(v))
        assert abs(out.data.sum() - 1.0) <= 1e-12
        assert (out.data > 0).all()


def test_softmax_empty_is_contract_error():
    with pytest.raises(ContractError):
        ad.softmax(ad.constant(np.zeros(0)))


# ---------------------------------------------------------------------------
# misc ops used by the model
# ---------------------------------------------------------------------------

def test_take_per_row_forward_and_backward():
    a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    with ad.Tape() as tape:
        picked = ad.take_per_row(a, [1, 0])
        loss = ad.tsum(picked)
    assert np.array_equal(picked.data, [2.0, 3.0])
    ad.gradients(loss, tape)
    assert np.array_equal(a.grad, [[0.0, 1.0], [1.0, 0.0]])


def test_concat_narrow_roundtrip_gradients():
    a = ad.Tensor([[1.0, 2.0]], requires_grad=True)
    b = ad.Tensor([[3.0, 4.0]], requires_grad=True)
    with ad.Tape() as tape:
        joined = ad.concat([a, b], axis=1)
        right = ad.narrow(joined, 1, 2, 2)
        loss = ad.tsum(ad.mul(right, right))
    ad.gradients(loss, tape)
    assert np.array_equal(a.grad, [[0.0, 0.0]])
    assert np.array_equal(b.grad, [[6.0, 8.0]])


def test_mean_axis_backward():
    a = ad.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with ad.Tape() as tape:
        pooled = ad.tmean(a, axis=0)
        loss = ad.tsum(pooled)
    ad.gradients(loss, tape)
    assert np.allclose(a.grad, 0.5)


def hidden_through(dropout_p, rng):
    """tanh_mlp_mean on one position per row with identity output weights, so
    that its output is the hidden layer, tanh(1) everywhere, after dropout;
    also the gradient of the output's sum on the hidden bias."""
    b1 = ad.Tensor(np.ones((1, 10)), requires_grad=True)
    with ad.Tape() as tape:
        out = ad.tanh_mlp_mean(np.zeros((100, 1, 4)), np.zeros((4, 10)), b1, np.eye(10), np.zeros((1, 10)),
                               dropout_p, rng)
        loss = ad.tsum(out)
    ad.gradients(loss, tape)
    return out.data, b1.grad


def test_tanh_mlp_mean_draws_no_dropout_mask_at_zero_probability():
    rng = Rng(0)
    out, _ = hidden_through(0.0, rng)
    assert np.array_equal(out, np.full((100, 10), np.tanh(1.0)))
    assert np.array_equal(rng.uniform(size=5), Rng(0).uniform(size=5))  # nothing was drawn from the stream


def test_tanh_mlp_mean_dropout_scales_and_masks():
    out, b1_grad = hidden_through(0.5, Rng(5))
    kept = out != 0
    assert np.allclose(out[kept], 2.0 * np.tanh(1.0))
    assert 0.35 < kept.mean() < 0.65
    assert np.allclose(b1_grad, kept.sum(axis=0) * 2.0 * (1.0 - np.tanh(1.0) ** 2))  # the same mask backward
    for p in (-0.1, 1.0):
        with pytest.raises(ContractError, match=r"dropout probability must be in \[0, 1\)"):
            hidden_through(p, Rng(5))


def test_values_finite_after_forward_backward_pass():
    rng = Rng(11)
    w = ad.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    with ad.Tape() as tape:
        out = ad.log_softmax(ad.matmul(ad.constant(rng.normal(size=(3, 4))), w), axis=1)
        loss = ad.tmean(out)
    ad.check_finite(loss, "loss")
    ad.gradients(loss, tape)
    assert np.isfinite(w.grad).all()


def test_mul_and_matmul_backward_yield_only_tracked_operands():
    rng = Rng(8)
    u, w = (ad.Tensor(rng.normal(size=shape), requires_grad=True) for shape in ((5, 4), (4, 3)))
    x, c, scale = (ad.constant(rng.normal(size=shape)) for shape in ((5, 4), (4, 3), (1, 3)))
    with ad.Tape() as tape:
        outs = [ad.matmul(x, w), ad.matmul(u, c), ad.mul(scale, w), ad.mul(w, scale)]
    g = [rng.normal(size=out.shape) for out in outs]
    # each replay yields the tracked operand's gradient alone, as computed with both operands tracked
    expected = [[(w, x.data.T @ g[0])], [(u, g[1] @ c.data.T)], [(w, g[2] * scale.data)], [(w, g[3] * scale.data)]]
    assert [out_id for out_id, _ in tape.ops] == [out._id for out in outs]
    for (_, backward), grad, want in zip(tape.ops, g, expected):
        got = list(backward(grad))
        assert [t for t, _ in got] == [t for t, _ in want]
        assert all(a.tobytes() == b.tobytes() for (_, a), (_, b) in zip(got, want))


def test_untracked_graph_records_nothing():
    a = ad.constant([[1.0, 2.0]])
    with ad.Tape() as tape:
        ad.mul(a, a)
    assert len(tape) == 0
