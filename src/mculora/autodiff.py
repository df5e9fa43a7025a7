"""Dense float64 tensors with tape-based reverse-mode differentiation.

Values are computed eagerly on numpy arrays, and every primitive takes
Tensors only (wrap a number or an array in :func:`constant`). While a
:class:`Tape` is active (used as a context manager), every primitive that
touches a tracked tensor appends a backward closure to the tape;
:func:`gradients` then replays the tape once, in reverse, accumulating
vector-Jacobian products. Because ops are recorded in creation order the
tape is topologically sorted by construction.

Tensors are immutable once produced by an op. Tapes nest: the innermost
active one records, and the stack of active tapes is one module-level list,
so a process runs its tapes on one thread. With no tape active, the same
functions run as plain (and cheaper) numpy evaluation.

A fused op is one op standing for a chain of primitives: the encoder's
:func:`tanh_mlp_mean` and the orthogonality term's :func:`row_cosine`. It
records one backward closure and keeps only what that closure reads. Its
replay rule: forward and backward run the chain's numpy expressions in the
chain's order, and the backward returns its contributions to each input one
by one, in the order the chain's replay would have added them, since
:func:`gradients` sums contributions in the order they come and float
addition is not associative. So its values and gradients are the chain's bit
for bit.

Everything is float64: the package's verification budget (finite-difference
gradient checks at 1e-5 relative error, analytic oracles at 1e-12) is not
reachable in single precision.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ContractError

_ids = itertools.count(1)

#: Vectors with a norm at or below this are treated as degenerate by cosine ops.
NORM_EPS = 1e-12


class Tensor:
    """N-d float64 array participating in a differentiable computation."""

    __slots__ = ("data", "requires_grad", "grad", "_id", "_tracked")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._id = next(_ids)
        self._tracked = self.requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _not_scalar(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _not_scalar(t: Tensor):
    raise ContractError(f"expected a scalar tensor, got shape {t.shape}")


def constant(value) -> Tensor:
    """Untracked tensor wrapping the given value."""
    return Tensor(value, requires_grad=False)


def freeze(tensors) -> None:
    """Stop training the given parameters: later ops neither record them on a
    tape nor compute their gradients, and any gradient they hold is dropped."""
    for t in tensors:
        t.requires_grad = False
        t._tracked = False
        t.grad = None


_tapes: list[Tape] = []  # active tapes, innermost last


class Tape:
    """Ordered record of primitive operations (inputs always precede use)."""

    def __init__(self):
        self.ops: list[tuple[int, object]] = []

    def __enter__(self) -> "Tape":
        _tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _tapes.pop()
        if popped is not self:  # pragma: no cover - defensive
            raise ContractError("tape context exited out of order")

    def __len__(self) -> int:
        return len(self.ops)


def _recording(inputs: tuple[Tensor, ...]) -> bool:
    """Whether an op on `inputs` is recorded: a tape is active and an input is tracked."""
    return bool(_tapes) and any(t._tracked for t in inputs)


def _record(out: Tensor, inputs: tuple[Tensor, ...], backward) -> None:
    if not _recording(inputs):
        return
    out._tracked = True
    _tapes[-1].ops.append((out._id, backward))


def gradients(loss: Tensor, tape: Tape) -> dict[int, np.ndarray]:
    """Reverse-accumulate d(loss)/d(tensor) over the tape; the loss is the
    scalar output of an op on it.

    Returns a map from tensor id to gradient for every requires_grad tensor
    that participated in the computation; those tensors also get their
    ``grad`` attribute (re)assigned. Tensors never touched by the tape are
    simply absent from the map. The trainer reads the ``grad`` attributes;
    the benchmark's tracing reads the map's length, the denominator of its
    useful-gradient ratio.

    An op output's gradient is complete once its op replays, since every op
    that read it was recorded later and so replayed earlier; it is dropped
    then, so backward holds the gradients still being summed, not one per op.
    Contributions to untracked tensors, which no op on the tape produced and
    which take no gradient, are dropped as they come. The tape is left as it
    was.
    """
    if loss.size != 1:
        raise ContractError(f"gradients: loss must be scalar, got shape {loss.shape}")
    grad_map: dict[int, np.ndarray] = {loss._id: np.ones_like(loss.data)}
    leaves: dict[int, Tensor] = {}
    for out_id, backward in reversed(tape.ops):
        g = grad_map.pop(out_id, None)
        if g is None:
            continue
        for tensor, contrib in backward(g):
            if not tensor._tracked:
                continue
            prev = grad_map.get(tensor._id)
            grad_map[tensor._id] = contrib if prev is None else prev + contrib
            if tensor.requires_grad:
                leaves[tensor._id] = tensor
    result: dict[int, np.ndarray] = {}
    for tid, tensor in leaves.items():
        tensor.grad = grad_map[tid]
        result[tid] = grad_map[tid]
    return result


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g over the axes numpy broadcast when producing it from `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    out = Tensor(a.data + b.data)

    def backward(g):
        return ((a, _unbroadcast(g, a.shape)), (b, _unbroadcast(g, b.shape)))

    _record(out, (a, b), backward)
    return out


def sub(a, b) -> Tensor:
    out = Tensor(a.data - b.data)

    def backward(g):
        return ((a, _unbroadcast(g, a.shape)), (b, _unbroadcast(-g, b.shape)))

    _record(out, (a, b), backward)
    return out


def neg(a) -> Tensor:
    out = Tensor(-a.data)
    _record(out, (a,), lambda g: ((a, -g),))
    return out


def mul(a, b) -> Tensor:
    out = Tensor(a.data * b.data)

    def backward(g):  # constant operands (batch features, scales, masks) get no product
        return tuple((x, _unbroadcast(g * y.data, x.shape)) for x, y in ((a, b), (b, a)) if x._tracked)

    _record(out, (a, b), backward)
    return out


def matmul(a, b) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ContractError(f"matmul expects 2-D operands, got shapes {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ContractError(f"matmul: inner dimensions disagree for shapes {a.shape} and {b.shape}")
    out = Tensor(a.data @ b.data)

    def backward(g):  # constant operands (batch features, frozen weights) get no product
        pairs = []
        if a._tracked:
            pairs.append((a, g @ b.data.T))
        if b._tracked:
            pairs.append((b, a.data.T @ g))
        return pairs

    _record(out, (a, b), backward)
    return out


def transpose(a) -> Tensor:
    if a.ndim != 2:
        raise ContractError(f"transpose expects a 2-D tensor, got shape {a.shape}")
    out = Tensor(a.data.T)
    _record(out, (a,), lambda g: ((a, g.T),))
    return out


def reshape(a, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    _record(out, (a,), lambda g: ((a, g.reshape(a.shape)),))
    return out


def tmean(a, axis=None) -> Tensor:
    out = Tensor(a.data.mean(axis=axis))
    count = a.size if axis is None else a.shape[axis]

    def backward(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        return ((a, np.broadcast_to(gg / count, a.shape).copy()),)

    _record(out, (a,), backward)
    return out


def concat(tensors, axis: int = 0) -> Tensor:
    ts = tuple(tensors)
    if not ts:
        raise ContractError("concat of an empty sequence")
    out = Tensor(np.concatenate([t.data for t in ts], axis=axis))
    sizes = [t.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        parts = np.split(g, splits, axis=axis)
        return tuple(zip(ts, parts))

    _record(out, ts, backward)
    return out


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    out = Tensor(a.data[index].copy())

    def backward(g):
        full = np.zeros(a.shape)
        full[index] = g
        return ((a, full),)

    _record(out, (a,), backward)
    return out


def tanh(a) -> Tensor:
    out = Tensor(np.tanh(a.data))
    _record(out, (a,), lambda g: ((a, g * (1.0 - out.data * out.data)),))
    return out


def sigmoid(a) -> Tensor:
    x = a.data
    s = np.empty_like(x)
    pos = x >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    s[~pos] = ex / (1.0 + ex)
    out = Tensor(s)
    _record(out, (a,), lambda g: ((a, g * out.data * (1.0 - out.data)),))
    return out


def clip(a, low: float, high: float) -> Tensor:
    """Clamp values to [low, high]; gradient passes through the interior only."""
    out = Tensor(np.clip(a.data, low, high))
    inside = ((a.data > low) & (a.data < high)).astype(np.float64)
    _record(out, (a,), lambda g: ((a, g * inside),))
    return out


def softmax(a, axis: int = -1) -> Tensor:
    """Row-stable softmax: positive entries summing to one along `axis`."""
    if a.size == 0:
        raise ContractError("softmax of an empty tensor")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(s)

    def backward(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return ((a, s * (g - dot)),)

    _record(out, (a,), backward)
    return out


def log_softmax(a, axis: int = -1) -> Tensor:
    if a.size == 0:
        raise ContractError("log_softmax of an empty tensor")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = Tensor(shifted - lse)
    soft = np.exp(out.data)

    def backward(g):
        return ((a, g - soft * g.sum(axis=axis, keepdims=True)),)

    _record(out, (a,), backward)
    return out


def take_per_row(a, indices) -> Tensor:
    """out[i] = a[i, indices[i]] for a 2-D tensor."""
    if a.ndim != 2:
        raise ContractError(f"take_per_row expects a 2-D tensor, got shape {a.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 or idx.shape[0] != a.shape[0]:
        raise ContractError(f"take_per_row: index length {idx.shape} does not match rows of {a.shape}")
    rows = np.arange(a.shape[0])
    out = Tensor(a.data[rows, idx])

    def backward(g):
        full = np.zeros(a.shape)
        full[rows, idx] = g
        return ((a, full),)

    _record(out, (a,), backward)
    return out


# ---------------------------------------------------------------------------
# fused layers
# ---------------------------------------------------------------------------

def tanh_mlp_mean(x, W1, b1, W2, b2, dropout_p: float, rng, work=None) -> Tensor:
    """(B, L, D) rows -> (B, d): the mean over the L positions of
    dropout(tanh(x W1 + b1)) W2 + b2, with inverted dropout of probability
    `dropout_p` in [0, 1): a uniform draw from `rng` per hidden unit keeps it,
    scaled by 1 / (1 - p), when at least p. At p = 0 nothing is drawn.

    One op in place of the chain matmul, add, tanh, dropout, matmul, add,
    reshape, tmean, bit-identical to it by the replay rule (module
    docstring). On a tape it holds x, the tanh output and the dropout mask;
    off one it holds nothing. `work`, a pair of C-contiguous float64 arrays
    of at least B * L rows and the hidden and output widths, takes the
    (B * L, d) hidden and output arrays in place of fresh ones when the op
    is not recorded, so a caller that encodes chunk after chunk off the tape
    allocates them once; a recorded op keeps its hidden array for the
    backward pass, so it always gets fresh ones."""
    if not 0.0 <= dropout_p < 1.0:
        raise ContractError(f"dropout probability must be in [0, 1), got {dropout_p}")
    if x.ndim != 3 or x.shape[2] != W1.shape[0]:
        raise ContractError(f"tanh_mlp_mean expects (B, L, {W1.shape[0]}) rows, got shape {x.shape}")
    B, L, D = x.shape
    x2d = x.data.reshape(B * L, D)
    hidden, output = ((None, None) if work is None or _recording((x, W1, b1, W2, b2))
                      else (buf[:B * L] for buf in work))
    h = np.matmul(x2d, W1.data, out=hidden)
    h += b1.data
    np.tanh(h, out=h)
    mask = (rng.uniform(size=h.shape) >= dropout_p) / (1.0 - dropout_p) if dropout_p > 0.0 else None
    z = np.matmul(h if mask is None else h * mask, W2.data, out=output)
    z += b2.data
    out = Tensor(z.reshape(B, L, -1).mean(axis=1))

    def backward(g):  # untracked operands (the rows, frozen weights) get no product
        gz = np.broadcast_to(np.expand_dims(g, 1) / L, (B, L, g.shape[1])).copy().reshape(B * L, -1)
        pairs = []
        if W2._tracked:
            pairs.append((W2, (h if mask is None else h * mask).T @ gz))
        if b2._tracked:
            pairs.append((b2, _unbroadcast(gz, b2.shape)))
        if not (W1._tracked or b1._tracked or x._tracked):
            return pairs
        ga = gz @ W2.data.T
        if mask is not None:
            ga = ga * mask
        ga = ga * (1.0 - h * h)
        if W1._tracked:
            pairs.append((W1, x2d.T @ ga))
        if b1._tracked:
            pairs.append((b1, _unbroadcast(ga, b1.shape)))
        if x._tracked:
            pairs.append((x, (ga @ W1.data.T).reshape(x.shape)))
        return pairs

    _record(out, (x, W1, b1, W2, b2), backward)
    return out


def row_cosine(u: Tensor, v: Tensor) -> Tensor:
    """(B, d) rows -> (B,): the cosine of each row of u with the same row of
    v; two d-vectors are one row. A degenerate row, where either norm is at
    or below NORM_EPS, gives 0 and passes no gradient: it is masked out of the
    numerator and the denominator before the square root, so no gradient path
    divides by zero.

    One op in place of the chain mul, tsum, mul, tsum, mul, add, mul, add,
    mul, sqrt, mul, tsum, mul, div (sums over each row), bit-identical to it
    on (B, d) rows by the replay rule (module docstring). An untracked
    operand (the frozen encoder rows) gets no product."""
    ud, vd = (t.data.reshape(1, -1) if t.ndim == 1 else t.data for t in (u, v))
    if ud.shape != vd.shape or ud.ndim != 2:
        raise ContractError(f"row_cosine expects matching (B, d) tensors, got {u.shape} and {v.shape}")
    uu = (ud * ud).sum(axis=1)
    vv = (vd * vd).sum(axis=1)
    ok = ((uu > NORM_EPS * NORM_EPS) & (vv > NORM_EPS * NORM_EPS)).astype(np.float64)
    pad = 1.0 - ok
    nu, nv = uu * ok + pad, vv * ok + pad
    den = np.sqrt(nu * nv)
    num = (ud * vd).sum(axis=1) * ok
    out = Tensor(num / den)

    def backward(g):  # in the chain's replay order: mul(u, v), then mul(v, v) and mul(u, u), each operand twice
        guv = np.expand_dims(g / den * ok, 1)
        gp = -g * num / (den * den) / (2.0 * den)
        pairs = []
        if u._tracked:
            pairs.append((u, guv * vd))
        if v._tracked:
            gv = np.expand_dims(gp * nu * ok, 1) * vd
            pairs += [(v, guv * ud), (v, gv), (v, gv)]
        if u._tracked:
            gu = np.expand_dims(gp * nv * ok, 1) * ud
            pairs += [(u, gu), (u, gu)]
        return [(t, c.reshape(t.shape)) for t, c in pairs]

    _record(out, (u, v), backward)
    return out


def check_finite(t: Tensor, what: str = "tensor") -> Tensor:
    """Raise ContractError if any entry is NaN/Inf; returns the tensor."""
    if not np.isfinite(t.data).all():
        raise ContractError(f"{what} contains non-finite values")
    return t
