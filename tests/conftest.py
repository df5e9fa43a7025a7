"""Shared test helpers: independent numerical oracles, and a whole-range dataset file read."""

from __future__ import annotations

import math

import numpy as np

from mculora.modalities import MODALITIES
from mculora.synthgen import Dataset, DatasetFile


def read_dataset(path, rows=lambda n: slice(0, n)) -> Dataset:
    """The rows `rows` (by default all) of the dataset file at `path`, read in one slice; the file is closed."""
    with DatasetFile(path, rows) as data:
        return Dataset({m: data.read(m, slice(None)) for m in MODALITIES}, data.labels)


def central_difference(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Gradient of scalar f at x by central differences, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + h
        fp = f(x)
        xf[i] = orig - h
        fm = f(x)
        xf[i] = orig
        flat[i] = (fp - fm) / (2.0 * h)
    return grad


def rel_err(a: float, b: float, floor: float = 1e-8) -> float:
    """|a-b| scaled by the larger magnitude; tiny values compared absolutely."""
    denom = max(abs(a), abs(b))
    if denom < floor:
        return abs(a - b)
    return abs(a - b) / denom


def lstsq_probe_accuracy(features: np.ndarray, labels: np.ndarray, num_classes: int) -> float:
    """Train accuracy of a least-squares linear classifier (independent oracle)."""
    n = features.shape[0]
    X = np.concatenate([features, np.ones((n, 1))], axis=1)
    Y = np.zeros((n, num_classes))
    Y[np.arange(n), labels] = 1.0
    W, *_ = np.linalg.lstsq(X, Y, rcond=None)
    preds = np.argmax(X @ W, axis=1)
    return float(np.mean(preds == labels))


def kl_term(p: np.ndarray, m: np.ndarray, eps: float = 1e-12) -> float:
    """Sum_j p_j * log((p_j + eps)/(m_j + eps)), plain-math loop."""
    total = 0.0
    for pj, mj in zip(p, m):
        total += pj * math.log((pj + eps) / (mj + eps))
    return total


def js_oracle(p: np.ndarray, q: np.ndarray) -> float:
    """Un-halved Jensen-Shannon divergence, term by term."""
    m = [(pj + qj) / 2.0 for pj, qj in zip(p, q)]
    return kl_term(p, m) + kl_term(q, m)
