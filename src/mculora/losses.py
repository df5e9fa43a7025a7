"""Training objectives: soft orthogonality regularizer, cross-entropy task loss, total.

The orthogonality term sums, over the combinations active in a batch and the
modalities they contain, the batch mean of

    cos(common_m, private_{m,i}) - cos(common_m, encoder_m)

pushing the shared-adapter output away from the combination-specific outputs
while tying it to the frozen encoder's representation. Each cosine is a
:func:`~mculora.autodiff.row_cosine`, so near-zero vectors, such as the
adapter outputs at initialization, contribute exactly 0.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError
from .modalities import ALL_COMBINATIONS, MODALITIES, Combo


def orthogonality_loss(common: dict[str, Tensor],
                       private: dict[Combo, dict[str, Tensor]],
                       encoder: dict[str, Tensor]) -> Tensor:
    """Scalar redundancy penalty over active combinations and their modalities.

    `common` and `encoder` map modality -> pooled vector (or (B, d) batch);
    `private` maps each active combination to the same per-modality layout.
    A term records five tape ops: two cosines, their difference, its batch
    mean and the running sum."""
    total = ad.constant(0.0)
    for combo in sorted(private, key=ALL_COMBINATIONS.index):
        per_mod = private[combo]
        for m in MODALITIES:
            if m not in per_mod:
                continue
            if m not in common or m not in encoder:
                raise ContractError(f"orthogonality_loss: missing common/encoder vectors for modality {m!r}")
            redundancy = ad.row_cosine(common[m], per_mod[m])
            grounding = ad.row_cosine(common[m], encoder[m])
            total = ad.add(total, ad.tmean(ad.sub(redundancy, grounding)))
    return total


def task_loss(pred: Tensor, label, kind: str = "classification") -> Tensor:
    """Cross-entropy on logits, the mean over samples when batched. Labels
    are class indices in [0, C), else a contract error; so is any `kind` but
    ``"classification"``, the only task, kept for callers that still name it."""
    if kind != "classification":
        raise ContractError(f"unknown task kind {kind!r}")
    logits = pred if pred.ndim == 2 else ad.reshape(pred, (1, -1))
    labels = np.atleast_1d(np.asarray(label, dtype=np.int64))
    C = logits.shape[1]
    if labels.min() < 0 or labels.max() >= C:
        raise ContractError(f"label out of range [0, {C}): {labels.min()}..{labels.max()}")
    logp = ad.log_softmax(logits, axis=1)
    return ad.neg(ad.tmean(ad.take_per_row(logp, labels)))


def total_loss(l_task: Tensor, l_ort: Tensor, beta: float) -> Tensor:
    """Exact affine combination l_task + beta * l_ort."""
    return ad.add(l_task, ad.mul(ad.constant(float(beta)), l_ort))
