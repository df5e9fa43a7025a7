"""Synthetic multimodal datasets with controllable signal structure.

Real emotion-recognition corpora are replaced by a generator whose knobs make
"different modality combinations carry different discriminative information"
a controllable ground truth. Each sample's label influences three kinds of
signal, each embedded into per-modality feature sequences:

* a shared latent, visible in every modality (``shared_strength``),
* a per-modality private latent, visible only in its own modality and
  encoding a modality-specific view of the class (``private_strength``),
* pairwise interaction terms (``pair_interaction_strength``): for each
  modality pair, a lead modality carries ``class_bit + noise`` along a fixed
  direction while the partner carries the same noise sample along its own
  direction. Jointly the noise cancels exactly, so the pair reads a clean
  class bit; alone, the lead sees a noisy bit and the partner sees pure
  noise. The optimal linear readout of these directions therefore depends on
  which modalities are present - combination-specific characteristic
  information by construction.

Labels are stratified round-robin, so any contiguous split stays balanced.
Generation is a pure function of the config and the random stream, by default
the ``data`` child of the config's root seed. :func:`generate_dataset` builds
the dataset in memory; :func:`save_dataset` (the gen-data writer) runs the same
generator body on the default stream, whose seed the file's header records,
but draws each modality's features one block of rows at a time, each just
before it is written, into one buffer per modality that every block reuses,
so it holds three blocks, never a whole (N, L, D) array. Each modality
comes from its own named stream, so the container writer draws and writes
the three at once, each on a worker thread of its own.
:class:`DatasetFile` checks a dataset file once and then reads any rows of
a range, a slice or a batch of row indices at a time, and :func:`split_bounds`
gives the split sizes, so a command reads only the split it uses, and only
one chunk or one batch of it at a time.

A :class:`Dataset` is exactly the dataset container's layout: one (N, L, D)
feature array per modality and (N,) class-index labels. Every sample has all
three modalities; missing ones are only ever imposed, as a combination
bitmask (:class:`mculora.modalities.Combo`). Splits are row-slice views.

The random missing-modality protocol lives here, in one function,
:func:`apply_random_missing`, which gives each sample's combination bitmask:
it drops each modality independently with a per-draw probability taken
uniformly from a configured range, retaining one uniformly-chosen modality
whenever all three would drop (a sample never loses every modality). The
fixed protocol needs no masks: evaluation passes each condition's modalities
to the model (see :mod:`mculora.trainer`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

import numpy as np

from .config import ExperimentConfig
from .errors import ContractError
from .modalities import MODALITIES, Combo
from .rng import Rng, derive_seed
from .serialize import Chunked, ContainerFile, save_container

# (lead, partner) per pair; each modality leads exactly one pair
_PAIRS = (("a", "t"), ("v", "a"), ("t", "v"))

# within-class spread of the shared/private latents around their class anchors
_SHARED_JITTER = 0.25
_PRIVATE_JITTER = 0.25

# noise planted on the pair channels (cancels exactly when both sides are present)
_PAIR_NOISE = 1.0

# gen-data draws each feature array in blocks of at most this many positions (rows x L), all three
# arrays at once, each into one block buffer of its own
_BLOCK_POSITIONS = 1024

# the config fields the generator reads, recorded in each dataset file's header
_GENERATOR_FIELDS = ("num_samples", "seq_len", "raw_dim", "classes", "shared_dim", "private_dim", "shared_strength",
                     "private_strength", "pair_interaction_strength", "noise_std")


@dataclass
class Dataset:
    """Columnar samples: features a, t, v of shape (N, L, D) and (N,) float64
    class indices as labels. Slicing with a ``slice`` gives a dataset of views;
    indexing with an array of row indices gathers those rows, in that order."""

    features: dict[str, np.ndarray]
    labels: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.labels)
        shapes = {x.shape for x in self.features.values()}
        if (tuple(self.features) != MODALITIES or self.labels.shape != (n,) or len(shapes) != 1
                or len(next(iter(shapes))) != 3 or next(iter(shapes))[0] != n):
            raise ContractError(f"need features for {MODALITIES} of one (N, L, D) shape and (N,) labels, "
                                f"got {list(self.features)} {sorted(shapes)} and {self.labels.shape}")

    def __len__(self) -> int:
        return self.labels.shape[0]

    def __getitem__(self, rows: slice | np.ndarray) -> "Dataset":
        return Dataset({m: x[rows] for m, x in self.features.items()}, self.labels[rows])


def _class_anchors(num_classes: int, dim: int, rng: Rng) -> np.ndarray:
    """(num_classes, dim) unit anchors; orthogonal while classes fit, then sign-flipped reuse."""
    basis = np.linalg.qr(rng.normal(size=(dim, dim)))[0].T
    anchors = np.zeros((num_classes, dim))
    for c in range(num_classes):
        anchors[c] = basis[c % dim] * (1.0 if (c // dim) % 2 == 0 else -1.0)
    return anchors


def _unit_columns(rng: Rng, rows: int, cols: int) -> np.ndarray:
    m = rng.normal(size=(rows, cols))
    return m / np.linalg.norm(m, axis=0, keepdims=True)


def _pair_bit(label: int, pair_idx: int) -> float:
    if pair_idx < 2:
        bit = (label >> pair_idx) & 1
    else:
        bit = bin(label).count("1") & 1
    return 1.0 if bit else -1.0


def _generator(cfg: ExperimentConfig,
               root_rng: Rng | None) -> tuple[dict[str, Callable[[], Iterator[np.ndarray]]], np.ndarray]:
    """The generator body on the stream `root_rng` (None: the ``data`` child
    of ``Rng(cfg.seed)``): one function per modality that returns an iterator
    over its (N, L, D) features as consecutive row blocks of at most
    ``_BLOCK_POSITIONS`` positions (each modality from its own named stream,
    so in any order, or at once), and the (N,) float64 class-index labels.
    Every block of a modality is drawn in place into the same buffer, valid
    until the next block is drawn."""
    cfg.validate()
    root = root_rng if root_rng is not None else Rng(cfg.seed).child("data")
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

    labels = np.arange(n) % cfg.classes
    z_shared = shared_anchors[labels] + _SHARED_JITTER * shared_noise
    z_private = {m: private_anchors[m][labels] + _PRIVATE_JITTER * private_noise[m] for m in MODALITIES}
    bits = np.array([[_pair_bit(c, j) for j in range(len(_PAIRS))] for c in range(cfg.classes)])[labels]
    base = {m: cfg.shared_strength * _matvec(shared_proj[m], z_shared)
            + cfg.private_strength * _matvec(private_proj[m], z_private[m]) for m in MODALITIES}
    for j, (lead_m, partner_m) in enumerate(_PAIRS):
        eps = pair_noise[(lead_m, partner_m)]
        lead, follow = pair_dirs[(lead_m, partner_m)]
        base[lead_m] = base[lead_m] + (cfg.pair_interaction_strength * (bits[:, j] + eps))[:, None] * lead
        base[partner_m] = base[partner_m] + (cfg.pair_interaction_strength * eps)[:, None] * follow

    def features(m: str) -> Iterator[np.ndarray]:
        # the block buffer is allocated here, by the caller of features, and
        # reused by every block, so whoever iterates the blocks allocates
        # nothing (allocated on the writer's worker thread instead, it raised
        # ft-* whole-run peaks by 0.5-0.9 MB): a block is valid until the next
        # one is drawn
        noise, step = samples.child(f"noise-{m}"), max(1, _BLOCK_POSITIONS // L)
        block = np.empty((min(step, n), L, D))

        def blocks() -> Iterator[np.ndarray]:
            # Philox draws in consecutive blocks continue one stream: the blocks
            # are exactly the rows of one (n, L, D) draw
            for lo in range(0, n, step):
                x = noise.standard_normal(out=block[:min(step, n - lo)])
                x *= cfg.noise_std
                x += base[m][lo:lo + len(x), None, :]
                yield x
        return blocks()
    return {m: partial(features, m) for m in MODALITIES}, labels.astype(np.float64)


def generate_dataset(cfg: ExperimentConfig, root_rng: Rng | None = None) -> Dataset:
    """The dataset of cfg; pure function of cfg and the stream (default: the
    ``data`` child of ``Rng(cfg.seed)``)."""
    makers, labels = _generator(cfg, root_rng)
    return Dataset({m: np.concatenate([x.copy() for x in blocks()]) for m, blocks in makers.items()}, labels)


def _matvec(P: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Row i is P @ Z[i], computed by the same kernel as that one-sample product
    (``Z @ P.T`` can differ from it in the last bit)."""
    return np.matmul(P[None], Z[:, :, None])[:, :, 0]


# ---------------------------------------------------------------------------
# random missing-modality protocol
# ---------------------------------------------------------------------------

def apply_random_missing(n: int, mask_prob_range: tuple[float, float], seed: int) -> np.ndarray:
    """(n,) combination bitmasks (1..7, see :class:`Combo`), one per sample:
    the modalities that survive per-sample independent dropping, drawn from
    the ``random-missing`` child of ``Rng(seed)``. The range is a validated
    config's (mask_lo, mask_hi)."""
    rng = Rng(seed).child("random-missing")
    probs = rng.uniform(*mask_prob_range, size=(n, len(MODALITIES)))
    drop = rng.uniform(size=(n, len(MODALITIES))) < probs
    all_dropped = np.nonzero(drop.all(axis=1))[0]
    keep = rng.integers(0, len(MODALITIES), size=n)
    drop[all_dropped, keep[all_dropped]] = False
    return ~drop @ np.array([Combo.from_modalities(m).mask for m in MODALITIES])


# ---------------------------------------------------------------------------
# dataset file format (see serialize module for the container layout)
# ---------------------------------------------------------------------------

def save_dataset(path, cfg: ExperimentConfig) -> str:
    """Generate the dataset of cfg (as :func:`generate_dataset` does on its
    default stream) and write it, streaming: each modality's features are generated one row
    block at a time, each just before it is written, so no (N, L, D) array is
    ever built. The three modalities are drawn and written concurrently, one
    writer thread each (see :func:`mculora.serialize.save_container`); the
    bytes are those of a sequential write. Returns the SHA-256 of the file's
    bytes, which the writer reads back as it goes.

    Arrays stored: per-modality (N, L, D) features in modality order a, t, v,
    then labels (N,) float64. The header records the ten generator fields of
    cfg (``_GENERATOR_FIELDS``) and ``seed``, the seed of the stream that drew
    the data: ``generate_dataset(cfg, Rng(seed))`` regenerates the file."""
    makers, labels = _generator(cfg, None)
    shape = (cfg.num_samples, cfg.seq_len, cfg.raw_dim)
    arrays = {f"features_{m}": Chunked(shape, np.dtype(np.float64), blocks) for m, blocks in makers.items()}
    arrays["labels"] = labels
    header = {key: getattr(cfg, key) for key in _GENERATOR_FIELDS}
    header["seed"] = derive_seed(cfg.seed, "data")
    return save_container(path, "dataset", {"config": header}, arrays)


_ARRAYS = [f"features_{m}" for m in MODALITIES] + ["labels"]  # a dataset file's arrays, in file order


class DatasetFile:
    """A contiguous range of a dataset file's rows, read from the open file.

    ``rows`` maps the file's sample count N to the range. Opening checks the
    whole file once (see :class:`~mculora.serialize.ContainerFile`; a file
    holding any array but the features and labels is refused) and reads the
    range's labels, each of which must be a whole number in [0, classes) for
    the header config's classes. Then ``len()``, ``labels`` and indexing work
    as on a :class:`Dataset`: a contiguous slice reads its rows' features with one
    positioned read per modality, any other index (an array of row indices,
    in any order) with one per row and modality, so a reader holds only the
    rows it asks for. Close it when done; it is a context manager."""

    def __init__(self, path, rows: Callable[[int], slice]):
        self._file = ContainerFile(path, expected_kind="dataset")
        try:
            if self._file.names != _ARRAYS:
                raise ContractError(f"{path}: dataset container holds arrays {self._file.names}, expected {_ARRAYS}")
            n = self._file.length()
            lo, hi, _ = rows(n).indices(n)
            self._lo, self.labels = lo, self._file.read("labels", slice(lo, hi))
            config = self._file.meta.get("config")
            classes = config.get("classes") if isinstance(config, dict) else None
            if type(classes) is not int:
                raise ContractError(f"{path}: the header's config holds no integer 'classes'")
            bad = np.flatnonzero((self.labels != np.floor(self.labels)) | (self.labels < 0) | (self.labels >= classes))
            if bad.size:
                raise ContractError(f"{path}: row {lo + bad[0]} has label {float(self.labels[bad[0]])}, "
                                    f"expected a whole number in [0, {classes})")
            try:
                self[:0]  # reads no rows: checks the feature shapes
            except ContractError as exc:
                raise ContractError(f"{path}: {exc}") from None
        except BaseException:
            self._file.close()
            raise

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "DatasetFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, rows: slice | np.ndarray) -> Dataset:
        start, stop, step = rows.indices(len(self)) if isinstance(rows, slice) else (0, 0, 0)
        part = (slice(self._lo + start, self._lo + max(start, stop)) if step == 1
                else np.arange(self._lo, self._lo + len(self))[rows])
        return Dataset({m: self._file.read(f"features_{m}", part) for m in MODALITIES}, self.labels[rows])


def split_bounds(n: int, train_frac: float, val_frac: float) -> tuple[int, int]:
    """(n_train, n_val) of the contiguous split of n samples by a validated
    config's fractions; the test split is the rest."""
    return int(round(n * train_frac)), int(round(n * val_frac))


def split_dataset(dataset: Dataset, train_frac: float, val_frac: float) -> tuple[Dataset, Dataset, Dataset]:
    """Contiguous (train, val, test) split of views; round-robin labels keep it balanced."""
    n_train, n_val = split_bounds(len(dataset), train_frac, val_frac)
    return dataset[:n_train], dataset[n_train:n_train + n_val], dataset[n_train + n_val:]
