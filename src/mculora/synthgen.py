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
before it is written, into one buffer per modality that every block reuses.
So at its peak it holds the three modalities' (N, D) base rows, which all of
a row's positions share and which are built in place, plus three blocks,
never a whole (N, L, D) array. Each modality comes from its own named stream,
so the container writer draws and writes the three at once, each on a worker
thread of its own.
:class:`DatasetFile` is the one check of a dataset file and the one way its
rows are read, and :func:`split_bounds` gives the split sizes, so a command
reads only the split it uses, and only one chunk or one batch of it at a time.

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
    """Columnar samples: features a, t, v of shape (N, L, D), L kept as
    ``seq_len``, and (N,) float64 class indices as labels. Slicing with a
    ``slice`` gives a dataset of views; indexing with an array of row indices
    gathers those rows, in that order."""

    features: dict[str, np.ndarray]
    labels: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.labels)
        shapes = {x.shape for x in self.features.values()}
        if (tuple(self.features) != MODALITIES or self.labels.shape != (n,) or len(shapes) != 1
                or len(next(iter(shapes))) != 3 or next(iter(shapes))[0] != n):
            raise ContractError(f"need features for {MODALITIES} of one (N, L, D) shape and (N,) labels, "
                                f"got {list(self.features)} {sorted(shapes)} and {self.labels.shape}")
        self.seq_len = self.features["a"].shape[1]

    def __len__(self) -> int:
        return self.labels.shape[0]

    def __getitem__(self, rows: slice | np.ndarray) -> "Dataset":
        return Dataset({m: x[rows] for m, x in self.features.items()}, self.labels[rows])

    def read(self, m: str, rows: slice | np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Modality m's features of `rows`, taken as :meth:`DatasetFile.read`
        takes them: a slice is a view of the held array, which needs no
        buffer, so `out` is unused; row indices gather those rows, in that order."""
        return self.features[m][rows]


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

    # the (n, D) base rows are built in place, so besides the three of them the build holds at most one
    # (n, D) temporary (a private term, then a pair term) and the (n, shared_dim + private_dim) latents
    samples = root.child("samples")
    n, L, D = cfg.num_samples, cfg.seq_len, cfg.raw_dim
    labels = np.arange(n) % cfg.classes
    z_shared = shared_anchors[labels] + _SHARED_JITTER * samples.child("shared").normal(size=(n, cfg.shared_dim))
    base = {}
    for m in MODALITIES:
        z_private = private_anchors[m][labels] + _PRIVATE_JITTER * samples.child(f"private-{m}").normal(
            size=(n, cfg.private_dim))
        base[m] = _matvec(shared_proj[m], z_shared)
        base[m] *= cfg.shared_strength
        private = _matvec(private_proj[m], z_private)
        private *= cfg.private_strength
        base[m] += private
        del z_private, private
    del z_shared
    bits = np.array([[_pair_bit(c, j) for j in range(len(_PAIRS))] for c in range(cfg.classes)])[labels]
    for j, (lead_m, partner_m) in enumerate(_PAIRS):
        eps = samples.child(f"pair-{lead_m}{partner_m}").normal(0.0, _PAIR_NOISE, size=n)
        lead, follow = pair_dirs[(lead_m, partner_m)]
        base[lead_m] += (cfg.pair_interaction_strength * (bits[:, j] + eps))[:, None] * lead
        base[partner_m] += (cfg.pair_interaction_strength * eps)[:, None] * follow

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
    ever built. At its peak it holds the three (N, D) base-row arrays, built
    in place (with at most one (N, D) temporary beside them), plus three
    blocks. The three modalities are drawn and written concurrently, one
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
    """A contiguous range of a dataset file's rows, read from the open file:
    the one check of a dataset file, and the one way its rows are read.

    ``rows`` maps the file's sample count N to the range. Opening checks the
    container's layout (see :class:`~mculora.serialize.ContainerFile`), then
    its array headers, reading no feature rows. It requires the arrays
    features_a, features_t, features_v and labels, in that order and no
    other, each float64 as :func:`save_dataset` writes them; three features of
    one (N, L, D) shape with L, D >= 1 and (N,) labels; and the header
    config's num_samples, seq_len and raw_dim equal to (N, L, D). Then it
    reads the range's labels, each of which must be a whole number in [0,
    classes) for the header config's integer ``classes``. Any failure is a
    :class:`ContractError` naming the file. ``seq_len``, ``raw_dim`` and
    ``classes`` keep L, D and classes; ``len()`` and ``labels`` are the range's.

    :meth:`read` alone reads features, one modality's rows of the range at a
    time: a contiguous slice with one positioned read, into a caller's buffer
    when given one, and row indices with one read per row, in their order. An
    index outside [0, len()) is an :class:`IndexError`: no read returns a row
    of the file outside the range. Close it when done; it is a context manager."""

    def __init__(self, path, rows: Callable[[int], slice]):
        self._file = ContainerFile(path, expected_kind="dataset")
        try:
            if self._file.names != _ARRAYS:
                raise ContractError(f"{path}: dataset container holds arrays {self._file.names}, expected {_ARRAYS}")
            shapes, dtypes = zip(*map(self._file.shape_and_dtype, _ARRAYS))
            for name, dtype in zip(_ARRAYS, dtypes):
                if dtype != np.float64:
                    raise ContractError(f"{path}: array {name!r} has dtype {dtype}, expected float64")
            shape = shapes[0]
            if len(set(shapes[:3])) != 1 or len(shape) != 3 or min(shape[1:]) < 1 or shapes[3] != shape[:1]:
                raise ContractError(f"{path}: need features for {MODALITIES} of one (N, L, D) shape with L, D >= 1 "
                                    f"and (N,) labels, got {shapes[:3]} and {shapes[3]}")
            config = self._file.meta.get("config")
            header = config if isinstance(config, dict) else {}
            self.classes = header.get("classes")
            if type(self.classes) is not int:
                raise ContractError(f"{path}: the header's config holds no integer 'classes'")
            for key, size in zip(("num_samples", "seq_len", "raw_dim"), shape):
                if type(header.get(key)) is not int or header[key] != size:
                    raise ContractError(f"{path}: the header's config gives {key} {header.get(key)!r}, "
                                        f"but the features have shape {shape}")
            n, self.seq_len, self.raw_dim = shape
            lo, hi, _ = rows(n).indices(n)
            self._lo, self.labels = lo, self._file.read("labels", slice(lo, hi))
            bad = np.flatnonzero((self.labels != np.floor(self.labels)) | (self.labels < 0)
                                 | (self.labels >= self.classes))
            if bad.size:
                raise ContractError(f"{path}: row {lo + bad[0]} has label {float(self.labels[bad[0]])}, "
                                    f"expected a whole number in [0, {self.classes})")
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

    def read(self, m: str, rows: slice | np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Modality m's features of `rows` of the range, a slice or row indices,
        read as the class states; `out` is as :meth:`ContainerFile.read` takes it."""
        if isinstance(rows, slice):
            lo, hi, step = rows.indices(len(self))
            return self._file.read(f"features_{m}", slice(self._lo + lo, self._lo + max(lo, hi), step), out)
        idx = np.asarray(rows, dtype=np.int64)
        if idx.size and not 0 <= idx.min() <= idx.max() < len(self):
            raise IndexError(f"{self._file.path}: rows out of range for a range of {len(self)} rows")
        return self._file.read(f"features_{m}", idx + self._lo, out)


def split_bounds(n: int, train_frac: float, val_frac: float) -> tuple[int, int]:
    """(n_train, n_val) of the contiguous split of n samples by a validated
    config's fractions; the test split is the rest."""
    return int(round(n * train_frac)), int(round(n * val_frac))


def split_dataset(dataset: Dataset, train_frac: float, val_frac: float) -> tuple[Dataset, Dataset, Dataset]:
    """Contiguous (train, val, test) split of views; round-robin labels keep it balanced."""
    n_train, n_val = split_bounds(len(dataset), train_frac, val_frac)
    return dataset[:n_train], dataset[n_train:n_train + n_val], dataset[n_train + n_val:]
