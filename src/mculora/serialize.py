"""Self-describing binary container for datasets and checkpoints.

Layout (documented here; this is the on-disk interface):

* line 1: ``MCULORA-<KIND> v1`` in ASCII, newline-terminated
* line 2: one UTF-8 JSON object ``{"meta": {...}, "arrays": [name, ...]}``,
  newline-terminated
* then one standard ``.npy`` blob per listed array name, concatenated in
  order, and nothing after the last one.

``.npy`` blobs carry dtype/shape/order themselves and contain no timestamps,
so serializing the same content twice yields byte-identical files and a
round-trip reproduces every array bitwise. Writes stream into a temporary
sibling file that then replaces the target in one rename, so they stay
atomic without a second in-memory copy. Any malformed file - truncated, bad
header JSON, a short or garbled blob, a missing listed array, or trailing
bytes after the last one - is a :class:`ContractError` naming the file.

A writer may pass an array as a :class:`Chunked` instead: its shape and
dtype, and a function called just before the array is written that gives the
array's rows in order, a block at a time. The blob is written from those
blocks under the header ``np.save`` writes for the whole array, so a caller
that builds an array block by block holds one block, never the array. The
writer hashes the bytes as it streams them and returns their SHA-256, so the
file is never read back to be hashed.

A reader may ask for a contiguous range of rows of every array (all arrays
then share one leading length N): it reads those rows and seeks past the
others, so it holds only what it asked for. Such a partial read runs every
check a full read runs, against the whole file: a blob's declared size must
fit what is left of the file, so a truncated file fails even when the missing
bytes lie outside the requested rows.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import math
import os
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np
from numpy.lib import format as npy_format

from .errors import ContractError

_PREFIX = "MCULORA-"
_VERSION = "v1"


@dataclass(frozen=True)
class Chunked:
    """An array of `shape` and `dtype` whose C-order rows `chunks()` gives as
    consecutive blocks along the leading axis."""

    shape: tuple[int, ...]
    dtype: np.dtype
    chunks: Callable[[], Iterable[np.ndarray]]


def save_container(path, kind: str, meta: dict, arrays: dict[str, np.ndarray | Chunked]) -> str:
    """Write the container atomically; returns the SHA-256 hex digest of its bytes."""
    path = Path(path)
    header = {"meta": meta, "arrays": list(arrays.keys())}
    tmp = path.with_name(path.name + ".tmp")
    digest = hashlib.sha256()
    try:
        with tmp.open("wb") as fh:
            def write(data) -> None:
                digest.update(data)
                fh.write(data)
            write(f"{_PREFIX}{kind.upper()} {_VERSION}\n".encode("ascii"))
            write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
            for name, arr in arrays.items():
                if not isinstance(arr, Chunked):
                    whole = np.ascontiguousarray(arr)
                    arr = Chunked(whole.shape, whole.dtype, lambda: (whole,))
                _write_blob(write, name, arr)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return digest.hexdigest()


def _write_blob(write, name: str, arr: Chunked) -> None:
    """One .npy blob, byte for byte what ``np.save`` writes for the whole array."""
    dtype = np.dtype(arr.dtype)
    if dtype.hasobject:
        raise ValueError(f"array {name!r}: object arrays are not stored")
    header = io.BytesIO()
    npy_format.write_array_header_1_0(
        header, {"descr": npy_format.dtype_to_descr(dtype), "fortran_order": False, "shape": tuple(arr.shape)})
    write(header.getvalue())
    written = 0
    for block in arr.chunks():
        if block.dtype != dtype:
            raise ValueError(f"array {name!r}: a block of dtype {block.dtype}, expected {dtype}")
        data = np.ascontiguousarray(block).reshape(-1).view(np.uint8)
        write(data)
        written += data.size
        del block, data  # the next block is built with none of this one alive
    if written != math.prod(arr.shape) * dtype.itemsize:
        raise ValueError(f"array {name!r}: blocks hold {written} bytes, shape {arr.shape} needs "
                         f"{math.prod(arr.shape) * dtype.itemsize}")


@functools.lru_cache(maxsize=64)
def _parse_header(raw: bytes) -> tuple:
    """(shape, fortran_order, dtype) of a .npy 1.0 header (its length field and
    text), parsed by numpy; a reader of many row ranges of one file parses each
    header once."""
    return npy_format.read_array_header_1_0(io.BytesIO(raw))


def _read_array(fh, file_size: int, rows: Callable[[int], tuple[int, int]] | None) -> np.ndarray:
    """One .npy blob, whose data must all fit in what is left of the file.
    ``rows(length)`` gives the [lo, hi) range of the leading axis to read; the
    rest of the blob is skipped."""
    version = npy_format.read_magic(fh)
    if version != (1, 0):  # all that np.save writes for the arrays stored here
        raise ValueError(f"unsupported .npy version {version}")
    length = fh.read(2)
    shape, fortran_order, dtype = _parse_header(length + fh.read(int.from_bytes(length, "little")))
    nbytes = math.prod(shape) * dtype.itemsize
    if nbytes > file_size - fh.tell():
        raise ValueError(f"array data of shape {shape} runs past the end of the file")
    end = fh.tell() + nbytes
    if rows is not None:
        if not shape or fortran_order:
            raise ValueError(f"cannot read rows of a {'Fortran-order' if shape else '0-d'} array")
        lo, hi = rows(shape[0])
        row_bytes = math.prod(shape[1:]) * dtype.itemsize
        fh.seek(lo * row_bytes, os.SEEK_CUR)
        shape = (hi - lo, *shape[1:])
    arr = np.empty(math.prod(shape), dtype=dtype)
    fh.readinto(arr.view(np.uint8))  # TypeError for object dtypes, which are never read
    fh.seek(end)
    return arr.reshape(shape, order="F" if fortran_order else "C")


def load_container(path, expected_kind: str | None = None,
                   rows: Callable[[int], slice] | None = None) -> tuple[str, dict, dict[str, np.ndarray]]:
    """(kind, meta, arrays) of the container at `path`. With `rows`, a function
    from the arrays' common leading length N to a contiguous slice, only that
    slice of every array is read."""
    path = Path(path)
    lengths: list[int] = []

    def row_range(n: int) -> tuple[int, int]:
        if lengths and n != lengths[0]:
            raise ValueError(f"leading length {n} differs from the first array's {lengths[0]}")
        lengths.append(n)
        lo, hi, step = rows(n).indices(n)
        if step != 1:
            raise ValueError(f"rows must be a contiguous slice, got step {step}")
        return lo, max(lo, hi)

    with path.open("rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        magic = fh.readline().decode("ascii", errors="replace").strip()
        if not magic.startswith(_PREFIX) or not magic.endswith(_VERSION):
            raise ContractError(f"{path}: not a mculora container (magic line {magic!r})")
        kind = magic[len(_PREFIX):].split()[0].lower()
        if expected_kind is not None and kind != expected_kind.lower():
            raise ContractError(f"{path}: expected a {expected_kind} container, found {kind}")
        try:
            header = json.loads(fh.readline())
            names = header["arrays"]
            if not (isinstance(header["meta"], dict) and isinstance(names, list)
                    and all(isinstance(n, str) for n in names)):
                raise ValueError("need a 'meta' object and an 'arrays' list of names")
        except (ValueError, KeyError, TypeError) as exc:  # ValueError covers JSON and UTF-8 errors
            raise ContractError(f"{path}: bad header: {exc}") from exc
        arrays = {}
        for name in names:
            try:
                arrays[name] = _read_array(fh, file_size, row_range if rows is not None else None)
            except (ValueError, TypeError, SyntaxError, tokenize.TokenError) as exc:  # raised by numpy's header parser
                raise ContractError(f"{path}: array {name!r} is missing or corrupt: {exc}") from exc
        if fh.tell() != file_size:
            raise ContractError(f"{path}: {file_size - fh.tell()} trailing bytes after the last array")
    return kind, header["meta"], arrays
