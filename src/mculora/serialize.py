"""Self-describing binary container for datasets and checkpoints.

Layout (documented here; this is the on-disk interface):

* line 1: ``MCULORA-<KIND> v1`` in ASCII, newline-terminated
* line 2: one UTF-8 JSON object ``{"meta": {...}, "arrays": [name, ...]}``,
  newline-terminated
* then one standard ``.npy`` blob per listed array name, concatenated in
  order, and nothing after the last one.

``.npy`` blobs carry dtype/shape/order themselves and contain no timestamps,
so serializing the same content twice yields byte-identical files and a
round-trip reproduces every array bitwise. Writes go into a temporary
sibling file that then replaces the target in one rename, so they stay
atomic without a second in-memory copy. Any malformed file - truncated, bad
header JSON, a short or garbled blob, a missing listed array, or trailing
bytes after the last one - is a :class:`ContractError` naming the file.

A writer may pass an array as a :class:`Chunked` instead: its shape and
dtype, and a function that gives the array's rows in order, a block at a
time. The blob is written from those blocks under the header ``np.save``
writes for the whole array, so a caller that builds an array block by block
holds one block, never the array. Since every shape is known up front, the
writer lays out the whole file first and then fills it concurrently: each
chunked array is written by a worker thread of its own at its blob's offset,
so arrays drawn by native code that releases the interpreter lock are drawn
on several cores at once. Chunked arrays too small to repay the threads are
written by the calling thread, one after another. The writer returns the
file's SHA-256, computed in file order by the calling thread from the headers
and plain arrays in memory and from each chunked blob read back (from the
page cache) stretch by stretch, following behind its writer.

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
import threading
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
    consecutive blocks along the leading axis.

    The writer calls `chunks()` on its own thread and iterates what it returns
    on a worker thread, one block at a time: a block is written before the
    next is asked for, so the blocks may all be one reused buffer. Allocate it
    in `chunks()` itself, not on the worker, whose malloc arena would keep the
    memory after the thread ends."""

    shape: tuple[int, ...]
    dtype: np.dtype
    chunks: Callable[[], Iterable[np.ndarray]]


# the calling thread reads the streamed blobs back to hash them through a buffer of this many bytes
_READ_BACK = 1 << 16

# chunked arrays holding fewer bytes than this in all are written by the calling thread, one after
# another: drawing them concurrently would save a few milliseconds, while the worker threads' fixed
# resident cost (stacks, malloc arenas, thread start-up code) and the heap-layout spread that
# concurrent allocation brings raised ft-mcla's whole-run peak by 0.39 MB (median of 6 paired
# runs; 0.09 MB when written on the calling thread)
_CONCURRENT_BYTES = 16 << 20


def save_container(path, kind: str, meta: dict, arrays: dict[str, np.ndarray | Chunked]) -> str:
    """Write the container atomically; returns the SHA-256 hex digest of its bytes.

    The layout comes first: the magic line, the JSON header, every ``.npy``
    header and every blob's offset follow from the arrays' shapes and dtypes.
    The calling thread writes the headers and the plain arrays; each
    :class:`Chunked` array gets a worker thread that writes its blocks at the
    blob's offset (unless the chunked arrays hold fewer than
    ``_CONCURRENT_BYTES`` in all: then the calling thread runs the same
    writers one after another). Meanwhile the calling thread hashes the file
    in order, taking headers and plain arrays from memory and reading each
    streamed blob back (from the page cache) as far as its writer has got.
    If a writer fails or the calling thread is interrupted, the other writers
    stop at their next block, every worker is joined, the temporary file is
    removed and the first error is raised."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    parts: list = [memoryview(f"{_PREFIX}{kind.upper()} {_VERSION}\n".encode("ascii")),
                   memoryview(json.dumps({"meta": meta, "arrays": list(arrays)}, sort_keys=True).encode("utf-8") + b"\n")]
    for name, arr in arrays.items():
        if not isinstance(arr, Chunked):
            arr = np.ascontiguousarray(arr)
        parts.append(memoryview(_npy_header(name, tuple(arr.shape), np.dtype(arr.dtype))))
        parts.append((name, arr) if isinstance(arr, Chunked) else memoryview(arr.reshape(-1).view(np.uint8)))
    failures: list[BaseException] = []  # in the order they happened; any entry stops every writer
    progress = threading.Condition()
    digest = hashlib.sha256()
    try:
        fd = os.open(tmp, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o666)
        writers: list[_BlobWriter] = []
        try:
            layout, offset = [], 0
            for part in parts:
                if isinstance(part, tuple):
                    part = _BlobWriter(fd, offset, *part, failures, progress)
                    writers.append(part)
                else:
                    _pwrite(fd, part, offset)
                layout.append(part)
                offset += part.nbytes
            concurrent = sum(writer.nbytes for writer in writers) >= _CONCURRENT_BYTES
            for writer in writers:
                if concurrent:
                    writer.start()
                else:
                    writer.run()
            buf = memoryview(bytearray(_READ_BACK))
            for part in layout:
                if isinstance(part, _BlobWriter):
                    part.hash_behind(digest, buf)
                else:
                    digest.update(part)
        except BaseException as exc:
            failures.append(exc)
            raise
        finally:
            for writer in writers:
                if writer.ident is not None:  # started
                    writer.join()
            os.close(fd)
        if failures:
            raise failures[0]
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return digest.hexdigest()


def _npy_header(name: str, shape: tuple[int, ...], dtype: np.dtype) -> bytes:
    """The header ``np.save`` writes before the data of a C-order array."""
    if dtype.hasobject:
        raise ValueError(f"array {name!r}: object arrays are not stored")
    header = io.BytesIO()
    npy_format.write_array_header_1_0(
        header, {"descr": npy_format.dtype_to_descr(dtype), "fortran_order": False, "shape": shape})
    return header.getvalue()


def _pwrite(fd: int, data, offset: int) -> None:
    view = memoryview(data)
    while view:
        written = os.pwrite(fd, view, offset)
        view, offset = view[written:], offset + written


class _BlobWriter(threading.Thread):
    """Writes one :class:`Chunked` array's blocks at its blob's offset, on a
    thread of its own (``start``) or on the calling thread (``run``), and
    holds the progress the hashing thread follows it by."""

    def __init__(self, fd: int, offset: int, name: str, arr: Chunked,
                 failures: list[BaseException], progress: threading.Condition):
        super().__init__(name=f"save-{name}", daemon=True)
        self.fd, self.offset, self.array = fd, offset, name
        self.dtype, self.shape = np.dtype(arr.dtype), tuple(arr.shape)
        self.nbytes = math.prod(self.shape) * self.dtype.itemsize
        self.blocks = iter(arr.chunks())  # on the calling thread, which then owns what chunks() allocates
        self.failures, self.progress = failures, progress
        self.written = 0  # bytes of the blob on file, always a prefix of it

    def run(self) -> None:
        try:
            for block in self.blocks:
                if self.failures:
                    return
                if block.dtype != self.dtype:
                    raise ValueError(f"array {self.array!r}: a block of dtype {block.dtype}, expected {self.dtype}")
                data = np.ascontiguousarray(block).reshape(-1).view(np.uint8)
                if self.written + data.size > self.nbytes:
                    raise ValueError(self._size_error(self.written + data.size))
                _pwrite(self.fd, data, self.offset + self.written)
                with self.progress:
                    self.written += data.size
                    self.progress.notify_all()
                del block, data  # the next block is built with none of this one alive
            if self.written != self.nbytes:
                raise ValueError(self._size_error(self.written))
        except BaseException as exc:
            with self.progress:
                self.failures.append(exc)
                self.progress.notify_all()

    def _size_error(self, held: int) -> str:
        return f"array {self.array!r}: blocks hold {held} bytes, shape {self.shape} needs {self.nbytes}"

    def hash_behind(self, digest, buf: memoryview) -> None:
        """Hash the blob into `digest`, reading back through `buf` each stretch
        once it is written; returns early once anything has failed."""
        hashed = 0
        while hashed < self.nbytes:
            with self.progress:
                self.progress.wait_for(lambda: self.written > hashed or self.failures)
                ready = self.written
            if self.failures:
                return
            while hashed < ready:
                got = os.preadv(self.fd, [buf[:ready - hashed]], self.offset + hashed)
                if not got:
                    raise OSError(f"array {self.array!r}: written bytes read back as none")
                digest.update(buf[:got])
                hashed += got


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
