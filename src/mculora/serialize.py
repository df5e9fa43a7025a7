"""Self-describing binary container for datasets and checkpoints, and the package's only file writer.

Layout (documented here; this is the on-disk interface):

* line 1: ``MCULORA-<KIND> v1`` in ASCII, newline-terminated
* line 2: one UTF-8 JSON object ``{"meta": {...}, "arrays": [name, ...]}``,
  newline-terminated
* then one standard C-order ``.npy`` blob per listed array name,
  concatenated in order, and nothing after the last one.

``.npy`` blobs carry dtype and shape themselves and contain no timestamps,
so serializing the same content twice yields byte-identical files and a
round-trip reproduces every array bitwise.

Containers are written by :func:`save_container` and read through
:class:`ContainerFile`; text (logs, metrics, reports, manifests) is written by
:func:`write_text`.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import threading
import tokenize
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np
from numpy.lib import format as npy_format

from .errors import ContractError

_PREFIX = "MCULORA-"
_VERSION = "v1"
# the most bytes ContainerFile reads for line 1, longer than any magic line ("MCULORA-CHECKPOINT v1\n" is 22),
# and for line 2, far longer than any header save_container writes (about 0.3 to 1 KiB)
_MAGIC_LIMIT, _HEADER_LIMIT = 32, 1 << 16


@dataclass(frozen=True)
class Chunked:
    """An array of `shape` and `dtype` whose C-order rows `chunks()` gives as
    consecutive blocks along the leading axis.

    :func:`save_container` calls `chunks()` on the calling thread and iterates
    what it returns on the array's writer thread, writing each block before it
    asks for the next, so the blocks may all be one reused buffer (see
    :func:`mculora.synthgen.save_dataset` for where to make it); the digest
    is read from the file once every writer has joined, never from a block."""

    shape: tuple[int, ...]
    dtype: np.dtype
    chunks: Callable[[], Iterable[np.ndarray]]


def save_container(path, kind: str, meta: dict, arrays: dict[str, np.ndarray | Chunked]) -> str:
    """Write the container atomically (see :func:`_replacing`); returns the SHA-256
    hex digest of the file it wrote.

    The layout comes first: the magic line, the JSON header, every ``.npy``
    header and every blob's offset follow from the arrays' shapes and dtypes.
    The calling thread writes the headers and the plain arrays; each
    :class:`Chunked` array, whatever its size, gets a writer thread of its own
    that writes its blocks at the blob's offset, so arrays drawn by native
    code that releases the interpreter lock are drawn on several cores at
    once, and a container without chunked arrays, such as a checkpoint,
    starts no thread. The calling thread then waits for every writer to end
    and joins it, and hashes the finished file from its first byte to its
    last, read back (from the page cache) through the open descriptor. If a writer fails or the calling
    thread is interrupted, the other writers stop at their next block, every
    writer is joined, the temporary file is removed and the first error is
    raised."""
    parts: list = [memoryview(f"{_PREFIX}{kind.upper()} {_VERSION}\n".encode("ascii")),
                   memoryview(json.dumps({"meta": meta, "arrays": list(arrays)}, sort_keys=True).encode("utf-8") + b"\n")]
    for name, arr in arrays.items():
        if not isinstance(arr, Chunked):
            arr = np.ascontiguousarray(arr)
        parts.append(memoryview(_npy_header(name, tuple(arr.shape), np.dtype(arr.dtype))))
        parts.append((name, arr) if isinstance(arr, Chunked) else memoryview(arr.reshape(-1).view(np.uint8)))
    failures: list[BaseException] = []  # in the order they happened; any entry stops every writer
    with _replacing(path) as fd:
        writers, size = [], 0  # the writer threads made so far; the bytes laid out so far
        try:
            for part in parts:
                if isinstance(part, tuple):
                    part = _BlobWriter(fd, size, *part, failures)
                    writers.append(part)
                else:
                    _pwrite(fd, part, size)
                size += part.nbytes
            for writer in writers:
                writer.start()
            # waited for by `ended`, not join(): on CPython 3.11 an interrupted join() marks a running thread stopped
            for writer in writers:
                writer.ended.wait()
        except BaseException as exc:
            failures.append(exc)
            raise
        finally:
            # start() registers a thread before it makes it, so an interrupt inside start() may leave a
            # thread made but not yet running: wait for every registered writer to end its run, then join it
            registered = threading.enumerate()
            for writer in writers:
                if writer in registered:
                    writer.ended.wait()
                    writer.join()
        if failures:
            raise failures[0]
        digest, buf, hashed = hashlib.sha256(), memoryview(bytearray(1 << 16)), 0
        while hashed < size:
            if not (got := os.preadv(fd, [buf[:size - hashed]], hashed)):
                raise OSError(f"{path}: {size} bytes written, only {hashed} read back")
            digest.update(buf[:got])
            hashed += got
    return digest.hexdigest()


def write_text(path, text: str) -> str:
    """Write `text` as UTF-8, atomically (see :func:`_replacing`); returns the SHA-256
    of the bytes written, hashed from the encoded string in memory."""
    data = text.encode("utf-8")
    with _replacing(path) as fd:
        _pwrite(fd, data, 0)
    return hashlib.sha256(data).hexdigest()


@contextmanager
def _replacing(path):
    """A descriptor of the new file ``<name>.tmp`` beside `path`, open for reading and
    writing, which replaces `path` in one rename once the block ends; if the block
    fails, the temporary is removed and `path` is left as it was."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        fd = os.open(tmp, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            yield fd
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
        sent = os.pwrite(fd, view, offset)
        view, offset = view[sent:], offset + sent


class _BlobWriter(threading.Thread):
    """One :class:`Chunked` array's writer thread: it writes its blocks in
    order from the blob's offset, stops at its next block once anything has
    failed, and sets `ended` when its run is over (see :func:`save_container`)."""

    def __init__(self, fd: int, offset: int, name: str, arr: Chunked, failures: list[BaseException]):
        super().__init__(name=f"save-{name}", daemon=True)
        self.fd, self.offset, self.array, self.failures = fd, offset, name, failures
        self.dtype, self.shape = np.dtype(arr.dtype), tuple(arr.shape)
        self.nbytes = math.prod(self.shape) * self.dtype.itemsize
        self.blocks = iter(arr.chunks())  # on the calling thread, as Chunked states
        self.ended = threading.Event()

    def run(self) -> None:
        try:
            held = 0  # bytes of the blob's blocks so far
            for block in self.blocks:
                if self.failures:
                    return
                if block.dtype != self.dtype:
                    raise ValueError(f"array {self.array!r}: a block of dtype {block.dtype}, expected {self.dtype}")
                data = np.ascontiguousarray(block).reshape(-1).view(np.uint8)
                held += data.size
                if held > self.nbytes:  # refused before it is written
                    break
                _pwrite(self.fd, data, self.offset + held - data.size)
                del block, data  # the next block is built with none of this one alive
            if held != self.nbytes:
                raise ValueError(f"array {self.array!r}: blocks hold {held} bytes, shape {self.shape} needs {self.nbytes}")
        except BaseException as exc:
            self.failures.append(exc)
        finally:
            self.ended.set()


class ContainerFile:
    """An open container file, checked whole when it is opened, whose arrays
    are then read, whole or by rows, with positioned reads of its descriptor.

    Opening runs every check of the layout: the magic line and kind, the
    header, each ``.npy`` header (C-order, no objects), that each blob's
    declared size fits what is left of the file (so a truncated file fails
    even where the missing bytes are never read), and that no bytes follow
    the last blob; after that, each read costs only its own bytes. A
    malformed file, or a read that comes up short because the file shrank
    after it was checked, is a :class:`ContractError` naming the file. What a
    dataset file must hold beyond this layout is checked by
    :class:`~mculora.synthgen.DatasetFile`. Close it when done; it is a
    context manager."""

    def __init__(self, path, expected_kind: str | None = None):
        self.path = Path(path)
        self._fh = self.path.open("rb")
        try:
            self._check(expected_kind)
        except BaseException:
            self._fh.close()
            raise

    def _check(self, expected_kind: str | None) -> None:
        fh, path = self._fh, self.path
        file_size = os.fstat(fh.fileno()).st_size
        magic = _line(fh, 1, _MAGIC_LIMIT, path).decode("ascii", errors="replace").strip()
        if not magic.startswith(_PREFIX) or not magic.endswith(_VERSION):
            raise ContractError(f"{path}: not a mculora container (magic line {magic!r})")
        self.kind = magic[len(_PREFIX):].split()[0].lower()
        if expected_kind is not None and self.kind != expected_kind.lower():
            raise ContractError(f"{path}: expected a {expected_kind} container, found {self.kind}")
        try:
            header = json.loads(_line(fh, 2, _HEADER_LIMIT, path))
            names = header["arrays"]
            if not (isinstance(header["meta"], dict) and isinstance(names, list)
                    and all(isinstance(n, str) for n in names)):
                raise ValueError("need a 'meta' object and an 'arrays' list of names")
        except (ValueError, KeyError, TypeError) as exc:  # ValueError covers JSON and UTF-8 errors
            raise ContractError(f"{path}: bad header: {exc}") from exc
        self.meta, self.names = header["meta"], names
        self._blobs: dict[str, tuple[int, tuple[int, ...], np.dtype]] = {}
        for name in names:
            try:
                version = npy_format.read_magic(fh)
                if version != (1, 0):  # all that np.save writes for the arrays stored here
                    raise ValueError(f"unsupported .npy version {version}")
                length = fh.read(2)
                shape, fortran_order, dtype = npy_format.read_array_header_1_0(
                    io.BytesIO(length + fh.read(int.from_bytes(length, "little"))))
                if dtype.hasobject or fortran_order:
                    raise ValueError(f"{'object' if dtype.hasobject else 'Fortran-order'} arrays are not stored")
                nbytes = math.prod(shape) * dtype.itemsize
                if nbytes > file_size - fh.tell():
                    raise ValueError(f"array data of shape {shape} runs past the end of the file")
            except (ValueError, TypeError, SyntaxError, tokenize.TokenError) as exc:  # raised by numpy's header parser
                raise ContractError(f"{path}: array {name!r} is missing or corrupt: {exc}") from exc
            self._blobs[name] = (fh.tell(), shape, dtype)
            fh.seek(nbytes, os.SEEK_CUR)
        if fh.tell() != file_size:
            raise ContractError(f"{path}: {file_size - fh.tell()} trailing bytes after the last array")

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "ContainerFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def shape_and_dtype(self, name: str) -> tuple[tuple[int, ...], np.dtype]:
        """Array `name`'s shape and dtype, as its ``.npy`` header gives them."""
        return self._blobs[name][1:]

    def _rows(self, name: str) -> int:
        """How many rows array `name` has; a 0-d array has none."""
        _, shape, _ = self._blobs[name]
        if not shape:
            raise ContractError(f"{self.path}: array {name!r}: cannot read rows of a 0-d array")
        return shape[0]

    def read(self, name: str, rows: slice | np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
        """Array `name` whole, or the rows of its leading axis that `rows`
        names: a contiguous slice, read at once, or row indices, in the order
        given, each read alone. The whole array or a slice of it is read into
        `out` when given, a writable C-contiguous array of exactly its shape
        and dtype, which is returned, so a reader of many ranges of one width
        can reuse one buffer; a buffer that is not, or row indices with a
        buffer, are a :class:`ContractError`."""
        offset, shape, dtype = self._blobs[name]
        if rows is None or isinstance(rows, slice):
            if rows is not None:
                lo, hi, step = rows.indices(self._rows(name))
                if step != 1:
                    raise ContractError(f"{self.path}: array {name!r}: rows must be a contiguous slice, "
                                        f"got step {step}")
                offset += lo * math.prod(shape[1:]) * dtype.itemsize
                shape = (max(0, hi - lo), *shape[1:])
            if out is None:
                out = np.empty(shape, dtype=dtype)
            elif out.shape != shape or out.dtype != dtype or not (out.flags.c_contiguous and out.flags.writeable):
                raise ContractError(f"{self.path}: array {name!r}: {shape} rows of {dtype} cannot be read into a "
                                    f"buffer of shape {out.shape} and dtype {out.dtype}, C-contiguous "
                                    f"{out.flags.c_contiguous}, writable {out.flags.writeable}")
            self._pread(memoryview(out.reshape(-1).view(np.uint8)), offset, name)
            return out
        if out is not None:
            raise ContractError(f"{self.path}: array {name!r}: only a contiguous slice of rows is read into a buffer")
        n = self._rows(name)
        row_bytes = math.prod(shape[1:]) * dtype.itemsize
        idx = np.asarray(rows, dtype=np.int64).reshape(-1)
        if idx.size and not 0 <= idx.min() <= idx.max() < n:
            raise IndexError(f"{self.path}: array {name!r}: rows out of range for {n} rows")
        arr = np.empty((idx.size, *shape[1:]), dtype=dtype)
        buf, fd = memoryview(arr.reshape(-1).view(np.uint8)), self._fh.fileno()
        for i, at in enumerate((offset + idx * row_bytes).tolist()):
            view = buf[i * row_bytes:(i + 1) * row_bytes]
            if os.preadv(fd, [view], at) != row_bytes:  # a short read is finished, or refused, by _pread
                self._pread(view, at, name)
        return arr

    def _pread(self, view: memoryview, offset: int, name: str) -> None:
        while view:
            got = os.preadv(self._fh.fileno(), [view], offset)
            if not got:
                raise ContractError(f"{self.path}: array {name!r} ends at byte {offset}: "
                                    f"the file shrank after it was checked")
            view, offset = view[got:], offset + got


def _line(fh, number: int, limit: int, path) -> bytes:
    """Line `number` of the container, read next from `fh`; a :class:`ContractError`
    if its first `limit` bytes hold no newline."""
    if len(line := fh.readline(limit)) == limit and not line.endswith(b"\n"):
        raise ContractError(f"{path}: not a mculora container (line {number} runs past {limit} bytes)")
    return line


def load_container(path, expected_kind: str | None = None) -> tuple[str, dict, dict[str, np.ndarray]]:
    """(kind, meta, arrays) of the container at `path`, every array read whole."""
    with ContainerFile(path, expected_kind) as container:
        arrays = {name: container.read(name) for name in container.names}
    return container.kind, container.meta, arrays
