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
"""

from __future__ import annotations

import json
import math
import os
import tokenize
from pathlib import Path

import numpy as np
from numpy.lib import format as npy_format

from .errors import ContractError

_PREFIX = "MCULORA-"
_VERSION = "v1"


def save_container(path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    path = Path(path)
    header = {"meta": meta, "arrays": list(arrays.keys())}
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(f"{_PREFIX}{kind.upper()} {_VERSION}\n".encode("ascii"))
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
            fh.write(b"\n")
            for arr in arrays.values():
                np.save(fh, np.ascontiguousarray(arr), allow_pickle=False)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_array(fh, file_size: int) -> np.ndarray:
    """One .npy blob; its data must fit in what is left of the file."""
    version = npy_format.read_magic(fh)
    if version != (1, 0):  # all that np.save writes for the arrays stored here
        raise ValueError(f"unsupported .npy version {version}")
    shape, fortran_order, dtype = npy_format.read_array_header_1_0(fh)
    if math.prod(shape) * dtype.itemsize > file_size - fh.tell():
        raise ValueError(f"array data of shape {shape} runs past the end of the file")
    arr = np.empty(math.prod(shape), dtype=dtype)
    fh.readinto(arr.view(np.uint8))  # TypeError for object dtypes, which are never read
    return arr.reshape(shape, order="F" if fortran_order else "C")


def load_container(path, expected_kind: str | None = None) -> tuple[str, dict, dict[str, np.ndarray]]:
    path = Path(path)
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
                arrays[name] = _read_array(fh, file_size)
            except (ValueError, TypeError, SyntaxError, tokenize.TokenError) as exc:  # raised by numpy's header parser
                raise ContractError(f"{path}: array {name!r} is missing or corrupt: {exc}") from exc
        if fh.tell() != file_size:
            raise ContractError(f"{path}: {file_size - fh.tell()} trailing bytes after the last array")
    return kind, header["meta"], arrays
