import io
import json

import numpy as np
import pytest

from mculora.errors import ContractError
from mculora.serialize import load_container, save_container

ARRAYS = {
    "weights": np.arange(24, dtype=np.float64).reshape(2, 3, 4) / 7.0,
    "mask": np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8),
    "labels": np.array([3.5, -0.0]),
}


def npy_bytes(arr):
    buf = io.BytesIO()
    np.save(buf, arr, allow_pickle=False)
    return buf.getvalue()


@pytest.fixture()
def container(tmp_path):
    path = tmp_path / "c.mcu"
    save_container(path, "dataset", {"config": {"seed": 1}}, ARRAYS)
    return path


def test_streamed_file_is_the_documented_layout_and_roundtrips(container):
    header = json.dumps({"meta": {"config": {"seed": 1}}, "arrays": list(ARRAYS)}, sort_keys=True)
    expected = b"MCULORA-DATASET v1\n" + header.encode() + b"\n" + b"".join(npy_bytes(a) for a in ARRAYS.values())
    assert container.read_bytes() == expected
    kind, meta, arrays = load_container(container, expected_kind="dataset")
    assert kind == "dataset" and meta == {"config": {"seed": 1}}
    assert list(arrays) == list(ARRAYS)
    for name, arr in ARRAYS.items():
        assert arrays[name].dtype == arr.dtype and arrays[name].tobytes() == arr.tobytes()
        assert arrays[name].flags.writeable


def test_truncated_container_is_contract_error_naming_the_file(container):
    data = container.read_bytes()
    magic_end = data.index(b"\n") + 1
    header_end = data.index(b"\n", magic_end) + 1
    first_blob = len(npy_bytes(ARRAYS["weights"]))
    offsets = [0, 5, magic_end, magic_end + 7, header_end - 1, header_end, header_end + 6, header_end + 60,
               header_end + first_blob - 1, header_end + first_blob, len(data) - 1]
    for cut in offsets:
        container.write_bytes(data[:cut])
        with pytest.raises(ContractError, match="c.mcu") as info:
            load_container(container)
        if cut == header_end + first_blob:  # file ends just before a listed array
            assert "'mask'" in str(info.value)


def test_trailing_bytes_are_rejected(container):
    container.write_bytes(container.read_bytes() + b"junk")
    with pytest.raises(ContractError, match="trailing bytes"):
        load_container(container)


def test_bad_header_json_and_shape_are_rejected(container):
    data = container.read_bytes()
    magic_end = data.index(b"\n") + 1
    header_end = data.index(b"\n", magic_end) + 1
    for bad in (b"{not json", b"\xff\xfe", b'{"meta": {}, "arrays": "weights"}', b"[1, 2]"):
        container.write_bytes(data[:magic_end] + bad + b"\n" + data[header_end:])
        with pytest.raises(ContractError, match="c.mcu"):
            load_container(container)


def test_garbled_blob_is_rejected(container):
    data = bytearray(container.read_bytes())
    magic_end = data.index(b"\n") + 1
    header_end = data.index(b"\n", magic_end) + 1
    blob_header = data.index(b"}", header_end)
    for start, junk in ((header_end, b"PK\x03\x04"), (header_end + 10, b"'descr': 'O'"),
                        (blob_header - 12, b"(9999999999")):
        garbled = data.copy()
        garbled[start:start + len(junk)] = junk
        container.write_bytes(bytes(garbled))
        with pytest.raises(ContractError, match="'weights' is missing or corrupt"):
            load_container(container)


def test_failed_write_leaves_target_and_no_temporary(container):
    before = container.read_bytes()
    with pytest.raises(ValueError):
        save_container(container, "dataset", {}, {"ok": np.zeros(2), "bad": np.array([object()])})
    assert container.read_bytes() == before
    assert not list(container.parent.glob("*.tmp"))
