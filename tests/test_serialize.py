import hashlib
import io
import itertools
import json
import os
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from mculora.errors import ContractError
from mculora import serialize
from mculora.serialize import Chunked, ContainerFile, load_container, save_container

ARRAYS = {
    "weights": np.arange(24, dtype=np.float64).reshape(2, 3, 4) / 7.0,
    "mask": np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8),
    "labels": np.array([3.5, -0.0]),
}


def read_first_rows(path):
    """Every array's first row alone, which leaves the rest of each blob outside what is read."""
    with ContainerFile(path) as container:
        return {name: container.read(name, slice(0, 1)) for name in container.names}


# every malformed file must fail whole reads and row reads alike: the file is checked whole when it is opened
READS = (load_container, read_first_rows)


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
    for cut, read in itertools.product(offsets, READS):
        container.write_bytes(data[:cut])
        with pytest.raises(ContractError, match="c.mcu") as info:
            read(container)
        if cut == header_end + first_blob:  # file ends just before a listed array
            assert "'mask'" in str(info.value)


def test_trailing_bytes_are_rejected(container):
    container.write_bytes(container.read_bytes() + b"junk")
    for read in READS:
        with pytest.raises(ContractError, match="c.mcu: 4 trailing bytes"):
            read(container)


def test_bad_header_json_and_shape_are_rejected(container):
    data = container.read_bytes()
    magic_end = data.index(b"\n") + 1
    header_end = data.index(b"\n", magic_end) + 1
    bad_headers = (b"{not json", b"\xff\xfe", b'{"meta": {}, "arrays": "weights"}', b"[1, 2]")
    for bad, read in itertools.product(bad_headers, READS):
        container.write_bytes(data[:magic_end] + bad + b"\n" + data[header_end:])
        with pytest.raises(ContractError, match="c.mcu"):
            read(container)


def test_a_line_without_a_newline_is_refused_after_a_bounded_read(tmp_path):
    for name, content in (("zeros.mcu", bytes(16 << 20)), ("magic.mcu", b"MCULORA-DATASET v1\n" + bytes(16 << 20))):
        (tmp_path / name).write_bytes(content)
        tracemalloc.start()
        try:
            with pytest.raises(ContractError, match=f"{name}: not a mculora container \\(line [12] runs past") as info:
                ContainerFile(tmp_path / name)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, name
        assert len(str(info.value)) < 300, name


def test_a_header_line_as_long_as_the_limit_opens_and_one_byte_longer_is_refused(tmp_path):
    arrays = {"x": np.arange(3.0)}

    def header_bytes(pad):
        return len(json.dumps({"meta": {"pad": "p" * pad}, "arrays": list(arrays)}, sort_keys=True)) + 1
    pad = serialize._HEADER_LIMIT - header_bytes(0)  # the newline is the limit's last byte
    save_container(tmp_path / "long.mcu", "dataset", {"pad": "p" * pad}, arrays)
    assert header_bytes(pad) == serialize._HEADER_LIMIT
    _, meta, read = load_container(tmp_path / "long.mcu")
    assert meta == {"pad": "p" * pad} and read["x"].tobytes() == arrays["x"].tobytes()
    save_container(tmp_path / "longer.mcu", "dataset", {"pad": "p" * (pad + 1)}, arrays)
    with pytest.raises(ContractError, match="longer.mcu: not a mculora container \\(line 2 runs past 65536 bytes\\)"):
        load_container(tmp_path / "longer.mcu")


def test_garbled_blob_is_rejected(container):
    data = bytearray(container.read_bytes())
    magic_end = data.index(b"\n") + 1
    header_end = data.index(b"\n", magic_end) + 1
    blob_header = data.index(b"}", header_end)
    garbles = ((header_end, b"PK\x03\x04"), (header_end + 10, b"'descr': 'O'"), (blob_header - 12, b"(9999999999"))
    for (start, junk), read in itertools.product(garbles, READS):
        garbled = data.copy()
        garbled[start:start + len(junk)] = junk
        container.write_bytes(bytes(garbled))
        with pytest.raises(ContractError, match="c.mcu: array 'weights' is missing or corrupt"):
            read(container)


def test_failed_write_leaves_target_and_no_temporary(container):
    before = container.read_bytes()
    with pytest.raises(ValueError):
        save_container(container, "dataset", {}, {"ok": np.zeros(2), "bad": np.array([object()])})
    assert container.read_bytes() == before
    assert not list(container.parent.glob("*.tmp"))


def test_row_range_read_is_the_slice_of_a_full_read(tmp_path):
    arrays = {"x": np.arange(60, dtype=np.float64).reshape(5, 3, 4), "m": np.arange(15, dtype=np.uint8).reshape(5, 3),
              "y": np.linspace(0, 1, 5)}
    path = tmp_path / "r.mcu"
    save_container(path, "dataset", {}, arrays)
    # contiguous slices, and row indices in any order, repeats included
    parts = (slice(0, 5), slice(0, 0), slice(2, 4), slice(4, 5), slice(-2, None), slice(3, 1), slice(0, 99),
             np.array([4, 0, 2, 2]), np.array([3]), np.array([], dtype=np.int64))
    with ContainerFile(path) as container:
        assert all(container.shape_and_dtype(name) == (arr.shape, arr.dtype) for name, arr in arrays.items())
        for part in parts:
            for name, arr in arrays.items():
                got, want = container.read(name, part), arr[part]
                assert got.dtype == want.dtype and got.shape == want.shape, (name, part)
                assert got.tobytes() == want.tobytes() and got.flags.writeable
        with pytest.raises(IndexError, match="r.mcu: array 'x': rows out of range for 5 rows"):
            container.read("x", np.array([0, 5]))


def test_row_range_read_needs_a_contiguous_slice_and_rows(tmp_path):
    path = tmp_path / "r.mcu"
    save_container(path, "dataset", {}, {"x": np.zeros((4, 2)), "y": np.zeros(3)})
    with ContainerFile(path) as container:  # arrays of other leading lengths are read alike
        assert container.shape_and_dtype("y") == ((3,), np.dtype(np.float64))
        assert container.read("y", slice(1, 9)).shape == (2,) and container.read("x", slice(1, 9)).shape == (3, 2)
        with pytest.raises(ContractError, match="r.mcu: array 'x'.*contiguous"):
            container.read("x", slice(0, 4, 2))
    # np.save can write blobs that save_container never does: a 0-d array, which reads whole but has
    # no rows, and a Fortran-order array, which is refused when the file is opened
    header = b"MCULORA-DATASET v1\n" + json.dumps({"meta": {}, "arrays": ["odd"]}).encode() + b"\n"
    path.write_bytes(header + npy_bytes(np.array(1.0)))
    assert load_container(path)[2]["odd"].tobytes() == np.array(1.0).tobytes()
    with ContainerFile(path) as container:
        for rows in (slice(0, 1), np.array([0])):
            with pytest.raises(ContractError, match="r.mcu: array 'odd'.*0-d"):
                container.read("odd", rows)
    path.write_bytes(header + npy_bytes(np.asfortranarray(np.zeros((4, 2)))))
    for open_file in (ContainerFile, load_container):
        with pytest.raises(ContractError, match="r.mcu: array 'odd'.*Fortran-order"):
            open_file(path)


def test_rows_read_after_the_file_shrank_are_contract_error_naming_it(container):
    size = container.stat().st_size
    with ContainerFile(container) as opened:
        os.truncate(container, size - 3)  # the last array loses its last bytes after the check
        assert opened.read("weights").tobytes() == ARRAYS["weights"].tobytes()
        for rows in (None, slice(0, 2), np.array([1])):
            with pytest.raises(ContractError, match="c.mcu: array 'labels' .*shrank"):
                opened.read("labels", rows)
        assert opened.read("labels", np.array([0])).tobytes() == ARRAYS["labels"][:1].tobytes()


def test_read_into_a_buffer_gives_the_bytes_of_a_fresh_read(tmp_path):
    arrays = {"x": np.arange(60, dtype=np.float64).reshape(5, 3, 4), "m": np.arange(15, dtype=np.uint8).reshape(5, 3)}
    path = tmp_path / "r.mcu"
    save_container(path, "dataset", {}, arrays)
    with ContainerFile(path) as container:
        for name, arr in arrays.items():
            buf = np.full((9, *arr.shape[1:]), 99, dtype=arr.dtype)  # one buffer, reused by every read
            for part in (None, slice(0, 5), slice(2, 4), slice(4, 5), slice(-2, None), slice(3, 1), slice(1, 99)):
                want = container.read(name, part)
                out = buf[:len(want)]
                got = container.read(name, part, out=out)
                assert got is out and got.tobytes() == want.tobytes() == arr[part].tobytes(), (name, part)
            assert buf[5:].tobytes() == np.full((4, *arr.shape[1:]), 99, dtype=arr.dtype).tobytes()  # untouched


def test_read_into_a_buffer_refuses_one_it_cannot_fill(container):
    with ContainerFile(container) as opened:
        buf = np.empty((2, 3, 4))
        for rows, out, why in [(slice(0, 2), np.empty((2, 3, 5)), r"buffer of shape \(2, 3, 5\)"),
                               (slice(0, 1), buf, r"\(1, 3, 4\) rows .*buffer of shape \(2, 3, 4\)"),
                               (None, np.empty((2, 3, 4), dtype=np.float32), "dtype float32"),
                               (slice(0, 2), np.empty((2, 4, 3)).transpose(0, 2, 1), "C-contiguous False"),
                               (slice(0, 2), np.empty((2, 3, 8))[:, :, ::2], "C-contiguous False"),
                               (slice(0, 2), np.lib.stride_tricks.as_strided(buf, writeable=False), "writable False"),
                               (np.array([0, 1]), buf, "contiguous slice of rows"),
                               (slice(0, 2, 2), buf[:1], "contiguous slice, got step 2")]:
            with pytest.raises(ContractError, match=f"c.mcu: array 'weights'.*{why}"):
                opened.read("weights", rows, out=out)
        assert opened.read("weights", slice(0, 2), out=buf).tobytes() == ARRAYS["weights"].tobytes()


def test_read_into_a_buffer_after_the_file_shrank_is_contract_error_naming_it(container):
    size = container.stat().st_size
    with ContainerFile(container) as opened:
        os.truncate(container, size - 3)  # the last array loses its last bytes after the check
        for rows in (None, slice(0, 2), slice(1, 2)):
            with pytest.raises(ContractError, match="c.mcu: array 'labels' .*shrank"):
                opened.read("labels", rows, out=np.empty(2 if rows is None or rows.start == 0 else 1))
        out = np.empty(1)
        assert opened.read("labels", slice(0, 1), out=out).tobytes() == ARRAYS["labels"][:1].tobytes()


def test_writer_calls_each_array_function_once(tmp_path):
    calls = []

    def make(name, rows_per_block):
        def blocks():
            calls.append(name)
            arr = ARRAYS[name]
            for lo in range(0, len(arr), rows_per_block):
                yield arr[lo:lo + rows_per_block]
        return Chunked(ARRAYS[name].shape, ARRAYS[name].dtype, blocks)
    want = save_container(tmp_path / "c.mcu", "dataset", {"config": {"seed": 1}}, ARRAYS)
    for rows_per_block in (1, 2, 5):
        calls.clear()
        got = save_container(tmp_path / "f.mcu", "dataset", {"config": {"seed": 1}},
                             {n: make(n, rows_per_block) for n in ARRAYS})
        assert sorted(calls) == sorted(ARRAYS)
        assert (tmp_path / "f.mcu").read_bytes() == (tmp_path / "c.mcu").read_bytes()
        assert got == want


# chunks() runs on the calling thread and the writer's worker iterates what it returns: blocks built in
# chunks() itself are made on the calling thread, those drawn by a generator on the worker threads
@pytest.mark.parametrize("on_workers", [False, True], ids=["calling thread", "worker threads"])
def test_streamed_arrays_of_any_block_size_are_the_np_save_concatenation(tmp_path, on_workers):
    rng = np.random.default_rng(5)
    plain = {"x": rng.normal(size=(70, 3, 4)), "empty": np.zeros((0, 6)), "between": np.arange(9, dtype=np.uint8),
             "y": rng.normal(size=(33, 5)), "z": rng.integers(0, 9, size=(17, 2, 2)).astype(np.int32)}
    rows_per_block = {"x": 8, "empty": 3, "y": 1, "z": 17}  # "between" is written as a plain array
    on_main = []

    def blocks(a, k):
        for lo in range(0, len(a), k):
            on_main.append(threading.current_thread() is threading.main_thread())
            yield a[lo:lo + k]

    def chunks(a, k):
        return blocks(a, k) if on_workers else list(blocks(a, k))
    arrays = {name: Chunked(arr.shape, arr.dtype, lambda a=arr, k=rows_per_block[name]: chunks(a, k))
              if name in rows_per_block else arr for name, arr in plain.items()}
    threads = threading.active_count()
    digest = save_container(tmp_path / "s.mcu", "dataset", {"k": 2}, arrays)
    header = json.dumps({"meta": {"k": 2}, "arrays": list(plain)}, sort_keys=True)
    data = (tmp_path / "s.mcu").read_bytes()
    assert data == b"MCULORA-DATASET v1\n" + header.encode() + b"\n" + b"".join(npy_bytes(a) for a in plain.values())
    assert digest == hashlib.sha256(data).hexdigest()
    assert threading.active_count() == threads
    assert set(on_main) == {not on_workers}  # where the blocks were drawn, however small their arrays


def slow_rows(n, pulled, pause=0.001):
    """(n, 4) float64 rows one at a time, `pause` seconds apart; counts the rows pulled in `pulled`."""
    for _ in range(n):
        pulled.append(1)
        time.sleep(pause)
        yield np.zeros((1, 4))


def test_a_writer_failing_mid_stream_stops_the_others_and_leaves_nothing(tmp_path):
    def failing():
        yield np.zeros((2, 4))
        time.sleep(0.01)  # the other writers are under way
        yield np.zeros((2, 4), dtype=np.float32)
    first, third = [], []
    arrays = {"first": Chunked((1000, 4), np.dtype(np.float64), lambda: slow_rows(1000, first)),
              "second": Chunked((6, 4), np.dtype(np.float64), failing),
              "third": Chunked((1000, 4), np.dtype(np.float64), lambda: slow_rows(1000, third))}
    threads = threading.active_count()
    with pytest.raises(ValueError, match="array 'second': a block of dtype float32, expected float64"):
        save_container(tmp_path / "x.mcu", "dataset", {}, arrays)
    assert threading.active_count() == threads  # every worker was joined
    assert len(first) < 1000 and len(third) < 1000  # they stopped at their next block
    assert not list(tmp_path.iterdir())  # no target and no temporary


def test_an_interrupted_write_stops_every_writer_and_leaves_nothing(tmp_path):
    def interrupting():
        yield np.zeros((1, 4))
        signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)  # the calling thread is interrupted
        yield from slow_rows(999, [])
    pulled = []
    arrays = {"x": Chunked((1000, 4), np.dtype(np.float64), interrupting),
              "y": Chunked((1000, 4), np.dtype(np.float64), lambda: slow_rows(1000, pulled))}
    threads = threading.active_count()
    assert threading.current_thread() is threading.main_thread()
    with pytest.raises(KeyboardInterrupt):
        save_container(tmp_path / "x.mcu", "dataset", {}, arrays)
    assert threading.active_count() == threads
    assert len(pulled) < 1000
    assert not list(tmp_path.iterdir())


def test_an_interrupt_while_the_writers_run_waits_for_each_to_return(tmp_path):
    returned = []

    def interrupting():
        yield np.zeros((1, 4))
        time.sleep(0.05)  # the calling thread is waiting for the writers
        signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        time.sleep(0.2)  # still running well after the interrupt
        returned.append(1)
        yield np.zeros((1, 4))
    arrays = {"x": Chunked((2, 4), np.dtype(np.float64), interrupting),
              "y": Chunked((1000, 4), np.dtype(np.float64), lambda: slow_rows(1000, []))}
    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        save_container(tmp_path / "x.mcu", "dataset", {}, arrays)
    assert returned == [1]  # the writer's block was done before save_container returned
    assert threading.active_count() == threads
    assert not list(tmp_path.iterdir())


def test_writer_returns_the_sha256_of_the_file(container, tmp_path):
    digest = save_container(tmp_path / "d.mcu", "dataset", {"config": {"seed": 1}}, ARRAYS)
    assert digest == hashlib.sha256(container.read_bytes()).hexdigest()
    rng = np.random.default_rng(8)
    plain = {"x": rng.normal(size=(61, 3, 5)), "y": rng.normal(size=(45, 7)),
             "z": rng.integers(0, 9, size=(29, 3)).astype(np.int32)}
    rows_per_block = {"x": 9, "y": 13, "z": 4}  # several uneven blocks each: the last is shorter
    arrays = {name: Chunked(a.shape, a.dtype, lambda a=a, k=rows_per_block[name]: (a[lo:lo + k]
                                                                                   for lo in range(0, len(a), k)))
              for name, a in plain.items()}
    digest = save_container(tmp_path / "s.mcu", "dataset", {"k": 1}, arrays)
    assert digest == hashlib.sha256((tmp_path / "s.mcu").read_bytes()).hexdigest()


def test_many_writers_of_one_row_blocks_switching_often_write_the_np_save_concatenation(tmp_path):
    rng = np.random.default_rng(9)
    plain = {f"x{i}": rng.normal(size=(40 + i, 3)) for i in range(8)}
    arrays = {name: Chunked(a.shape, a.dtype, lambda a=a: (a[lo:lo + 1] for lo in range(len(a))))
              for name, a in plain.items()}
    threads, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the eight writers hand the interpreter lock over at almost every bytecode
    try:
        digest = save_container(tmp_path / "s.mcu", "dataset", {}, arrays)
    finally:
        sys.setswitchinterval(interval)
    header = json.dumps({"meta": {}, "arrays": list(plain)}, sort_keys=True)
    data = (tmp_path / "s.mcu").read_bytes()
    assert data == b"MCULORA-DATASET v1\n" + header.encode() + b"\n" + b"".join(npy_bytes(a) for a in plain.values())
    assert digest == hashlib.sha256(data).hexdigest()
    assert threading.active_count() == threads


def test_blocks_that_do_not_make_up_the_declared_array_are_refused(tmp_path):
    x = np.arange(6.0).reshape(3, 2)
    for blocks, match in (((x[:2],), "array 'x': blocks hold 32 bytes, shape \\(3, 2\\) needs 48"),
                          ((x, x[:1]), "array 'x': blocks hold 64 bytes"),
                          ((x.astype(np.float32),), "array 'x': a block of dtype float32, expected float64")):
        with pytest.raises(ValueError, match=match):
            save_container(tmp_path / "x.mcu", "dataset", {}, {"x": Chunked(x.shape, x.dtype, lambda b=blocks: b)})
        assert not list(tmp_path.iterdir())  # no target and no temporary


def test_blocks_refused_on_a_worker_thread_raise_the_same_errors(tmp_path):
    x = np.arange(6.0).reshape(3, 2)
    on_main = []

    def drawn(blocks):  # each block is drawn on the writer's worker thread, then refused there
        for block in blocks:
            on_main.append(threading.current_thread() is threading.main_thread())
            yield block
    threads = threading.active_count()
    for blocks, match in (((x[:2],), "array 'x': blocks hold 32 bytes, shape \\(3, 2\\) needs 48"),
                          ((x, x[:1]), "array 'x': blocks hold 64 bytes"),
                          ((x.astype(np.float32),), "array 'x': a block of dtype float32, expected float64")):
        with pytest.raises(ValueError, match=match):
            save_container(tmp_path / "x.mcu", "dataset", {}, {"x": Chunked(x.shape, x.dtype, lambda b=blocks: drawn(b))})
        assert threading.active_count() == threads  # the worker that refused them was joined
        assert not list(tmp_path.iterdir())
    assert set(on_main) == {False}


def test_an_interrupt_while_a_writer_starts_up_still_joins_it(tmp_path, monkeypatch):
    bootstrap = serialize._BlobWriter._bootstrap
    main = threading.main_thread().ident

    def slow_start_up(writer):  # runs on the new thread before the thread records that it has started
        if writer.name == "save-y":
            signal.pthread_kill(main, signal.SIGINT)  # the calling thread is still inside start()
            time.sleep(0.05)
        bootstrap(writer)
    monkeypatch.setattr(serialize._BlobWriter, "_bootstrap", slow_start_up)
    pulled = []
    arrays = {"x": Chunked((1000, 4), np.dtype(np.float64), lambda: slow_rows(1000, [])),
              "y": Chunked((1000, 4), np.dtype(np.float64), lambda: slow_rows(1000, pulled))}
    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        save_container(tmp_path / "x.mcu", "dataset", {}, arrays)
    assert threading.active_count() == threads  # the writer whose start-up was cut short was joined too
    assert len(pulled) < 1000
    assert not list(tmp_path.iterdir())
