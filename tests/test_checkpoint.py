"""Oracle tests for the binary checkpoint format."""

from __future__ import annotations

import json
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from notesetter.autodiff import Value
from notesetter.checkpoint import (MAGIC, BadCheckpoint, ChecksumMismatch,
                                   load_checkpoint, restore_params,
                                   save_checkpoint)


def _tensors():
    return {
        "b.weight": np.array([[1.5, -2.25]]),
        "a.bias": np.array([[0.0], [3.0]]),
    }


def test_round_trip(tmp_path):
    path = tmp_path / "model.ckpt"
    meta = {"epoch": 3, "model": {"hidden_size": 8}}
    save_checkpoint(path, _tensors(), meta)
    loaded, got_meta = load_checkpoint(path)
    assert got_meta == meta
    assert set(loaded) == {"a.bias", "b.weight"}
    np.testing.assert_array_equal(loaded["a.bias"], [[0.0], [3.0]])
    np.testing.assert_array_equal(loaded["b.weight"], [[1.5, -2.25]])


def _oracle_bytes(tensors, meta):
    # [DERIVED] independent re-serialization: magic + <II (version, header
    # length) + compact sorted JSON header + little-endian f8 payload in
    # name-sorted order, CRC-32 of the payload stored in the header.
    arrays = {name: np.asarray(t.data if isinstance(t, Value) else t,
                               dtype=np.float64)
              for name, t in tensors.items()}
    names = sorted(arrays)
    payload = b"".join(arrays[n].astype("<f8").tobytes() for n in names)
    header = {
        "crc32": zlib.crc32(payload) & 0xFFFFFFFF,
        "meta": meta,
        "tensors": [{"name": n, "shape": list(arrays[n].shape)}
                    for n in names],
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode()
    return MAGIC + struct.pack("<II", 1, len(header_bytes)) \
        + header_bytes + payload


def test_byte_layout_oracle(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, _tensors(), {"k": 1})
    raw = path.read_bytes()

    payload = (np.array([[0.0], [3.0]]).astype("<f8").tobytes()
               + np.array([[1.5, -2.25]]).astype("<f8").tobytes())
    assert raw[-len(payload):] == payload
    assert raw == _oracle_bytes(_tensors(), {"k": 1})


_GRID = np.arange(12.0).reshape(3, 4) - 5.5


@pytest.mark.parametrize("tensor", [
    Value(np.array([[1.0, -2.0]])),
    np.array([[3, -4], [5, 6]], dtype=np.int32),
    np.asfortranarray(_GRID),
    _GRID[::2, 1::2],
    np.zeros((0, 3)),
], ids=["value", "int32", "fortran", "strided-slice", "zero-size"])
def test_saved_bytes_match_oracle(tmp_path, tensor):
    tensors = {"m.tensor": tensor, "z.plain": np.array([[0.25]])}
    path = tmp_path / "o.ckpt"
    save_checkpoint(path, tensors, {"epoch": 2})
    assert path.read_bytes() == _oracle_bytes(tensors, {"epoch": 2})
    loaded, _ = load_checkpoint(path)
    data = tensor.data if isinstance(tensor, Value) else tensor
    np.testing.assert_array_equal(loaded["m.tensor"], data)
    assert loaded["m.tensor"].shape == data.shape


def test_save_refuses_tensors_that_are_not_2d(tmp_path):
    path = tmp_path / "r.ckpt"
    with pytest.raises(ValueError, match="2-D"):
        save_checkpoint(path, {"v": np.zeros(3)}, {})
    assert not path.exists() and list(tmp_path.iterdir()) == []


def test_identical_saves_are_bit_identical(tmp_path):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    # Dict insertion order must not matter (names are sorted on save).
    t = _tensors()
    save_checkpoint(p1, t, {"x": [1, 2]})
    save_checkpoint(p2, dict(reversed(list(t.items()))), {"x": [1, 2]})
    assert p1.read_bytes() == p2.read_bytes()


def test_loaded_tensors_are_owned_writable_float64(tmp_path):
    path = tmp_path / "w.ckpt"
    save_checkpoint(path, {"a": np.ones((3, 2)), "b": np.full((2, 3), 2.0),
                           "c": np.zeros((0, 3))}, {})
    loaded, _ = load_checkpoint(path)
    for arr in loaded.values():
        assert arr.dtype == np.float64
        assert arr.flags.c_contiguous and arr.flags.writeable
    arrays = list(loaded.values())
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
    loaded["a"][0, 0] = 7.0
    assert loaded["b"][0, 0] == 2.0


def test_memory_peaks_stay_near_the_payload(tmp_path):
    # 16 tensors of 256 x 256 float64: an 8 MiB payload. Loading holds the
    # file buffer and the tensors (about 2x); saving holds no payload copy.
    rng = np.random.default_rng(0)
    tensors = {f"t{i:02d}": rng.standard_normal((256, 256))
               for i in range(16)}
    payload = 16 * 256 * 256 * 8
    path = tmp_path / "big.ckpt"
    tracemalloc.start()
    try:
        save_checkpoint(path, tensors, {"epoch": 1})
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        loaded, _ = load_checkpoint(path)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert save_peak <= 0.05 * payload, save_peak / payload
    assert load_peak <= 2.1 * payload, load_peak / payload
    np.testing.assert_array_equal(loaded["t07"], tensors["t07"])


def test_accepts_values_and_coerces_dtype(tmp_path):
    path = tmp_path / "v.ckpt"
    save_checkpoint(path, {"p": Value(np.array([[1.0, 2.0]])),
                           "q": np.array([[3, 4]], dtype=np.int32)}, {})
    loaded, _ = load_checkpoint(path)
    assert loaded["q"].dtype == np.float64
    np.testing.assert_array_equal(loaded["q"], [[3.0, 4.0]])


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"JUNKxxxxxxxxxxxx")
    with pytest.raises(BadCheckpoint):
        load_checkpoint(path)


def test_bad_version(tmp_path):
    path = tmp_path / "v9.ckpt"
    save_checkpoint(path, _tensors(), {})
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(BadCheckpoint):
        load_checkpoint(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, _tensors(), {})
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises((BadCheckpoint, ChecksumMismatch)):
        load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, _tensors(), {})
    raw = path.read_bytes()
    # Keep the CRC valid for the original payload but append extra bytes:
    # the CRC check fires first (payload changed), either error is correct.
    path.write_bytes(raw + b"\x00" * 8)
    with pytest.raises((BadCheckpoint, ChecksumMismatch)):
        load_checkpoint(path)


def test_corrupt_payload_checksum(tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, _tensors(), {})
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ChecksumMismatch):
        load_checkpoint(path)


def test_restore_params_round_trip(tmp_path):
    path = tmp_path / "r.ckpt"
    save_checkpoint(path, _tensors(), {})
    tensors, _ = load_checkpoint(path)
    params = {"a.bias": Value(np.zeros((2, 1))),
              "b.weight": Value(np.zeros((1, 2)))}
    restore_params(params, tensors)
    np.testing.assert_array_equal(params["a.bias"].data, [[0.0], [3.0]])
    np.testing.assert_array_equal(params["b.weight"].data, [[1.5, -2.25]])


def test_restore_params_name_mismatch():
    params = {"only": Value(np.zeros((1, 1)))}
    with pytest.raises(BadCheckpoint):
        restore_params(params, {"other": np.zeros((1, 1))})


def test_restore_params_shape_mismatch():
    params = {"p": Value(np.zeros((1, 2)))}
    with pytest.raises(BadCheckpoint):
        restore_params(params, {"p": np.zeros((2, 1))})


# --- malformed headers: each is BadCheckpoint, never another exception ---

def _floats(n):
    return np.arange(1.0, n + 1.0).astype("<f8").tobytes()


def _header(payload, shape, **changes):
    header = {"crc32": zlib.crc32(payload), "meta": {},
              "tensors": [{"name": "w", "shape": shape}]}
    header.update(changes)
    return json.dumps(header).encode()


def _write_raw(path, header_bytes, payload):
    path.write_bytes(MAGIC + struct.pack("<II", 1, len(header_bytes))
                     + header_bytes + payload)


def _without(key, payload):
    header = json.loads(_header(payload, [1, 2]))
    del header[key]
    return json.dumps(header).encode()


# id -> (header, payload). Each payload holds as many bytes as the shape
# claims when read naively, so only the header checks can refuse the file.
MALFORMED = {
    "negative-shape": (_header(_floats(3), [-1, 2]), _floats(3)),
    "float-shape": (_header(_floats(6), [1.5, 4]), _floats(6)),
    "bool-shape": (_header(_floats(6), [True, 6]), _floats(6)),
    "three-element-shape": (_header(_floats(2), [1, 2, 1]), _floats(2)),
    "shape-beyond-payload": (_header(_floats(2), [4, 4]), _floats(2)),
    "no-crc32": (_without("crc32", _floats(2)), _floats(2)),
    "no-meta": (_without("meta", _floats(2)), _floats(2)),
    "list-header": (json.dumps([{"name": "w", "shape": [1, 2]}]).encode(),
                    _floats(2)),
    "not-utf8": (b'{"crc32": 1, "meta": {"\xff": 0}, "tensors": []}', b""),
    "not-json": (b'{"crc32": 1, "meta": {}, "tensors": [', b""),
}


@pytest.mark.parametrize("header_bytes,payload", list(MALFORMED.values()),
                         ids=list(MALFORMED))
def test_malformed_header_is_bad_checkpoint(tmp_path, header_bytes, payload):
    path = tmp_path / "h.ckpt"
    _write_raw(path, header_bytes, payload)
    with pytest.raises(BadCheckpoint):
        load_checkpoint(path)


def test_duplicate_tensor_names_are_refused(tmp_path):
    path = tmp_path / "d.ckpt"
    _write_raw(path, _header(_floats(4), [1, 2], tensors=[
        {"name": "w", "shape": [1, 2]}, {"name": "w", "shape": [1, 2]}]),
        _floats(4))
    with pytest.raises(BadCheckpoint, match="twice"):
        load_checkpoint(path)


def test_hand_written_header_loads(tmp_path):
    # the helpers above write a valid file when nothing is changed
    path = tmp_path / "ok.ckpt"
    _write_raw(path, _header(_floats(6), [2, 3]), _floats(6))
    loaded, meta = load_checkpoint(path)
    assert meta == {}
    np.testing.assert_array_equal(loaded["w"], [[1.0, 2.0, 3.0],
                                                [4.0, 5.0, 6.0]])


# --- saving replaces the target only once the new file is complete ---


def test_failed_save_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "best.ckpt"
    save_checkpoint(path, _tensors(), {"epoch": 1})
    before = path.read_bytes()

    class FailingFile:
        """Writes the first three pieces, then fails partway."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 4:
                self.fh.write(bytes(memoryview(data).cast("B")[:3]))
                raise OSError("disk full")
            return self.fh.write(data)

    real_open = open
    monkeypatch.setattr("notesetter.checkpoint.open",
                        lambda *a, **k: FailingFile(real_open(*a, **k)),
                        raising=False)
    newer = {name: arr + 1.0 for name, arr in _tensors().items()}
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, newer, {"epoch": 2})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]

    monkeypatch.undo()
    save_checkpoint(path, newer, {"epoch": 2})
    assert load_checkpoint(path)[1] == {"epoch": 2}
    assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]
