import struct

import numpy as np
import pytest

from alignrec.checkpoint import load_checkpoint, save_checkpoint
from alignrec.errors import ParseError
from alignrec.model import PARAM_NAMES, init_params


def test_roundtrip_bitwise(tmp_path, rng):
    params = init_params(5, 4, 3, 6, 2, rng)
    state = np.random.default_rng(3).bit_generator.state
    path = tmp_path / "model.ackp"
    save_checkpoint(path, params, "[train]\nseed = 3\n", rng_state=state)
    loaded = load_checkpoint(path)
    for name in PARAM_NAMES:
        assert np.array_equal(getattr(loaded.params, name), getattr(params, name))
    assert loaded.config_text == "[train]\nseed = 3\n"
    assert loaded.rng_state == state
    assert loaded.status == "ok"


def test_rewrite_is_byte_identical(tmp_path, rng):
    params = init_params(3, 3, 2, 4, 2, rng)
    a, b = tmp_path / "a.ackp", tmp_path / "b.ackp"
    save_checkpoint(a, params, "cfg")
    save_checkpoint(b, load_checkpoint(a).params, "cfg")
    assert a.read_bytes() == b.read_bytes()


def test_failed_status_tag(tmp_path, rng):
    params = init_params(2, 2, 2, 3, 2, rng)
    path = tmp_path / "model.ackp"
    save_checkpoint(path, params, "", status="failed")
    assert load_checkpoint(path).status == "failed"


def test_bad_magic(tmp_path):
    path = tmp_path / "model.ackp"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(ParseError):
        load_checkpoint(path)


def test_truncated(tmp_path, rng):
    params = init_params(2, 2, 2, 3, 2, rng)
    path = tmp_path / "model.ackp"
    save_checkpoint(path, params, "")
    path.write_bytes(path.read_bytes()[:40])
    with pytest.raises(ParseError):
        load_checkpoint(path)


def test_truncated_at_every_offset(tmp_path, rng):
    params = init_params(2, 2, 2, 3, 2, rng)
    full = tmp_path / "full.ackp"
    save_checkpoint(full, params, "[train]\nseed = 1\n",
                    rng_state=np.random.default_rng(1).bit_generator.state)
    blob = full.read_bytes()
    path = tmp_path / "cut.ackp"
    for size in range(len(blob)):
        path.write_bytes(blob[:size])
        with pytest.raises(ParseError):
            load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path, rng):
    params = init_params(2, 2, 2, 3, 2, rng)
    path = tmp_path / "model.ackp"
    save_checkpoint(path, params, "")
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(ParseError, match=r"model\.ackp: 4 bytes after the payload$"):
        load_checkpoint(path)


def test_oversized_claims_rejected(tmp_path, rng):
    params = init_params(2, 2, 2, 3, 2, rng)
    path = tmp_path / "model.ackp"
    save_checkpoint(path, params, "")
    blob = bytearray(path.read_bytes())
    blob[8:16] = struct.pack("<Q", 2 ** 62)  # config length
    path.write_bytes(bytes(blob))
    with pytest.raises(ParseError, match="config text"):
        load_checkpoint(path)


def _ackp(config: bytes, rng_text: bytes, name: bytes, dims: tuple) -> bytes:
    """A one-tensor checkpoint with an empty payload, written field by field."""
    return (struct.pack("<4sIQ", b"ACKP", 1, len(config)) + config
            + struct.pack("<Q", len(rng_text)) + rng_text
            + struct.pack("<II", 1, len(name)) + name
            + struct.pack(f"<I{len(dims)}Q", len(dims), *dims))


@pytest.mark.parametrize("blob, message", [
    (_ackp(b"\xff", b"", b"user_emb", (0,)), "UTF-8"),
    (_ackp(b"", b"{not json", b"user_emb", (0,)), "RNG state"),
    (_ackp(b"", b"", b"user_emb", (0, 2 ** 62)), "shape"),
], ids=["utf8", "json", "shape"])
def test_corrupt_fields_rejected(tmp_path, blob, message):
    path = tmp_path / "model.ackp"
    path.write_bytes(blob)
    with pytest.raises(ParseError, match=message):
        load_checkpoint(path)
