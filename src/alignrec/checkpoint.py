"""Checkpoint container: named float64 tensors plus the run configuration and
RNG state needed to reproduce or resume a run.

Layout (little-endian): magic `ACKP`, u32 version, u64 config length + UTF-8
config text, u64 RNG-state length + JSON text, u32 tensor count, then per
tensor: u32 name length, UTF-8 name, u32 ndim, ndim u64 dims, float64 payload.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binio import check_end, decode_utf8, read_exact, read_struct
from .errors import ParseError
from .model import PARAM_NAMES, ModelParams

MAGIC = b"ACKP"
VERSION = 1
_HEAD = struct.Struct("<4sI")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


@dataclass
class Checkpoint:
    params: ModelParams
    config_text: str
    rng_state: dict | None
    status: str


def save_checkpoint(path, params: ModelParams, config_text: str,
                    rng_state: dict | None = None, status: str = "ok") -> None:
    header = f"status = {status}\n" + config_text
    rng_text = json.dumps(rng_state, sort_keys=True) if rng_state is not None else ""
    with open(path, "wb") as fh:
        fh.write(_HEAD.pack(MAGIC, VERSION))
        blob = header.encode("utf-8")
        fh.write(_U64.pack(len(blob)))
        fh.write(blob)
        blob = rng_text.encode("utf-8")
        fh.write(_U64.pack(len(blob)))
        fh.write(blob)
        fh.write(_U32.pack(len(PARAM_NAMES)))
        for name in PARAM_NAMES:
            tensor = np.ascontiguousarray(getattr(params, name), dtype="<f8")
            encoded = name.encode("utf-8")
            fh.write(_U32.pack(len(encoded)))
            fh.write(encoded)
            fh.write(_U32.pack(tensor.ndim))
            for dim in tensor.shape:
                fh.write(_U64.pack(dim))
            fh.write(tensor.tobytes())


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    with open(path, "rb") as fh:
        magic, version = read_struct(fh, _HEAD, path, "checkpoint header")
        if magic != MAGIC:
            raise ParseError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise ParseError(f"{path}: unsupported version {version}")
        (config_len,) = read_struct(fh, _U64, path, "config length")
        header = decode_utf8(read_exact(fh, config_len, path, "config text"), path, ParseError)
        (rng_len,) = read_struct(fh, _U64, path, "RNG state length")
        rng_text = decode_utf8(read_exact(fh, rng_len, path, "RNG state"), path, ParseError)
        (count,) = read_struct(fh, _U32, path, "tensor count")
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = read_struct(fh, _U32, path, "tensor name length")
            name = decode_utf8(read_exact(fh, name_len, path, "tensor name"), path, ParseError)
            (ndim,) = read_struct(fh, _U32, path, f"tensor '{name}' rank")
            dims = tuple(d for (d,) in _U64.iter_unpack(
                read_exact(fh, _U64.size * ndim, path, f"tensor '{name}' shape")))
            payload = read_exact(fh, 8 * math.prod(dims), path, f"tensor '{name}'")
            try:
                tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).astype(np.float64)
            except ValueError:
                raise ParseError(f"{path}: tensor '{name}' has unusable shape {dims}") from None
        check_end(fh, path)
    try:
        rng_state = json.loads(rng_text) if rng_text else None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: malformed RNG state: {exc}") from None
    missing = [n for n in PARAM_NAMES if n not in tensors]
    if missing:
        raise ParseError(f"{path}: checkpoint missing tensors {missing}")
    status_line, _, config_text = header.partition("\n")
    status = status_line.partition("=")[2].strip() if "=" in status_line else "ok"
    return Checkpoint(params=ModelParams(**{n: tensors[n] for n in PARAM_NAMES}),
                      config_text=config_text, rng_state=rng_state, status=status)
