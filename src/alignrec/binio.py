"""Checked reads for the engine's binary containers (AFEA, ACKP) and text files.

Sizes in these formats come from the file itself, so a truncated or corrupt
header can claim any length. Every read checks the claim against the bytes
left in the file before reading, so a bad file ends in ParseError instead of
a short read, a struct.error or a huge allocation. A file must end with its
last field: bytes after it mean a header that understates the payload.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

from .errors import ParseError


def read_exact(fh, size: int, path, what: str) -> bytes:
    """Read exactly `size` bytes of `what` from the binary file `fh`."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise ParseError(f"{path}: truncated {what}: {size} bytes claimed, {left} left")
    return fh.read(size)


def read_struct(fh, fmt: struct.Struct, path, what: str) -> tuple:
    return fmt.unpack(read_exact(fh, fmt.size, path, what))


def check_end(fh, path) -> None:
    """Raise ParseError unless the binary file `fh` ends where the read ended."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left:
        raise ParseError(f"{path}: {left} bytes after the payload")


def decode_utf8(blob: bytes, path, error: type[Exception]) -> str:
    """`blob`, read from `path`, decoded; a byte that is not UTF-8 raises
    `error` naming the file and the line."""
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((blob[:exc.start] + b"_").splitlines())
        raise error(f"{path}:{line}: byte 0x{blob[exc.start]:02x} is not UTF-8") from None


def read_text(path, error: type[Exception]) -> str:
    """The UTF-8 file `path` as text-mode reading gives it; a byte that is not
    UTF-8 raises `error` naming the file and the line."""
    text = decode_utf8(Path(path).read_bytes(), path, error)
    return text.replace("\r\n", "\n").replace("\r", "\n")
