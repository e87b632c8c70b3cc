"""Length-checked reads for the engine's binary containers (AFEA, ACKP).

Sizes in these formats come from the file itself, so a truncated or corrupt
header can claim any length. Every read checks the claim against the bytes
left in the file before reading, so a bad file ends in ParseError instead of
a short read, a struct.error or a huge allocation.
"""

from __future__ import annotations

import os
import struct

from .errors import ParseError


def read_exact(fh, size: int, path, what: str) -> bytes:
    """Read exactly `size` bytes of `what` from the binary file `fh`."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise ParseError(f"{path}: truncated {what}: {size} bytes claimed, {left} left")
    return fh.read(size)


def read_struct(fh, fmt: struct.Struct, path, what: str) -> tuple:
    return fmt.unpack(read_exact(fh, fmt.size, path, what))
