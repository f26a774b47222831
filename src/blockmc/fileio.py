"""Artifact file I/O: every file the program writes reaches disk through
``write_bytes`` (a temporary file beside the target that then replaces it,
so a reader never sees a torn file), and every loader reads through
``read_object`` or ``Reader``, so malformed input raises ``FormatError``
naming the file and the offset."""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from pathlib import Path

import numpy as np

from .errors import FormatError


def write_bytes(path, *chunks) -> None:
    """Write ``chunks`` to ``<name>.tmp`` beside ``path``, then replace
    ``path`` with it; a missing parent directory is created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_lines(path, lines) -> None:
    """Each of ``lines`` followed by a newline."""
    write_bytes(path, "".join(f"{line}\n" for line in lines).encode())


def canonical_json(doc) -> str:
    """Sorted keys, no spaces: the same document always gives the same text."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def write_json(doc, path) -> None:
    """Canonical JSON and one trailing newline."""
    write_bytes(path, canonical_json(doc).encode(), b"\n")


def read_object(path, keys=()) -> dict:
    """The JSON object in ``path``; it must hold every key in ``keys``."""
    try:
        with open(path, "rb") as f:
            doc = json.loads(f.read())
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, too deep
        raise FormatError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top level is not an object")
    missing = sorted(set(keys) - doc.keys())
    if missing:
        raise FormatError(f"{path}: missing keys {missing}")
    return doc


# Config field metadata that ``pipeline.fill_config`` checks: a count, a
# non-empty list of counts, and a seed.
COUNT = {">=": 1, "text": "an integer >= 1"}
COUNTS = {**COUNT, "nonempty": True}
SEED = {">=": 0}


def is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def is_int_list(v) -> bool:
    return isinstance(v, list) and all(map(is_int, v))


def is_finite(v) -> bool:
    """A number, not a bool, that converts to a finite float."""
    if is_int(v):
        return abs(v) <= sys.float_info.max
    return isinstance(v, float) and math.isfinite(v)


class Reader:
    """Sequential reader over a binary file that starts with ``magic``.

    Each read checks its end against the file length before decoding, so a
    header that claims more data than the file holds fails before any array
    is allocated.
    """

    def __init__(self, path, magic: bytes):
        self.path = path
        with open(path, "rb") as f:
            self.raw = f.read()
        if self.raw[: len(magic)] != magic:
            raise FormatError(f"{path}: bad magic {self.raw[:len(magic)]!r} at offset 0")
        self.start = self.off = len(magic)  # the last read's start and end

    def _take(self, size: int) -> int:
        self.start, self.off = self.off, self.off + size
        if self.off > len(self.raw):
            raise FormatError(f"{self.path}: truncated at offset {len(self.raw)}, expected {self.off} bytes")
        return self.start

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.raw, self._take(struct.calcsize(fmt)))

    def array(self, dtype, *shape) -> np.ndarray:
        """A read-only view of the next ``shape`` items of ``dtype``."""
        dtype, count = np.dtype(dtype), math.prod(shape)
        return np.frombuffer(self.raw, dtype, count, self._take(count * dtype.itemsize)).reshape(shape)

    def bits(self, rows: int, width: int) -> np.ndarray:
        """``rows`` rows of ``width`` bits, each row packed into whole bytes."""
        return np.unpackbits(self.array(np.uint8, rows, (width + 7) // 8), axis=1, count=width)

    def require(self, ok: np.ndarray, what: str) -> None:
        """Raise ``FormatError`` at the first row of the last read, one row
        per entry of ``ok``, whose entry is false."""
        if not ok.all():
            row = int(np.argmin(ok))
            offset = self.start + row * ((self.off - self.start) // len(ok))
            raise FormatError(f"{self.path}: {what} at offset {offset}")

    def end(self) -> None:
        extra = len(self.raw) - self.off
        if extra:
            raise FormatError(f"{self.path}: {extra} trailing bytes, expected end at offset {self.off}")
