"""IDX image/label file parsing and writing (big-endian, unsigned bytes).

Images carry magic 0x00000803 with dims (count, rows, cols); labels carry
0x00000801 with dims (count,). Malformed input raises FormatError naming
the offending offset.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import FormatError
from .fileio import Reader, write_bytes

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


def load_idx_images(path) -> np.ndarray:
    r = Reader(path, struct.pack(">I", IMAGES_MAGIC))
    images = r.array(np.uint8, *r.unpack(">III"))
    r.end()
    return images.copy()


def load_idx_labels(path) -> np.ndarray:
    r = Reader(path, struct.pack(">I", LABELS_MAGIC))
    labels = r.array(np.uint8, *r.unpack(">I"))
    r.end()
    return labels.copy()


def load_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Load an image/label pair and check the counts agree."""
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if len(images) != len(labels):
        raise FormatError(
            f"count mismatch: {len(images)} images in {images_path} vs {len(labels)} labels in {labels_path}"
        )
    return images, labels


def write_idx_images(path, images: np.ndarray) -> None:
    images = np.asarray(images, dtype=np.uint8)
    write_bytes(path, struct.pack(">IIII", IMAGES_MAGIC, *images.shape), images.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    write_bytes(path, struct.pack(">II", LABELS_MAGIC, len(labels)), labels.tobytes())
