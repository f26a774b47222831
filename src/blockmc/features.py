"""Feature-mask selection on labeled binary images.

The selection objective rewards pixels informative about the label and
penalizes redundant pairs:

    E(x) = - sum_i I(z_i; y) x_i + (1/(K-1)) sum_{i<j} I(z_i; z_j) x_i x_j,

with mutual informations estimated by plug-in frequencies from the
training split. Minimizing E over weight-K masks is exactly the
fixed-Hamming-weight problem the samplers solve; mask quality is scored by
a from-scratch multinomial logistic regression on the selected pixels,
trained on their distinct rows weighted by per-class image counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fileio import write_lines
from .qubo import QuboInstance


@dataclass(eq=False)
class LabeledDataset:
    """Binary pixel matrix (n_samples x n_pixels) with integer class labels."""

    images: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        if self.images.ndim != 2:
            raise ValueError("images must be 2d (samples x pixels)")
        if len(self.images) != len(self.labels):
            raise ValueError("images/labels length mismatch")
        # evaluate_mask groups rows by packed bits, which hold only integer 0/1
        if self.images.dtype.kind not in "biu":
            raise ValueError("images must be an integer array")
        if self.images.size and (self.images.min() < 0 or self.images.max() > 1):
            raise ValueError("images must be binarized to {0, 1}")
        if len(self.labels) and self.labels.max() >= self.n_classes:
            raise ValueError("label id out of range")

    @property
    def n_pixels(self) -> int:
        return self.images.shape[1]


@dataclass(eq=False)
class MiTable:
    """I(z_i; y) per pixel and sparse symmetric I(z_i; z_j), stored i < j."""

    feature_label: np.ndarray
    pairwise: dict[tuple[int, int], float]


def binarize(images: np.ndarray, labels: np.ndarray, threshold: int = 127) -> LabeledDataset:
    """Flatten and binarize raw grayscale images: z = 1 iff pixel > threshold."""
    flat = images.reshape(len(images), -1)
    binary = (flat > threshold).astype(np.uint8)
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = int(labels.max()) + 1 if len(labels) else 0
    return LabeledDataset(images=binary, labels=labels, n_classes=n_classes)


def downsample(images: np.ndarray, factor: int) -> np.ndarray:
    """Mean-pool raw grayscale images by factor x factor patches."""
    n, rows, cols = images.shape
    if rows % factor or cols % factor:
        raise ValueError(f"image size {rows}x{cols} not divisible by {factor}")
    pooled = images.reshape(n, rows // factor, factor, cols // factor, factor)
    return pooled.mean(axis=(2, 4)).astype(np.uint8)


def build_mi_table(ds: LabeledDataset) -> MiTable:
    """All feature-label and pairwise mutual informations, vectorized.

    The pairwise table comes from a single Z^T Z product; exact zeros are
    dropped (they could never survive edge thresholding).
    """
    n = len(ds.images)
    z = ds.images.astype(np.float64)
    npix = ds.n_pixels
    # feature-label: per-class count of ones per pixel
    n1c = np.zeros((ds.n_classes, npix))
    class_tot = np.zeros(ds.n_classes)
    for c in range(ds.n_classes):
        sel = ds.labels == c
        class_tot[c] = sel.sum()
        n1c[c] = z[sel].sum(axis=0)
    n0c = class_tot[:, None] - n1c
    feature_label = np.zeros(npix)
    p1 = z.sum(axis=0) / n
    p0 = 1.0 - p1
    for c in range(ds.n_classes):
        pc = class_tot[c] / n
        for counts, pv in ((n1c[c] / n, p1), (n0c[c] / n, p0)):
            with np.errstate(divide="ignore", invalid="ignore"):
                term = counts * np.log(counts / (pv * pc))
            feature_label += np.where(counts > 0, term, 0.0)
    feature_label = np.maximum(feature_label, 0.0)
    # pairwise: joint counts from one matrix product
    n11 = z.T @ z
    ones = z.sum(axis=0)
    n10 = ones[:, None] - n11
    n01 = ones[None, :] - n11
    n00 = n - ones[:, None] - ones[None, :] + n11
    mi = np.zeros((npix, npix))
    pi1 = ones / n
    pj1 = ones / n
    for counts, pa, pb in (
        (n11, pi1[:, None], pj1[None, :]),
        (n10, pi1[:, None], 1.0 - pj1[None, :]),
        (n01, 1.0 - pi1[:, None], pj1[None, :]),
        (n00, 1.0 - pi1[:, None], 1.0 - pj1[None, :]),
    ):
        p = counts / n
        with np.errstate(divide="ignore", invalid="ignore"):
            term = p * np.log(p / (pa * pb))
        mi += np.where(counts > 0, term, 0.0)
    mi = np.maximum(mi, 0.0)
    pairwise = {}
    iu, ju = np.triu_indices(npix, k=1)
    vals = mi[iu, ju]
    keep = vals > 0.0
    for i, j, v in zip(iu[keep], ju[keep], vals[keep]):
        pairwise[(int(i), int(j))] = float(v)
    return MiTable(feature_label=feature_label, pairwise=pairwise)


def build_feature_qubo(mi: MiTable, k: int, edge_threshold: float = 1e-3) -> QuboInstance:
    """Selection QUBO: lin = -I(z_i;y), quad = I(z_i;z_j)/(K-1) above threshold."""
    if k < 2:
        raise ValueError("K must be >= 2 (redundancy normalization divides by K-1)")
    n = len(mi.feature_label)
    quad = {}
    for (i, j), v in mi.pairwise.items():
        w = v / (k - 1)
        if w >= edge_threshold and w > 0.0:
            quad[(i, j)] = w
    return QuboInstance(n=n, quad=quad, lin=-mi.feature_label.copy(), konst=0.0)


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def row_groups(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Groups of equal rows of 0/1 integer matrix ``x``: the index of each
    group's first row, the groups in their rows' sort order, and each row's
    group.

    Rows are packed to bytes, stably sorted by their byte columns, and a new
    group starts wherever a sorted row differs from the one before; the same
    code serves every row width.
    """
    packed = np.packbits(x, axis=1)
    order = np.lexsort(packed.T)
    ranked = packed[order]
    starts = np.ones(len(x), dtype=bool)
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    group = np.empty(len(x), dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    return order[starts], group


def evaluate_mask(
    ds_train: LabeledDataset,
    ds_test: LabeledDataset,
    mask: np.ndarray,
    reg_strength: float = 1e-4,
    iterations: int = 500,
    learning_rate: float = 0.5,
) -> float:
    """Test accuracy of multinomial logistic regression on the pixels that
    the 0/1 ``mask`` (one entry per pixel) selects; an empty mask raises
    ``ValueError``.

    Full-batch gradient descent on L2-penalized cross-entropy from a zero
    initialization with a fixed iteration budget, so identical inputs give
    bit-identical accuracies.

    Training runs on the distinct masked rows: k binary pixels take at most
    2^k values, far fewer than the images. The mean cross-entropy over the
    m images equals sum_u sum_c counts[u, c] * (-log p_c(x_u)) / m over the
    distinct rows u, with counts[u, c] the images of row u and class c, so
    its gradient is (n_u * p(x_u) - counts[u])^T x_u / m with n_u the row's
    image count: the same objective and steps as one row per image.
    """
    idx = np.flatnonzero(mask)
    if len(idx) == 0:
        raise ValueError("empty mask")
    pixels = ds_train.images[:, idx]
    firsts, group = row_groups(pixels)
    x_train = pixels[firsts].astype(np.float64)
    x_test = ds_test.images[:, idx].astype(np.float64)
    m = len(group)
    u, d = x_train.shape
    c = ds_train.n_classes
    counts = np.bincount(group * c + ds_train.labels, minlength=u * c).reshape(u, c).astype(np.float64)
    n_u = counts.sum(axis=1, keepdims=True)
    w = np.zeros((c, d))
    b = np.zeros(c)
    for _ in range(iterations):
        probs = _softmax(x_train @ w.T + b)
        err = probs * n_u - counts
        grad_w = err.T @ x_train / m + reg_strength * w
        grad_b = err.sum(axis=0) / m
        w -= learning_rate * grad_w
        b -= learning_rate * grad_b
    pred = np.argmax(x_test @ w.T + b, axis=1)
    return float(np.mean(pred == ds_test.labels))


def top_k_linear_mask(inst: QuboInstance, k: int) -> np.ndarray:
    """0/1 mask of the K largest |linear| coefficients (most label-informative)."""
    order = np.argsort(-np.abs(inst.lin), kind="stable")
    mask = np.zeros(inst.n, dtype=np.uint8)
    mask[order[:k]] = 1
    return mask


def save_mask(mask: np.ndarray, path) -> None:
    """Sorted selected pixel indices of 0/1 ``mask``, one per line."""
    write_lines(path, np.flatnonzero(mask))
