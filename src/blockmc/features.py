"""Feature-mask selection on labeled binary images.

The selection objective rewards pixels informative about the label and
penalizes redundant pairs:

    E(x) = - sum_i I(z_i; y) x_i + (1/(K-1)) sum_{i<j} I(z_i; z_j) x_i x_j,

with mutual informations estimated by plug-in frequencies from the
training split. Minimizing E over weight-K masks is exactly the
fixed-Hamming-weight problem the samplers solve; mask quality is scored by
a from-scratch multinomial logistic regression on the selected pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fileio import write_lines
from .qubo import QuboInstance


@dataclass
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
        if self.images.size and self.images.max() > 1:
            raise ValueError("images must be binarized to {0, 1}")
        if len(self.labels) and self.labels.max() >= self.n_classes:
            raise ValueError("label id out of range")

    @property
    def n_pixels(self) -> int:
        return self.images.shape[1]


@dataclass
class MiTable:
    """I(z_i; y) per pixel and sparse symmetric I(z_i; z_j), stored i < j."""

    feature_label: np.ndarray
    pairwise: dict[tuple[int, int], float]


@dataclass
class FeatureMask:
    selected: np.ndarray
    k: int

    def __post_init__(self):
        if int(self.selected.sum()) != self.k:
            raise ValueError("mask weight does not match k")

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.selected)


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


def _mi_from_joint(joint: np.ndarray) -> float:
    """Plug-in mutual information (nats) from a joint count table."""
    total = joint.sum()
    if total == 0:
        return 0.0
    p = joint / total
    pa = p.sum(axis=1, keepdims=True)
    pb = p.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * np.log(p / (pa * pb))
    return max(0.0, float(np.sum(terms[joint > 0])))


def mutual_info_feature_label(ds: LabeledDataset, i: int) -> float:
    """I(z_i; y) from empirical frequencies; 0 log 0 terms contribute 0."""
    if len(ds.images) == 0:
        raise ValueError("empty dataset")
    joint = np.zeros((2, ds.n_classes))
    z = ds.images[:, i]
    for c in range(ds.n_classes):
        sel = ds.labels == c
        ones = int(z[sel].sum())
        joint[1, c] = ones
        joint[0, c] = int(sel.sum()) - ones
    return _mi_from_joint(joint)


def mutual_info_pairwise(ds: LabeledDataset, i: int, j: int) -> float:
    """I(z_i; z_j); reduces to the entropy H(z_i) when i == j."""
    if len(ds.images) == 0:
        raise ValueError("empty dataset")
    zi = ds.images[:, i].astype(np.int64)
    zj = ds.images[:, j].astype(np.int64)
    joint = np.zeros((2, 2))
    np.add.at(joint, (zi, zj), 1.0)
    return _mi_from_joint(joint)


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


def biased_angle_for_target_weight(block_size: int, target_weight: float) -> float:
    """Rotation angle whose product state has the given expected weight."""
    if not 0.0 <= target_weight <= block_size:
        raise ValueError(f"target weight {target_weight} outside [0, {block_size}]")
    return 2.0 * math.asin(math.sqrt(target_weight / block_size))


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def evaluate_mask(
    ds_train: LabeledDataset,
    ds_test: LabeledDataset,
    mask: FeatureMask,
    reg_strength: float = 1e-4,
    iterations: int = 500,
    learning_rate: float = 0.5,
) -> float:
    """Test accuracy of multinomial logistic regression on the masked pixels.

    Full-batch gradient descent on L2-penalized cross-entropy from a zero
    initialization with a fixed iteration budget, so identical inputs give
    bit-identical accuracies.
    """
    if mask.k < 1:
        raise ValueError("empty mask")
    idx = mask.indices
    x_train = ds_train.images[:, idx].astype(np.float64)
    x_test = ds_test.images[:, idx].astype(np.float64)
    m, d = x_train.shape
    c = ds_train.n_classes
    y = np.zeros((m, c))
    y[np.arange(m), ds_train.labels] = 1.0
    w = np.zeros((c, d))
    b = np.zeros(c)
    for _ in range(iterations):
        probs = _softmax(x_train @ w.T + b)
        err = probs - y
        grad_w = err.T @ x_train / m + reg_strength * w
        grad_b = err.sum(axis=0) / m
        w -= learning_rate * grad_w
        b -= learning_rate * grad_b
    pred = np.argmax(x_test @ w.T + b, axis=1)
    return float(np.mean(pred == ds_test.labels))


def random_mask(n_pixels: int, k: int, rng: np.random.Generator) -> FeatureMask:
    selected = np.zeros(n_pixels, dtype=np.uint8)
    selected[rng.choice(n_pixels, size=k, replace=False)] = 1
    return FeatureMask(selected=selected, k=k)


def top_k_linear_mask(inst: QuboInstance, k: int) -> FeatureMask:
    """Mask of the K largest |linear| coefficients (most label-informative)."""
    order = np.argsort(-np.abs(inst.lin), kind="stable")
    selected = np.zeros(inst.n, dtype=np.uint8)
    selected[order[:k]] = 1
    return FeatureMask(selected=selected, k=k)


def mask_from_config(x: np.ndarray) -> FeatureMask:
    x = np.asarray(x, dtype=np.uint8)
    return FeatureMask(selected=x, k=int(x.sum()))


def save_mask(mask: FeatureMask, path) -> None:
    """Sorted selected pixel indices, one per line."""
    write_lines(path, mask.indices)
