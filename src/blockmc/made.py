"""Conditional masked autoregressive density estimator over block bitstrings.

The model factorizes q(x | k) = prod_t q(x_{i_t} | x_{i_<t}, k) with a fixed
variable ordering, where k is the block Hamming weight. Masks on every
weighted layer enforce the autoregressive structure exactly; the context k
enters each hidden layer as a one-hot embedding through unmasked weights.
Hidden units of degree 0 connect to no inputs but still receive the
context, which is what carries k to the first conditional.

Likelihoods are exact by construction, sampling is ancestral, and training
is plain mini-batch gradient ascent with momentum, all in numpy (reverse
mode by hand; the networks are tiny).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError
from .qaoa import BlockSampleSet
from .streams import stream

_PROB_CLAMP = 1e-12
_MOMENTUM = 0.9


@dataclass
class TrainConfig:
    """Optimization hyperparameters for maximum-likelihood training."""

    hidden_widths: list[int]
    learning_rate: float = 0.05
    batch_size: int = 128
    epochs: int = 30
    seed: int = 0
    validation_fraction: float = 0.1

    def __post_init__(self):
        if not self.hidden_widths or any(w < 1 for w in self.hidden_widths):
            raise ValueError("hidden_widths must be positive")
        if self.learning_rate <= 0 or self.batch_size < 1 or self.epochs < 1:
            raise ValueError("learning_rate, batch_size, epochs must be positive")
        if not 0.0 <= self.validation_fraction <= 0.5:
            raise ValueError("validation_fraction must be in [0, 0.5]")


def default_train_config(block_size: int, **overrides) -> TrainConfig:
    """Two hidden layers of width 4*|B|; small blocks need little capacity."""
    cfg = {"hidden_widths": [4 * block_size, 4 * block_size]}
    cfg.update(overrides)
    return TrainConfig(**cfg)


@dataclass
class TrainReport:
    train_ll: list[float]
    val_ll: list[float]

    def save_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("epoch,train_ll,val_ll\n")
            for e, (t, v) in enumerate(zip(self.train_ll, self.val_ll)):
                f.write(f"{e},{t!r},{v!r}\n")


@dataclass
class ConditionalMadeModel:
    """Masked autoregressive network with Hamming-weight context.

    ``weights``/``biases``/``masks`` cover the hidden layers and then the
    output layer; ``ctx_weights`` map the one-hot context (dimension
    |B| + 1) into each hidden layer pre-activation, unmasked.
    """

    block_id: tuple[int, int]
    block_size: int
    ordering: np.ndarray
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    masks: list[np.ndarray]
    ctx_weights: list[np.ndarray]
    _eff: list[np.ndarray] | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def context_dim(self) -> int:
        return self.block_size + 1

    @property
    def n_hidden(self) -> int:
        return len(self.ctx_weights)

    def _effective(self) -> list[np.ndarray]:
        if self._eff is None:
            self._eff = [w * m for w, m in zip(self.weights, self.masks)]
        return self._eff

    def _invalidate(self):
        self._eff = None

    def logits(self, x: np.ndarray, k: int) -> np.ndarray:
        """Per-variable Bernoulli logits given the full input vector."""
        eff = self._effective()
        h = x.astype(np.float64)
        for l in range(self.n_hidden):
            h = eff[l] @ h + self.biases[l] + self.ctx_weights[l][:, k]
            np.maximum(h, 0.0, out=h)
        return eff[-1] @ h + self.biases[-1]

    def log_prob(self, x: np.ndarray, k: int) -> float:
        """Exact log q(x | k); probabilities clamped away from {0, 1}."""
        if len(x) != self.block_size:
            raise ValueError(f"x has length {len(x)}, expected {self.block_size}")
        if not 0 <= k <= self.block_size:
            raise ValueError(f"context weight {k} outside [0, {self.block_size}]")
        p = _sigmoid(self.logits(x, k))
        p = np.clip(p, _PROB_CLAMP, 1.0 - _PROB_CLAMP)
        xf = x.astype(np.float64)
        return float(np.sum(xf * np.log(p) + (1.0 - xf) * np.log1p(-p)))

    def sample(self, k: int, rng: np.random.Generator) -> tuple[np.ndarray, float]:
        """Ancestral draw in ``ordering``; returns (bits, log q(bits | k))."""
        if not 0 <= k <= self.block_size:
            raise ValueError(f"context weight {k} outside [0, {self.block_size}]")
        x = np.zeros(self.block_size, dtype=np.uint8)
        for v in self.ordering:
            p = _sigmoid(self.logits(x, k)[v])
            p = min(max(p, _PROB_CLAMP), 1.0 - _PROB_CLAMP)
            x[v] = 1 if rng.random() < p else 0
        return x, self.log_prob(x, k)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def build_model(block_size: int, cfg: TrainConfig, seed: int) -> ConditionalMadeModel:
    """Construct masks and initial weights.

    Input degrees are the 1-based positions in the ordering; hidden degrees
    are sampled uniformly from [0, |B|-1], with at least one degree-0 unit
    forced per hidden layer so the context always reaches the first
    conditional. Mask rule: >= between inputs/hiddens, strict > into the
    outputs. Weights start Glorot-uniform, biases at zero.
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    rng = stream(seed, 70)
    ordering = np.arange(block_size)
    pos = np.empty(block_size, dtype=np.int64)
    pos[ordering] = np.arange(1, block_size + 1)
    degrees = [pos]
    for width in cfg.hidden_widths:
        d = rng.integers(0, max(block_size - 1, 0) + 1, size=width)
        if not np.any(d == 0):
            d[0] = 0
        degrees.append(d)
    masks = []
    for l in range(1, len(degrees)):
        masks.append((degrees[l][:, None] >= degrees[l - 1][None, :]).astype(np.float64))
    out_mask = (pos[:, None] > degrees[-1][None, :]).astype(np.float64)
    masks.append(out_mask)
    dims = [block_size, *cfg.hidden_widths, block_size]
    weights, biases = [], []
    for l in range(len(dims) - 1):
        fan_in, fan_out = dims[l], dims[l + 1]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    ctx_dim = block_size + 1
    ctx_weights = []
    for width in cfg.hidden_widths:
        bound = np.sqrt(6.0 / (ctx_dim + width))
        ctx_weights.append(rng.uniform(-bound, bound, size=(width, ctx_dim)))
    return ConditionalMadeModel(
        block_id=(0, 0),
        block_size=block_size,
        ordering=ordering,
        weights=weights,
        biases=biases,
        masks=masks,
        ctx_weights=ctx_weights,
    )


def _forward_batch(model, x, k_onehot):
    """Returns (logits, caches) for a (batch, |B|) input."""
    eff = [w * m for w, m in zip(model.weights, model.masks)]
    pres, acts = [], [x]
    h = x
    for l in range(model.n_hidden):
        pre = h @ eff[l].T + model.biases[l] + k_onehot @ model.ctx_weights[l].T
        h = np.maximum(pre, 0.0)
        pres.append(pre)
        acts.append(h)
    logits = h @ eff[-1].T + model.biases[-1]
    return logits, (eff, pres, acts)


def log_prob_batch(model: ConditionalMadeModel, x: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Vectorized log q(x | k) for rows of x with matching contexts."""
    xf = x.astype(np.float64)
    k_onehot = np.zeros((len(x), model.context_dim))
    k_onehot[np.arange(len(x)), ks] = 1.0
    logits, _ = _forward_batch(model, xf, k_onehot)
    p = np.clip(_sigmoid(logits), _PROB_CLAMP, 1.0 - _PROB_CLAMP)
    return np.sum(xf * np.log(p) + (1.0 - xf) * np.log1p(-p), axis=1)


def _loss_and_grads(model, x, ks):
    """Mean log-likelihood of the batch and its gradient in every parameter."""
    n = len(x)
    xf = x.astype(np.float64)
    k_onehot = np.zeros((n, model.context_dim))
    k_onehot[np.arange(n), ks] = 1.0
    logits, (eff, pres, acts) = _forward_batch(model, xf, k_onehot)
    p = _sigmoid(logits)
    p_clamped = np.clip(p, _PROB_CLAMP, 1.0 - _PROB_CLAMP)
    ll = float(np.mean(np.sum(xf * np.log(p_clamped) + (1.0 - xf) * np.log1p(-p_clamped), axis=1)))
    delta = (xf - p) / n
    g_w = [None] * len(model.weights)
    g_b = [None] * len(model.biases)
    g_c = [None] * len(model.ctx_weights)
    g_w[-1] = (delta.T @ acts[-1]) * model.masks[-1]
    g_b[-1] = delta.sum(axis=0)
    back = delta @ eff[-1]
    for l in range(model.n_hidden - 1, -1, -1):
        back = back * (pres[l] > 0.0)
        g_w[l] = (back.T @ acts[l]) * model.masks[l]
        g_b[l] = back.sum(axis=0)
        g_c[l] = back.T @ k_onehot
        back = back @ eff[l]
    return ll, (g_w, g_b, g_c)


def train(model: ConditionalMadeModel, data: BlockSampleSet, cfg: TrainConfig) -> TrainReport:
    """Maximize the mean conditional log-likelihood of the sample set.

    Mini-batch gradient ascent with momentum 0.9; a seeded shuffle splits
    off the validation rows and reshuffles the training rows each epoch.
    Deterministic per cfg.seed.
    """
    if data.count == 0:
        raise ValueError("empty training data")
    if data.block_size != model.block_size:
        raise ValueError("sample width does not match model block size")
    rng = stream(cfg.seed, 71)
    perm = rng.permutation(data.count)
    n_val = int(round(cfg.validation_fraction * data.count))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if len(train_idx) == 0:
        raise ValueError("validation split leaves no training data")
    x_all = data.samples.astype(np.float64)
    k_all = data.weights.astype(np.int64)
    vel_w = [np.zeros_like(w) for w in model.weights]
    vel_b = [np.zeros_like(b) for b in model.biases]
    vel_c = [np.zeros_like(c) for c in model.ctx_weights]
    report = TrainReport(train_ll=[], val_ll=[])
    for _ in range(cfg.epochs):
        order = train_idx[rng.permutation(len(train_idx))]
        epoch_ll = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            ll, (g_w, g_b, g_c) = _loss_and_grads(model, x_all[batch], k_all[batch])
            epoch_ll += ll * len(batch)
            for l in range(len(model.weights)):
                vel_w[l] = _MOMENTUM * vel_w[l] + g_w[l]
                model.weights[l] += cfg.learning_rate * vel_w[l]
                vel_b[l] = _MOMENTUM * vel_b[l] + g_b[l]
                model.biases[l] += cfg.learning_rate * vel_b[l]
            for l in range(model.n_hidden):
                vel_c[l] = _MOMENTUM * vel_c[l] + g_c[l]
                model.ctx_weights[l] += cfg.learning_rate * vel_c[l]
        report.train_ll.append(epoch_ll / len(order))
        if n_val:
            report.val_ll.append(float(np.mean(log_prob_batch(model, x_all[val_idx], k_all[val_idx]))))
        else:
            report.val_ll.append(float("nan"))
    model._invalidate()
    return report


def sample_batch(
    model: ConditionalMadeModel, k: int, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Ancestral sampling vectorized across draws; same law as ``sample``."""
    x = np.zeros((count, model.block_size), dtype=np.float64)
    k_onehot = np.zeros((count, model.context_dim))
    k_onehot[:, k] = 1.0
    for v in model.ordering:
        logits, _ = _forward_batch(model, x, k_onehot)
        p = np.clip(_sigmoid(logits[:, v]), _PROB_CLAMP, 1.0 - _PROB_CLAMP)
        x[:, v] = (rng.random(count) < p).astype(np.float64)
    bits = x.astype(np.uint8)
    return bits, log_prob_batch(model, bits, np.full(count, k, dtype=np.int64))


def exhaustive_conditional_distribution(model: ConditionalMadeModel, k: int) -> np.ndarray:
    """Exact q(. | k) over all 2^|B| bitstrings (bit t of the index is x_t)."""
    b = model.block_size
    idx = np.arange(1 << b, dtype=np.int64)
    bits = ((idx[:, None] >> np.arange(b)) & 1).astype(np.uint8)
    ks = np.full(1 << b, k, dtype=np.int64)
    return np.exp(log_prob_batch(model, bits, ks))


_MODEL_MAGIC = b"BMCM"
_MODEL_VERSION = 1


def save_model(model: ConditionalMadeModel, path) -> None:
    """Versioned binary: header, ordering, masks, then all weight tensors."""
    widths = [c.shape[0] for c in model.ctx_weights]
    with open(path, "wb") as f:
        f.write(_MODEL_MAGIC)
        f.write(
            struct.pack(
                ">HHHHHH",
                _MODEL_VERSION,
                model.block_id[0],
                model.block_id[1],
                model.block_size,
                model.context_dim,
                len(widths),
            )
        )
        for w in widths:
            f.write(struct.pack(">I", w))
        f.write(model.ordering.astype(">u2").tobytes())
        for m in model.masks:
            f.write(m.astype(np.uint8).tobytes())
        for w, b in zip(model.weights, model.biases):
            f.write(w.astype(">f8").tobytes())
            f.write(b.astype(">f8").tobytes())
        for c in model.ctx_weights:
            f.write(c.astype(">f8").tobytes())


def load_model(path) -> ConditionalMadeModel:
    """Read what ``save_model`` wrote; anything else raises ``FormatError``.

    The header and the full length it implies are checked before any
    tensor is decoded.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != _MODEL_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r} at offset 0")
    if len(raw) < 16:
        raise FormatError(f"{path}: header truncated at offset {len(raw)}, need 16 bytes")
    version, s, m, b, ctx_dim, n_hidden = struct.unpack(">HHHHHH", raw[4:16])
    if version != _MODEL_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if ctx_dim != b + 1:
        raise FormatError(f"{path}: context_dim {ctx_dim} != block_size+1")
    off = 16 + 4 * n_hidden
    if len(raw) < off:
        raise FormatError(f"{path}: header truncated at offset {len(raw)}, need {off} bytes")
    widths = list(struct.unpack(f">{n_hidden}I", raw[16:off]))
    shapes = list(zip([*widths, b], [b, *widths]))  # (out, in) per weighted layer
    need = off + 2 * b
    need += sum(o * i for o, i in shapes)  # uint8 masks
    need += 8 * sum(o * i + o for o, i in shapes)  # float64 weights and biases
    need += 8 * sum(w * ctx_dim for w in widths)  # float64 context weights
    if len(raw) < need:
        raise FormatError(f"{path}: body truncated at offset {len(raw)}, need {need} bytes")
    if len(raw) > need:
        raise FormatError(f"{path}: {len(raw) - need} trailing bytes at offset {need}")

    def take(dtype, *shape):
        nonlocal off
        count = int(np.prod(shape))
        arr = np.frombuffer(raw, dtype=dtype, count=count, offset=off).reshape(shape)
        off += count * arr.itemsize
        return arr

    ordering = take(">u2", b).astype(np.int64)
    masks = [take(np.uint8, o, i).astype(np.float64) for o, i in shapes]
    weights, biases = [], []
    for o, i in shapes:
        weights.append(take(">f8", o, i).astype(np.float64))
        biases.append(take(">f8", o).astype(np.float64))
    ctx_weights = [take(">f8", w, ctx_dim).astype(np.float64) for w in widths]
    return ConditionalMadeModel(
        block_id=(int(s), int(m)),
        block_size=int(b),
        ordering=ordering,
        weights=weights,
        biases=biases,
        masks=masks,
        ctx_weights=ctx_weights,
    )
