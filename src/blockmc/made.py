"""Conditional masked autoregressive density estimator over block bitstrings.

The model factorizes q(x | k) = prod_t q(x_{i_t} | x_{i_<t}, k) with a fixed
variable ordering, where k is the block Hamming weight. Masks on every
weighted layer enforce the autoregressive structure exactly; the context k
enters each hidden layer as a one-hot embedding through unmasked weights.
Hidden units of degree 0 connect to no inputs but still receive the
context, which is what carries k to the first conditional.

Likelihoods are exact by construction, sampling is ancestral, and training
is plain mini-batch gradient ascent with momentum, all in numpy (reverse
mode by hand; the networks are tiny). ``sector(k)`` scores every weight-k
bitstring once per (model, k); one uniform against its running mass draws
with the ancestral law, because both use the same clamped conditionals, and
the mass left above the table is the chance of a draw at another weight.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError
from .fileio import Reader, write_bytes, write_lines
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
        rows = (f"{e},{t!r},{v!r}" for e, (t, v) in enumerate(zip(self.train_ll, self.val_ll)))
        write_lines(path, ["epoch,train_ll,val_ll", *rows])


@dataclass(frozen=True)
class Sector:
    """Every weight-k block bitstring with its exact proposal probability.

    ``rows`` are in increasing code order, where bit t of a code is x_t;
    ``cdf`` is the running sum of exp(``log_q``), so ``cdf[-1]`` is the mass
    q gives weight k; ``row_of[code]`` is the row of a weight-k code.
    """

    rows: np.ndarray
    log_q: np.ndarray
    cdf: np.ndarray
    row_of: np.ndarray


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
    _sectors: dict[int, Sector] = field(default_factory=dict, init=False, repr=False, compare=False)

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
        self._sectors = {}

    def sector(self, k: int) -> Sector:
        """The weight-k proposal table, built on first use and kept until the
        weights change (``_invalidate``)."""
        table = self._sectors.get(k)
        if table is None:
            if not 0 <= k <= self.block_size:
                raise ValueError(f"context weight {k} outside [0, {self.block_size}]")
            weight, rank = _code_ranks(self.block_size)
            codes = np.flatnonzero(weight == k)
            rows = ((codes[:, None] >> np.arange(self.block_size)) & 1).astype(np.uint8)
            log_q = log_prob_batch(self, rows, np.full(len(rows), k))
            table = Sector(rows, log_q, np.cumsum(np.exp(log_q)), rank)
            for a in (rows, log_q, table.cdf):
                a.flags.writeable = False
            self._sectors[k] = table
        return table

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
        """Ancestral draw in ``ordering``; returns (bits, log q(bits | k)).

        The chain kernel draws from ``sector`` instead, which has this law."""
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


@functools.cache
def _code_ranks(block_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Hamming weight of every code 0..2^|B|-1, and its position among the
    codes of that weight in increasing order."""
    codes = np.arange(1 << block_size)
    weight = ((codes[:, None] >> np.arange(block_size)) & 1).sum(axis=1)
    rank = np.empty_like(codes)
    for k in range(block_size + 1):
        sel = weight == k
        rank[sel] = np.arange(np.count_nonzero(sel))
    weight.flags.writeable = rank.flags.writeable = False
    return weight, rank


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
    header = (_MODEL_VERSION, *model.block_id, model.block_size, model.context_dim, len(widths))
    write_bytes(
        path,
        _MODEL_MAGIC,
        struct.pack(">HHHHHH", *header),
        *(struct.pack(">I", w) for w in widths),
        model.ordering.astype(">u2").tobytes(),
        *(m.astype(np.uint8).tobytes() for m in model.masks),
        *(t.astype(">f8").tobytes() for wb in zip(model.weights, model.biases) for t in wb),
        *(c.astype(">f8").tobytes() for c in model.ctx_weights),
    )


def load_model(path) -> ConditionalMadeModel:
    """Read what ``save_model`` wrote; anything else raises ``FormatError``."""
    r = Reader(path, _MODEL_MAGIC)
    version, s, m, b, ctx_dim, n_hidden = r.unpack(">HHHHHH")
    if version != _MODEL_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if ctx_dim != b + 1:
        raise FormatError(f"{path}: context_dim {ctx_dim} != block_size+1")
    widths = r.unpack(f">{n_hidden}I")
    shapes = list(zip([*widths, b], [b, *widths]))  # (out, in) per weighted layer
    ordering = r.array(">u2", b).astype(np.int64)
    if not np.array_equal(np.sort(ordering), np.arange(b)):
        raise FormatError(f"{path}: ordering is not a permutation of 0..{b - 1}")
    masks = [r.array(np.uint8, o, i).astype(np.float64) for o, i in shapes]
    if any((mask > 1).any() for mask in masks):
        raise FormatError(f"{path}: mask byte outside {{0, 1}}")
    weights, biases = [], []
    for o, i in shapes:
        weights.append(r.array(">f8", o, i).astype(np.float64))
        biases.append(r.array(">f8", o).astype(np.float64))
    ctx_weights = [r.array(">f8", w, ctx_dim).astype(np.float64) for w in widths]
    r.end()
    return ConditionalMadeModel(
        block_id=(int(s), int(m)),
        block_size=int(b),
        ordering=ordering,
        weights=weights,
        biases=biases,
        masks=masks,
        ctx_weights=ctx_weights,
    )
