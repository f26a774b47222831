"""Conditional masked autoregressive density estimator over block bitstrings.

The model factorizes q(x | k) = prod_t q(x_t | x_<t, k) in position order,
where k is the block Hamming weight. Masks on every weighted layer enforce
the autoregressive structure exactly; the context k enters each hidden
layer as a one-hot embedding through unmasked weights. Hidden units of
degree 0 connect to no inputs but still receive the context, which is what
carries k to the first conditional.

``ConditionalMadeModel.log_prob`` is the one density: exact by
construction, over a batch of rows with one context each. ``.sample`` is
the one sampler: ancestral, over a batch of draws at one weight. Training
is plain mini-batch gradient ascent with momentum, all in numpy (reverse
mode by hand; the networks are tiny). ``TrainConfig`` holds the widths and
training settings, and is also the ``made`` section of both experiments'
configs. A model holds its weights and nothing derived from them; the chain
kernel's per-weight proposal tables belong to ``mcmc`` (``sector_table``),
which reads them off ``log_prob`` and never calls ``sample``.

``train_group`` trains same-shape models in lockstep: each layer's tensors
are stacked on a leading member axis as views of one flat buffer (one each
for parameters, gradients and momenta), so a minibatch is one forward, one
backward and a three-op update for every member; log-likelihood reports
are computed only when asked. QAOA shots repeat a lot, so a step runs over
each minibatch's distinct rows weighted by their counts (one sort per epoch
groups every full batch). Members are padded to the group's largest
distinct count with zero-count rows, in whole chunks of ``_CHUNK`` rows,
and every matmul sees one chunk: a gemm's rounding depends on its shape, so
a member's call then has the same shape alone and in any group. Chunk
partials are summed in order, every elementwise op and reduction runs per
member, and padding adds exact zeros. A member thus ends bit for bit where
``train``, the one-member case, would leave it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import FormatError
from .features import row_groups
from .fileio import COUNT, COUNTS, SEED, Reader, write_bytes, write_lines
from .streams import stream

_PROB_CLAMP = 1e-12
_MOMENTUM = 0.9
_CHUNK = 16


@dataclass
class TrainConfig:
    """Optimization hyperparameters for maximum-likelihood training, and the
    ``made`` section of both experiments' configs: each field declares its
    range in its metadata, which ``pipeline.fill_config`` checks."""

    widths: list[int] | None = field(default=None, metadata=COUNTS)  # None: two hidden layers of 4*|B|
    learning_rate: float = field(default=0.05, metadata={">": 0})
    batch_size: int = field(default=128, metadata=COUNT)
    epochs: int = field(default=30, metadata=COUNT)
    validation_fraction: float = field(default=0.1, metadata={">=": 0, "<=": 0.5})
    seed: int = field(default=0, metadata=SEED)


@dataclass
class TrainReport:
    train_ll: list[float]
    val_ll: list[float]

    def save_csv(self, path) -> None:
        rows = (f"{e},{t!r},{v!r}" for e, (t, v) in enumerate(zip(self.train_ll, self.val_ll)))
        write_lines(path, ["epoch,train_ll,val_ll", *rows])


@dataclass(eq=False)
class ConditionalMadeModel:
    """Masked autoregressive network with Hamming-weight context.

    ``weights``/``biases``/``masks`` cover the hidden layers and then the
    output layer; ``ctx_weights`` map the one-hot context (dimension
    |B| + 1) into each hidden layer pre-activation, unmasked.
    """

    block_size: int
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    masks: list[np.ndarray]
    ctx_weights: list[np.ndarray]

    def log_prob(self, x: np.ndarray, ks) -> np.ndarray:
        """Exact log q(x | k) of each row of ``x``, a (rows, |B|) 0/1 array,
        given that row's context in ``ks``; probabilities clamped away from
        {0, 1}. The model's one density."""
        ks = np.asarray(ks)
        if x.ndim != 2 or x.shape[1] != self.block_size:
            raise ValueError(f"x has shape {x.shape}, expected (rows, {self.block_size})")
        if ks.shape != (len(x),) or ks.dtype.kind not in "iu":
            raise ValueError(f"ks is {ks.dtype} of shape {ks.shape}, expected integers of shape ({len(x)},)")
        if ((x != 0) & (x != 1)).any():
            raise ValueError("x holds a value other than 0 and 1")
        bad = ks[(ks < 0) | (ks > self.block_size)]
        if bad.size:
            raise ValueError(f"context weight {bad[0]} outside [0, {self.block_size}]")
        return _group_log_prob(_stack([self]), x[None], ks[None])[0]

    def sample(self, k: int, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """``count`` ancestral draws in position order, vectorized across
        draws; returns their (count, |B|) uint8 bits and log q(bits | k).

        The chain kernel draws from ``mcmc.sector_table`` instead, which has this law."""
        if not 0 <= k <= self.block_size:
            raise ValueError(f"context weight {k} outside [0, {self.block_size}]")
        params = _stack([self])
        x = np.zeros((1, count, self.block_size), dtype=np.float64)
        ks = np.full((1, count), k)
        for v in range(self.block_size):
            logits, _ = _forward(params, x, ks)
            p = np.clip(_sigmoid(logits[0, :, v]), _PROB_CLAMP, 1.0 - _PROB_CLAMP)
            x[0, :, v] = (rng.random(count) < p).astype(np.float64)
        bits = x[0].astype(np.uint8)
        return bits, self.log_prob(bits, ks[0])


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def build_model(block_size: int, cfg: TrainConfig, seed: int) -> ConditionalMadeModel:
    """Construct masks and initial weights.

    Hidden layers have ``cfg.widths``, or two of width 4*|B| if it is None:
    small blocks need little capacity. Input degrees are the 1-based
    positions 1..|B|; hidden degrees are sampled uniformly from
    [0, |B|-1], with at least one degree-0 unit forced per hidden layer so
    the context always reaches the first conditional. Mask rule: >= between
    inputs/hiddens, strict > into the outputs. Weights start Glorot-uniform,
    biases at zero.
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    widths = cfg.widths if cfg.widths is not None else [4 * block_size] * 2
    rng = stream(seed, 70)
    pos = np.arange(1, block_size + 1)
    degrees = [pos]
    for width in widths:
        d = rng.integers(0, max(block_size - 1, 0) + 1, size=width)
        if not np.any(d == 0):
            d[0] = 0
        degrees.append(d)
    masks = []
    for l in range(1, len(degrees)):
        masks.append((degrees[l][:, None] >= degrees[l - 1][None, :]).astype(np.float64))
    out_mask = (pos[:, None] > degrees[-1][None, :]).astype(np.float64)
    masks.append(out_mask)
    dims = [block_size, *widths, block_size]
    weights, biases = [], []
    for l in range(len(dims) - 1):
        fan_in, fan_out = dims[l], dims[l + 1]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    ctx_dim = block_size + 1
    ctx_weights = []
    for width in widths:
        bound = np.sqrt(6.0 / (ctx_dim + width))
        ctx_weights.append(rng.uniform(-bound, bound, size=(width, ctx_dim)))
    return ConditionalMadeModel(
        block_size=block_size,
        weights=weights,
        biases=biases,
        masks=masks,
        ctx_weights=ctx_weights,
    )


def _stack(models) -> tuple[list[np.ndarray], ...]:
    """Weights, biases, context weights and masks of same-shape models, each
    layer's tensors stacked on a new leading axis."""
    return tuple(
        [np.stack(ts) for ts in zip(*(getattr(m, name) for m in models))]
        for name in ("weights", "biases", "ctx_weights", "masks")
    )


def _per_member(t, ndim):
    """A (G, a, b) stack viewed as (G, 1, ..., 1, a, b) with ``ndim`` axes."""
    return t.reshape(t.shape[:1] + (1,) * (ndim - 3) + t.shape[1:])


def _forward(params, xf, ks):
    """Logits and backprop caches of G stacked networks for (G, ..., rows, |B|)
    float inputs and (G, ..., rows) contexts; each matmul runs per member and
    per index of the axes between the member and row axes."""
    weights, biases, ctx_weights, masks = params
    members = np.arange(len(xf)).reshape((-1,) + (1,) * (ks.ndim - 1))
    eff = [w * m for w, m in zip(weights, masks)]
    acts = [xf]
    for l in range(len(ctx_weights)):
        # weights as contiguous transposed copies: the plain product is the faster BLAS path
        h = acts[-1] @ _per_member(np.ascontiguousarray(eff[l].transpose(0, 2, 1)), xf.ndim)
        # the context's one-hot product is its weight column: gathered, bias added
        h += (ctx_weights[l] + biases[l][..., None]).transpose(0, 2, 1)[members, ks]
        acts.append(np.maximum(h, 0.0, out=h))
    logits = acts[-1] @ _per_member(np.ascontiguousarray(eff[-1].transpose(0, 2, 1)), xf.ndim)
    logits += _per_member(biases[-1][:, None], xf.ndim)
    return logits, (eff, acts)


def _row_log_lik(xf, p):
    p = np.clip(p, _PROB_CLAMP, 1.0 - _PROB_CLAMP)
    return np.sum(xf * np.log(p) + (1.0 - xf) * np.log1p(-p), axis=-1)


def _group_log_prob(params, x, ks):
    xf = x.astype(np.float64)
    return _row_log_lik(xf, _sigmoid(_forward(params, xf, ks)[0]))


def _group_loss_and_grads(params, x, ks, counts, size, grads, ll=True):
    """Write into ``grads`` (shaped as ``params``' weights, biases and context
    weights) the gradient of sum_u counts_u * ll_u / size, the mean
    log-likelihood of a batch of ``size`` rows holding row u of a
    (G, chunks, _CHUNK, |B|) stack counts_u times; return each ll_u if ``ll``.

    Every matmul sees one chunk, and the chunks' partial gradients are summed
    in order, so a member's results do not depend on how many chunks of
    zero-count rows pad it: those add exact zeros.
    """
    weights, _, ctx_weights, masks = params
    g_w, g_b, g_c = grads
    xf = x.astype(np.float64)
    logits, (eff, acts) = _forward(params, xf, ks)
    k_onehot = np.eye(x.shape[-1] + 1)[ks]
    p = _sigmoid(logits)
    ll = _row_log_lik(xf, p) if ll else None
    back = (xf - p) * counts[..., None] / size
    for l in range(len(weights) - 1, -1, -1):  # output layer first
        if l < len(ctx_weights):
            back *= acts.pop() > 0.0  # acts[l + 1], freed as the pass goes down
            np.add.reduce(back.swapaxes(2, 3) @ k_onehot, axis=1, out=g_c[l])
        np.add.reduce(back.swapaxes(2, 3) @ acts[l], axis=1, out=g_w[l])
        g_w[l] *= masks[l]
        np.add.reduce(back, axis=(1, 2), out=g_b[l])
        if l:
            back = back @ eff[l][:, None]
    return ll


def _first_copies(samples: np.ndarray) -> np.ndarray:
    """For each row of 0/1 matrix ``samples``, the index of the first row
    equal to it, as int32: ``_distinct`` sorts these keys, and numpy's sort
    on a wider dtype maps more of its code into the process."""
    firsts, group = row_groups(samples)
    return firsts[group].astype(np.int32)


def _ranks(keys: np.ndarray, slot: np.ndarray):
    """Sort ``keys`` in place along their last axis; returns them and, written
    into the int32 ``slot``, each sorted key's position among the distinct
    keys of its row."""
    keys.sort(axis=-1)
    slot[..., 0] = 0
    np.not_equal(keys[..., 1:], keys[..., :-1], out=slot[..., 1:])  # 1 where a new distinct key starts
    return keys, np.cumsum(slot, axis=-1, out=slot)


def _distinct(keys: np.ndarray):
    """Group each member's row of ``keys`` (G, size), sorted in place, into
    its distinct values.

    Returns the distinct keys (G, chunks, _CHUNK) ascending, padded to the
    group's whole chunks with copies of each member's smallest key; their
    counts, zero on the padding; and, for the member's keys in ascending
    order, each one's position among its distinct keys.
    """
    return _plan(*_ranks(keys, np.empty(keys.shape, dtype=np.int32)))


def _plan(ranked: np.ndarray, slot: np.ndarray):
    """``_distinct`` of the keys that ``_ranks`` sorted and placed."""
    width = -(-(int(slot[:, -1].max()) + 1) // _CHUNK) * _CHUNK
    members = np.arange(len(ranked))[:, None]
    distinct = np.repeat(ranked[:, :1], width, axis=1)
    distinct[members, slot] = ranked  # equal keys write the same value
    counts = np.bincount((slot + width * members).reshape(-1), minlength=distinct.size).astype(np.float64)
    chunked = (len(ranked), -1, _CHUNK)
    return distinct.reshape(chunked), counts.reshape(chunked), slot


def train(model: ConditionalMadeModel, data: np.ndarray, cfg: TrainConfig) -> TrainReport:
    """Maximize the mean conditional log-likelihood of ``data``, a
    (count, |B|) 0/1 uint8 array, each row conditioned on its weight.

    Mini-batch gradient ascent with momentum 0.9; a seeded shuffle splits
    off the validation rows and reshuffles the training rows each epoch.
    Deterministic per cfg.seed.
    """
    return train_group([model], [data], [cfg])[0]


def train_group(models: list, datasets: list, cfgs: list, reports=True) -> list[TrainReport] | None:
    """``train`` each model on its sample array and config, all in lockstep.

    Members must have equal layer shapes, sample counts and configs up to
    the seed; each keeps its own shuffle stream. Each minibatch is trained
    on its distinct rows, each weighted by its count in the batch: the
    objective and gradient are the batch mean's, summed over fewer rows.
    The validation rows are grouped the same way once. Every member ends
    bit for bit where a lone ``train`` would have left it. Unless
    ``reports``, no log-likelihood is computed and None is returned; the
    validation rows are still held out.
    """
    cfg = cfgs[0]
    for model, data in zip(models, datasets):
        if len(data) == 0:
            raise ValueError("empty training data")
        if data.shape[1] != model.block_size:
            raise ValueError("sample width does not match model block size")
    shapes = {(tuple(w.shape for w in m.weights), len(d)) for m, d in zip(models, datasets)}
    if len(shapes) > 1 or any(replace(c, seed=cfg.seed) != cfg for c in cfgs):
        raise ValueError("group members differ in more than their seeds")
    rngs = [stream(c.seed, 71) for c in cfgs]
    perm = np.stack([rng.permutation(len(d)) for rng, d in zip(rngs, datasets)])
    n_val = int(round(cfg.validation_fraction * perm.shape[1]))
    val_idx, train_idx = perm[:, :n_val], perm[:, n_val:]
    if train_idx.shape[1] == 0:
        raise ValueError("validation split leaves no training data")
    members = np.arange(len(models))[:, None]
    x_all = np.stack(datasets)
    k_all = x_all.sum(axis=2, dtype=np.uint8)  # weights <= |B| < 256
    first = np.stack([_first_copies(d) for d in datasets])
    # return_index makes np.unique sort stably; its default sort would page in 128 kB more of numpy
    val_rows = [np.unique(first[g, rows], return_index=True, return_inverse=True)
                for g, rows in enumerate(val_idx if reports else [])]
    *stacked, masks = _stack(models)
    theta = np.concatenate([t.reshape(-1) for group in stacked for t in group])
    params = (*_views(theta, stacked), masks)
    grad, vel = np.empty_like(theta), np.zeros_like(theta)
    grads = _views(grad, stacked)
    curves = []  # per epoch: each member's mean training and validation log-likelihood
    keys = np.empty(train_idx.shape, dtype=np.int32)  # each epoch's training rows as first-copy keys
    n_full = keys.shape[1] // cfg.batch_size * cfg.batch_size
    slots = np.empty((len(models), n_full // cfg.batch_size, cfg.batch_size), dtype=np.int32)
    for _ in range(cfg.epochs):
        for g, (idx, rng) in enumerate(zip(train_idx, rngs)):
            keys[g] = first[g, idx[rng.permutation(len(idx))]]
        ranked, _ = _ranks(keys[:, :n_full].reshape(slots.shape), slots)
        epoch_ll = np.zeros(len(models))
        for b, start in enumerate(range(0, keys.shape[1], cfg.batch_size)):
            rows, counts, slot = _plan(ranked[:, b], slots[:, b]) if start < n_full else _distinct(keys[:, start:])
            ll = _group_loss_and_grads(params, x_all[members[..., None], rows], k_all[members[..., None], rows],
                                       counts, slot.shape[1], grads, reports)
            if reports:
                epoch_ll += np.mean(ll.reshape(len(models), -1)[members, slot], axis=1) * slot.shape[1]
            vel *= _MOMENTUM
            vel += grad
            theta += cfg.learning_rate * vel
        val_ll = np.full(len(models), np.nan)
        for g in range(len(models) if n_val and reports else 0):  # one at a time, to keep the memory peak low
            member = tuple([t[g : g + 1] for t in group] for group in params)
            rows, _, slot = val_rows[g]
            val_ll[g] = np.mean(_group_log_prob(member, x_all[g, rows][None], k_all[g, rows][None])[0][slot])
        curves.append((epoch_ll / keys.shape[1], val_ll))
    for g, model in enumerate(models):
        for dst, src in zip((*model.weights, *model.biases, *model.ctx_weights), (t for ts in params[:3] for t in ts)):
            dst[...] = src[g]
    return [TrainReport(t.tolist(), v.tolist()) for t, v in np.transpose(curves, (2, 1, 0))] if reports else None


def _views(buf: np.ndarray, groups) -> tuple[list[np.ndarray], ...]:
    """Views of consecutive stretches of flat ``buf``, shaped as each array of each list in ``groups``."""
    parts = iter(np.split(buf, np.cumsum([t.size for ts in groups for t in ts])[:-1]))
    return tuple([next(parts).reshape(t.shape) for t in ts] for ts in groups)


_MODEL_MAGIC = b"BMCM"
_MODEL_VERSION = 2


def save_model(model: ConditionalMadeModel, path) -> None:
    """Versioned binary (v2, big-endian): magic, u16 version, u16 |B|, u16
    hidden-layer count, u32 per hidden width, the masks as bytes, then every
    weight and bias and the context weights (width x (|B| + 1)) as f8."""
    widths = [c.shape[0] for c in model.ctx_weights]
    write_bytes(
        path,
        _MODEL_MAGIC,
        struct.pack(">HHH", _MODEL_VERSION, model.block_size, len(widths)),
        *(struct.pack(">I", w) for w in widths),
        *(m.astype(np.uint8).tobytes() for m in model.masks),
        *(t.astype(">f8").tobytes() for wb in zip(model.weights, model.biases) for t in wb),
        *(c.astype(">f8").tobytes() for c in model.ctx_weights),
    )


def load_model(path) -> ConditionalMadeModel:
    """Read what ``save_model`` wrote; anything else raises ``FormatError``."""
    r = Reader(path, _MODEL_MAGIC)
    version, b, n_hidden = r.unpack(">HHH")
    if version != _MODEL_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    widths = r.unpack(f">{n_hidden}I")
    shapes = list(zip([*widths, b], [b, *widths]))  # (out, in) per weighted layer
    masks = [r.array(np.uint8, o, i).astype(np.float64) for o, i in shapes]
    if any((mask > 1).any() for mask in masks):
        raise FormatError(f"{path}: mask byte outside {{0, 1}}")
    weights, biases = [], []
    for o, i in shapes:
        weights.append(r.array(">f8", o, i).astype(np.float64))
        biases.append(r.array(">f8", o).astype(np.float64))
    ctx_weights = [r.array(">f8", w, b + 1).astype(np.float64) for w in widths]
    r.end()
    return ConditionalMadeModel(block_size=int(b), weights=weights, biases=biases, masks=masks,
                                ctx_weights=ctx_weights)
