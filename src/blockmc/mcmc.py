"""Metropolis-Hastings over the fixed-Hamming-weight feasible set.

``KERNELS`` is the one table of proposal kernels: name -> (trace code,
propose function, uses blocks). The trace code is the kind byte of a
trace file and never changes once given; new kernels take 4 and up.

* ``block-surrogate`` (uses blocks): pick one of the two partitions and a
  block uniformly, read off the only feasible block weight from the
  complement, draw the block's bits from its conditional MADE, and correct
  with the proposal ratio q(x_B|k)/q(x'_B|k). The draw is one uniform
  against the block's weight-k table (``sector_table``), which is built
  from the MADE's density (``ConditionalMadeModel.log_prob``) and has the
  law of its ancestral sampler (``.sample``), mismatch rate included; both
  log q terms are table lookups. The ``KernelConfig`` builds each (block,
  k) table on its first use and keeps it for every chain it runs, so a
  table lives exactly as long as the config and a config built after
  training reads the trained weights.
* ``global-kawasaki``: swap a uniformly chosen 1-bit with a uniformly
  chosen 0-bit; symmetric, so the ratio term vanishes.
* ``local-kawasaki``: pick a graph edge uniformly; swap if its endpoints
  differ, otherwise a null move.

A chain carries a ``ChainState``: the configuration as Python ints, the
local field h_v = q_v + sum_u Q_vu x_u of every vertex, and the sorted
positions of the 1-bits and of the 0-bits. A kernel reads its energy change
off the fields (``energy_delta_swap``, ``energy_delta_block``) and its
pair-flip sites off the sorted lists, so a step costs O(degree) Python work,
not O(N) array work. Because the lists are sorted, ``ones[rng.integers(K)]``
is the K-th 1-bit in index order, so each kernel makes the same random draws
in the same order as a scan of the array would, and a seed gives the same
chain.

``run_chain`` draws from ``streams.Draws(stream(seed))``, the exact replay
of the numpy generator's ``integers(n)`` and ``random()`` from its raw
words, which costs a fraction of numpy's per-call overhead and returns the
same numbers; a kernel handed a plain ``numpy.random.Generator`` makes the
same moves.

Each ``propose_*(state, inst, cfg, rng)`` returns a move: ``None`` for a
draw whose weight misses the block's (rejected, alpha = 0; the chain stays
put and the step still counts), ``()`` for a null move (accepted,
alpha = 1), or ``(flips, dE, log_q_rev, log_q_fwd)``, where ``flips``
lists the vertices whose bits the move inverts (none when a block draw
repeats the block's bits). The propose functions only move: ``run_chain``
checks a kernel's move conditions (``require_moves``) once, before its first
step, and alone accepts or rejects a move.
An accepted move flips its bits in the state, O(degree) each, and joins the
chain's flip log, which is replayed into the recorded configurations once,
at the end. Every kernel preserves the weight by construction, so the chain
never leaves the feasible set; this, the cached energy and the fields are
re-validated periodically against the replayed configuration.
"""

from __future__ import annotations

import math
import struct
from array import array
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, FormatError
from .fileio import Reader, write_bytes
from .made import ConditionalMadeModel
from .partition import PartitionPair
from .qaoa import basis
from .qubo import QuboInstance, energy
from .streams import Draws, stream

_REVALIDATE_EVERY = 10_000
_TABLE_ROWS = 256  # codes per density call in a sector table: bounds the transient arrays of a large sector

# what a kernel draws from: a chain's replay, or the generator it replays
Rng = Draws | np.random.Generator


@dataclass
class KernelConfig:
    kind: str
    beta_pi: float
    partition_pair: PartitionPair | None = None
    models: dict[tuple[int, int], ConditionalMadeModel] | None = None

    def __post_init__(self):
        if self.kind not in KERNELS:
            raise ConfigError(f"unknown kernel kind {self.kind!r}")
        if KERNELS[self.kind].uses_blocks:
            if self.partition_pair is None or self.models is None:
                raise ConfigError(f"{self.kind} needs a partition pair and models")
            for blocks in (self.partition_pair.p1, self.partition_pair.p2):
                for b in blocks:
                    if b.id not in self.models:
                        raise ConfigError(f"no surrogate model for block {b.id}")
            # per partition, per block: (vertices, model, weight k -> sector_table(model, k))
            self._blocks = tuple(
                [([int(v) for v in b.vertices], self.models[b.id], {}) for b in blocks]
                for blocks in (self.partition_pair.p1, self.partition_pair.p2)
            )


class ChainState:
    """One chain's configuration and the running sums its kernels read.

    ``bits`` is the configuration as Python ints, read once from ``x``, which
    is never written; ``h[v] = q_v + sum_u Q_vu x_u`` is the local field of
    vertex v; ``ones`` and ``zeros`` are the positions of the 1- and 0-bits
    in increasing order. ``flip`` keeps all of them in step.
    """

    def __init__(self, inst: QuboInstance, x: np.ndarray):
        x = np.asarray(x, dtype=np.uint8)
        self.adj = inst.adjacency
        self.bits = x.tolist()
        h, xf = inst.lin.copy(), x.astype(np.float64)
        np.add.at(h, inst.edge_i, inst.edge_w * xf[inst.edge_j])
        np.add.at(h, inst.edge_j, inst.edge_w * xf[inst.edge_i])
        self.h = h.tolist()
        self.ones = np.flatnonzero(x).tolist()
        self.zeros = np.flatnonzero(x == 0).tolist()

    def flip(self, v: int) -> None:
        """Invert bit v and move its neighbors' fields, in O(degree)."""
        b = self.bits[v] = 1 - self.bits[v]
        leave, join = (self.zeros, self.ones) if b else (self.ones, self.zeros)
        del leave[bisect_left(leave, v)]
        insort(join, v)
        d = 1.0 if b else -1.0
        h = self.h
        for u, w in self.adj[v].items():
            h[u] += d * w


def energy_delta_swap(state: ChainState, i: int, j: int) -> float:
    """Energy change of swapping the differing bits at i and j: with a the
    1-site and b the 0-site, dE = h_b - h_a - Q_ab."""
    bits = state.bits
    if bits[i] == bits[j]:
        raise ValueError(f"swap endpoints must differ: x[{i}] == x[{j}] == {bits[i]}")
    if bits[j]:
        i, j = j, i
    return state.h[j] - state.h[i] - state.adj[i].get(j, 0.0)


def energy_delta_block(state: ChainState, flips: list[int]) -> float:
    """Energy change of inverting the bits at ``flips`` (distinct vertices):
    with d_v = +1 for a 0 -> 1 flip and -1 for 1 -> 0,
    dE = sum_v d_v h_v + sum_{u<v} Q_uv d_u d_v over the flipped set."""
    bits, h, adj = state.bits, state.h, state.adj
    delta = 0.0
    for a, v in enumerate(flips):
        row = adj[v]
        s = h[v]
        for u in flips[:a]:
            q = row.get(u)
            if q is not None:
                s += q if bits[u] == 0 else -q
        delta += -s if bits[v] else s
    return delta


@dataclass(eq=False)
class ChainTrace:
    """Recorded history of one chain.

    ``configs`` holds the configuration every ``thin`` steps starting at
    step 0; energies cover every step (index 0 is the initial state).
    """

    n: int
    k: int
    kind: str
    thin: int
    configs: np.ndarray
    energies: np.ndarray
    accepted: np.ndarray
    acceptance_probs: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.accepted)


def sector_table(model: ConditionalMadeModel, k: int) -> tuple[tuple, tuple, dict]:
    """Every weight-k block code with its exact proposal probability, as
    ``(cdf, codes, log_q)``.

    ``codes`` ascend (bit t of a code is x_t); ``cdf`` is the running sum of
    q(code | k) over them, so ``cdf[-1]`` is the mass q gives weight k and
    one uniform below it picks a code with the law of the sampler,
    ``model.sample``; ``log_q`` maps each code to log q(code | k). The
    probabilities come from the density, ``model.log_prob``, on at most
    ``_TABLE_ROWS`` codes per call.
    """
    if not 0 <= k <= model.block_size:
        raise ValueError(f"context weight {k} outside [0, {model.block_size}]")
    b = basis(model.block_size)
    codes = b.order[b.bounds[k] : b.bounds[k + 1]]
    parts = [codes[i : i + _TABLE_ROWS] for i in range(0, len(codes), _TABLE_ROWS)]
    log_q = np.concatenate([model.log_prob(b.bits[part], np.full(len(part), k)) for part in parts])
    cdf, codes = tuple(np.cumsum(np.exp(log_q)).tolist()), tuple(codes.tolist())
    return cdf, codes, dict(zip(codes, log_q.tolist()))


def propose_block_surrogate(state: ChainState, inst: QuboInstance, cfg: KernelConfig, rng: Rng):
    """New bits for a uniformly chosen block at its forced weight.

    The feasible block weight k_B = K - sum over the complement equals the
    block's current weight; a draw at any other weight is ``None``.
    """
    blocks = cfg._blocks[rng.integers(2)]
    verts, model, tables = blocks[rng.integers(len(blocks))]
    bits = state.bits
    code = 0
    for t, v in enumerate(verts):
        code |= bits[v] << t
    k = code.bit_count()  # k_B == K - complement weight
    table = tables.get(k)
    if table is None:
        table = tables[k] = sector_table(model, k)
    cdf, codes, log_q = table
    u = rng.random()
    if u >= cdf[-1]:
        return None
    new = codes[bisect_right(cdf, u)]  # a valid index, as u < cdf[-1]
    diff = code ^ new
    flips = [v for t, v in enumerate(verts) if diff >> t & 1]
    return flips, energy_delta_block(state, flips), log_q[code], log_q[new]


def propose_global_kawasaki(state: ChainState, inst: QuboInstance, cfg: KernelConfig, rng: Rng):
    """Uniform (one-site, zero-site) swap; symmetric with prob 1/(K(N-K))."""
    ones, zeros = state.ones, state.zeros
    i = ones[rng.integers(len(ones))]
    j = zeros[rng.integers(len(zeros))]
    return (i, j), energy_delta_swap(state, i, j), 0.0, 0.0


def propose_local_kawasaki(state: ChainState, inst: QuboInstance, cfg: KernelConfig, rng: Rng):
    """Uniform edge; swap when endpoint bits differ, else a null move."""
    i, j = inst.edge_list[rng.integers(inst.num_edges)]
    if state.bits[i] == state.bits[j]:
        return ()
    return (i, j), energy_delta_swap(state, i, j), 0.0, 0.0


class Kernel(NamedTuple):
    code: int  # kind byte in trace files
    propose: Callable  # (state, inst, cfg, rng) -> move
    uses_blocks: bool  # needs a partition pair and a model per block


KERNELS = {
    "block-surrogate": Kernel(1, propose_block_surrogate, True),
    "global-kawasaki": Kernel(2, propose_global_kawasaki, False),
    "local-kawasaki": Kernel(3, propose_local_kawasaki, False),
}


def require_moves(kind: str, n: int, k: int, edges: int) -> None:
    """Raise ``ConfigError`` unless kernel ``kind`` has a move on weight ``k`` of ``n``
    variables and ``edges`` edges: global Kawasaki two unequal bits, local Kawasaki an edge."""
    if kind == "global-kawasaki" and k in (0, n):
        raise ConfigError(f"global-kawasaki needs 0 < k < n, got k={k} and n={n}")
    if kind == "local-kawasaki" and edges == 0:
        raise ConfigError("local-kawasaki needs an instance with at least one edge")


def run_chain(
    inst: QuboInstance, k: int, kernel: KernelConfig, steps: int, init: np.ndarray, seed: int, thin: int = 1
) -> ChainTrace:
    """Run one chain for ``steps`` proposals; deterministic per seed.

    A move is accepted with alpha = min(1, exp(-beta * dE + log_q_rev - log_q_fwd))
    against one uniform (``None`` has alpha 0 and ``()`` alpha 1, neither drawn).
    Row r of ``configs`` is ``init`` with the flips of the first r * thin steps
    replayed. The weight, the cached energy and the state are checked against
    that replay every 10^4 steps and at the end; any violation is a bug and raises.
    """
    init = np.asarray(init)
    if init.shape != (inst.n,) or not np.isin(init, (0, 1)).all() or int(init.sum()) != k:
        raise ValueError(f"init must be {inst.n} bits, each 0 or 1, of weight {k}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if thin < 1:
        raise ValueError("thin must be >= 1")
    require_moves(kernel.kind, inst.n, k, inst.num_edges)
    rng = Draws(stream(seed))
    propose, beta_pi = KERNELS[kernel.kind].propose, kernel.beta_pi
    x = init.astype(np.uint8)  # init with the first ``checked`` logged flips replayed
    state, e = ChainState(inst, x), energy(inst, x)
    energies, accepted, probs = array("d", [e]), bytearray(), array("d")
    log, ends, checked = array("i"), array("q"), 0
    for t in range(steps):
        move = propose(state, inst, kernel, rng)
        if not move:  # None is rejected and () accepted, neither with a draw
            ok, alpha = (False, 0.0) if move is None else (True, 1.0)
        else:
            flips, delta, log_q_rev, log_q_fwd = move
            log_alpha = -beta_pi * delta + log_q_rev - log_q_fwd
            if not math.isfinite(log_alpha):
                raise RuntimeError(f"non-finite acceptance exponent {log_alpha}")
            alpha = 1.0 if log_alpha >= 0.0 else math.exp(log_alpha)
            ok = rng.random() <= alpha
            if ok:
                for v in flips:
                    state.flip(v)
                log.extend(flips)
                e += delta
        energies.append(e)
        accepted.append(ok)
        probs.append(alpha)
        if (t + 1) % thin == 0:
            ends.append(len(log))
        if (t + 1) % _REVALIDATE_EVERY == 0:
            np.bitwise_xor.at(x, log[checked:], 1)
            checked = len(log)
            state, e = _revalidate(inst, state, e, k, x)
    np.bitwise_xor.at(x, log[checked:], 1)
    _revalidate(inst, state, e, k, x)
    configs = np.zeros((len(ends) + 1, inst.n), dtype=np.uint8)
    configs[0] = init
    rows = np.repeat(np.arange(1, len(configs)), np.diff(ends, prepend=0))  # each replayed flip's first row
    np.bitwise_xor.at(configs, (rows, log[: len(rows)]), 1)
    np.bitwise_xor.accumulate(configs, out=configs)
    return ChainTrace(n=inst.n, k=k, kind=kernel.kind, thin=thin, configs=configs, energies=np.frombuffer(energies),
                      accepted=np.frombuffer(accepted, dtype=bool), acceptance_probs=np.frombuffer(probs))


def _revalidate(inst: QuboInstance, state: ChainState, e: float, k: int, x: np.ndarray) -> tuple[ChainState, float]:
    """A state rebuilt from ``x``, the configuration the trace records, and
    its energy recomputed, after checking the weight, the cached ``e`` and
    the state's bits, position lists and fields against ``x``."""
    w = int(x.sum())
    if w != k:
        raise RuntimeError(f"feasibility violated: weight {w} != {k}")
    exact = energy(inst, x)
    if abs(exact - e) > 1e-9 * max(1.0, abs(exact)):
        raise RuntimeError(f"cached energy drifted: {e} vs {exact}")
    fresh = ChainState(inst, x)
    if state.bits != fresh.bits or state.ones != fresh.ones or state.zeros != fresh.zeros:
        raise RuntimeError("chain state's bits or position lists disagree with x")
    h, h_exact = np.array(state.h), np.array(fresh.h)
    drift = np.abs(h - h_exact) > 1e-9 * np.maximum(1.0, np.abs(h_exact))
    if drift.any():
        v = int(np.argmax(drift))
        raise RuntimeError(f"local field drifted at vertex {v}: {h[v]} vs {h_exact[v]}")
    return fresh, exact


_TRACE_MAGIC = b"BMCT"
_TRACE_VERSION = 3


def save_trace(trace: ChainTrace, path) -> None:
    """Binary pack of the full trace; ``load_trace`` reads it back.

    Layout (v3, big-endian): magic, u16 version, u8 kernel code, u32 n,
    u32 k, u64 steps, u32 thin; then the configs (one row of n bits per
    recorded step, packed into whole bytes), steps + 1 f8 energies, steps u8
    accepted flags and steps f8 acceptance probabilities. The chain's seed
    and β are not stored: the mcmc stage key fixes both.
    """
    write_bytes(
        path,
        _TRACE_MAGIC,
        struct.pack(">HBIIQI", _TRACE_VERSION, KERNELS[trace.kind].code, trace.n, trace.k, trace.steps, trace.thin),
        np.packbits(trace.configs, axis=1).tobytes(),
        trace.energies.astype(">f8").tobytes(),
        trace.accepted.astype(np.uint8).tobytes(),
        trace.acceptance_probs.astype(">f8").tobytes(),
    )


def load_trace(path) -> ChainTrace:
    """Read what ``save_trace`` wrote; a malformed length or value raises
    ``FormatError`` with its offset."""
    r = Reader(path, _TRACE_MAGIC)
    version, code, n, k, steps, thin = r.unpack(">HBIIQI")
    if version != _TRACE_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    kind = next((name for name, kernel in KERNELS.items() if kernel.code == code), None)
    if kind is None:
        raise FormatError(f"{path}: unknown kernel code {code} at offset 6")
    if n < 1:  # rows of no bytes would leave the config count unbounded by the file's length
        raise FormatError(f"{path}: n {n} < 1 at offset 7")
    if thin < 1:
        raise FormatError(f"{path}: thin {thin} < 1 at offset 23")
    configs = r.bits(steps // thin + 1, n)
    r.require(configs.sum(axis=1) == k, f"config of weight other than k={k}")
    energies = r.array(">f8", steps + 1).astype(np.float64)
    r.require(np.isfinite(energies), "non-finite energy")
    accepted = r.array(np.uint8, steps)
    r.require(accepted <= 1, "accepted flag other than 0 or 1")
    probs = r.array(">f8", steps).astype(np.float64)
    r.require((probs >= 0.0) & (probs <= 1.0), "acceptance probability outside [0, 1]")
    r.end()
    return ChainTrace(n=int(n), k=int(k), kind=kind, thin=int(thin), configs=configs, energies=energies,
                      accepted=accepted.astype(bool), acceptance_probs=probs)
