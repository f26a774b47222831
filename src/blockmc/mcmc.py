"""Metropolis-Hastings over the fixed-Hamming-weight feasible set.

Three proposal kernels drive the same accept/reject machinery:

* ``block-surrogate``: pick one of the two partitions and a block uniformly,
  read off the only feasible block weight from the complement, draw the
  block's bits from its conditional MADE, and correct with the proposal
  ratio q(x_B|k)/q(x'_B|k). Draws whose weight misses the required k are
  immediate rejections (the chain stays put and the step still counts).
  The draw is one uniform against the model's cached weight-k table
  (``ConditionalMadeModel.sector``), which has the law of the ancestral
  sampler, mismatch rate included; both log q terms are table lookups.
* ``global-kawasaki``: swap a uniformly chosen 1-bit with a uniformly
  chosen 0-bit; symmetric, so the ratio term vanishes.
* ``local-kawasaki``: pick a graph edge uniformly; swap if its endpoints
  differ, otherwise a null move recorded as an accepted self-transition.

Every kernel preserves the weight by construction, so the chain never
leaves the feasible set; this is re-validated periodically.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError
from .fileio import Reader, write_bytes
from .made import ConditionalMadeModel
from .partition import PartitionPair
from .qubo import QuboInstance, energy, energy_delta_block, energy_delta_swap
from .streams import stream

KERNEL_KINDS = ("block-surrogate", "global-kawasaki", "local-kawasaki")
_KIND_CODES = {k: i + 1 for i, k in enumerate(KERNEL_KINDS)}
_REVALIDATE_EVERY = 10_000


@dataclass
class ChainState:
    """Current configuration with its cached energy."""

    x: np.ndarray
    energy: float


@dataclass
class KernelConfig:
    kind: str
    beta_pi: float
    partition_pair: PartitionPair | None = None
    models: dict[tuple[int, int], ConditionalMadeModel] | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ConfigError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "block-surrogate":
            if self.partition_pair is None or self.models is None:
                raise ConfigError("block-surrogate needs a partition pair and models")
            for blocks in (self.partition_pair.p1, self.partition_pair.p2):
                for b in blocks:
                    if b.id not in self.models:
                        raise ConfigError(f"no surrogate model for block {b.id}")
            # per partition, per block: (id, vertices, bit values of x_B's code, model)
            self._blocks = tuple(
                [(b.id, np.array(b.vertices, dtype=np.intp), 1 << np.arange(b.size), self.models[b.id])
                 for b in blocks]
                for blocks in (self.partition_pair.p1, self.partition_pair.p2)
            )


@dataclass
class TransitionRecord:
    step: int
    proposed_energy: float
    accepted: bool
    kernel_detail: tuple[int, int]
    acceptance_prob: float


@dataclass
class Candidate:
    """One proposal: either new block bits, a swap pair, or a null move."""

    detail: tuple[int, int]
    log_q_fwd: float = 0.0
    log_q_rev: float = 0.0
    block_vertices: np.ndarray | None = None
    block_bits: np.ndarray | None = None
    swap: tuple[int, int] | None = None
    null_move: bool = False
    weight_mismatch: bool = False


@dataclass
class ChainTrace:
    """Recorded history of one chain.

    ``configs`` holds the configuration every ``thin`` steps starting at
    step 0; energies cover every step (index 0 is the initial state).
    """

    n: int
    k: int
    kind: str
    seed: int
    thin: int
    beta_pi: float
    configs: np.ndarray
    energies: np.ndarray
    accepted: np.ndarray
    acceptance_probs: np.ndarray
    details: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.accepted)


def propose_block_surrogate(
    state: ChainState, cfg: KernelConfig, rng: np.random.Generator
) -> Candidate:
    """Draw new bits for a uniformly chosen block at its forced weight.

    The feasible block weight k_B = K - sum over the complement equals the
    block's current weight; a draw at any other weight is flagged as an
    immediate rejection.
    """
    blocks = cfg._blocks[rng.integers(2)]
    block_id, verts, bit_values, model = blocks[rng.integers(len(blocks))]
    code = int(state.x[verts] @ bit_values)
    table = model.sector(code.bit_count())  # k_B == K - complement weight
    u = rng.random()
    if u >= table.cdf[-1]:
        return Candidate(detail=block_id, weight_mismatch=True)
    row = int(table.cdf.searchsorted(u, side="right"))  # < len(cdf), as u < cdf[-1]
    return Candidate(
        detail=block_id,
        log_q_fwd=float(table.log_q[row]),
        log_q_rev=float(table.log_q[table.row_of[code]]),
        block_vertices=verts,
        block_bits=table.rows[row],
    )


def propose_global_kawasaki(state: ChainState, rng: np.random.Generator) -> Candidate:
    """Uniform (one-site, zero-site) swap; symmetric with prob 1/(K(N-K))."""
    ones = np.flatnonzero(state.x == 1)
    zeros = np.flatnonzero(state.x == 0)
    if len(ones) == 0 or len(zeros) == 0:
        raise ConfigError("global Kawasaki undefined for K in {0, N}")
    i = int(ones[rng.integers(len(ones))])
    j = int(zeros[rng.integers(len(zeros))])
    return Candidate(detail=(i, j), swap=(i, j))


def propose_local_kawasaki(
    state: ChainState, inst: QuboInstance, rng: np.random.Generator
) -> Candidate:
    """Uniform edge; swap when endpoint bits differ, else a null move."""
    if inst.num_edges == 0:
        raise ConfigError("local Kawasaki undefined on an edgeless instance")
    e = rng.integers(inst.num_edges)
    i = int(inst.edge_i[e])
    j = int(inst.edge_j[e])
    if state.x[i] == state.x[j]:
        return Candidate(detail=(i, j), null_move=True)
    return Candidate(detail=(i, j), swap=(i, j))


def accept(
    inst: QuboInstance,
    state: ChainState,
    cand: Candidate,
    beta_pi: float,
    rng: np.random.Generator,
    step: int = 0,
) -> tuple[ChainState, TransitionRecord]:
    """Metropolis-Hastings accept/reject with incremental energy update.

    alpha = min(1, exp(-beta * dE + log_q_rev - log_q_fwd)); the log-ratio
    terms are zero for the symmetric Kawasaki kernels.
    """
    if cand.weight_mismatch:
        rec = TransitionRecord(step, math.nan, False, cand.detail, 0.0)
        return state, rec
    if cand.null_move:
        rec = TransitionRecord(step, state.energy, True, cand.detail, 1.0)
        return state, rec
    if cand.swap is not None:
        delta = energy_delta_swap(inst, state.x, *cand.swap)
    else:
        delta = energy_delta_block(inst, state.x, cand.block_vertices, cand.block_bits)
    log_alpha = -beta_pi * delta + cand.log_q_rev - cand.log_q_fwd
    if not math.isfinite(log_alpha):
        raise RuntimeError(f"non-finite acceptance exponent {log_alpha}")
    alpha = 1.0 if log_alpha >= 0.0 else math.exp(log_alpha)
    proposed_energy = state.energy + delta
    if rng.random() <= alpha:
        x = state.x.copy()
        if cand.swap is not None:
            i, j = cand.swap
            x[i], x[j] = x[j], x[i]
        else:
            x[cand.block_vertices] = cand.block_bits
        nxt = ChainState(x=x, energy=proposed_energy)
        return nxt, TransitionRecord(step, proposed_energy, True, cand.detail, alpha)
    return state, TransitionRecord(step, proposed_energy, False, cand.detail, alpha)


def _propose(state, inst, cfg, rng) -> Candidate:
    if cfg.kind == "block-surrogate":
        return propose_block_surrogate(state, cfg, rng)
    if cfg.kind == "global-kawasaki":
        return propose_global_kawasaki(state, rng)
    return propose_local_kawasaki(state, inst, rng)


def run_chain(
    inst: QuboInstance,
    k: int,
    kernel: KernelConfig,
    steps: int,
    init: np.ndarray,
    seed: int,
    thin: int = 1,
) -> ChainTrace:
    """Run one chain for ``steps`` proposals; deterministic per seed.

    Feasibility (weight == K) and the cached energy are re-validated every
    10^4 steps; any violation is a bug and raises.
    """
    init = np.asarray(init, dtype=np.uint8)
    if len(init) != inst.n or int(init.sum()) != k:
        raise ValueError(f"init must have length {inst.n} and weight {k}")
    if thin < 1:
        raise ValueError("thin must be >= 1")
    rng = stream(seed)
    state = ChainState(x=init.copy(), energy=energy(inst, init))
    n_rec = steps // thin + 1
    configs = np.empty((n_rec, inst.n), dtype=np.uint8)
    energies = np.empty(steps + 1, dtype=np.float64)
    accepted = np.empty(steps, dtype=bool)
    probs = np.empty(steps, dtype=np.float64)
    details = np.empty((steps, 2), dtype=np.int32)
    configs[0] = state.x
    energies[0] = state.energy
    rec_row = 1
    for t in range(steps):
        cand = _propose(state, inst, kernel, rng)
        state, rec = accept(inst, state, cand, kernel.beta_pi, rng, step=t)
        energies[t + 1] = state.energy
        accepted[t] = rec.accepted
        probs[t] = rec.acceptance_prob
        details[t] = rec.kernel_detail
        if (t + 1) % thin == 0:
            configs[rec_row] = state.x
            rec_row += 1
        if (t + 1) % _REVALIDATE_EVERY == 0:
            _revalidate(inst, state, k)
    _revalidate(inst, state, k)
    return ChainTrace(
        n=inst.n,
        k=k,
        kind=kernel.kind,
        seed=seed,
        thin=thin,
        beta_pi=kernel.beta_pi,
        configs=configs,
        energies=energies,
        accepted=accepted,
        acceptance_probs=probs,
        details=details,
    )


def _revalidate(inst, state, k):
    w = int(state.x.sum())
    if w != k:
        raise RuntimeError(f"feasibility violated: weight {w} != {k}")
    e = energy(inst, state.x)
    if abs(e - state.energy) > 1e-9 * max(1.0, abs(e)):
        raise RuntimeError(f"cached energy drifted: {state.energy} vs {e}")
    state.energy = e


def empirical_distribution(trace: ChainTrace, burn_in: int = 0) -> dict[bytes, float]:
    """Visit frequencies over recorded configurations (keys as in the
    exact enumeration oracle)."""
    rows = trace.configs[burn_in:]
    counts: dict[bytes, int] = {}
    for r in range(len(rows)):
        key = rows[r].tobytes()
        counts[key] = counts.get(key, 0) + 1
    total = len(rows)
    return {key: c / total for key, c in counts.items()}


def total_variation(p: dict[bytes, float], q: dict[bytes, float]) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(x, 0.0) - q.get(x, 0.0)) for x in keys)


_TRACE_MAGIC = b"BMCT"
_TRACE_VERSION = 1


def save_trace(trace: ChainTrace, path) -> None:
    """Binary pack of the full trace; ``load_trace`` reads it back."""
    header = (_TRACE_VERSION, _KIND_CODES[trace.kind], trace.n, trace.k, trace.steps, trace.thin,
              trace.beta_pi)
    write_bytes(
        path,
        _TRACE_MAGIC,
        struct.pack(">HBIIQId", *header),
        struct.pack(">Q", trace.seed),
        np.packbits(trace.configs, axis=1).tobytes(),
        trace.energies.astype(">f8").tobytes(),
        trace.accepted.astype(np.uint8).tobytes(),
        trace.acceptance_probs.astype(">f8").tobytes(),
        trace.details.astype(">i4").tobytes(),
    )


def load_trace(path) -> ChainTrace:
    r = Reader(path, _TRACE_MAGIC)
    version, code, n, k, steps, thin, beta_pi = r.unpack(">HBIIQId")
    if version != _TRACE_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if not 1 <= code <= len(KERNEL_KINDS):
        raise FormatError(f"{path}: unknown kernel code {code} at offset 6")
    if thin < 1:
        raise FormatError(f"{path}: thin {thin} < 1 at offset 23")
    (seed,) = r.unpack(">Q")
    kind = KERNEL_KINDS[code - 1]
    configs = r.bits(steps // thin + 1, n)
    energies = r.array(">f8", steps + 1).astype(np.float64)
    accepted = r.array(np.uint8, steps).astype(bool)
    probs = r.array(">f8", steps).astype(np.float64)
    details = r.array(">i4", steps, 2).astype(np.int32)
    r.end()
    return ChainTrace(
        n=int(n),
        k=int(k),
        kind=kind,
        seed=int(seed),
        thin=int(thin),
        beta_pi=float(beta_pi),
        configs=configs,
        energies=energies,
        accepted=accepted,
        acceptance_probs=probs,
        details=details,
    )
