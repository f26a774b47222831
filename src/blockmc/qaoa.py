"""Exact statevector simulation of per-block QAOA with XY mixers.

Blocks are small (<= 24 qubits), so states are dense complex vectors over
the 2^|B| computational basis. The cost layer is a diagonal phase. Both
layers conserve Hamming weight, so the XY mixer exponential acts on each
fixed-weight sector separately: up to 512 dims it is exact from the ring
mixer's eigendecomposition per sector, computed once per block; above, a
Chebyshev expansion on the sparse mixer matrix computes it to a fixed
tolerance. Parameter optimization is derivative free on the noiseless
expectation; sampling inverts the cumulative basis probabilities.

Index convention used package-wide: bit t of a basis index is the variable
at position t of the block's vertex list. ``basis(size)`` enumerates the
indices once per block size (their bits, weights and weight sectors), and
every module that needs them reads them there.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.optimize
import scipy.sparse
import scipy.special

from .errors import FormatError, ResourceLimitError
from .fileio import Reader, is_finite, is_int, read_object, write_bytes, write_json
from .partition import Block
from .qubo import QuboInstance
from .streams import stream

MAX_BLOCK_QUBITS = 24
_EIGEN_MAX_DIM = 512
_CHEBYSHEV_TAIL_TOL = 1e-13
_NORM_DRIFT_TOL = 1e-10

Statevector = np.ndarray  # complex128, length 2^|B|, unit L2 norm


@dataclass(eq=False)
class BlockProblem:
    """Block-restricted diagonal energies plus the mixer edge set.

    ``diag_energies[z]`` is the energy of the block configuration whose bit
    t (of z) gives the value of the t-th block vertex, using only couplings
    internal to the block. ``mixer_edges`` are local index pairs forming a
    connected graph over the block.
    """

    block: Block
    diag_energies: np.ndarray
    mixer_edges: list[tuple[int, int]]
    _mixer_op: object = field(default=None, init=False, repr=False)

    @property
    def size(self) -> int:
        return self.block.size

    @property
    def dim(self) -> int:
        return len(self.diag_energies)

    def mixer_operator(self):
        """The mixer (1/2) sum over edges of (X_i X_j + Y_i Y_j), built once and cached.

        Each edge contributes the exact swap of antiparallel bit pairs:
        matrix element 1 between z and z^mask wherever bits i and j of z
        differ, so z and z^mask share a Hamming weight. Up to 512 dims the
        result is a ``SectorEigenbasis``; above, a CSR matrix for the
        Chebyshev recurrence, because the sector dims there (924 at |B|=12)
        make dense eigenvector products cost more than sparse matvecs.
        """
        if self._mixer_op is None:
            dim = self.dim
            bits = basis(self.size).bits
            rows, cols = [], []
            for a, b in self.mixer_edges:
                mask = (1 << a) | (1 << b)
                sel = np.flatnonzero(bits[:, a] != bits[:, b])
                rows.append(sel)
                cols.append(sel ^ mask)
            r = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
            c = np.concatenate(cols) if cols else np.empty(0, dtype=np.int64)
            if dim <= _EIGEN_MAX_DIM:
                self._mixer_op = _sector_eigenbasis(self.size, r, c)
            else:
                data = np.ones(len(r), dtype=np.complex128)
                self._mixer_op = scipy.sparse.csr_matrix((data, (r, c)), shape=(dim, dim))
        return self._mixer_op


@dataclass(eq=False)
class SectorEigenbasis:
    """Eigendecomposition of the mixer restricted to each Hamming-weight sector.

    ``order`` and ``bounds`` are the block's ``basis``: sector w is
    ``order[bounds[w]:bounds[w + 1]]``, ascending within the sector. The sector's
    eigenvalues are ``values[bounds[w]:bounds[w + 1]]`` and its eigenvectors
    the columns of ``vectors[w]``, in the same position order. The sector
    Hamiltonians are real symmetric, so the eigenvectors are real.
    """

    order: np.ndarray
    bounds: tuple[int, ...]
    values: np.ndarray
    vectors: list[np.ndarray]


def _sector_eigenbasis(size: int, rows: np.ndarray, cols: np.ndarray) -> SectorEigenbasis:
    """Diagonalize the mixer with nonzero entries (rows, cols) sector by sector."""
    b = basis(size)
    values = np.empty(len(b.order))
    vectors = []
    for k in range(size + 1):
        lo, hi = b.bounds[k], b.bounds[k + 1]
        sel = b.weight[rows] == k
        h = np.zeros((hi - lo, hi - lo))
        h[b.rank[rows[sel]], b.rank[cols[sel]]] = 1.0
        values[lo:hi], v = np.linalg.eigh(h)
        vectors.append(v)
    return SectorEigenbasis(order=b.order, bounds=b.bounds, values=values, vectors=vectors)


@dataclass(eq=False)
class QaoaParams:
    """Layer angles: gammas for the cost phases, betas for the mixer."""

    gammas: np.ndarray
    betas: np.ndarray

    def __post_init__(self):
        self.gammas = np.asarray(self.gammas, dtype=np.float64)
        self.betas = np.asarray(self.betas, dtype=np.float64)
        if self.gammas.shape != self.betas.shape or self.gammas.ndim != 1:
            raise ValueError("gammas and betas must be 1d vectors of equal length")
        if len(self.gammas) < 1:
            raise ValueError("depth p must be >= 1")

    @property
    def p(self) -> int:
        return len(self.gammas)


@dataclass(eq=False)
class BlockSampleSet:
    """Measured block bitstrings with their Hamming weights."""

    block_id: tuple[int, int]
    samples: np.ndarray  # (count, |B|) uint8
    weights: np.ndarray  # (count,) per-sample Hamming weight

    def __post_init__(self):
        if not np.array_equal(self.weights, self.samples.sum(axis=1)):
            raise ValueError("weights column inconsistent with samples")

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def block_size(self) -> int:
        return self.samples.shape[1]


def ring_mixer_edges(size: int) -> list[tuple[int, int]]:
    """Ring over the block's local indices; connected with O(|B|) edges."""
    if size == 1:
        return []
    if size == 2:
        return [(0, 1)]
    return [(t, (t + 1) % size) for t in range(size)]


def build_block_problem(inst: QuboInstance, block: Block) -> BlockProblem:
    """Restrict the objective to a block and attach the ring mixer."""
    b = block.size
    if b > MAX_BLOCK_QUBITS:
        raise ResourceLimitError(f"block of {b} qubits exceeds limit {MAX_BLOCK_QUBITS}")
    verts = np.asarray(block.vertices, dtype=np.intp)
    local = {int(v): t for t, v in enumerate(verts)}
    bits = basis(b).bits
    diag = bits @ inst.lin[verts]
    for t, v in enumerate(block.vertices):
        for u, wu in inst.adjacency[v].items():
            s = local.get(u)
            if s is not None and s > t:
                diag = diag + wu * (bits[:, t] * bits[:, s])
    return BlockProblem(block=block, diag_energies=diag, mixer_edges=ring_mixer_edges(b))


class Basis(NamedTuple):
    """The 2^|B| basis indices of a block, under the package-wide convention
    that bit t of an index is x_t. Every array is read-only."""

    bits: np.ndarray  # (2^|B|, |B|) uint8; row z holds the bits of index z
    weight: np.ndarray  # Hamming weight of every index
    order: np.ndarray  # indices by weight, ascending within a weight
    bounds: tuple[int, ...]  # the weight-w indices are order[bounds[w]:bounds[w + 1]]
    rank: np.ndarray  # position of every index within its weight's slice of order


@functools.cache
def basis(size: int) -> Basis:
    """The ``Basis`` of a ``size``-qubit block, built once per size."""
    idx = np.arange(1 << size, dtype=np.int64)
    bits = ((idx[:, None] >> np.arange(size)) & 1).astype(np.uint8)
    weight = bits.sum(axis=1, dtype=np.int64)
    order = np.argsort(weight, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(weight, minlength=size + 1))))
    rank = np.empty_like(order)
    rank[order] = idx - bounds[weight[order]]
    for a in (bits, weight, order, rank):
        a.flags.writeable = False
    return Basis(bits, weight, order, tuple(bounds.tolist()), rank)


def prepare_initial_state(size: int, angle: float) -> Statevector:
    """Product state with every qubit rotated to cos(a/2)|0> + sin(a/2)|1>.

    angle = pi/2 is the uniform superposition; the expected Hamming weight
    is size * sin^2(angle/2).
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if size > MAX_BLOCK_QUBITS:
        raise ResourceLimitError(f"{size} qubits exceeds limit {MAX_BLOCK_QUBITS}")
    if not 0.0 <= angle <= math.pi:
        raise ValueError(f"angle {angle} outside [0, pi]")
    c = math.cos(angle / 2.0)
    s = math.sin(angle / 2.0)
    w = basis(size).weight
    amps = (c ** (size - w)) * (s**w)
    return amps.astype(np.complex128)


def apply_cost_layer(state: Statevector, bp: BlockProblem, gamma: float) -> Statevector:
    """Diagonal phase e^{-i gamma E(z)} per basis state; exactly norm preserving."""
    return state * np.exp(-1j * gamma * bp.diag_energies)


def apply_xy_mixer_layer(state: Statevector, bp: BlockProblem, beta: float) -> Statevector:
    """Apply e^{-i beta H_mixer}, sector-exactly up to 512 dims, by Chebyshev expansion above.

    Up to 512 dims each weight sector w maps to V_w diag(e^{-i beta lambda_w})
    V_w^T from the block's cached ``SectorEigenbasis``. Above, the CSR mixer
    H enters the Chebyshev expansion (Tal-Ezer & Kosloff 1984)
    e^{-i beta H} = sum_k (2 - delta_k0) (-i)^k J_k(beta R) T_k(H / R), with
    T_k(H / R) applied by the three-term recurrence, one sparse product per
    term. R bounds ||H||, so ||T_k(H / R)|| <= 1 and the first K terms are
    exact to 2 sum_{k>=K} |J_k(beta R)|; K is the first count that puts this
    tail at or below 1e-13, |beta| R plus a few tens. For the ring mixer
    (``ring_mixer_edges``, |B| >= 3) R is exact: the Jordan-Wigner map
    turns H into free fermions hopping on a ring whose boundary condition
    is periodic or antiperiodic by particle parity, with mode energies
    eps_m = 2 cos(2 pi (m + phi) / |B|), phi in {0, 1/2}; an eigenvalue is a
    sum of distinct eps_m, so R = max over phi of max(sum eps^+, sum |eps^-|)
    (6.47 against 10 edges at |B| = 10). Any other edge set takes R = the
    edge count, a bound because every row has at most one unit entry per
    edge.
    Either way the result is rescaled to the input norm (drift beyond 1e-10
    would indicate a bug and raises).
    """
    if len(state) != bp.dim:
        raise ValueError("state dimension does not match block problem")
    h = bp.mixer_operator()
    norm_in = np.linalg.norm(state)
    if isinstance(h, SectorEigenbasis):
        psi = _sector_exp(state, h, beta)
    else:
        psi = _chebyshev_exp(state, h, beta, _mixer_radius(bp))
    norm_out = np.linalg.norm(psi)
    if norm_in > 0.0:
        if abs(norm_out - norm_in) > _NORM_DRIFT_TOL * norm_in:
            raise RuntimeError(f"mixer norm drift {abs(norm_out - norm_in):.3e}")
        psi *= norm_in / norm_out
    return psi


def _sector_exp(state: Statevector, eig: SectorEigenbasis, beta: float) -> Statevector:
    """Exact exponential per sector; the real eigenvectors multiply the
    (d, 2) float view of each complex sector slice, never upcast to complex."""
    psi = np.asarray(state, dtype=np.complex128)[eig.order]
    phases = np.exp(-1j * beta * eig.values)
    flat = psi.view(np.float64).reshape(-1, 2)
    for k, v in enumerate(eig.vectors):
        lo, hi = eig.bounds[k], eig.bounds[k + 1]
        y = (v.T @ flat[lo:hi]).view(np.complex128).ravel()
        y *= phases[lo:hi]
        flat[lo:hi] = v @ y.view(np.float64).reshape(-1, 2)
    out = np.empty_like(psi)
    out[eig.order] = psi
    return out


def _mixer_radius(bp: BlockProblem) -> float:
    """The bound R >= ||H_mixer|| of ``apply_xy_mixer_layer``."""
    if bp.size >= 3 and bp.mixer_edges == ring_mixer_edges(bp.size):
        return _ring_radius(bp.size)
    return float(len(bp.mixer_edges))


@functools.cache
def _ring_radius(size: int) -> float:
    """||H|| of the ring XY mixer on ``size`` qubits, from its free-fermion modes."""
    m = np.arange(size)
    radius = 0.0
    for phi in (0.0, 0.5):
        eps = 2.0 * np.cos(2.0 * np.pi * (m + phi) / size)
        radius = max(radius, float(eps[eps > 0].sum()), float(-eps[eps < 0].sum()))
    return radius * (1.0 + 1e-12)  # stays a bound through the rounding of the cosines


def _chebyshev_exp(state: Statevector, h, beta: float, radius: float) -> Statevector:
    """The truncated Chebyshev expansion of ``apply_xy_mixer_layer``, R = ``radius``."""
    r = max(1.0, radius)
    # J_k(x) falls faster than geometrically once k > |x|, so the cut lies below 2|x| + 40.
    k = np.arange(int(2 * abs(beta) * r) + 40)
    coeffs = np.where(k > 0, 2.0, 1.0) * (-1j) ** k * scipy.special.jv(k, beta * r)
    tail = np.cumsum(np.abs(coeffs[::-1]))[::-1]
    n_terms = 1 + int(np.argmax(tail[1:] <= _CHEBYSHEV_TAIL_TOL))
    t0 = np.asarray(state, dtype=np.complex128)
    t1 = (h @ t0) / r
    psi = coeffs[0] * t0 + coeffs[1] * t1
    for c in coeffs[2:n_terms]:
        t0, t1 = t1, (2.0 / r) * (h @ t1) - t0
        psi += c * t1
    return psi


def qaoa_state(bp: BlockProblem, params: QaoaParams, init: Statevector) -> Statevector:
    """Alternate cost and mixer layers, cost first within each layer."""
    if len(init) != bp.dim:
        raise ValueError("initial state dimension does not match block problem")
    psi = init
    for gamma, beta in zip(params.gammas, params.betas):
        psi = apply_cost_layer(psi, bp, gamma)
        psi = apply_xy_mixer_layer(psi, bp, beta)
    return psi


def expected_energy(state: Statevector, bp: BlockProblem) -> float:
    """<psi| H_cost |psi> for the diagonal block Hamiltonian."""
    return float((np.abs(state) ** 2) @ bp.diag_energies)


def optimize_params(
    bp: BlockProblem,
    p: int,
    init: Statevector,
    restarts: int = 8,
    seed: int = 0,
    max_evals_per_restart: int | None = None,
) -> tuple[QaoaParams, float]:
    """Best-of-restarts Nelder-Mead on the noiseless energy landscape.

    Starts are drawn uniformly from (0, pi/2)^{2p}; each simplex run is
    capped at 400*p evaluations (overridable) and terminates at a 1e-6 loss
    spread. Returns the best parameters with their loss; never worse than
    any tried start, because a start is the first vertex of its simplex and
    Nelder-Mead returns the best vertex it holds. Deterministic per seed.
    """
    if p < 1:
        raise ValueError("depth p must be >= 1")
    rng = stream(seed, 90)
    maxfev = max_evals_per_restart if max_evals_per_restart is not None else 400 * p

    def loss(theta: np.ndarray) -> float:
        params = QaoaParams(gammas=theta[:p], betas=theta[p:])
        return expected_energy(qaoa_state(bp, params, init), bp)

    best_theta = None
    best_loss = np.inf
    for _ in range(max(1, restarts)):
        x0 = rng.uniform(0.0, math.pi / 2.0, size=2 * p)
        res = scipy.optimize.minimize(
            loss,
            x0,
            method="Nelder-Mead",
            options={"maxfev": maxfev, "xatol": 1e-6, "fatol": 1e-6},
        )
        if res.fun < best_loss:
            best_loss, best_theta = float(res.fun), res.x
    return QaoaParams(gammas=best_theta[:p].copy(), betas=best_theta[p:].copy()), float(best_loss)


def sample_state(state: Statevector, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Draw basis indices by inverting the cumulative measurement probabilities."""
    probs = np.abs(state) ** 2
    probs = probs / probs.sum()
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    return np.searchsorted(cum, rng.random(shots), side="right")


def angle_for_weight(block_size: int, weight: float) -> float:
    """Rotation angle whose product state has expected Hamming weight ``weight``."""
    if not 0.0 <= weight <= block_size:
        raise ValueError(f"target weight {weight} outside [0, {block_size}]")
    return 2.0 * math.asin(math.sqrt(weight / block_size))


def default_training_angles(block_size: int, biased_angle: float | None = None) -> list[float]:
    """Nine angles whose expected weights cover 0..|B| evenly, plus a bias.

    Running the optimized circuit from each of these product states gives
    the surrogate training data coverage over every conditioning weight.
    """
    angles = [angle_for_weight(block_size, t) for t in np.linspace(0.0, block_size, 9)]
    if biased_angle is not None:
        angles.append(float(biased_angle))
    return angles


def generate_training_set(
    bp: BlockProblem,
    params: QaoaParams,
    init_angles: list[float],
    shots_per_init: int,
    seed: int,
) -> BlockSampleSet:
    """Evolve each product initial state and measure; label samples by weight.

    Rows ``a * shots_per_init : (a + 1) * shots_per_init`` are the shots
    from ``init_angles[a]``.

    The circuit is simulated once per block, not once per angle. It never
    mixes Hamming-weight sectors, and ``prepare_initial_state(|B|, a)`` is
    constant on each sector (cos^{|B|-w}(a/2) sin^w(a/2) at weight w). So
    with U the circuit, U applied to that state equals U applied to the
    all-ones vector, scaled elementwise by that state.
    """
    if shots_per_init < 1:
        raise ValueError("shots_per_init must be >= 1")
    rng = stream(seed, 91)
    b = bp.size
    evolved = qaoa_state(bp, params, np.ones(bp.dim, dtype=np.complex128))
    all_samples = []
    for angle in init_angles:
        psi = evolved * prepare_initial_state(b, angle)
        all_samples.append(basis(b).bits[sample_state(psi, shots_per_init, rng)])
    samples = np.concatenate(all_samples, axis=0)
    return BlockSampleSet(block_id=bp.block.id, samples=samples, weights=samples.sum(axis=1).astype(np.int64))


def save_params(params: QaoaParams, loss: float, block_id: tuple[int, int], path) -> None:
    doc = {
        "block_id": list(block_id),
        "p": params.p,
        "gammas": [float(g) for g in params.gammas],
        "betas": [float(b) for b in params.betas],
        "loss": float(loss),
    }
    write_json(doc, path)


def load_params(path) -> tuple[QaoaParams, float, tuple[int, int]]:
    """Read what ``save_params`` wrote; anything else raises ``FormatError``."""
    doc = read_object(path, ("block_id", "p", "gammas", "betas", "loss"))
    block_id, p = doc["block_id"], doc["p"]
    if not (isinstance(block_id, list) and len(block_id) == 2 and all(map(is_int, block_id))):
        raise FormatError(f"{path}: block_id {block_id!r} is not two ints")
    if not (is_int(p) and p >= 1):
        raise FormatError(f"{path}: p {p!r} is not an int >= 1")
    for key in ("gammas", "betas"):
        v = doc[key]
        if not (isinstance(v, list) and len(v) == p and all(map(is_finite, v))):
            raise FormatError(f"{path}: {key} is not a list of {p} finite numbers")
    if not is_finite(doc["loss"]):
        raise FormatError(f"{path}: loss {doc['loss']!r} is not a finite number")
    params = QaoaParams(gammas=np.array(doc["gammas"]), betas=np.array(doc["betas"]))
    return params, float(doc["loss"]), (block_id[0], block_id[1])


_SAMPLES_MAGIC = b"BMCS"
_SAMPLES_VERSION = 2


def save_sample_set(ss: BlockSampleSet, path) -> None:
    """Binary pack (v2, big-endian): magic, u16 version, u16 block id pair,
    u16 |B|, u64 count, then ``count`` rows of |B| bits packed into whole
    bytes. The weights are recomputed on load."""
    write_bytes(
        path,
        _SAMPLES_MAGIC,
        struct.pack(">HHHHQ", _SAMPLES_VERSION, *ss.block_id, ss.block_size, ss.count),
        np.packbits(ss.samples, axis=1).tobytes(),
    )


def load_sample_set(path) -> BlockSampleSet:
    r = Reader(path, _SAMPLES_MAGIC)
    version, s, m, b, count = r.unpack(">HHHHQ")
    if version != _SAMPLES_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if b < 1:  # rows of no bytes would leave count unbounded by the file's length
        raise FormatError(f"{path}: block size {b} < 1 at offset 10")
    samples = r.bits(count, b)
    r.end()
    return BlockSampleSet(block_id=(int(s), int(m)), samples=samples, weights=samples.sum(axis=1).astype(np.int64))
