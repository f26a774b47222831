"""Exact statevector simulation of per-block QAOA with XY mixers.

Blocks are small (<= 24 qubits), so states are dense complex vectors over
the 2^|B| computational basis. The cost layer is a diagonal phase. Both
layers conserve Hamming weight, so the XY mixer exponential acts on each
fixed-weight sector separately. Up to 512 dims it is exact from the
mixer's eigendecomposition per sector, computed once per block size and
shared by every block of that size. There the circuit runs in a padded
sector layout, one zero-padded row per weight, so a mixer layer is two
batched products with the stacked real eigenvectors.
Above 512 dims a Chebyshev expansion on the sparse mixer matrix computes
it to a fixed tolerance; ``qaoa_state`` alone runs a circuit, on either.
Parameter optimization is derivative free on the noiseless expectation;
sampling inverts the cumulative basis probabilities.

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
from .fileio import Reader, is_finite, read_object, write_bytes, write_json
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
    """Block-restricted diagonal energies.

    ``diag_energies[z]`` is the energy of the block configuration whose bit
    t (of z) gives the value of the t-th block vertex, using only couplings
    internal to the block. The mixer is ``mixer_operator(size)``, the ring
    XY mixer of the block's size.
    """

    block: Block
    diag_energies: np.ndarray
    _padded_energies: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def size(self) -> int:
        return self.block.size

    @property
    def dim(self) -> int:
        return len(self.diag_energies)

    def padded_energies(self) -> np.ndarray:
        """``diag_energies`` in the padded sector layout of ``mixer_operator(size)``
        (dim <= 512 only), zero in the padding; built once."""
        if self._padded_energies is None:
            self._padded_energies = mixer_operator(self.size).to_padded(self.diag_energies, np.float64)
        return self._padded_energies


@dataclass(frozen=True, eq=False)
class SectorEigenbasis:
    """Eigendecomposition of the mixer restricted to each Hamming-weight
    sector, in the padded sector layout.

    The layout is a (|B| + 1, d) array, d the largest sector dim: row w holds
    sector w in the position order of the block size's ``basis`` (ascending
    within the sector) and zeros after it, and basis index z sits at flat
    slot ``slot[z]``. With d_w sector w's dim, its eigenvalues are
    ``padded_values[w, :d_w]`` and its eigenvectors the columns of
    ``stack[w, :d_w, :d_w]``, in the same position order; the rest of both
    is zero. The sector Hamiltonians are real symmetric, so the eigenvectors
    are real. One instance serves every block of a size, so every array is
    read-only.
    """

    stack: np.ndarray  # (|B| + 1, d, d)
    padded_values: np.ndarray  # (|B| + 1, d)
    slot: np.ndarray  # (2^|B|,)

    def to_padded(self, values: np.ndarray, dtype=np.complex128) -> np.ndarray:
        """Basis-ordered ``values`` scattered into a new padded layout of ``dtype``."""
        x = np.zeros(self.padded_values.size, dtype=dtype)
        x[self.slot] = values
        return x.reshape(self.padded_values.shape)

    def evolve(self, state: Statevector, mixer_phases, cost_phases) -> Statevector:
        """Layers of padded-layout phases applied to ``state``, cost first.

        ``state`` is scattered into the padded layout once. Layer l then
        multiplies it by ``cost_phases[l]`` and maps every sector w to
        V_w diag(``mixer_phases[l][w]``) V_w^T, as two batched products of
        the real stack with the (|B| + 1, d, 2) float view of the complex
        state, so V is never upcast to complex. The result is gathered back
        to basis order once.
        """
        x = self.to_padded(state)
        xf = x.view(np.float64).reshape(*x.shape, 2)
        y = np.empty_like(xf)
        yc = y.view(np.complex128)[..., 0]
        vt = self.stack.transpose(0, 2, 1)
        for m, c in zip(mixer_phases, cost_phases):
            x *= c
            np.matmul(vt, xf, out=y)
            yc *= m
            np.matmul(self.stack, y, out=xf)
        return x.reshape(-1)[self.slot]


@functools.cache
def mixer_operator(size: int):
    """The ring XY mixer (1/2) sum over ``ring_mixer_edges(size)`` of
    (X_i X_j + Y_i Y_j), built once per block size and shared by every block
    of that size, so every array it holds is read-only.

    Each edge contributes the exact swap of antiparallel bit pairs: matrix
    element 1 between z and z^mask wherever bits i and j of z differ, so z
    and z^mask share a Hamming weight. Up to 512 dims the result is the
    ``SectorEigenbasis``, each sector diagonalized; above, a CSR matrix for
    the Chebyshev recurrence, because the sector dims there (924 at |B|=12)
    make dense eigenvector products cost more than sparse matvecs.
    """
    b = basis(size)
    rows, cols = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for i, j in ring_mixer_edges(size):
        sel = np.flatnonzero(b.bits[:, i] != b.bits[:, j])
        rows.append(sel)
        cols.append(sel ^ ((1 << i) | (1 << j)))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    dim = 1 << size
    if dim > _EIGEN_MAX_DIM:
        data = np.ones(len(rows), dtype=np.complex128)
        h = scipy.sparse.csr_matrix((data, (rows, cols)), shape=(dim, dim))
        for a in (h.data, h.indices, h.indptr):
            a.flags.writeable = False
        return h
    dims = np.diff(b.bounds)
    d = int(dims.max())
    stack = np.zeros((size + 1, d, d))
    padded_values = np.zeros((size + 1, d))
    for k, dk in enumerate(dims):
        sel = b.weight[rows] == k
        h = np.zeros((dk, dk))
        h[b.rank[rows[sel]], b.rank[cols[sel]]] = 1.0
        padded_values[k, :dk], stack[k, :dk, :dk] = np.linalg.eigh(h)
    slot = b.weight * d + b.rank
    for a in (stack, padded_values, slot):
        a.flags.writeable = False
    return SectorEigenbasis(stack, padded_values, slot)


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
        if not all(map(math.isfinite, self.gammas.tolist() + self.betas.tolist())):
            raise ValueError("gammas and betas must be finite")


def ring_mixer_edges(size: int) -> list[tuple[int, int]]:
    """Ring over the block's local indices; connected with O(|B|) edges."""
    if size == 1:
        return []
    if size == 2:
        return [(0, 1)]
    return [(t, (t + 1) % size) for t in range(size)]


def build_block_problem(inst: QuboInstance, block: Block) -> BlockProblem:
    """Restrict the objective to a block."""
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
    return BlockProblem(block=block, diag_energies=diag)


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


def _rescaled(psi: Statevector, norm_in: float) -> Statevector:
    """``psi`` rescaled in place to ``norm_in``, the norm of the state it was
    evolved from. A drift beyond 1e-10 relative, or a non-finite norm, would
    indicate a bug and raises."""
    norm_out = np.linalg.norm(psi)
    if not abs(norm_out - norm_in) <= _NORM_DRIFT_TOL * norm_in:
        raise RuntimeError(f"norm drift from {norm_in:.17g} to {norm_out:.17g}")
    if norm_in > 0.0:
        psi *= norm_in / norm_out
    return psi


@functools.cache
def _ring_radius(size: int) -> float:
    """||H|| of the ring XY mixer on ``size`` >= 3 qubits, an R for
    ``_chebyshev_exp``. The Jordan-Wigner map turns H into free fermions
    hopping on a ring whose boundary condition is periodic or antiperiodic by
    particle parity, with mode energies eps_m = 2 cos(2 pi (m + phi) / |B|),
    phi in {0, 1/2}; an eigenvalue is a sum of distinct eps_m, so R = max over
    phi of max(sum eps^+, sum |eps^-|) (6.47 against 10 edges at |B| = 10)."""
    m = np.arange(size)
    radius = 0.0
    for phi in (0.0, 0.5):
        eps = 2.0 * np.cos(2.0 * np.pi * (m + phi) / size)
        radius = max(radius, float(eps[eps > 0].sum()), float(-eps[eps < 0].sum()))
    return radius * (1.0 + 1e-12)  # stays a bound through the rounding of the cosines


def _chebyshev_exp(state: Statevector, h, beta: float, radius: float) -> Statevector:
    """e^{-i beta H} ``state`` for the CSR mixer ``h`` by the Chebyshev
    expansion (Tal-Ezer & Kosloff 1984)
    e^{-i beta H} = sum_k (2 - delta_k0) (-i)^k J_k(beta R) T_k(H / R), with
    T_k(H / R) applied by the three-term recurrence, one sparse product per
    term. R = ``radius`` bounds ||H||, so ||T_k(H / R)|| <= 1 and the first K
    terms are exact to 2 sum_{k>=K} |J_k(beta R)|; K is the first count that
    puts this tail at or below 1e-13, |beta| R plus a few tens."""
    r = max(1.0, radius)
    # J_k(x) falls faster than geometrically once k > |x|, so the cut lies below 2|x| + 40.
    k = np.arange(int(2 * abs(beta) * r) + 40)
    coeffs = np.where(k > 0, 2.0, 1.0) * (-1j) ** k * scipy.special.jv(k, beta * r)
    tail = np.cumsum(np.abs(coeffs[::-1]))[::-1]
    n_terms = 1 + int(np.argmax(tail[1:] <= _CHEBYSHEV_TAIL_TOL))
    t0 = np.asarray(state, dtype=np.complex128)
    t1 = (h @ t0) / r
    psi = coeffs[0] * t0 + coeffs[1] * t1
    term = np.empty_like(psi)
    for c in coeffs[2:n_terms]:
        hv = h @ t1
        hv *= 2.0 / r
        t0, t1 = t1, np.subtract(hv, t0, out=hv)
        psi += np.multiply(c, t1, out=term)
    return psi


def qaoa_state(bp: BlockProblem, params: QaoaParams, init: Statevector) -> Statevector:
    """Alternate cost and mixer layers on ``init``, cost first within each
    layer: the one routine that runs a circuit. Up to 512 dims the whole
    circuit runs in the padded sector layout of the block size's
    ``SectorEigenbasis``: each layer's cost and mixer phases come from one
    ``exp`` each, ``SectorEigenbasis.evolve`` scatters ``init`` into the layout
    once, runs the layers there and gathers the result back once, and the norm
    drift is checked and rescaled once. Above, each layer is the diagonal cost
    phase e^{-i gamma E(z)}, then ``_chebyshev_exp`` on the CSR mixer, rescaled
    (``_rescaled``) to the norm after the cost phase."""
    if len(init) != bp.dim:
        raise ValueError("initial state dimension does not match block problem")
    h = mixer_operator(bp.size)
    if not isinstance(h, SectorEigenbasis):
        radius = _ring_radius(bp.size)
        psi = init
        for gamma, beta in zip(params.gammas, params.betas):
            psi = psi * np.exp(-1j * gamma * bp.diag_energies)
            psi = _rescaled(_chebyshev_exp(psi, h, beta, radius), np.linalg.norm(psi))
        return psi
    cost = np.exp(-1j * params.gammas[:, None, None] * bp.padded_energies())
    mix = np.exp(-1j * params.betas[:, None, None] * h.padded_values)
    return _rescaled(h.evolve(init, mix, cost), np.linalg.norm(init))


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
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if max_evals_per_restart is not None and max_evals_per_restart < 1:
        raise ValueError("max_evals_per_restart must be >= 1")
    rng = stream(seed, 90)
    maxfev = max_evals_per_restart if max_evals_per_restart is not None else 400 * p

    def loss(theta: np.ndarray) -> float:
        params = QaoaParams(gammas=theta[:p], betas=theta[p:])
        return expected_energy(qaoa_state(bp, params, init), bp)

    best_theta = None
    best_loss = np.inf
    for _ in range(restarts):
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


def _sample_rows(probs: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """``shots`` basis indices per row of the unnormalized (rows, dim)
    probabilities ``probs``, which are overwritten by their normalized
    cumulative sums. The draws come from one ``rng.random((rows, shots))``:
    the same draws in the same order as one ``rng.random(shots)`` per row.
    A row whose total probability is not finite and positive raises
    ``ValueError``."""
    total = probs.sum(axis=1, keepdims=True)
    if not np.all(np.isfinite(total) & (total > 0.0)):
        raise ValueError("state has no finite positive probability to sample")
    probs /= total
    cum = np.cumsum(probs, axis=1, out=probs)
    cum[:, -1] = 1.0
    draws = rng.random((len(probs), shots))
    return np.stack([np.searchsorted(c, u, side="right") for c, u in zip(cum, draws)])


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
) -> np.ndarray:
    """Evolve each product initial state and measure: the shots as a
    (len(init_angles) * shots_per_init, |B|) uint8 bit array.

    Rows ``a * shots_per_init : (a + 1) * shots_per_init`` are the shots
    from ``init_angles[a]``; all angles are sampled in one pass.

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
    probs = np.empty((len(init_angles), bp.dim))
    for row, angle in zip(probs, init_angles):  # row by row: no (angles, dim) complex copy
        row[:] = np.abs(evolved * prepare_initial_state(b, angle)) ** 2
    return basis(b).bits[_sample_rows(probs, shots_per_init, rng).ravel()]


def save_params(params: QaoaParams, loss: float, path) -> None:
    doc = {"gammas": params.gammas.tolist(), "betas": params.betas.tolist(), "loss": float(loss)}
    write_json(doc, path)


def load_params(path) -> tuple[QaoaParams, float]:
    """Read what ``save_params`` wrote; anything else raises ``FormatError``."""
    doc = read_object(path, ("gammas", "betas", "loss"))
    gammas, betas = doc["gammas"], doc["betas"]
    # all() stops at a malformed gammas before len(gammas) is taken for betas
    if not all(isinstance(v, list) and v and len(v) == len(gammas) and all(map(is_finite, v)) for v in (gammas, betas)):
        raise FormatError(f"{path}: gammas and betas are not non-empty lists of equal length of finite numbers")
    if not is_finite(doc["loss"]):
        raise FormatError(f"{path}: loss {doc['loss']!r} is not a finite number")
    return QaoaParams(gammas=np.array(gammas), betas=np.array(betas)), float(doc["loss"])


_SAMPLES_MAGIC = b"BMCS"
_SAMPLES_VERSION = 3


def save_sample_set(samples: np.ndarray, path) -> None:
    """Binary pack (v3, big-endian): magic, u16 version, u16 |B|, u64 count,
    then ``count`` rows of |B| bits packed into whole bytes. The weights
    are not stored."""
    count, size = samples.shape
    write_bytes(
        path,
        _SAMPLES_MAGIC,
        struct.pack(">HHQ", _SAMPLES_VERSION, size, count),
        np.packbits(samples, axis=1).tobytes(),
    )


def load_sample_set(path) -> np.ndarray:
    r = Reader(path, _SAMPLES_MAGIC)
    version, b, count = r.unpack(">HHQ")
    if version != _SAMPLES_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if b < 1:  # rows of no bytes would leave count unbounded by the file's length
        raise FormatError(f"{path}: block size {b} < 1 at offset 6")
    samples = r.bits(count, b)
    r.end()
    return samples
