"""QUBO/Ising problem representation and exact small-instance oracles.

A problem is the quadratic binary objective

    E(x) = sum_{i<j} Q_ij x_i x_j + sum_i q_i x_i + c,     x_i in {0, 1},

stored sparsely. Configurations are plain ``numpy`` uint8 vectors of 0/1
bits; the fixed-weight feasible set and its exact Boltzmann distribution
live here as well, because they are the stationarity oracle every sampler
is tested against.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ResourceLimitError
from .streams import stream

SpinConfig = np.ndarray  # uint8 vector of 0/1 bits


@dataclass
class QuboInstance:
    """Sparse quadratic binary objective and its interaction graph.

    Parameters
    ----------
    n : int
        Number of binary variables.
    quad : dict[tuple[int, int], float]
        Quadratic coefficients keyed by (i, j) with i < j; zero-valued
        entries must be omitted.
    lin : np.ndarray
        Linear coefficients, length n.
    konst : float
        Constant offset; equals the energy of the all-zero configuration.

    The adjacency structure is built once at construction and the instance
    is treated as immutable afterwards, so it can be shared freely across
    workers.
    """

    n: int
    quad: dict[tuple[int, int], float]
    lin: np.ndarray
    konst: float = 0.0

    # derived, filled in __post_init__
    edge_i: np.ndarray = field(init=False, repr=False)
    edge_j: np.ndarray = field(init=False, repr=False)
    edge_w: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.lin = np.asarray(self.lin, dtype=np.float64)
        if self.lin.shape != (self.n,):
            raise ValueError(f"lin must have length n={self.n}, got {self.lin.shape}")
        for (i, j), w in self.quad.items():
            if not (0 <= i < j < self.n):
                raise ValueError(f"bad quad key ({i}, {j}) for n={self.n}")
            if w == 0.0:
                raise ValueError(f"zero coefficient stored for edge ({i}, {j})")
        edges = sorted(self.quad)
        self.edge_i = np.array([e[0] for e in edges], dtype=np.intp)
        self.edge_j = np.array([e[1] for e in edges], dtype=np.intp)
        self.edge_w = np.array([self.quad[e] for e in edges], dtype=np.float64)
        nbr: list[list[tuple[int, float]]] = [[] for _ in range(self.n)]
        for (i, j), w in self.quad.items():
            nbr[i].append((j, w))
            nbr[j].append((i, w))
        self._nbr_idx = [np.array([u for u, _ in sorted(a)], dtype=np.intp) for a in nbr]
        self._nbr_w = [np.array([w for _, w in sorted(a)], dtype=np.float64) for a in nbr]

    @property
    def num_edges(self) -> int:
        return len(self.edge_w)

    def neighbors(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor indices of vertex i and the matching coupling values."""
        return self._nbr_idx[i], self._nbr_w[i]

    def coupling(self, i: int, j: int) -> float:
        """Q_ij for any index order; 0.0 when (i, j) is not an edge."""
        if i == j:
            return 0.0
        return self.quad.get((min(i, j), max(i, j)), 0.0)

    def degree(self, i: int) -> int:
        return len(self._nbr_idx[i])


def random_weight_k_config(n: int, k: int, rng: np.random.Generator) -> SpinConfig:
    """Uniformly random configuration with exactly k ones."""
    x = np.zeros(n, dtype=np.uint8)
    x[rng.choice(n, size=k, replace=False)] = 1
    return x


def energy(inst: QuboInstance, x: SpinConfig) -> float:
    """Evaluate E(x) = sum Q_ij x_i x_j + sum q_i x_i + c."""
    if len(x) != inst.n:
        raise ValueError(f"configuration length {len(x)} != n={inst.n}")
    quad = float(inst.edge_w @ (x[inst.edge_i] * x[inst.edge_j])) if inst.num_edges else 0.0
    return quad + float(inst.lin @ x) + inst.konst


def energy_delta_swap(inst: QuboInstance, x: SpinConfig, i: int, j: int) -> float:
    """Energy change of swapping the differing bits at i and j, in O(degree).

    The product x_i x_j is invariant under the swap, so only terms linear
    in one endpoint move; each endpoint's neighborhood is scanned once.
    """
    if x[i] == x[j]:
        raise ValueError(f"swap endpoints must differ: x[{i}] == x[{j}] == {x[i]}")
    ni, wi = inst.neighbors(i)
    nj, wj = inst.neighbors(j)
    qij = inst.coupling(i, j)
    s_i = float(wi @ x[ni]) - qij * float(x[j])
    s_j = float(wj @ x[nj]) - qij * float(x[i])
    d_i = float(x[j]) - float(x[i])
    return d_i * (inst.lin[i] + s_i) - d_i * (inst.lin[j] + s_j)


def energy_delta_block(
    inst: QuboInstance, x: SpinConfig, vertices: np.ndarray, new_bits: np.ndarray
) -> float:
    """Energy change of overwriting ``vertices`` with ``new_bits``.

    Only terms touching the block move; cost is O(|B| * degree).
    """
    delta = 0.0
    in_block = np.zeros(inst.n, dtype=bool)
    in_block[vertices] = True
    old = x[vertices].astype(np.float64)
    new = np.asarray(new_bits, dtype=np.float64)
    delta += float(inst.lin[vertices] @ (new - old))
    local = {int(v): t for t, v in enumerate(vertices)}
    for t, v in enumerate(vertices):
        nbr, w = inst.neighbors(int(v))
        for u, wu in zip(nbr, w):
            if in_block[u]:
                if u < v:  # internal edge, count once
                    s = local[int(u)]
                    delta += wu * (new[t] * new[s] - old[t] * old[s])
            else:
                delta += wu * float(x[u]) * (new[t] - old[t])
    return delta


def gen_regular_instance(n: int, degree: int, seed: int) -> QuboInstance:
    """Uniform random simple degree-regular graph with N(0, 1) couplings.

    Sampling uses the stub-pairing model with full restart whenever the
    pairing produces a loop or a multi-edge, which conditions the uniform
    pairing distribution onto simple graphs. Linear terms and the constant
    are zero. Deterministic for a fixed seed.
    """
    if degree >= n or (n * degree) % 2 != 0:
        raise ValueError(f"no simple {degree}-regular graph on {n} vertices")
    rng = stream(seed, 0)
    target = n * degree // 2
    stubs = np.repeat(np.arange(n), degree)
    while True:
        pairing = rng.permutation(stubs).reshape(-1, 2)
        if np.any(pairing[:, 0] == pairing[:, 1]):
            continue
        edges = {(min(int(a), int(b)), max(int(a), int(b))) for a, b in pairing}
        if len(edges) == target:
            break
    ordered = sorted(edges)
    weights = rng.standard_normal(target)
    quad = {e: float(w) for e, w in zip(ordered, weights)}
    return QuboInstance(n=n, quad=quad, lin=np.zeros(n), konst=0.0)


def enumerate_constrained_boltzmann(
    inst: QuboInstance, k: int, beta: float, cap: int = 2_000_000
) -> dict[bytes, float]:
    """Exact Boltzmann probabilities over all weight-k configurations.

    Returns a map from ``x.tobytes()`` (uint8 bit vector) to probability.
    Iterates weight-k index combinations directly instead of scanning all
    2^N states; chunked vectorized energy evaluation keeps it fast up to
    the configurable state cap.
    """
    total = math.comb(inst.n, k)
    if total > cap:
        raise ResourceLimitError(f"C({inst.n}, {k}) = {total} exceeds cap {cap}")
    combos = itertools.combinations(range(inst.n), k)
    configs = np.zeros((total, inst.n), dtype=np.uint8)
    log_w = np.empty(total, dtype=np.float64)
    chunk = 65536
    row = 0
    while True:
        block = list(itertools.islice(combos, chunk))
        if not block:
            break
        m = len(block)
        bits = np.zeros((m, inst.n), dtype=np.uint8)
        if k > 0:
            idx = np.array(block, dtype=np.intp)
            bits[np.arange(m)[:, None], idx] = 1
        e = bits @ inst.lin + inst.konst
        if inst.num_edges:
            e = e + (bits[:, inst.edge_i] * bits[:, inst.edge_j]) @ inst.edge_w
        configs[row : row + m] = bits
        log_w[row : row + m] = -beta * e
        row += m
    log_z = _logsumexp(log_w)
    probs = np.exp(log_w - log_z)
    return {configs[r].tobytes(): float(probs[r]) for r in range(total)}


def _logsumexp(a: np.ndarray) -> float:
    m = float(np.max(a))
    return m + float(np.log(np.sum(np.exp(a - m))))


def exhaustive_minimum(inst: QuboInstance, k: int, cap: int = 2_000_000) -> tuple[SpinConfig, float]:
    """Exact weight-k minimizer by direct enumeration (small instances)."""
    total = math.comb(inst.n, k)
    if total > cap:
        raise ResourceLimitError(f"C({inst.n}, {k}) = {total} exceeds cap {cap}")
    best_x = None
    best_e = np.inf
    x = np.zeros(inst.n, dtype=np.uint8)
    for combo in itertools.combinations(range(inst.n), k):
        x[:] = 0
        x[list(combo)] = 1
        e = energy(inst, x)
        if e < best_e:
            best_e = e
            best_x = x.copy()
    return best_x, float(best_e)


def save_instance(inst: QuboInstance, path) -> None:
    """Write the structured-text instance file {n, edges, linear, constant}."""
    doc = {
        "n": inst.n,
        "edges": [[int(i), int(j), inst.quad[(i, j)]] for i, j in sorted(inst.quad)],
        "linear": [float(v) for v in inst.lin],
        "constant": float(inst.konst),
    }
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


def load_instance(path) -> QuboInstance:
    try:
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad instance file {path}: {exc}") from exc
    try:
        quad = {(int(i), int(j)): float(w) for i, j, w in doc["edges"]}
        return QuboInstance(
            n=int(doc["n"]),
            quad=quad,
            lin=np.array(doc["linear"], dtype=np.float64),
            konst=float(doc["constant"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad instance file {path}: {exc}") from exc


def load_instance_csv(path) -> QuboInstance:
    """Import a dense upper-triangular coefficient matrix from CSV.

    The strict upper triangle holds quadratic coefficients and the diagonal
    holds linear ones (x_i^2 = x_i for binary x). Nonzero entries below the
    diagonal are rejected rather than silently folded.
    """
    mat = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    if mat.shape[0] != mat.shape[1]:
        raise FormatError(f"coefficient matrix must be square, got {mat.shape}")
    n = mat.shape[0]
    low = np.tril(mat, k=-1)
    if np.any(low != 0.0):
        r, c = np.argwhere(low != 0.0)[0]
        raise FormatError(f"nonzero lower-triangle entry at row {r}, col {c}")
    quad = {
        (i, j): float(mat[i, j])
        for i in range(n)
        for j in range(i + 1, n)
        if mat[i, j] != 0.0
    }
    return QuboInstance(n=n, quad=quad, lin=np.diag(mat).copy(), konst=0.0)
