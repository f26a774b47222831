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
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ResourceLimitError
from .fileio import is_finite, is_int, is_int_list, read_object, write_json
from .streams import stream

SpinConfig = np.ndarray  # uint8 vector of 0/1 bits


@dataclass(eq=False)
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

    The interaction graph is built once at construction, from the edges in
    sorted (i, j) order, and the instance is treated as immutable afterwards,
    so it can be shared freely across workers:

    * ``edge_i``, ``edge_j``, ``edge_w``: numpy arrays of every edge's ends
      and coupling, and ``edge_list``, the same (i, j) pairs as Python ints;
    * ``adjacency[v]``: {neighbor: Q} as Python numbers, neighbors in
      ascending order. Partition tie-breaks and the float sums over a
      vertex's neighbors follow that order.
    """

    n: int
    quad: dict[tuple[int, int], float]
    lin: np.ndarray
    konst: float = 0.0

    # derived, filled in __post_init__
    edge_i: np.ndarray = field(init=False, repr=False)
    edge_j: np.ndarray = field(init=False, repr=False)
    edge_w: np.ndarray = field(init=False, repr=False)
    edge_list: list[tuple[int, int]] = field(init=False, repr=False)
    adjacency: list[dict[int, float]] = field(init=False, repr=False)

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
        self.edge_list = list(zip(self.edge_i.tolist(), self.edge_j.tolist()))
        # in sorted edge order, v's smaller neighbors i (edges (i, v)) arrive
        # in ascending i before its larger ones, so each dict is in ascending order
        self.adjacency = [{} for _ in range(self.n)]
        for (i, j), w in zip(self.edge_list, self.edge_w.tolist()):
            self.adjacency[i][j] = w
            self.adjacency[j][i] = w

    @property
    def num_edges(self) -> int:
        return len(self.edge_w)


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


def save_instance(inst: QuboInstance, path) -> None:
    """Write the structured-text instance file {n, edges, linear, constant}."""
    doc = {
        "n": inst.n,
        "edges": [[int(i), int(j), inst.quad[(i, j)]] for i, j in sorted(inst.quad)],
        "linear": [float(v) for v in inst.lin],
        "constant": float(inst.konst),
    }
    write_json(doc, path)


def load_instance(path) -> QuboInstance:
    """Read what ``save_instance`` wrote; anything else raises ``FormatError``
    naming the file. ``n`` and the edge ends must be integers, every
    coefficient a finite number, and no (i, j) may be listed twice."""
    doc = read_object(path, ("n", "edges", "linear", "constant"))
    n, edges, lin, konst = doc["n"], doc["edges"], doc["linear"], doc["constant"]
    if not is_int(n):
        raise FormatError(f"{path}: n {n!r} is not an integer")
    if not (isinstance(edges, list) and all(isinstance(e, list) and len(e) == 3 and is_int_list(e[:2]) for e in edges)):
        raise FormatError(f"{path}: edges are not [i, j, coefficient] lists with integer i and j")
    if not isinstance(lin, list):
        raise FormatError(f"{path}: linear is not a list")
    if not all(map(is_finite, [*(e[2] for e in edges), *lin, konst])):
        raise FormatError(f"{path}: non-finite or non-numeric coefficient")
    quad = {(i, j): float(w) for i, j, w in edges}
    if len(quad) != len(edges):
        raise FormatError(f"{path}: an edge (i, j) is listed twice")
    try:
        return QuboInstance(n=n, quad=quad, lin=np.array(lin, dtype=np.float64), konst=float(konst))
    except ValueError as exc:
        raise FormatError(f"bad instance file {path}: {exc}") from exc


def load_instance_csv(path) -> QuboInstance:
    """Import a dense upper-triangular coefficient matrix from CSV.

    The strict upper triangle holds quadratic coefficients and the diagonal
    holds linear ones (x_i^2 = x_i for binary x). Nonzero entries below the
    diagonal are rejected rather than silently folded. Text that is not a
    table of numbers, or a non-finite entry, raises ``FormatError``.
    """
    try:
        with warnings.catch_warnings():  # an empty file is refused as not square below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            mat = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise FormatError(f"bad coefficient CSV {path}: {exc}") from exc
    if not np.isfinite(mat).all():
        raise FormatError(f"{path}: non-finite coefficient")
    if mat.shape[0] != mat.shape[1]:
        raise FormatError(f"{path}: coefficient matrix must be square, got {mat.shape}")
    n = mat.shape[0]
    low = np.tril(mat, k=-1)
    if np.any(low != 0.0):
        r, c = np.argwhere(low != 0.0)[0]
        raise FormatError(f"{path}: nonzero lower-triangle entry at row {r}, col {c}")
    quad = {
        (i, j): float(mat[i, j])
        for i in range(n)
        for j in range(i + 1, n)
        if mat[i, j] != 0.0
    }
    return QuboInstance(n=n, quad=quad, lin=np.diag(mat).copy(), konst=0.0)
