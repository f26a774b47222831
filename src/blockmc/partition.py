"""Greedy block partitions of the interaction graph.

Two partitions of the vertex set are built by seeded greedy growth: each
block starts from a random unassigned vertex and repeatedly absorbs the
unassigned neighbor with the largest total |coupling| to the block, falling
back to a random unassigned vertex when the frontier is empty. The second
partition must cross the first's boundaries (every block of it meeting at
least two blocks of the first); a bounded swap repair enforces that where
the two greedy runs happen to agree too much.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .fileio import is_int_list, read_object, write_json
from .qubo import QuboInstance
from .streams import derive_seed, stream


@dataclass
class Block:
    """One block: (partition index s, block index m) plus its vertex list."""

    id: tuple[int, int]
    vertices: list[int]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError(f"block {self.id} is empty")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError(f"block {self.id} has duplicate vertices")

    @property
    def size(self) -> int:
        return len(self.vertices)


@dataclass(eq=False)
class PartitionPair:
    """Two partitions of the same n vertices.

    ``crossing[m2][m1]`` is |p2 block m2 ∩ p1 block m1|, computed from the
    blocks on each read.
    """

    p1: list[Block]
    p2: list[Block]

    @property
    def crossing(self) -> np.ndarray:
        return crossing_matrix(self.p1, self.p2, sum(b.size for b in self.p1))


@dataclass
class CrossingReport:
    min_crossing: int
    mean_crossing: float
    violating_blocks: list[int]
    vacuous: bool


def spread_block_sizes(n: int, target: int) -> list[int]:
    """Split n vertices into blocks of roughly ``target``, spreading remainder."""
    if not 1 <= target <= n:
        raise ValueError(f"target block size {target} out of range for n={n}")
    m = max(1, round(n / target))
    base, rem = divmod(n, m)
    return [base + 1] * rem + [base] * (m - rem)


def build_partition(
    inst: QuboInstance, block_sizes: list[int], seed: int, partition_index: int = 1
) -> list[Block]:
    """Grow blocks greedily by total absolute coupling.

    Each block seeds at a uniformly random unassigned vertex, then adds the
    unassigned neighbor maximizing the summed |Q| to current members (ties
    broken by lowest vertex index); a random unassigned vertex is added when
    no unassigned neighbor exists. Deterministic per seed.
    """
    if sum(block_sizes) != inst.n:
        raise ValueError(f"block sizes sum to {sum(block_sizes)}, expected n={inst.n}")
    if any(s < 1 for s in block_sizes):
        raise ValueError("every block size must be >= 1")
    rng = stream(seed, partition_index)
    unassigned = np.ones(inst.n, dtype=bool)
    blocks: list[Block] = []
    for m, size in enumerate(block_sizes):
        free = np.flatnonzero(unassigned)
        v0 = int(rng.choice(free))
        members = [v0]
        unassigned[v0] = False
        # running sum of |coupling| from each unassigned frontier vertex
        score: dict[int, float] = {}
        _absorb_neighbors(inst, v0, unassigned, score)
        while len(members) < size:
            if score:
                best_v, best_s = -1, -np.inf
                for v in sorted(score):
                    if score[v] > best_s:
                        best_v, best_s = v, score[v]
                v = best_v
                del score[v]
            else:
                v = int(rng.choice(np.flatnonzero(unassigned)))
            members.append(v)
            unassigned[v] = False
            _absorb_neighbors(inst, v, unassigned, score)
        blocks.append(Block(id=(partition_index, m), vertices=members))
    return blocks


def _absorb_neighbors(inst, v, unassigned, score):
    for u, wu in inst.adjacency[v].items():
        if unassigned[u]:
            score[u] = score.get(u, 0.0) + abs(wu)


def build_partition_pair(
    inst: QuboInstance, sizes1: list[int], sizes2: list[int], seed: int
) -> PartitionPair:
    """Build both partitions and repair p2 until it crosses p1's boundaries.

    Repair swaps a boundary vertex of a non-crossing p2 block with a vertex
    of an adjacent p2 block drawn from a different p1 block, choosing the
    swap that loses the least intra-block |coupling|. The blocks that still
    violate the rule are read after every swap from ``crossing_report``,
    the same check the CLI reports; a vacuous rule has none. The budget is
    n swaps; a pair still violating after it is returned as it stands, and
    ``crossing_report`` names its violating blocks.
    """
    p1 = build_partition(inst, sizes1, derive_seed(seed, 1), partition_index=1)
    p2 = build_partition(inst, sizes2, derive_seed(seed, 2), partition_index=2)
    owner1 = _owners(p1, inst.n)
    pp = PartitionPair(p1=p1, p2=p2)
    for _ in range(inst.n):
        violating = crossing_report(pp).violating_blocks
        pair = _best_repair_swap(inst, p2, violating[0], owner1) if violating else None
        if pair is None:
            break
        (bv, vi), (bu, ui) = pair
        p2[bv].vertices[vi], p2[bu].vertices[ui] = p2[bu].vertices[ui], p2[bv].vertices[vi]
    return pp


def _owners(blocks: list[Block], n: int) -> np.ndarray:
    """The index of the block that holds each of the n vertices."""
    owner = np.empty(n, dtype=np.intp)
    for b in blocks:
        owner[b.vertices] = b.id[1]
    return owner


def crossing_matrix(p1: list[Block], p2: list[Block], n: int) -> np.ndarray:
    owner1 = _owners(p1, n)
    mat = np.zeros((len(p2), len(p1)), dtype=np.intp)
    for r, b in enumerate(p2):
        for v in b.vertices:
            mat[r, owner1[v]] += 1
    return mat


def _best_repair_swap(inst, p2, m2, owner1):
    """Cheapest (v in block m2) <-> (u in another p2 block) exchange that
    brings a foreign-p1 vertex into block m2."""
    block = p2[m2]
    members = set(block.vertices)
    home = int(owner1[block.vertices[0]])
    boundary = [
        (vi, v)
        for vi, v in enumerate(block.vertices)
        if any(u not in members for u in inst.adjacency[v])
    ] or list(enumerate(block.vertices))
    owner2 = _owners(p2, inst.n).tolist()
    adjacent = {owner2[u] for v in block.vertices for u in inst.adjacency[v]} - {m2}
    candidates_blocks = sorted(adjacent) or [r for r in range(len(p2)) if r != m2]
    best = None
    best_loss = np.inf
    for vi, v in boundary:
        rest_v = [x for x in block.vertices if x != v]
        for r in candidates_blocks:
            other = p2[r]
            for ui, u in enumerate(other.vertices):
                if int(owner1[u]) == home:
                    continue
                rest_u = [x for x in other.vertices if x != u]
                loss = (
                    _coupling_to(inst, v, rest_v)
                    + _coupling_to(inst, u, rest_u)
                    - _coupling_to(inst, u, rest_v)
                    - _coupling_to(inst, v, rest_u)
                )
                if loss < best_loss:
                    best_loss = loss
                    best = ((m2, vi), (r, ui))
    return best


def _coupling_to(inst, v, others):
    wanted = set(others)
    return sum(abs(wu) for u, wu in inst.adjacency[v].items() if u in wanted)


def crossing_report(pp: PartitionPair) -> CrossingReport:
    """Min/mean number of p1 blocks met by each p2 block, plus violators."""
    met = (pp.crossing > 0).sum(axis=1)
    vacuous = len(pp.p1) == 1 or len(pp.p2) == 1
    violating = [] if vacuous else [int(r) for r in np.flatnonzero(met < 2)]
    return CrossingReport(
        min_crossing=int(met.min()),
        mean_crossing=float(met.mean()),
        violating_blocks=violating,
        vacuous=vacuous,
    )


_FORMAT = 2  # the layout of partition.json, named in the partition stage key


def save_partition_pair(pp: PartitionPair, path) -> None:
    """Write ``{"p1": blocks, "p2": blocks}``, each block its vertex list."""
    write_json({"p1": [b.vertices for b in pp.p1], "p2": [b.vertices for b in pp.p2]}, path)


def load_partition_pair(path) -> PartitionPair:
    """Read what ``save_partition_pair`` wrote; anything else raises ``FormatError``.

    Each partition must be a non-empty list of non-empty int lists that
    together hold every vertex 0..n-1 once, n being the size of p1.
    """
    doc = read_object(path, ("p1", "p2"))
    for name in ("p1", "p2"):
        blocks = doc[name]
        if not (isinstance(blocks, list) and blocks and all(is_int_list(b) and b for b in blocks)):
            raise FormatError(f"{path}: {name} is not a non-empty list of non-empty int lists")
    n = sum(map(len, doc["p1"]))
    for name in ("p1", "p2"):
        if sorted(v for b in doc[name] for v in b) != list(range(n)):
            raise FormatError(f"{path}: {name} does not hold every vertex of [0, {n}) once")
    return PartitionPair(
        p1=[Block(id=(1, m), vertices=v) for m, v in enumerate(doc["p1"])],
        p2=[Block(id=(2, m), vertices=v) for m, v in enumerate(doc["p2"])],
    )
