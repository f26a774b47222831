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

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError
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


@dataclass
class PartitionPair:
    """Two partitions plus the matrix of pairwise block intersections.

    ``crossing[m2][m1]`` is |p2 block m2 ∩ p1 block m1|. ``degraded`` is set
    when the swap repair could not make every p2 block cross at least two
    p1 blocks within its budget.
    """

    p1: list[Block]
    p2: list[Block]
    crossing: np.ndarray
    degraded: bool = False
    notes: list[str] = field(default_factory=list)


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


def intra_block_coupling(inst: QuboInstance, blocks: list[Block]) -> float:
    """Total |Q_ij| over edges with both endpoints in the same block."""
    total = 0.0
    for b in blocks:
        members = set(b.vertices)
        for v in b.vertices:
            nbr, w = inst.neighbors(v)
            for u, wu in zip(nbr, w):
                if u > v and int(u) in members:
                    total += abs(wu)
    return total


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
    nbr, w = inst.neighbors(v)
    for u, wu in zip(nbr, w):
        if unassigned[u]:
            score[int(u)] = score.get(int(u), 0.0) + abs(wu)


def build_partition_pair(
    inst: QuboInstance, sizes1: list[int], sizes2: list[int], seed: int
) -> PartitionPair:
    """Build both partitions and repair p2 until it crosses p1's boundaries.

    Repair swaps a boundary vertex of a non-crossing p2 block with a vertex
    of an adjacent p2 block drawn from a different p1 block, choosing the
    swap that loses the least intra-block |coupling|. The budget is n swaps;
    exhaustion marks the pair degraded instead of failing.
    """
    p1 = build_partition(inst, sizes1, derive_seed(seed, 1), partition_index=1)
    p2 = build_partition(inst, sizes2, derive_seed(seed, 2), partition_index=2)
    owner1 = np.empty(inst.n, dtype=np.intp)
    for b in p1:
        owner1[b.vertices] = b.id[1]
    notes: list[str] = []
    degraded = False
    if len(p1) == 1 or len(p2) == 1:
        notes.append("single-block partition: crossing requirement vacuous")
    else:
        swaps = 0
        while swaps < inst.n:
            violating = _violating_blocks(p2, owner1, len(p1))
            if not violating:
                break
            m2 = violating[0]
            pair = _best_repair_swap(inst, p2, m2, owner1)
            if pair is None:
                break
            (bv, vi), (bu, ui) = pair
            p2[bv].vertices[vi], p2[bu].vertices[ui] = (
                p2[bu].vertices[ui],
                p2[bv].vertices[vi],
            )
            swaps += 1
        remaining = _violating_blocks(p2, owner1, len(p1))
        if remaining:
            degraded = True
            notes.append(
                f"crossing repair exhausted after {swaps} swaps; "
                f"p2 blocks {remaining} still inside a single p1 block"
            )
    crossing = crossing_matrix(p1, p2, inst.n)
    return PartitionPair(p1=p1, p2=p2, crossing=crossing, degraded=degraded, notes=notes)


def crossing_matrix(p1: list[Block], p2: list[Block], n: int) -> np.ndarray:
    owner1 = np.empty(n, dtype=np.intp)
    for b in p1:
        owner1[b.vertices] = b.id[1]
    mat = np.zeros((len(p2), len(p1)), dtype=np.intp)
    for r, b in enumerate(p2):
        for v in b.vertices:
            mat[r, owner1[v]] += 1
    return mat


def _violating_blocks(p2, owner1, m1):
    out = []
    for r, b in enumerate(p2):
        met = {int(owner1[v]) for v in b.vertices}
        if len(met) < 2 and m1 > 1:
            out.append(r)
    return out


def _best_repair_swap(inst, p2, m2, owner1):
    """Cheapest (v in block m2) <-> (u in another p2 block) exchange that
    brings a foreign-p1 vertex into block m2."""
    block = p2[m2]
    members = set(block.vertices)
    home = int(owner1[block.vertices[0]])
    boundary = [
        (vi, v)
        for vi, v in enumerate(block.vertices)
        if any(int(u) not in members for u in inst.neighbors(v)[0])
    ] or list(enumerate(block.vertices))
    adjacent = set()
    loc2 = {}
    for r, b in enumerate(p2):
        for ui, u in enumerate(b.vertices):
            loc2[u] = (r, ui)
    for v in block.vertices:
        for u in inst.neighbors(v)[0]:
            r = loc2[int(u)][0]
            if r != m2:
                adjacent.add(r)
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
    nbr, w = inst.neighbors(v)
    wanted = set(others)
    return sum(abs(wu) for u, wu in zip(nbr, w) if int(u) in wanted)


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


def save_partition_pair(pp: PartitionPair, path) -> None:
    doc = {
        "p1": {"s": 1, "blocks": [list(map(int, b.vertices)) for b in pp.p1]},
        "p2": {"s": 2, "blocks": [list(map(int, b.vertices)) for b in pp.p2]},
        "crossing": pp.crossing.tolist(),
        "degraded": pp.degraded,
        "notes": pp.notes,
    }
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


def load_partition_pair(path) -> PartitionPair:
    """Read what ``save_partition_pair`` wrote; anything else raises ``FormatError``.

    Each partition must be a non-empty list of non-empty int lists that
    together hold every vertex 0..n-1 once, n being the size of p1, and
    ``crossing`` must hold one row per p2 block of one int per p1 block.
    """
    try:
        with open(path, "rb") as f:
            doc = json.loads(f.read())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top level is not an object")
    missing = sorted({"p1", "p2", "crossing", "degraded", "notes"} - doc.keys())
    if missing:
        raise FormatError(f"{path}: missing keys {missing}")
    parts = {}
    for name in ("p1", "p2"):
        blocks = doc[name].get("blocks") if isinstance(doc[name], dict) else None
        if not (isinstance(blocks, list) and blocks and all(_is_int_list(b) and b for b in blocks)):
            raise FormatError(f"{path}: {name}.blocks is not a list of non-empty int lists")
        parts[name] = blocks
    n = sum(map(len, parts["p1"]))
    for name, blocks in parts.items():
        if sorted(v for b in blocks for v in b) != list(range(n)):
            raise FormatError(f"{path}: {name} does not hold every vertex of [0, {n}) once")
    crossing = doc["crossing"]
    if not (
        isinstance(crossing, list)
        and len(crossing) == len(parts["p2"])
        and all(_is_int_list(row) and len(row) == len(parts["p1"]) for row in crossing)
    ):
        raise FormatError(
            f"{path}: crossing is not a {len(parts['p2'])}x{len(parts['p1'])} int matrix"
        )
    if not isinstance(doc["degraded"], bool):
        raise FormatError(f"{path}: degraded {doc['degraded']!r} is not a bool")
    if not (isinstance(doc["notes"], list) and all(isinstance(x, str) for x in doc["notes"])):
        raise FormatError(f"{path}: notes is not a list of strings")
    return PartitionPair(
        p1=[Block(id=(1, m), vertices=v) for m, v in enumerate(parts["p1"])],
        p2=[Block(id=(2, m), vertices=v) for m, v in enumerate(parts["p2"])],
        crossing=np.array(crossing, dtype=np.intp),
        degraded=doc["degraded"],
        notes=doc["notes"],
    )


def _is_int_list(v) -> bool:
    return isinstance(v, list) and all(isinstance(x, int) and not isinstance(x, bool) for x in v)
