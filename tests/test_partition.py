"""Tests for greedy partition construction and the crossing repair."""

import json

import numpy as np
import pytest

from blockmc import partition, qubo
from blockmc.errors import FormatError
from blockmc.streams import stream


def path_instance():
    # 0-1-2-3 with weights 5, 1, 5
    return qubo.QuboInstance(
        n=4, quad={(0, 1): 5.0, (1, 2): 1.0, (2, 3): 5.0}, lin=np.zeros(4), konst=0.0
    )


def intra_block_coupling(inst, blocks):
    """Total |Q_ij| over edges with both endpoints in the same block."""
    total = 0.0
    for b in blocks:
        members = set(b.vertices)
        for v in b.vertices:
            for u, wu in inst.adjacency[v].items():
                if u > v and int(u) in members:
                    total += abs(wu)
    return total


def assert_partition(blocks, n):
    seen = sorted(v for b in blocks for v in b.vertices)
    assert seen == list(range(n))


class TestBuildPartition:
    def test_path_graph_greedy(self):
        """Whatever the seed vertex, greedy takes the weight-5 neighbor first."""
        inst = path_instance()
        for seed in range(6):
            blocks = partition.build_partition(inst, [2, 2], seed=seed)
            groups = {frozenset(b.vertices) for b in blocks}
            assert groups == {frozenset({0, 1}), frozenset({2, 3})}

    def test_edgeless_graph_fallback(self):
        inst = qubo.QuboInstance(n=4, quad={}, lin=np.zeros(4), konst=0.0)
        blocks = partition.build_partition(inst, [2, 2], seed=3)
        assert_partition(blocks, 4)

    def test_size_sum_mismatch(self):
        inst = path_instance()
        with pytest.raises(ValueError):
            partition.build_partition(inst, [2, 3], seed=0)

    def test_deterministic(self):
        inst = qubo.gen_regular_instance(16, 3, seed=1)
        a = partition.build_partition(inst, [4] * 4, seed=7)
        b = partition.build_partition(inst, [4] * 4, seed=7)
        assert [x.vertices for x in a] == [x.vertices for x in b]

    def test_partition_property(self):
        inst = qubo.gen_regular_instance(32, 3, seed=2)
        blocks = partition.build_partition(inst, [4] * 8, seed=5)
        assert_partition(blocks, 32)

    def test_beats_random_partitions(self):
        """Greedy intra-block coupling should top 100 random partitions."""
        wins = 0
        for trial in range(100):
            inst = qubo.gen_regular_instance(16, 3, seed=1000 + trial)
            greedy = partition.build_partition(inst, [4] * 4, seed=trial)
            g_score = intra_block_coupling(inst, greedy)
            rng = stream(55, trial)
            best_random = -np.inf
            for _ in range(100):
                perm = rng.permutation(16)
                blocks = [
                    partition.Block(id=(1, m), vertices=list(map(int, perm[4 * m : 4 * m + 4])))
                    for m in range(4)
                ]
                best_random = max(best_random, intra_block_coupling(inst, blocks))
            if g_score >= best_random:
                wins += 1
        assert wins >= 95


class TestBuildPartitionPair:
    def test_crossing_invariant_small(self):
        inst = qubo.gen_regular_instance(8, 3, seed=4)
        pp = partition.build_partition_pair(inst, [4, 4], [4, 4], seed=11)
        report = partition.crossing_report(pp)
        assert report.violating_blocks == []
        assert report.min_crossing >= 2

    def test_single_block_vacuous(self):
        quad = {(i, j): 1.0 for i in range(4) for j in range(i + 1, 4)}
        inst = qubo.QuboInstance(n=4, quad=quad, lin=np.zeros(4), konst=0.0)
        pp = partition.build_partition_pair(inst, [4], [4], seed=0)
        report = partition.crossing_report(pp)
        assert report.violating_blocks == []
        assert report.vacuous  # flagged degenerate

    def test_crossing_matrix_row_sums(self):
        inst = qubo.gen_regular_instance(32, 3, seed=8)
        pp = partition.build_partition_pair(inst, [4] * 8, [4] * 8, seed=21)
        sums = pp.crossing.sum(axis=1)
        assert np.all(sums == 4)
        assert np.all((pp.crossing > 0).sum(axis=1) >= 2)

    def test_both_sides_partition_everything(self):
        inst = qubo.gen_regular_instance(24, 3, seed=3)
        pp = partition.build_partition_pair(inst, [6] * 4, [4] * 6, seed=2)
        assert_partition(pp.p1, 24)
        assert_partition(pp.p2, 24)

    def test_deterministic(self):
        inst = qubo.gen_regular_instance(16, 3, seed=6)
        a = partition.build_partition_pair(inst, [4] * 4, [4] * 4, seed=9)
        b = partition.build_partition_pair(inst, [4] * 4, [4] * 4, seed=9)
        assert [x.vertices for x in a.p2] == [x.vertices for x in b.p2]
        assert np.array_equal(a.crossing, b.crossing)


class TestCrossingReport:
    def test_identical_partitions_all_violating(self):
        inst = qubo.gen_regular_instance(8, 3, seed=4)
        p1 = partition.build_partition(inst, [4, 4], seed=1, partition_index=1)
        p2 = [partition.Block(id=(2, b.id[1]), vertices=list(b.vertices)) for b in p1]
        pp = partition.PartitionPair(p1=p1, p2=p2)
        report = partition.crossing_report(pp)
        assert report.min_crossing == 1
        assert report.violating_blocks == [0, 1]

    def test_matches_bruteforce_recount(self):
        inst = qubo.gen_regular_instance(64, 3, seed=10)
        pp = partition.build_partition_pair(inst, [8] * 8, [8] * 8, seed=13)
        for r, b2 in enumerate(pp.p2):
            for c, b1 in enumerate(pp.p1):
                expected = len(set(b2.vertices) & set(b1.vertices))
                assert pp.crossing[r, c] == expected


class TestHelpers:
    def test_spread_block_sizes(self):
        assert partition.spread_block_sizes(64, 8) == [8] * 8
        sizes = partition.spread_block_sizes(64, 6)
        assert sum(sizes) == 64
        assert max(sizes) - min(sizes) <= 1
        assert partition.spread_block_sizes(196, 12) == [13] * 4 + [12] * 12

    def test_io_roundtrip(self, tmp_path):
        inst = qubo.gen_regular_instance(16, 3, seed=6)
        pp = partition.build_partition_pair(inst, [4] * 4, [4] * 4, seed=9)
        path = tmp_path / "pp.json"
        partition.save_partition_pair(pp, path)
        back = partition.load_partition_pair(path)
        assert [b.vertices for b in back.p1] == [b.vertices for b in pp.p1]
        assert [b.vertices for b in back.p2] == [b.vertices for b in pp.p2]
        assert np.array_equal(back.crossing, pp.crossing)


class TestLoadPartitionPair:
    """A malformed partition.json raises FormatError, never a decode error."""

    def _doc(self, tmp_path):
        inst = qubo.gen_regular_instance(12, 3, seed=6)
        pp = partition.build_partition_pair(inst, [4] * 3, [4] * 3, seed=9)
        path = tmp_path / "pp.json"
        partition.save_partition_pair(pp, path)
        return path, json.loads(path.read_text())

    def _rejects(self, path, doc, match):
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=match):
            partition.load_partition_pair(path)

    def test_truncated_json(self, tmp_path):
        path, _ = self._doc(tmp_path)
        raw = path.read_bytes()
        for cut in range(len(raw) - 1):  # the last byte is the newline
            path.write_bytes(raw[:cut])
            with pytest.raises(FormatError):
                partition.load_partition_pair(path)

    def test_invalid_utf8(self, tmp_path):
        path, _ = self._doc(tmp_path)
        path.write_bytes(b'{"p1": "\xff"}')
        with pytest.raises(FormatError, match="invalid JSON"):
            partition.load_partition_pair(path)

    def test_not_an_object(self, tmp_path):
        path, _ = self._doc(tmp_path)
        self._rejects(path, [1, 2], "not an object")

    def test_missing_keys(self, tmp_path):
        path, _ = self._doc(tmp_path)
        self._rejects(path, {"p1": 3}, "missing keys")

    def test_blocks_not_int_lists(self, tmp_path):
        path, doc = self._doc(tmp_path)
        for bad in (3, {"s": 1}, {"blocks": doc["p1"]}, [], [[]], [[0, 1.5]], [[0, True]], [["0"]]):
            self._rejects(path, {**doc, "p1": bad}, "p1 is not a non-empty list of non-empty int lists")

    def test_vertex_out_of_range(self, tmp_path):
        path, doc = self._doc(tmp_path)
        doc["p2"][0][0] = 12
        self._rejects(path, doc, r"p2 does not hold every vertex of \[0, 12\)")
        doc["p2"][0][0] = -1
        self._rejects(path, doc, "p2 does not hold")

    def test_vertex_repeated(self, tmp_path):
        path, doc = self._doc(tmp_path)
        doc["p1"][0][1] = doc["p1"][0][0]
        self._rejects(path, doc, "p1 does not hold")
