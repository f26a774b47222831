"""Tests for IDX parsing, mutual information, the selection QUBO, and the
mask classifier."""

import itertools
import math

import mpmath
import numpy as np
import pytest

from blockmc import features, idx, qaoa, qubo
from blockmc.errors import FormatError
from blockmc.streams import stream


def synthetic_dataset(n_samples=2000, n_pixels=8, n_classes=3, seed=1, informative=3, n_classes_declared=None):
    """Labeled binary data where the first pixels track the label; labels are
    drawn from ``n_classes`` of ``n_classes_declared`` (default all) classes."""
    rng = stream(seed)
    labels = rng.integers(0, n_classes, size=n_samples)
    images = (rng.random((n_samples, n_pixels)) < 0.3).astype(np.uint8)
    for p in range(informative):
        flip = rng.random(n_samples) < 0.85
        images[:, p] = np.where(flip, (labels + p) % 2, images[:, p])
    return features.LabeledDataset(images=images, labels=labels, n_classes=n_classes_declared or n_classes)


def exhaustive_minimum(inst, k):
    """Exact weight-k minimizer of ``inst`` and its energy, by direct enumeration."""
    best_x, best_e = None, np.inf
    x = np.zeros(inst.n, dtype=np.uint8)
    for combo in itertools.combinations(range(inst.n), k):
        x[:] = 0
        x[list(combo)] = 1
        e = qubo.energy(inst, x)
        if e < best_e:
            best_e, best_x = e, x.copy()
    return best_x, float(best_e)


# Pointwise plug-in estimators: the per-pixel reference for build_mi_table.


def _mi_from_joint(joint: np.ndarray) -> float:
    """Plug-in mutual information (nats) from a joint count table."""
    total = joint.sum()
    if total == 0:
        return 0.0
    p = joint / total
    pa = p.sum(axis=1, keepdims=True)
    pb = p.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * np.log(p / (pa * pb))
    return max(0.0, float(np.sum(terms[joint > 0])))


def mutual_info_feature_label(ds: features.LabeledDataset, i: int) -> float:
    """I(z_i; y) from empirical frequencies; 0 log 0 terms contribute 0."""
    if len(ds.images) == 0:
        raise ValueError("empty dataset")
    joint = np.zeros((2, ds.n_classes))
    z = ds.images[:, i]
    for c in range(ds.n_classes):
        sel = ds.labels == c
        ones = int(z[sel].sum())
        joint[1, c] = ones
        joint[0, c] = int(sel.sum()) - ones
    return _mi_from_joint(joint)


def mutual_info_pairwise(ds: features.LabeledDataset, i: int, j: int) -> float:
    """I(z_i; z_j); reduces to the entropy H(z_i) when i == j."""
    if len(ds.images) == 0:
        raise ValueError("empty dataset")
    zi = ds.images[:, i].astype(np.int64)
    zj = ds.images[:, j].astype(np.int64)
    joint = np.zeros((2, 2))
    np.add.at(joint, (zi, zj), 1.0)
    return _mi_from_joint(joint)


def mi_oracle(joint_counts):
    """High-precision plug-in MI with mpmath."""
    mpmath.mp.dps = 40
    joint = [[mpmath.mpf(int(v)) for v in row] for row in joint_counts]
    total = mpmath.fsum(v for row in joint for v in row)
    pa = [mpmath.fsum(row) / total for row in joint]
    pb = [mpmath.fsum(joint[a][b] for a in range(len(joint))) / total
          for b in range(len(joint[0]))]
    acc = mpmath.mpf(0)
    for a, row in enumerate(joint):
        for b, v in enumerate(row):
            if v > 0:
                p = v / total
                acc += p * mpmath.log(p / (pa[a] * pb[b]))
    return float(acc)


class TestIdx:
    def test_roundtrip(self, tmp_path):
        rng = stream(2)
        images = rng.integers(0, 256, size=(3, 5, 4)).astype(np.uint8)
        labels = np.array([1, 0, 2], dtype=np.uint8)
        ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
        idx.write_idx_images(ip, images)
        idx.write_idx_labels(lp, labels)
        bi, bl = idx.load_idx(ip, lp)
        assert np.array_equal(bi, images)
        assert np.array_equal(bl, labels)
        # byte-exact round trip of the files themselves
        idx.write_idx_images(tmp_path / "img2.idx", bi)
        assert (tmp_path / "img.idx").read_bytes() == (tmp_path / "img2.idx").read_bytes()

    def test_truncated_file(self, tmp_path):
        rng = stream(3)
        images = rng.integers(0, 256, size=(3, 4, 4)).astype(np.uint8)
        path = tmp_path / "img.idx"
        idx.write_idx_images(path, images)
        good = path.read_bytes()
        path.write_bytes(good[:-5])
        with pytest.raises(FormatError, match="expected"):
            idx.load_idx_images(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"\x00\x00\x09\x99" + b"\x00" * 12)
        with pytest.raises(FormatError, match="magic"):
            idx.load_idx_images(path)

    def test_count_mismatch(self, tmp_path):
        rng = stream(4)
        idx.write_idx_images(tmp_path / "i.idx", rng.integers(0, 256, (3, 2, 2)).astype(np.uint8))
        idx.write_idx_labels(tmp_path / "l.idx", np.array([1, 2], dtype=np.uint8))
        with pytest.raises(FormatError, match="mismatch"):
            idx.load_idx(tmp_path / "i.idx", tmp_path / "l.idx")


class TestBinarize:
    def test_all_zero_image(self):
        ds = features.binarize(np.zeros((2, 3, 3), dtype=np.uint8), np.array([0, 1]))
        assert np.all(ds.images == 0)

    def test_threshold_255_all_zero(self):
        rng = stream(5)
        raw = rng.integers(0, 256, size=(4, 3, 3)).astype(np.uint8)
        ds = features.binarize(raw, np.zeros(4, dtype=np.int64), threshold=255)
        assert np.all(ds.images == 0)

    def test_ones_fraction_matches_recount(self):
        rng = stream(6)
        raw = rng.integers(0, 256, size=(10, 4, 4)).astype(np.uint8)
        ds = features.binarize(raw, np.zeros(10, dtype=np.int64), threshold=127)
        naive = sum(1 for v in raw.reshape(-1) if v > 127)
        assert int(ds.images.sum()) == naive

    @pytest.mark.parametrize(
        "images", [np.array([[0, -1]]), np.array([[0.0, 0.5]]), np.array([[2, 0]])],
        ids=["negative", "float", "above-one"],
    )
    def test_non_binary_images_rejected(self, images):
        with pytest.raises(ValueError):
            features.LabeledDataset(images=images, labels=np.zeros(1, dtype=np.int64), n_classes=1)

    def test_downsample(self):
        raw = np.arange(16, dtype=np.uint8).reshape(1, 4, 4)
        small = features.downsample(raw, 2)
        assert small.shape == (1, 2, 2)
        assert small[0, 0, 0] == (0 + 1 + 4 + 5) // 4


class TestMutualInfo:
    def test_constant_pixel_zero(self):
        ds = synthetic_dataset()
        ds.images[:, 5] = 1
        assert mutual_info_feature_label(ds, 5) == 0.0

    def test_pixel_equals_label(self):
        rng = stream(7)
        labels = rng.integers(0, 2, size=4000)
        images = labels[:, None].astype(np.uint8)
        ds = features.LabeledDataset(images=images, labels=labels, n_classes=2)
        got = mutual_info_feature_label(ds, 0)
        p1 = labels.mean()
        h = -(p1 * math.log(p1) + (1 - p1) * math.log(1 - p1))
        assert got == pytest.approx(h, abs=1e-12)

    def test_matches_high_precision_oracle(self):
        ds = synthetic_dataset(seed=8)
        for i in range(ds.n_pixels):
            joint = np.zeros((2, ds.n_classes), dtype=np.int64)
            for c in range(ds.n_classes):
                sel = ds.labels == c
                joint[1, c] = ds.images[sel, i].sum()
                joint[0, c] = sel.sum() - joint[1, c]
            assert mutual_info_feature_label(ds, i) == pytest.approx(
                mi_oracle(joint), abs=1e-12
            )

    def test_self_information_is_entropy(self):
        ds = synthetic_dataset(seed=9)
        p = ds.images[:, 0].mean()
        h = -(p * math.log(p) + (1 - p) * math.log(1 - p))
        assert mutual_info_pairwise(ds, 0, 0) == pytest.approx(h, abs=1e-12)

    def test_independent_pixels_near_zero(self):
        rng = stream(10)
        images = (rng.random((100_000, 2)) < 0.5).astype(np.uint8)
        ds = features.LabeledDataset(images=images, labels=np.zeros(100_000, dtype=np.int64), n_classes=1)
        assert mutual_info_pairwise(ds, 0, 1) < 5e-4

    def test_duplicated_pixel_equals_entropy(self):
        ds = synthetic_dataset(seed=11)
        ds.images[:, 3] = ds.images[:, 0]
        h = mutual_info_pairwise(ds, 0, 0)
        assert mutual_info_pairwise(ds, 0, 3) == pytest.approx(h, abs=1e-12)

    def test_symmetry(self):
        ds = synthetic_dataset(seed=12)
        for i, j in ((0, 1), (2, 5), (3, 7)):
            assert mutual_info_pairwise(ds, i, j) == pytest.approx(
                mutual_info_pairwise(ds, j, i), abs=1e-14
            )

    def test_table_matches_pointwise_ops(self):
        ds = synthetic_dataset(seed=13)
        table = features.build_mi_table(ds)
        for i in range(ds.n_pixels):
            assert table.feature_label[i] == pytest.approx(
                mutual_info_feature_label(ds, i), abs=1e-10
            )
        for (i, j), v in table.pairwise.items():
            assert v == pytest.approx(mutual_info_pairwise(ds, i, j), abs=1e-10)


class TestBuildFeatureQubo:
    def test_pure_linear_optimum_is_top_k(self):
        mi = features.MiTable(
            feature_label=np.array([0.5, 0.1, 0.9, 0.3, 0.7]), pairwise={}
        )
        inst = features.build_feature_qubo(mi, k=2, edge_threshold=1e-3)
        best, _ = exhaustive_minimum(inst, 2)
        assert set(np.flatnonzero(best)) == {2, 4}

    def test_infinite_threshold_edgeless(self):
        ds = synthetic_dataset(seed=14)
        mi = features.build_mi_table(ds)
        inst = features.build_feature_qubo(mi, k=3, edge_threshold=np.inf)
        assert inst.num_edges == 0

    def test_structure_invariants(self):
        ds = synthetic_dataset(seed=15)
        mi = features.build_mi_table(ds)
        inst = features.build_feature_qubo(mi, k=4, edge_threshold=1e-3)
        assert np.all(inst.lin <= 0.0)
        assert all(w >= 1e-3 for w in inst.quad.values())
        assert inst.konst == 0.0

    def test_exhaustive_mask_oracle(self):
        """QUBO minimizer equals brute-force best mask over C(12, 4)."""
        ds = synthetic_dataset(n_samples=3000, n_pixels=12, seed=16, informative=5)
        mi = features.build_mi_table(ds)
        inst = features.build_feature_qubo(mi, k=4, edge_threshold=1e-4)
        best_bits, best_e = exhaustive_minimum(inst, 4)
        # independent recomputation straight from the MI table
        oracle_best, oracle_e = None, np.inf
        for combo in itertools.combinations(range(12), 4):
            e = -sum(mi.feature_label[i] for i in combo)
            for a, b in itertools.combinations(sorted(combo), 2):
                v = mi.pairwise.get((a, b), 0.0) / 3
                e += v if v >= 1e-4 else 0.0
            if e < oracle_e:
                oracle_e, oracle_best = e, combo
        assert set(np.flatnonzero(best_bits)) == set(oracle_best)
        assert best_e == pytest.approx(oracle_e, abs=1e-12)

    def test_k_below_two_rejected(self):
        mi = features.MiTable(feature_label=np.zeros(4), pairwise={})
        with pytest.raises(ValueError):
            features.build_feature_qubo(mi, k=1)


def per_image_accuracy(ds_train, ds_test, mask, reg_strength=1e-4, iterations=500, learning_rate=0.5):
    """Reference classifier: the same descent with one row per training image."""
    idx_ = np.flatnonzero(mask)
    x_train = ds_train.images[:, idx_].astype(np.float64)
    x_test = ds_test.images[:, idx_].astype(np.float64)
    m, d = x_train.shape
    c = ds_train.n_classes
    y = np.zeros((m, c))
    y[np.arange(m), ds_train.labels] = 1.0
    w = np.zeros((c, d))
    b = np.zeros(c)
    for _ in range(iterations):
        probs = features._softmax(x_train @ w.T + b)
        err = probs - y
        grad_w = err.T @ x_train / m + reg_strength * w
        grad_b = err.sum(axis=0) / m
        w -= learning_rate * grad_w
        b -= learning_rate * grad_b
    pred = np.argmax(x_test @ w.T + b, axis=1)
    return float(np.mean(pred == ds_test.labels))


def distinct_dataset(n_rows, n_pixels, n_classes, seed):
    """Every image a different pixel pattern."""
    rng = stream(seed)
    codes = rng.choice(2**n_pixels, size=n_rows, replace=False)
    images = ((codes[:, None] >> np.arange(n_pixels)) & 1).astype(np.uint8)
    labels = rng.integers(0, n_classes, size=n_rows)
    return features.LabeledDataset(images=images, labels=labels, n_classes=n_classes)


def first_pixels(n_pixels, k):
    mask = np.zeros(n_pixels, dtype=np.uint8)
    mask[:k] = 1
    return mask


class TestEvaluateMask:
    @pytest.mark.parametrize(
        "train, test, mask",
        [
            (synthetic_dataset(seed=21), None, first_pixels(8, 3)),
            (distinct_dataset(300, 12, 3, seed=22), None, first_pixels(12, 12)),
            (synthetic_dataset(seed=23), None, first_pixels(8, 1)),
            (synthetic_dataset(seed=24, n_classes=3, n_classes_declared=5), None, first_pixels(8, 4)),
            (synthetic_dataset(seed=25), synthetic_dataset(n_samples=500, seed=26), first_pixels(8, 5)),
        ],
        ids=["duplicated-rows", "all-distinct", "k-1", "class-absent-from-train", "separate-test"],
    )
    def test_matches_per_image_descent(self, train, test, mask):
        if test is None:
            test = train
        for iterations in (50, 500):
            assert features.evaluate_mask(train, test, mask, iterations=iterations) == per_image_accuracy(
                train, test, mask, iterations=iterations
            )

    @pytest.mark.parametrize("n_pixels", [1, 8, 9, 70])
    def test_distinct_rows_regroup_the_input(self, n_pixels):
        rng = stream(27, n_pixels)
        x = (rng.random((400, n_pixels)) < 0.1).astype(np.uint8)
        firsts, group = features.row_groups(x)
        rows = x[firsts]
        np.testing.assert_array_equal(rows[group], x)
        assert len({r.tobytes() for r in rows}) == len(rows)

    def test_constant_pixels_majority_rate(self):
        rng = stream(17)
        labels = np.concatenate([np.zeros(700), np.ones(300)]).astype(np.int64)
        labels = labels[rng.permutation(1000)]
        images = np.ones((1000, 4), dtype=np.uint8)
        ds = features.LabeledDataset(images=images, labels=labels, n_classes=2)
        mask = np.array([1, 1, 0, 0], dtype=np.uint8)
        acc = features.evaluate_mask(ds, ds, mask)
        assert acc == pytest.approx(0.7, abs=1e-9)

    def test_separable_classes(self):
        rng = stream(18)
        labels = rng.integers(0, 2, size=2000)
        images = np.zeros((2000, 6), dtype=np.uint8)
        images[:, 0] = labels  # perfectly informative pixel
        images[:, 1:] = (rng.random((2000, 5)) < 0.5).astype(np.uint8)
        ds = features.LabeledDataset(images=images, labels=labels, n_classes=2)
        mask = np.array([1, 1, 0, 0, 0, 0], dtype=np.uint8)
        train = features.LabeledDataset(images[:1500], labels[:1500], 2)
        test = features.LabeledDataset(images[1500:], labels[1500:], 2)
        assert features.evaluate_mask(train, test, mask) >= 0.99

    def test_deterministic(self):
        ds = synthetic_dataset(seed=19)
        mask = np.array([1, 1, 1, 0, 0, 0, 0, 0], dtype=np.uint8)
        a = features.evaluate_mask(ds, ds, mask)
        b = features.evaluate_mask(ds, ds, mask)
        assert a == b

    def test_empty_mask_rejected(self):
        ds = synthetic_dataset(seed=20)
        with pytest.raises(ValueError, match="empty mask"):
            features.evaluate_mask(ds, ds, np.zeros(8, dtype=np.uint8))


class TestBiasedAngle:
    def test_zero_target(self):
        assert qaoa.angle_for_weight(16, 0.0) == 0.0

    def test_half_target_uniform(self):
        assert qaoa.angle_for_weight(16, 8.0) == pytest.approx(math.pi / 2)

    def test_sampled_mean_weight(self):
        angle = qaoa.angle_for_weight(16, 2.0)
        psi = qaoa.prepare_initial_state(16, angle)
        rng = stream(21)
        drawn = qaoa._sample_rows(np.abs(psi[None]) ** 2, 10_000, rng)[0]
        w = qaoa.basis(16).weight[drawn]
        assert abs(w.mean() - 2.0) < 0.1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            qaoa.angle_for_weight(8, 9.0)


class TestMaskHelpers:
    def test_top_k_linear(self):
        mi = features.MiTable(
            feature_label=np.array([0.5, 0.1, 0.9, 0.3, 0.7]), pairwise={}
        )
        inst = features.build_feature_qubo(mi, k=2)
        mask = features.top_k_linear_mask(inst, 2)
        assert mask.dtype == np.uint8
        assert set(np.flatnonzero(mask)) == {2, 4}

    def test_mask_io(self, tmp_path):
        mask = np.array([0, 1, 0, 1, 1], dtype=np.uint8)
        path = tmp_path / "mask.txt"
        features.save_mask(mask, path)
        back = np.zeros(5, dtype=np.uint8)
        back[[int(line) for line in path.read_text().split()]] = 1
        assert np.array_equal(back, mask)
