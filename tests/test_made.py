"""Tests for the conditional MADE: masking, likelihoods, gradients, training."""

import math

import numpy as np
import pytest

from blockmc import made, qaoa, qubo
from blockmc.partition import Block
from blockmc.streams import stream


def tiny_model(block_size, seed=0, widths=None):
    cfg = made.default_train_config(block_size)
    if widths is not None:
        cfg = made.TrainConfig(hidden_widths=widths)
    return made.build_model(block_size, cfg, seed=seed)


def zero_weights(model):
    for w in model.weights:
        w[:] = 0.0
    for b in model.biases:
        b[:] = 0.0
    for c in model.ctx_weights:
        c[:] = 0.0
    model._invalidate()
    return model


def synthetic_sample_set(samples, block_id=(1, 0)):
    samples = np.asarray(samples, dtype=np.uint8)
    return qaoa.BlockSampleSet(
        block_id=block_id,
        samples=samples,
        weights=samples.sum(axis=1).astype(np.int64),
        provenance=np.zeros(len(samples), dtype=np.int64),
    )


class TestBuildModel:
    def test_single_variable_depends_on_context_only(self):
        model = tiny_model(1, seed=3)
        x0 = np.array([0], dtype=np.uint8)
        x1 = np.array([1], dtype=np.uint8)
        # no dependence on the input bit itself
        assert model.logits(x0, 0)[0] == model.logits(x1, 0)[0]
        # but the context must reach the single output
        assert model.logits(x0, 0)[0] != model.logits(x0, 1)[0]

    def test_jacobian_sparsity(self):
        """Output t must ignore inputs at ordering positions >= t."""
        model = tiny_model(3, seed=5)
        rng = stream(6)
        for _ in range(20):
            x = rng.integers(0, 2, size=3).astype(np.uint8)
            base = model.logits(x, 1)
            for t_pos in range(3):
                y = x.copy()
                y[model.ordering[t_pos]] ^= 1
                out = model.logits(y, 1)
                for s_pos in range(t_pos + 1):
                    v = model.ordering[s_pos]
                    assert out[v] == base[v]

    def test_normalized_before_training(self):
        model = tiny_model(8, seed=7)
        for k in range(9):
            probs = made.exhaustive_conditional_distribution(model, k)
            assert probs.sum() == pytest.approx(1.0, abs=1e-6)

    def test_every_hidden_layer_has_context_carrier(self):
        """A degree-0 unit must exist so k can reach the first conditional."""
        for seed in range(10):
            model = tiny_model(4, seed=seed)
            first = model.ordering[0]
            assert np.any(model.masks[-1][first] > 0)


class TestLogProb:
    def test_zero_weights_uniform(self):
        model = zero_weights(tiny_model(5, seed=1))
        x = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        for k in range(6):
            assert model.log_prob(x, k) == pytest.approx(5 * math.log(0.5))

    def test_exhaustive_normalization(self):
        model = tiny_model(6, seed=2)
        for k in (0, 3, 6):
            probs = made.exhaustive_conditional_distribution(model, k)
            assert abs(np.log(probs.sum())) < 1e-6

    def test_context_out_of_range(self):
        model = tiny_model(4, seed=3)
        with pytest.raises(ValueError):
            model.log_prob(np.zeros(4, dtype=np.uint8), 5)

    def test_training_improves_heldout(self):
        """Weight-concentrated data: trained beats untrained on held-out LL."""
        rng = stream(11)
        rows = np.zeros((4000, 6), dtype=np.uint8)
        for r in range(4000):
            rows[r, rng.choice(6, size=2, replace=False)] = 1
        rows[:, 0] |= rows[:, 1]  # correlate the first two positions
        data = synthetic_sample_set(rows[:3000])
        held = rows[3000:]
        ks = held.sum(axis=1).astype(np.int64)
        cfg = made.default_train_config(6, epochs=30, seed=4)
        untrained = made.build_model(6, cfg, seed=9)
        before = float(np.mean(made.log_prob_batch(untrained, held, ks)))
        model = made.build_model(6, cfg, seed=9)
        made.train(model, data, cfg)
        after = float(np.mean(made.log_prob_batch(model, held, ks)))
        assert after > before


class TestSample:
    def test_zero_weights_fair_coin(self):
        model = zero_weights(tiny_model(4, seed=1))
        rng = stream(12)
        bits, _ = made.sample_batch(model, 2, 10_000, rng)
        frac = bits.mean(axis=0)
        assert np.all(np.abs(frac - 0.5) < 0.02)

    def test_returned_logprob_consistent(self):
        model = tiny_model(5, seed=4)
        rng = stream(13)
        for k in (0, 2, 5):
            for _ in range(20):
                x, lp = model.sample(k, rng)
                assert lp == pytest.approx(model.log_prob(x, k), abs=1e-12)

    def test_sample_batch_matches_exhaustive(self):
        """TV(empirical, exact) < 0.01 on 1e5 ancestral draws."""
        model, _ = _trained_qaoa_model(6, seed=21)
        rng = stream(14)
        bits, _ = made.sample_batch(model, 3, 100_000, rng)
        idx = bits @ (1 << np.arange(6))
        counts = np.bincount(idx, minlength=64) / len(bits)
        exact = made.exhaustive_conditional_distribution(model, 3)
        tv = 0.5 * float(np.abs(counts - exact).sum())
        assert tv < 0.01

    def test_single_and_batch_agree_in_distribution(self):
        model, _ = _trained_qaoa_model(4, seed=22)
        rng = stream(15)
        singles = np.array([model.sample(2, rng)[0] for _ in range(4000)])
        idx_s = singles @ (1 << np.arange(4))
        exact = made.exhaustive_conditional_distribution(model, 2)
        counts = np.bincount(idx_s, minlength=16) / len(singles)
        tv = 0.5 * float(np.abs(counts - exact).sum())
        assert tv < 0.05


def _trained_qaoa_model(block_size, seed):
    """Small QAOA-data-trained model shared by several tests."""
    inst = qubo.gen_regular_instance(max(8, 2 * block_size), 3, seed=seed)
    bp = qaoa.build_block_problem(inst, Block(id=(1, 0), vertices=list(range(block_size))))
    init = qaoa.prepare_initial_state(block_size, math.pi / 2)
    params, _ = qaoa.optimize_params(bp, p=3, init=init, restarts=2, seed=seed, max_evals_per_restart=300)
    data = qaoa.generate_training_set(
        bp, params, qaoa.default_training_angles(block_size), 2000, seed=seed
    )
    cfg = made.default_train_config(block_size, epochs=40, seed=seed)
    model = made.build_model(block_size, cfg, seed=seed)
    report = made.train(model, data, cfg)
    return model, report


class TestTrain:
    def test_degenerate_data_memorized(self):
        """A single repeated bitstring gets probability >= 0.9."""
        x_star = np.array([1, 0, 1, 0], dtype=np.uint8)
        data = synthetic_sample_set(np.tile(x_star, (500, 1)))
        cfg = made.default_train_config(4, epochs=200, seed=5, validation_fraction=0.0)
        model = made.build_model(4, cfg, seed=6)
        made.train(model, data, cfg)
        assert math.exp(model.log_prob(x_star, 2)) >= 0.9

    def test_gradient_matches_finite_differences(self):
        model = tiny_model(4, seed=8, widths=[8, 8])
        rng = stream(16)
        x = rng.integers(0, 2, size=(6, 4)).astype(np.uint8)
        ks = x.sum(axis=1).astype(np.int64)
        _, (g_w, g_b, g_c) = made._loss_and_grads(model, x, ks)

        def loss():
            return float(np.mean(made.log_prob_batch(model, x, ks)))

        step = 1e-5
        params = (
            [(model.weights[l], g_w[l]) for l in range(len(model.weights))]
            + [(model.biases[l], g_b[l]) for l in range(len(model.biases))]
            + [(model.ctx_weights[l], g_c[l]) for l in range(len(model.ctx_weights))]
        )
        for theta, grad in params:
            flat_t = theta.reshape(-1)
            flat_g = grad.reshape(-1)
            for i in range(len(flat_t)):
                orig = flat_t[i]
                flat_t[i] = orig + step
                model._invalidate()
                up = loss()
                flat_t[i] = orig - step
                model._invalidate()
                down = loss()
                flat_t[i] = orig
                model._invalidate()
                fd = (up - down) / (2 * step)
                assert flat_g[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_uniform_data_reaches_entropy(self):
        """Uniform random bits: validation LL converges to the source's
        conditional entropy given the weight context, -E[log C(B, k)].

        The raw -|B| log 2 bound is not attainable as a target here: the
        context k is the sample's own Hamming weight, so a correct model
        compresses each sample to log C(B, k) nats.
        """
        rng = stream(17)
        rows = rng.integers(0, 2, size=(20_000, 4)).astype(np.uint8)
        data = synthetic_sample_set(rows)
        cfg = made.default_train_config(4, epochs=30, seed=7, validation_fraction=0.2)
        model = made.build_model(4, cfg, seed=8)
        report = made.train(model, data, cfg)
        target = -sum(math.comb(4, k) * math.log(math.comb(4, k)) for k in range(5)) / 16
        assert report.val_ll[-1] == pytest.approx(target, abs=0.05)
        assert report.val_ll[-1] <= 0.0

    def test_empty_data_rejected(self):
        cfg = made.default_train_config(4)
        model = made.build_model(4, cfg, seed=0)
        empty = qaoa.BlockSampleSet(
            block_id=(1, 0),
            samples=np.zeros((0, 4), dtype=np.uint8),
            weights=np.zeros(0, dtype=np.int64),
            provenance=np.zeros(0, dtype=np.int64),
        )
        with pytest.raises(ValueError):
            made.train(model, empty, cfg)

    def test_deterministic(self):
        rng = stream(18)
        rows = rng.integers(0, 2, size=(1000, 4)).astype(np.uint8)
        data = synthetic_sample_set(rows)
        cfg = made.default_train_config(4, epochs=5, seed=9)
        m1 = made.build_model(4, cfg, seed=10)
        made.train(m1, data, cfg)
        m2 = made.build_model(4, cfg, seed=10)
        made.train(m2, data, cfg)
        for a, b in zip(m1.weights, m2.weights):
            assert np.array_equal(a, b)

    def test_smoothed_loglik_nondecreasing(self):
        """Window-5 smoothed training LL rises in >= 9/10 seeded runs."""
        ok = 0
        for seed in range(10):
            _, report = _trained_qaoa_model(4, seed=30 + seed)
            ll = np.array(report.train_ll)
            ma = np.convolve(ll, np.ones(5) / 5, mode="valid")
            # -0.003 absorbs minibatch noise on the converged plateau
            if np.all(np.diff(ma) >= -3e-3):
                ok += 1
        assert ok >= 9


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        model, _ = _trained_qaoa_model(4, seed=40)
        model.block_id = (2, 3)
        path = tmp_path / "model.bin"
        made.save_model(model, path)
        back = made.load_model(path)
        assert back.block_id == (2, 3)
        assert back.block_size == 4
        assert np.array_equal(back.ordering, model.ordering)
        for a, b in zip(back.weights, model.weights):
            assert np.array_equal(a, b)
        for a, b in zip(back.masks, model.masks):
            assert np.array_equal(a, b)
        for a, b in zip(back.ctx_weights, model.ctx_weights):
            assert np.array_equal(a, b)
        x = np.array([1, 0, 1, 0], dtype=np.uint8)
        assert back.log_prob(x, 2) == model.log_prob(x, 2)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(made.FormatError):
            made.load_model(path)

    def _saved(self, tmp_path):
        path = tmp_path / "model.bin"
        made.save_model(tiny_model(4, seed=41), path)
        return path, path.read_bytes()

    def test_body_cut_by_50_bytes(self, tmp_path):
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw[:-50])
        with pytest.raises(made.FormatError, match=f"offset {len(raw) - 50}"):
            made.load_model(path)

    def test_cut_to_10_bytes(self, tmp_path):
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw[:10])
        with pytest.raises(made.FormatError, match="offset 10"):
            made.load_model(path)

    def test_every_truncation_and_trailing_byte(self, tmp_path):
        path, raw = self._saved(tmp_path)
        for cut in [*range(len(raw)), len(raw) + 1]:
            path.write_bytes(raw[:cut] if cut < len(raw) else raw + b"\0")
            with pytest.raises(made.FormatError):
                made.load_model(path)
