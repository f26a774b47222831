"""Tests for the conditional MADE: masking, likelihoods, gradients, training."""

import math

import numpy as np
import pytest

from blockmc import made, mcmc, qaoa, qubo
from blockmc.partition import Block
from blockmc.streams import stream


def tiny_model(block_size, seed=0, widths=None):
    cfg = made.TrainConfig()
    if widths is not None:
        cfg = made.TrainConfig(widths=widths)
    return made.build_model(block_size, cfg, seed=seed)


def zero_weights(model):
    for w in model.weights:
        w[:] = 0.0
    for b in model.biases:
        b[:] = 0.0
    for c in model.ctx_weights:
        c[:] = 0.0
    return model


def synthetic_sample_set(samples):
    return np.asarray(samples, dtype=np.uint8)


def logits(model, x, k):
    """Per-variable Bernoulli logits of ``model`` given the full input vector."""
    return made._forward(made._stack([model]), x.astype(np.float64)[None, None], np.array([[k]]))[0][0, 0]


def exhaustive_conditional_distribution(model, k):
    """Exact q(. | k) over all 2^|B| bitstrings (bit t of the index is x_t)."""
    bits = qaoa.basis(model.block_size).bits
    return np.exp(model.log_prob(bits, np.full(len(bits), k, dtype=np.int64)))


def count_weighted_step(params, x, ks):
    """Mean log-likelihood of each member's batch of a (G, batch, |B|) stack and
    its gradients, from the batch's distinct rows weighted by their counts."""
    members = np.arange(len(x))[:, None]
    keys = np.stack([made._first_copies(rows) for rows in x])
    rows, counts, slot = made._distinct(keys)
    grads = tuple([np.empty_like(t) for t in group] for group in params[:3])
    ll = made._group_loss_and_grads(params, x[members[..., None], rows], ks[members[..., None], rows],
                                    counts, x.shape[1], grads)
    return np.mean(ll.reshape(len(x), -1)[members, slot], axis=1), grads


def loss_and_grads(model, x, ks):
    """Mean log-likelihood of the batch and its gradient in every parameter."""
    ll, grads = count_weighted_step(made._stack([model]), x[None], np.asarray(ks)[None])
    return float(ll[0]), tuple([g[0] for g in gs] for gs in grads)


class TestBuildModel:
    def test_single_variable_depends_on_context_only(self):
        model = tiny_model(1, seed=3)
        x0 = np.array([0], dtype=np.uint8)
        x1 = np.array([1], dtype=np.uint8)
        # no dependence on the input bit itself
        assert logits(model, x0, 0)[0] == logits(model, x1, 0)[0]
        # but the context must reach the single output
        assert logits(model, x0, 0)[0] != logits(model, x0, 1)[0]

    def test_jacobian_sparsity(self):
        """Output t must ignore inputs at positions >= t."""
        model = tiny_model(3, seed=5)
        rng = stream(6)
        for _ in range(20):
            x = rng.integers(0, 2, size=3).astype(np.uint8)
            base = logits(model, x, 1)
            for t_pos in range(3):
                y = x.copy()
                y[t_pos] ^= 1
                out = logits(model, y, 1)
                for s_pos in range(t_pos + 1):
                    assert out[s_pos] == base[s_pos]

    def test_normalized_before_training(self):
        model = tiny_model(8, seed=7)
        for k in range(9):
            probs = exhaustive_conditional_distribution(model, k)
            assert probs.sum() == pytest.approx(1.0, abs=1e-6)

    def test_every_hidden_layer_has_context_carrier(self):
        """A degree-0 unit must exist so k can reach the first conditional."""
        for seed in range(10):
            model = tiny_model(4, seed=seed)
            assert np.any(model.masks[-1][0] > 0)


class TestLogProb:
    def test_zero_weights_uniform(self):
        model = zero_weights(tiny_model(5, seed=1))
        x = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        for k in range(6):
            assert model.log_prob(x[None], [k])[0] == pytest.approx(5 * math.log(0.5))

    def test_exhaustive_normalization(self):
        model = tiny_model(6, seed=2)
        for k in (0, 3, 6):
            probs = exhaustive_conditional_distribution(model, k)
            assert abs(np.log(probs.sum())) < 1e-6

    def test_context_out_of_range(self):
        model = tiny_model(4, seed=3)
        with pytest.raises(ValueError):
            model.log_prob(np.zeros((1, 4), dtype=np.uint8), [5])

    @pytest.mark.parametrize(
        "ks, bit, match",
        [([2], 1, "ks is"), (2, 1, "ks is"), ([2, 2], 1, "ks is"), ([[2, 2, 2]], 1, "ks is"),
         ([2.0, 2.0, 2.0], 1, "ks is"), ([2, 2, 2], 2, "other than 0 and 1")],
        ids=["one-context", "scalar", "short", "2-d", "float", "bit-2"],
    )
    def test_malformed_input_raises_a_named_error(self, ks, bit, match):
        """One integer context per row of a 0/1 array, or a ``ValueError`` that says which rule broke."""
        x = np.zeros((3, 4), dtype=np.uint8)
        x[0, 0] = bit
        with pytest.raises(ValueError, match=match):
            tiny_model(4, seed=3).log_prob(x, ks)

    def test_no_rows(self):
        assert tiny_model(4, seed=3).log_prob(np.zeros((0, 4), dtype=np.uint8), np.zeros(0, dtype=int)).shape == (0,)

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
        cfg = made.TrainConfig(epochs=30, seed=4)
        untrained = made.build_model(6, cfg, seed=9)
        before = float(np.mean(untrained.log_prob(held, ks)))
        model = made.build_model(6, cfg, seed=9)
        made.train(model, data, cfg)
        after = float(np.mean(model.log_prob(held, ks)))
        assert after > before


class TestSample:
    def test_zero_weights_fair_coin(self):
        model = zero_weights(tiny_model(4, seed=1))
        rng = stream(12)
        bits, _ = model.sample(2, 10_000, rng)
        frac = bits.mean(axis=0)
        assert np.all(np.abs(frac - 0.5) < 0.02)

    def test_returned_logprob_consistent(self):
        model = tiny_model(5, seed=4)
        rng = stream(13)
        for k in (0, 2, 5):
            for _ in range(20):
                (x,), (lp,) = model.sample(k, 1, rng)
                assert lp == pytest.approx(model.log_prob(x[None], [k])[0], abs=1e-12)

    def test_batched_draws_match_exhaustive(self):
        """TV(empirical, exact) < 0.01 on 1e5 ancestral draws."""
        model, _ = _trained_qaoa_model(6, seed=21)
        rng = stream(14)
        bits, _ = model.sample(3, 100_000, rng)
        idx = bits @ (1 << np.arange(6))
        counts = np.bincount(idx, minlength=64) / len(bits)
        exact = exhaustive_conditional_distribution(model, 3)
        tv = 0.5 * float(np.abs(counts - exact).sum())
        assert tv < 0.01

    def test_single_and_batch_agree_in_distribution(self):
        model, _ = _trained_qaoa_model(4, seed=22)
        rng = stream(15)
        singles = np.array([model.sample(2, 1, rng)[0][0] for _ in range(4000)])
        idx_s = singles @ (1 << np.arange(4))
        exact = exhaustive_conditional_distribution(model, 2)
        counts = np.bincount(idx_s, minlength=16) / len(singles)
        tv = 0.5 * float(np.abs(counts - exact).sum())
        assert tv < 0.05


class TestSector:
    @pytest.mark.parametrize("k", [0, 3, 6])
    def test_table_is_the_exact_weight_k_slice(self, k):
        model = tiny_model(6, seed=5)
        cdf, codes, log_q = mcmc.sector_table(model, k)
        exact = exhaustive_conditional_distribution(model, k)
        want = np.flatnonzero([bin(c).count("1") == k for c in range(64)])
        assert np.array_equal(codes, want)
        assert np.allclose(np.exp([log_q[c] for c in codes]), exact[want], rtol=0.0, atol=1e-12)
        assert cdf[-1] == pytest.approx(exact[want].sum(), abs=1e-12)
        assert sorted(log_q) == list(codes)

    def test_context_out_of_range(self):
        with pytest.raises(ValueError):
            mcmc.sector_table(tiny_model(4), 5)


def _trained_qaoa_model(block_size, seed):
    """Small QAOA-data-trained model shared by several tests."""
    inst = qubo.gen_regular_instance(max(8, 2 * block_size), 3, seed=seed)
    bp = qaoa.build_block_problem(inst, Block(id=(1, 0), vertices=list(range(block_size))))
    init = qaoa.prepare_initial_state(block_size, math.pi / 2)
    params, _ = qaoa.optimize_params(bp, p=3, init=init, restarts=2, seed=seed, max_evals_per_restart=300)
    data = qaoa.generate_training_set(
        bp, params, qaoa.default_training_angles(block_size), 2000, seed=seed
    )
    cfg = made.TrainConfig(epochs=40, seed=seed)
    model = made.build_model(block_size, cfg, seed=seed)
    report = made.train(model, data, cfg)
    return model, report


class TestTrain:
    def test_degenerate_data_memorized(self):
        """A single repeated bitstring gets probability >= 0.9."""
        x_star = np.array([1, 0, 1, 0], dtype=np.uint8)
        data = synthetic_sample_set(np.tile(x_star, (500, 1)))
        cfg = made.TrainConfig(epochs=200, seed=5, validation_fraction=0.0)
        model = made.build_model(4, cfg, seed=6)
        made.train(model, data, cfg)
        assert math.exp(model.log_prob(x_star[None], [2])[0]) >= 0.9

    def test_gradient_matches_finite_differences(self):
        model = tiny_model(4, seed=8, widths=[8, 8])
        rng = stream(16)
        x = rng.integers(0, 2, size=(6, 4)).astype(np.uint8)
        x = np.repeat(x, [3, 1, 2, 1, 1, 4], axis=0)  # repeated rows: the gradient is count-weighted
        ks = x.sum(axis=1).astype(np.int64)
        _, (g_w, g_b, g_c) = loss_and_grads(model, x, ks)

        def loss():
            return float(np.mean(model.log_prob(x, ks)))

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
                up = loss()
                flat_t[i] = orig - step
                down = loss()
                flat_t[i] = orig
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
        cfg = made.TrainConfig(epochs=30, seed=7, validation_fraction=0.2)
        model = made.build_model(4, cfg, seed=8)
        report = made.train(model, data, cfg)
        target = -sum(math.comb(4, k) * math.log(math.comb(4, k)) for k in range(5)) / 16
        assert report.val_ll[-1] == pytest.approx(target, abs=0.05)
        assert report.val_ll[-1] <= 0.0

    def test_empty_data_rejected(self):
        cfg = made.TrainConfig()
        model = made.build_model(4, cfg, seed=0)
        empty = np.zeros((0, 4), dtype=np.uint8)
        with pytest.raises(ValueError):
            made.train(model, empty, cfg)

    def test_deterministic(self):
        rng = stream(18)
        rows = rng.integers(0, 2, size=(1000, 4)).astype(np.uint8)
        data = synthetic_sample_set(rows)
        cfg = made.TrainConfig(epochs=5, seed=9)
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


def _group_members(seeds, count=600, block_size=4, **overrides):
    """Models, data sets and configs that differ only in their seeds."""
    models, datasets, cfgs = [], [], []
    for seed in seeds:
        cfg = made.TrainConfig(**{"epochs": 3, "batch_size": 64, "seed": seed, **overrides})
        models.append(made.build_model(block_size, cfg, seed=seed))
        datasets.append(synthetic_sample_set(stream(60 + seed).integers(0, 2, size=(count, block_size))))
        cfgs.append(cfg)
    return models, datasets, cfgs


class TestTrainGroup:
    @pytest.mark.parametrize("split", [[[0, 1, 2]], [[2, 1, 0]], [[0], [1, 2]]],
                             ids=["group", "reversed", "one-plus-two"])
    def test_members_equal_lone_training(self, split):
        """Lockstep training is per-model training, bit for bit."""
        lone = _group_members([3, 5, 8])
        lone_reports = [made.train(*member) for member in zip(*lone)]
        grouped = _group_members([3, 5, 8])
        reports = {}
        for part in split:
            members = [[column[i] for i in part] for column in grouped]
            reports.update(zip(part, made.train_group(*members)))
        for i, (a, b) in enumerate(zip(lone[0], grouped[0])):
            for name in ("weights", "biases", "ctx_weights"):
                assert all(np.array_equal(x, y) for x, y in zip(getattr(a, name), getattr(b, name)))
            assert reports[i].train_ll == lone_reports[i].train_ll
            assert reports[i].val_ll == lone_reports[i].val_ll
            assert all(type(v) is float for v in reports[i].train_ll + reports[i].val_ll)

    @pytest.mark.parametrize(
        "odd", [dict(block_size=5), dict(widths=[8, 8]), dict(epochs=4), dict(count=599)],
        ids=["block-size", "widths", "epochs", "sample-count"],
    )
    def test_members_differing_beyond_the_seed_rejected(self, odd):
        models, datasets, cfgs = _group_members([3, 5])
        extra = _group_members([8], **odd)
        with pytest.raises(ValueError):
            made.train_group(models + extra[0], datasets + extra[1], cfgs + extra[2])


def _per_row_forward(params, xf, ks):
    """Logits and caches of the per-row trainer: one-hot context product, bias added first."""
    weights, biases, ctx_weights, masks = params
    k_onehot = np.zeros((*ks.shape, xf.shape[-1] + 1))
    np.put_along_axis(k_onehot, ks[..., None], 1.0, axis=-1)
    eff = [w * m for w, m in zip(weights, masks)]
    acts = [xf]
    for l in range(len(ctx_weights)):
        h = acts[-1] @ eff[l].transpose(0, 2, 1)
        h += biases[l][:, None]
        h += k_onehot @ ctx_weights[l].transpose(0, 2, 1)
        acts.append(np.maximum(h, 0.0, out=h))
    logits = acts[-1] @ eff[-1].transpose(0, 2, 1)
    logits += biases[-1][:, None]
    return logits, (k_onehot, eff, acts)


def per_row_step(params, x, ks):
    """Oracle step: every row of a (G, batch, |B|) stack runs the forward and
    backward pass; returns each member's mean log-likelihood and gradients."""
    weights, _, ctx_weights, masks = params
    xf = x.astype(np.float64)
    logits, (k_onehot, eff, acts) = _per_row_forward(params, xf, ks)
    p = made._sigmoid(logits)
    ll = np.mean(made._row_log_lik(xf, p), axis=1)
    back = (xf - p) / x.shape[1]
    g_w, g_b, g_c = [], [], []
    for l in range(len(weights) - 1, -1, -1):
        if l < len(ctx_weights):
            back *= acts.pop() > 0.0
            g_c.append(back.transpose(0, 2, 1) @ k_onehot)
        g_w.append((back.transpose(0, 2, 1) @ acts[l]) * masks[l])
        g_b.append(back.sum(axis=1))
        back = back @ eff[l]
    return ll, (g_w[::-1], g_b[::-1], g_c[::-1])


def per_row_train(model, data, cfg):
    """Oracle trainer: ``made.train``'s shuffles and updates on every row of each batch."""
    rng = stream(cfg.seed, 71)
    perm = rng.permutation(len(data))
    n_val = int(round(cfg.validation_fraction * len(data)))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    x, ks = data[None], data.sum(axis=1, dtype=np.int64)[None]
    params = made._stack([model])
    trained = [t for group in params[:3] for t in group]
    vels = [np.zeros_like(t) for t in trained]
    report = made.TrainReport(train_ll=[], val_ll=[])
    for _ in range(cfg.epochs):
        order = train_idx[rng.permutation(len(train_idx))]
        total = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            ll, grads = per_row_step(params, x[:, batch], ks[:, batch])
            total += ll[0] * len(batch)
            for theta, vel, grad in zip(trained, vels, (g for gs in grads for g in gs)):
                vel *= made._MOMENTUM
                vel += grad
                theta += cfg.learning_rate * vel
        xf = x[:, val_idx].astype(np.float64)
        p = made._sigmoid(_per_row_forward(params, xf, ks[:, val_idx])[0])
        report.train_ll.append(float(total / len(order)))
        report.val_ll.append(float(np.mean(made._row_log_lik(xf, p))) if n_val else float("nan"))
    for dst, src in zip((*model.weights, *model.biases, *model.ctx_weights), trained):
        dst[...] = src[0]
    return report


def _skewed_members(seeds, block_size, count=700, batch_size=128, epochs=3):
    """Group members whose shots repeat to different degrees, so that their
    minibatches hold different numbers of distinct rows."""
    models, datasets, cfgs = [], [], []
    for i, seed in enumerate(seeds):
        rng = stream(90 + seed)
        pool = rng.integers(0, 2, size=([2**block_size, max(1, 2**block_size // 8), 1][i % 3], block_size))
        datasets.append(synthetic_sample_set(pool[rng.integers(0, len(pool), size=count)]))
        cfgs.append(made.TrainConfig(epochs=epochs, batch_size=batch_size, seed=seed))
        models.append(made.build_model(block_size, cfgs[-1], seed=seed))
    return models, datasets, cfgs


class TestDistinctRows:
    @pytest.mark.parametrize("case", ["repeated", "all-distinct", "short-batch"])
    def test_step_matches_per_row_step(self, case):
        """Count-weighted distinct rows give the per-row step's loss and gradients."""
        block_size, size = {"repeated": (8, 128), "all-distinct": (8, 128), "short-batch": (6, 37)}[case]
        models = [tiny_model(block_size, seed=s) for s in (1, 2, 3)]
        params = made._stack(models)
        rng = stream(44)
        if case == "all-distinct":
            x = np.stack([qaoa.basis(block_size).bits[rng.permutation(2**block_size)[:size]] for _ in models])
        else:
            pool = rng.integers(0, 2, size=(5, block_size))
            x = np.stack([pool[rng.integers(0, len(pool), size=size)] for _ in models]).astype(np.uint8)
        ks = x.sum(axis=2).astype(np.int64)
        ll, grads = count_weighted_step(params, x, ks)
        want_ll, want_grads = per_row_step(params, x, ks)
        assert np.allclose(ll, want_ll, rtol=0.0, atol=1e-12)
        for gs, want in zip(grads, want_grads):
            for g, w in zip(gs, want):
                assert g.shape == w.shape
                assert np.allclose(g, w, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("block_size", [4, 8])
    def test_training_matches_per_row_training(self, block_size):
        models, datasets, cfgs = _skewed_members([3, 4, 5], block_size, epochs=4)
        oracle = _skewed_members([3, 4, 5], block_size, epochs=4)
        reports = made.train_group(models, datasets, cfgs)
        for model, report, member in zip(models, reports, zip(*oracle)):
            want = per_row_train(*member)
            for name in ("weights", "biases", "ctx_weights"):
                for a, b in zip(getattr(model, name), getattr(member[0], name)):
                    assert np.allclose(a, b, rtol=0.0, atol=1e-10)
            assert np.allclose(report.train_ll, want.train_ll, rtol=0.0, atol=1e-12)
            assert np.allclose(report.val_ll, want.val_ll, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("block_size, batch_size", [(3, 17), (4, 64), (8, 128), (12, 128)])
    def test_members_with_different_distinct_counts_equal_lone_training(self, block_size, batch_size):
        """Padding a member to a larger group's distinct count changes none of its bits."""
        lone = _skewed_members([6, 7, 8], block_size, batch_size=batch_size)
        lone_reports = [made.train(*member) for member in zip(*lone)]
        grouped = _skewed_members([6, 7, 8], block_size, batch_size=batch_size)
        reports = made.train_group(*grouped)
        for a, b, r, want in zip(grouped[0], lone[0], reports, lone_reports):
            for name in ("weights", "biases", "ctx_weights"):
                assert all(np.array_equal(x, y) for x, y in zip(getattr(a, name), getattr(b, name)))
            assert r.train_ll == want.train_ll and r.val_ll == want.val_ll

    def test_first_copies(self):
        rows = np.array([[1, 0, 1], [0, 0, 0], [1, 0, 1], [0, 0, 0], [1, 1, 1]], dtype=np.uint8)
        assert made._first_copies(rows).tolist() == [0, 1, 0, 1, 4]


class TestFlatTraining:
    @pytest.mark.parametrize("block_size", [4, 8, 12])
    def test_training_without_reports_moves_no_bit(self, block_size):
        reported = _skewed_members([6, 7, 8], block_size)
        assert made.train_group(*reported) is not None
        silent = _skewed_members([6, 7, 8], block_size)
        assert made.train_group(*silent, reports=False) is None
        for a, b in zip(reported[0], silent[0]):
            for name in ("weights", "biases", "ctx_weights"):
                assert all(np.array_equal(x, y) for x, y in zip(getattr(a, name), getattr(b, name)))

    def test_members_share_no_memory(self):
        """Each member keeps its own arrays: training one again leaves the others be."""
        models, datasets, cfgs = _skewed_members([6, 7, 8], 4)
        made.train_group(models, datasets, cfgs)
        arrays = [[*m.weights, *m.biases, *m.ctx_weights] for m in models]
        for i, mine in enumerate(arrays):
            for theirs in arrays[i + 1 :]:
                assert not any(np.shares_memory(a, b) for a in mine for b in theirs)
        before = [[a.copy() for a in arrs] for arrs in arrays]
        made.train(models[0], datasets[0], cfgs[0])
        assert not all(np.array_equal(a, b) for a, b in zip(arrays[0], before[0]))
        for arrs, want in zip(arrays[1:], before[1:]):
            assert all(np.array_equal(a, b) for a, b in zip(arrs, want))


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        model, _ = _trained_qaoa_model(4, seed=40)
        path = tmp_path / "model.bin"
        made.save_model(model, path)
        back = made.load_model(path)
        assert back.block_size == 4
        for a, b in zip(back.weights, model.weights):
            assert np.array_equal(a, b)
        for a, b in zip(back.masks, model.masks):
            assert np.array_equal(a, b)
        for a, b in zip(back.ctx_weights, model.ctx_weights):
            assert np.array_equal(a, b)
        x = np.array([1, 0, 1, 0], dtype=np.uint8)
        assert back.log_prob(x[None], [2])[0] == model.log_prob(x[None], [2])[0]

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

    def _masks_offset(self):
        """Magic, the three u16 header fields and one u32 per hidden width."""
        return 10 + 4 * len(tiny_model(4, seed=41).ctx_weights)

    def test_mask_byte_outside_0_1(self, tmp_path):
        path, raw = self._saved(tmp_path)
        off = self._masks_offset()
        path.write_bytes(raw[:off] + bytes([2]) + raw[off + 1 :])
        with pytest.raises(made.FormatError, match="mask"):
            made.load_model(path)
