"""Tests for the MH kernels: proposal laws, acceptance, stationarity."""

import math

import numpy as np
import pytest

from blockmc import made, mcmc, qubo
from blockmc.errors import ConfigError, FormatError
from blockmc.partition import Block, PartitionPair, build_partition_pair, crossing_matrix
from blockmc.streams import stream


def uniform_model(block_size, block_id):
    """Zero-weight MADE: q(.|k) uniform over all block bitstrings."""
    cfg = made.default_train_config(block_size)
    model = made.build_model(block_size, cfg, seed=0)
    for w in model.weights:
        w[:] = 0.0
    for b in model.biases:
        b[:] = 0.0
    for c in model.ctx_weights:
        c[:] = 0.0
    model._invalidate()
    model.block_id = block_id
    return model


def block_surrogate_config(inst, sizes, seed=0, beta_pi=0.5, partition_seed=3):
    pp = build_partition_pair(inst, sizes, sizes, seed=partition_seed)
    models = {
        b.id: uniform_model(b.size, b.id) for part in (pp.p1, pp.p2) for b in part
    }
    return mcmc.KernelConfig(
        kind="block-surrogate", beta_pi=beta_pi, partition_pair=pp, models=models
    )


class TestProposeBlockSurrogate:
    def test_forced_block_weight(self):
        """Surviving proposals always carry the block's current weight."""
        inst = qubo.gen_regular_instance(8, 3, seed=1)
        cfg = block_surrogate_config(inst, [4, 4])
        rng = stream(2)
        x = np.array([1, 1, 0, 0, 1, 1, 0, 0], dtype=np.uint8)
        state = mcmc.ChainState(x=x, energy=qubo.energy(inst, x))
        for _ in range(200):
            cand = mcmc.propose_block_surrogate(state, cfg, rng)
            if cand.weight_mismatch:
                continue
            k_b = int(x[cand.block_vertices].sum())
            assert int(cand.block_bits.sum()) == k_b

    def test_empty_block_weight(self):
        """If the complement holds all K ones, only all-zero bits survive."""
        inst = qubo.gen_regular_instance(8, 3, seed=1)
        pp = build_partition_pair(inst, [4, 4], [4, 4], seed=3)
        models = {b.id: uniform_model(4, b.id) for p in (pp.p1, pp.p2) for b in p}
        cfg = mcmc.KernelConfig("block-surrogate", 0.5, pp, models)
        x = np.zeros(8, dtype=np.uint8)
        x[pp.p1[0].vertices] = 1  # all ones inside p1 block 0
        state = mcmc.ChainState(x=x, energy=qubo.energy(inst, x))
        rng = stream(4)
        for _ in range(100):
            cand = mcmc.propose_block_surrogate(state, cfg, rng)
            if cand.weight_mismatch:
                continue
            if int(x[cand.block_vertices].sum()) == 0:
                assert np.all(cand.block_bits == 0)

    def test_survival_fraction_matches_slice_mass(self):
        """Weight-mismatch bookkeeping matches the exact weight-k slice mass."""
        inst = qubo.gen_regular_instance(12, 3, seed=5)
        block = Block(id=(1, 0), vertices=list(range(6)))
        model, _ = _small_trained_model(6, seed=6)
        model.block_id = (1, 0)
        p1 = [block, Block(id=(1, 1), vertices=list(range(6, 12)))]
        p2 = [
            Block(id=(2, 0), vertices=list(range(6))),
            Block(id=(2, 1), vertices=list(range(6, 12))),
        ]
        models = {(1, 0): model, (1, 1): uniform_model(6, (1, 1))}
        models[(2, 0)] = model  # reuse; ids only matter for lookup
        models[(2, 1)] = models[(1, 1)]
        pp = PartitionPair(p1=p1, p2=p2, crossing=crossing_matrix(p1, p2, 12))
        cfg = mcmc.KernelConfig("block-surrogate", 0.5, pp, models)
        x = np.zeros(12, dtype=np.uint8)
        x[[0, 1, 2]] = 1  # block 0 weight 3
        state = mcmc.ChainState(x=x, energy=qubo.energy(inst, x))
        rng = stream(7)
        tries = survived = 0
        for _ in range(30_000):
            cand = mcmc.propose_block_surrogate(state, cfg, rng)
            if cand.detail not in ((1, 0), (2, 0)):
                continue
            tries += 1
            survived += 0 if cand.weight_mismatch else 1
        probs = made.exhaustive_conditional_distribution(model, 3)
        w = np.array([bin(z).count("1") for z in range(64)])
        mass = float(probs[w == 3].sum())
        se = math.sqrt(mass * (1 - mass) / tries)
        assert abs(survived / tries - mass) < 5 * se + 1e-3

    def test_missing_model_rejected(self):
        inst = qubo.gen_regular_instance(8, 3, seed=1)
        pp = build_partition_pair(inst, [4, 4], [4, 4], seed=3)
        with pytest.raises(ConfigError):
            mcmc.KernelConfig("block-surrogate", 0.5, pp, {})


def _small_trained_model(block_size, seed):
    import blockmc.qaoa as qaoa

    inst = qubo.gen_regular_instance(2 * block_size, 3, seed=seed)
    bp = qaoa.build_block_problem(inst, Block(id=(1, 0), vertices=list(range(block_size))))
    init = qaoa.prepare_initial_state(block_size, math.pi / 2)
    params, _ = qaoa.optimize_params(bp, p=3, init=init, restarts=2, seed=seed, max_evals_per_restart=300)
    data = qaoa.generate_training_set(
        bp, params, qaoa.default_training_angles(block_size), 2000, seed=seed
    )
    cfg = made.default_train_config(block_size, epochs=30, seed=seed)
    model = made.build_model(block_size, cfg, seed=seed)
    report = made.train(model, data, cfg)
    return model, report


class TestProposeGlobalKawasaki:
    def test_unique_swap(self):
        inst = qubo.QuboInstance(n=2, quad={(0, 1): 1.0}, lin=np.zeros(2), konst=0.0)
        x = np.array([1, 0], dtype=np.uint8)
        state = mcmc.ChainState(x=x, energy=qubo.energy(inst, x))
        rng = stream(8)
        for _ in range(10):
            cand = mcmc.propose_global_kawasaki(state, rng)
            assert cand.swap == (0, 1)

    def test_weight_preserved(self):
        inst = qubo.gen_regular_instance(8, 3, seed=2)
        rng = stream(9)
        x = qubo.random_weight_k_config(8, 4, rng)
        state = mcmc.ChainState(x=x, energy=qubo.energy(inst, x))
        for _ in range(50):
            cand = mcmc.propose_global_kawasaki(state, rng)
            y = x.copy()
            i, j = cand.swap
            y[i], y[j] = y[j], y[i]
            assert int(y.sum()) == 4

    def test_pair_frequencies_uniform(self):
        """All K(N-K) = 9 pairs drawn uniformly (chi-squared check)."""
        x = np.array([1, 1, 1, 0, 0, 0], dtype=np.uint8)
        state = mcmc.ChainState(x=x, energy=0.0)
        rng = stream(10)
        counts = {}
        trials = 100_000
        for _ in range(trials):
            cand = mcmc.propose_global_kawasaki(state, rng)
            counts[cand.swap] = counts.get(cand.swap, 0) + 1
        assert len(counts) == 9
        expected = trials / 9
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 26.12  # 99.9th percentile of chi2(8)

    def test_degenerate_weight_rejected(self):
        state = mcmc.ChainState(x=np.ones(4, dtype=np.uint8), energy=0.0)
        with pytest.raises(ConfigError):
            mcmc.propose_global_kawasaki(state, stream(0))


class TestProposeLocalKawasaki:
    def test_equal_bits_null_move(self):
        inst = qubo.QuboInstance(n=2, quad={(0, 1): 1.0}, lin=np.zeros(2), konst=0.0)
        x = np.array([1, 1], dtype=np.uint8)
        state = mcmc.ChainState(x=x, energy=qubo.energy(inst, x))
        cand = mcmc.propose_local_kawasaki(state, inst, stream(1))
        assert cand.null_move

    def test_single_edge_deterministic_swap(self):
        inst = qubo.QuboInstance(n=2, quad={(0, 1): 1.0}, lin=np.zeros(2), konst=0.0)
        x = np.array([1, 0], dtype=np.uint8)
        state = mcmc.ChainState(x=x, energy=qubo.energy(inst, x))
        for s in range(5):
            cand = mcmc.propose_local_kawasaki(state, inst, stream(s))
            assert cand.swap == (0, 1)

    def test_null_fraction_matches_edge_count(self):
        inst = qubo.gen_regular_instance(8, 3, seed=3)
        rng = stream(11)
        for _ in range(10):
            x = qubo.random_weight_k_config(8, 4, rng)
            state = mcmc.ChainState(x=x, energy=qubo.energy(inst, x))
            equal = sum(
                1 for i, j in zip(inst.edge_i, inst.edge_j) if x[i] == x[j]
            )
            exact = equal / inst.num_edges
            nulls = 0
            trials = 20_000
            for _ in range(trials):
                if mcmc.propose_local_kawasaki(state, inst, rng).null_move:
                    nulls += 1
            se = math.sqrt(max(exact * (1 - exact), 1e-6) / trials)
            assert abs(nulls / trials - exact) < 5 * se + 1e-3

    def test_edgeless_rejected(self):
        inst = qubo.QuboInstance(n=4, quad={}, lin=np.zeros(4), konst=0.0)
        x = np.array([1, 0, 1, 0], dtype=np.uint8)
        state = mcmc.ChainState(x=x, energy=0.0)
        with pytest.raises(ConfigError):
            mcmc.propose_local_kawasaki(state, inst, stream(0))


class TestAccept:
    def test_zero_delta_always_accepts(self):
        inst = qubo.QuboInstance(n=4, quad={}, lin=np.zeros(4), konst=0.0)
        x = np.array([1, 0, 1, 0], dtype=np.uint8)
        state = mcmc.ChainState(x=x, energy=0.0)
        cand = mcmc.Candidate(detail=(0, 1), swap=(0, 1))
        _, rec = mcmc.accept(inst, state, cand, beta_pi=2.0, rng=stream(1))
        assert rec.acceptance_prob == 1.0
        assert rec.accepted

    def test_beta_zero_always_accepts(self):
        inst = qubo.gen_regular_instance(8, 3, seed=4)
        rng = stream(12)
        x = qubo.random_weight_k_config(8, 4, rng)
        state = mcmc.ChainState(x=x, energy=qubo.energy(inst, x))
        for _ in range(50):
            cand = mcmc.propose_global_kawasaki(state, rng)
            state, rec = mcmc.accept(inst, state, cand, beta_pi=0.0, rng=rng)
            assert rec.acceptance_prob == 1.0
            assert rec.accepted

    def test_energy_cache_consistent(self):
        inst = qubo.gen_regular_instance(8, 3, seed=5)
        rng = stream(13)
        x = qubo.random_weight_k_config(8, 4, rng)
        state = mcmc.ChainState(x=x, energy=qubo.energy(inst, x))
        for _ in range(200):
            cand = mcmc.propose_global_kawasaki(state, rng)
            state, _ = mcmc.accept(inst, state, cand, beta_pi=0.5, rng=rng)
            assert state.energy == pytest.approx(qubo.energy(inst, state.x), abs=1e-9)


class TestRunChain:
    def test_zero_steps(self):
        inst = qubo.gen_regular_instance(8, 3, seed=6)
        init = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.uint8)
        cfg = mcmc.KernelConfig("global-kawasaki", 0.5)
        trace = mcmc.run_chain(inst, 4, cfg, steps=0, init=init, seed=1)
        assert trace.steps == 0
        assert np.array_equal(trace.configs, init[None, :])

    def test_deterministic(self):
        inst = qubo.gen_regular_instance(8, 3, seed=6)
        init = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.uint8)
        cfg = mcmc.KernelConfig("global-kawasaki", 0.5)
        a = mcmc.run_chain(inst, 4, cfg, steps=500, init=init, seed=9)
        b = mcmc.run_chain(inst, 4, cfg, steps=500, init=init, seed=9)
        assert np.array_equal(a.configs, b.configs)
        assert np.array_equal(a.energies, b.energies)

    def test_feasibility_every_recorded_step(self):
        inst = qubo.gen_regular_instance(8, 3, seed=6)
        cfg = block_surrogate_config(inst, [4, 4], beta_pi=0.5)
        init = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.uint8)
        trace = mcmc.run_chain(inst, 4, cfg, steps=2000, init=init, seed=3)
        assert np.all(trace.configs.sum(axis=1) == 4)

    def test_infeasible_init_rejected(self):
        inst = qubo.gen_regular_instance(8, 3, seed=6)
        cfg = mcmc.KernelConfig("global-kawasaki", 0.5)
        with pytest.raises(ValueError):
            mcmc.run_chain(inst, 4, cfg, steps=10, init=np.zeros(8, dtype=np.uint8), seed=0)

    def test_thinning_shape(self):
        inst = qubo.gen_regular_instance(8, 3, seed=6)
        cfg = mcmc.KernelConfig("global-kawasaki", 0.5)
        init = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.uint8)
        trace = mcmc.run_chain(inst, 4, cfg, steps=100, init=init, seed=1, thin=10)
        assert trace.configs.shape == (11, 8)
        assert len(trace.energies) == 101


class TestRunChainPair:
    def test_distinct_seeds_differ(self):
        inst = qubo.gen_regular_instance(8, 3, seed=6)
        cfg = mcmc.KernelConfig("global-kawasaki", 0.5)
        init = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.uint8)
        a = mcmc.run_chain(inst, 4, cfg, 500, init, seed=1)
        b = mcmc.run_chain(inst, 4, cfg, 500, init, seed=2)
        assert not np.array_equal(a.configs, b.configs)
        assert len(a.configs) == len(b.configs)

    def test_identical_seeds_identical(self):
        inst = qubo.gen_regular_instance(8, 3, seed=6)
        cfg = mcmc.KernelConfig("global-kawasaki", 0.5)
        init = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.uint8)
        a = mcmc.run_chain(inst, 4, cfg, 200, init, seed=5)
        b = mcmc.run_chain(inst, 4, cfg, 200, init, seed=5)
        assert np.array_equal(a.configs, b.configs)


class TestStationarity:
    """Quick TV checks; the acceptance suite runs the full 10^6-step gate."""

    def setup_method(self):
        self.inst = qubo.gen_regular_instance(8, 3, seed=17)
        self.exact = qubo.enumerate_constrained_boltzmann(self.inst, 4, beta=0.5)
        self.init = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.uint8)

    def _tv(self, cfg, steps=200_000):
        trace = mcmc.run_chain(self.inst, 4, cfg, steps, self.init, seed=23)
        emp = mcmc.empirical_distribution(trace, burn_in=steps // 100)
        return mcmc.total_variation(emp, self.exact)

    def test_global_kawasaki(self):
        assert self._tv(mcmc.KernelConfig("global-kawasaki", 0.5)) < 0.05

    def test_local_kawasaki(self):
        assert self._tv(mcmc.KernelConfig("local-kawasaki", 0.5)) < 0.05

    def test_block_surrogate_uniform_models(self):
        cfg = block_surrogate_config(self.inst, [4, 4], beta_pi=0.5, partition_seed=5)
        assert self._tv(cfg, steps=100_000) < 0.05


class TestDetailedBalance:
    def test_global_kawasaki_flows(self):
        """Empirical flows x->y and y->x must match within Monte Carlo error."""
        inst = qubo.gen_regular_instance(6, 3, seed=19)
        cfg = mcmc.KernelConfig("global-kawasaki", 0.5)
        init = np.array([1, 1, 1, 0, 0, 0], dtype=np.uint8)
        trace = mcmc.run_chain(inst, 3, cfg, steps=300_000, init=init, seed=29)
        flows = {}
        rows = trace.configs
        for t in range(len(rows) - 1):
            a = rows[t].tobytes()
            b = rows[t + 1].tobytes()
            if a != b:
                flows[(a, b)] = flows.get((a, b), 0) + 1
        checked = 0
        for (a, b), f_ab in flows.items():
            f_ba = flows.get((b, a), 0)
            total = f_ab + f_ba
            if total >= 100:
                checked += 1
                assert abs(f_ab - f_ba) <= 5.0 * math.sqrt(total)
        assert checked > 10


class TestPersistence:
    def _trace(self):
        inst = qubo.gen_regular_instance(8, 3, seed=6)
        cfg = mcmc.KernelConfig("global-kawasaki", 0.5)
        init = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.uint8)
        return mcmc.run_chain(inst, 4, cfg, steps=200, init=init, seed=31, thin=5)

    def test_trace_roundtrip(self, tmp_path):
        trace = self._trace()
        path = tmp_path / "trace.bin"
        mcmc.save_trace(trace, path)
        back = mcmc.load_trace(path)
        assert back.kind == trace.kind
        assert back.n == trace.n and back.k == trace.k
        assert back.thin == trace.thin and back.seed == trace.seed
        assert back.beta_pi == trace.beta_pi
        assert np.array_equal(back.configs, trace.configs)
        assert np.array_equal(back.energies, trace.energies)
        assert np.array_equal(back.accepted, trace.accepted)
        assert np.array_equal(back.acceptance_probs, trace.acceptance_probs)
        assert np.array_equal(back.details, trace.details)

    def _saved(self, tmp_path):
        path = tmp_path / "trace.bin"
        mcmc.save_trace(self._trace(), path)
        return path, path.read_bytes()

    @pytest.mark.parametrize("code", [0, 4, 255])
    def test_unknown_kind_byte(self, tmp_path, code):
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw[:6] + bytes([code]) + raw[7:])
        with pytest.raises(FormatError, match="offset 6"):
            mcmc.load_trace(path)

    @pytest.mark.parametrize("cut", [4, 20, 42])
    def test_short_header(self, tmp_path, cut):
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw[:cut])
        with pytest.raises(FormatError, match=f"offset {cut}"):
            mcmc.load_trace(path)

    @pytest.mark.parametrize("cut", [1, 100])
    def test_truncated_body(self, tmp_path, cut):
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw[:-cut])
        with pytest.raises(FormatError, match=f"offset {len(raw) - cut}"):
            mcmc.load_trace(path)

    def test_trailing_bytes(self, tmp_path):
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw + b"\0")
        with pytest.raises(FormatError, match=f"offset {len(raw)}"):
            mcmc.load_trace(path)

    def test_zero_thin(self, tmp_path):
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw[:23] + bytes(4) + raw[27:])
        with pytest.raises(FormatError, match="offset 23"):
            mcmc.load_trace(path)
