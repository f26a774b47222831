"""Tests for the MH kernels: proposal laws, acceptance, stationarity."""

import math
import struct

import numpy as np
import pytest

from blockmc import made, mcmc, qubo
from blockmc.errors import ConfigError, FormatError
from blockmc.partition import Block, PartitionPair, build_partition_pair
from blockmc.streams import stream
from test_made import exhaustive_conditional_distribution


def uniform_model(block_size):
    """Zero-weight MADE: q(.|k) uniform over all block bitstrings."""
    cfg = made.TrainConfig()
    model = made.build_model(block_size, cfg, seed=0)
    for w in model.weights:
        w[:] = 0.0
    for b in model.biases:
        b[:] = 0.0
    for c in model.ctx_weights:
        c[:] = 0.0
    return model


def block_surrogate_config(inst, sizes, seed=0, beta_pi=0.5, partition_seed=3):
    pp = build_partition_pair(inst, sizes, sizes, seed=partition_seed)
    models = {
        b.id: uniform_model(b.size) for part in (pp.p1, pp.p2) for b in part
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
        state = mcmc.ChainState(inst, x)
        for _ in range(200):
            move = mcmc.propose_block_surrogate(state, inst, cfg, rng)
            if move is None:
                continue
            flips = move[0]  # all inside one block, so its weight holds iff x's does
            y = x.copy()
            y[flips] ^= 1
            assert int(y.sum()) == int(x.sum())

    def test_empty_block_weight(self):
        """If the complement holds all K ones, only all-zero bits survive."""
        inst = qubo.gen_regular_instance(8, 3, seed=1)
        pp = build_partition_pair(inst, [4, 4], [4, 4], seed=3)
        models = {b.id: uniform_model(4) for p in (pp.p1, pp.p2) for b in p}
        cfg = mcmc.KernelConfig("block-surrogate", 0.5, pp, models)
        x = np.zeros(8, dtype=np.uint8)
        x[pp.p1[0].vertices] = 1  # all ones inside p1 block 0
        rng = stream(4)
        state = mcmc.ChainState(inst, x)
        for _ in range(100):
            move = mcmc.propose_block_surrogate(state, inst, cfg, rng)
            if move is None:
                continue
            flips = move[0]  # a block of weight 0 redraws its zeros: no flips
            assert not flips or x[flips].any()

    def test_survival_fraction_matches_slice_mass(self):
        """Weight-mismatch bookkeeping matches the exact weight-k slice mass."""
        inst = qubo.gen_regular_instance(12, 3, seed=5)
        model, _ = _small_trained_model(6, seed=6)
        p1 = [Block(id=(1, 0), vertices=list(range(6))), Block(id=(1, 1), vertices=list(range(6, 12)))]
        p2 = [Block(id=(2, 0), vertices=list(range(6))), Block(id=(2, 1), vertices=list(range(6, 12)))]
        # one model for every block; ids only matter for lookup
        models = {b.id: model for b in p1 + p2}
        pp = PartitionPair(p1=p1, p2=p2)
        cfg = mcmc.KernelConfig("block-surrogate", 0.5, pp, models)
        x = np.zeros(12, dtype=np.uint8)
        x[[0, 1, 2, 6, 7, 8]] = 1  # every block at weight 3
        rng = stream(7)
        state = mcmc.ChainState(inst, x)
        tries = survived = 0
        for _ in range(30_000):
            move = mcmc.propose_block_surrogate(state, inst, cfg, rng)
            tries += 1
            survived += 0 if move is None else 1
        probs = exhaustive_conditional_distribution(model, 3)
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
    cfg = made.TrainConfig(epochs=30, seed=seed)
    model = made.build_model(block_size, cfg, seed=seed)
    report = made.train(model, data, cfg)
    return model, report


class TestProposeGlobalKawasaki:
    def test_unique_swap(self):
        inst = qubo.QuboInstance(n=2, quad={(0, 1): 1.0}, lin=np.zeros(2), konst=0.0)
        x = np.array([1, 0], dtype=np.uint8)
        state = mcmc.ChainState(inst, x)
        rng = stream(8)
        for _ in range(10):
            assert mcmc.propose_global_kawasaki(state, inst, None, rng)[0] == (0, 1)

    def test_weight_preserved(self):
        inst = qubo.gen_regular_instance(8, 3, seed=2)
        rng = stream(9)
        x = qubo.random_weight_k_config(8, 4, rng)
        state = mcmc.ChainState(inst, x)
        for _ in range(50):
            flips = mcmc.propose_global_kawasaki(state, inst, None, rng)[0]
            y = x.copy()
            y[list(flips)] ^= 1
            assert int(y.sum()) == 4

    def test_pair_frequencies_uniform(self):
        """All K(N-K) = 9 pairs drawn uniformly (chi-squared check)."""
        x = np.array([1, 1, 1, 0, 0, 0], dtype=np.uint8)
        inst = qubo.QuboInstance(n=6, quad={}, lin=np.zeros(6), konst=0.0)
        rng = stream(10)
        state = mcmc.ChainState(inst, x)
        counts = {}
        trials = 100_000
        for _ in range(trials):
            swap = tuple(mcmc.propose_global_kawasaki(state, inst, None, rng)[0])
            counts[swap] = counts.get(swap, 0) + 1
        assert len(counts) == 9
        expected = trials / 9
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 26.12  # 99.9th percentile of chi2(8)

    def test_degenerate_weight_rejected(self):
        inst = qubo.QuboInstance(n=4, quad={}, lin=np.zeros(4), konst=0.0)
        with pytest.raises(ConfigError):
            mcmc.propose_global_kawasaki(mcmc.ChainState(inst, np.ones(4, dtype=np.uint8)), inst, None, stream(0))


class TestProposeLocalKawasaki:
    def test_equal_bits_null_move(self):
        inst = qubo.QuboInstance(n=2, quad={(0, 1): 1.0}, lin=np.zeros(2), konst=0.0)
        x = np.array([1, 1], dtype=np.uint8)
        assert mcmc.propose_local_kawasaki(mcmc.ChainState(inst, x), inst, None, stream(1)) == ()

    def test_single_edge_deterministic_swap(self):
        inst = qubo.QuboInstance(n=2, quad={(0, 1): 1.0}, lin=np.zeros(2), konst=0.0)
        x = np.array([1, 0], dtype=np.uint8)
        state = mcmc.ChainState(inst, x)
        for s in range(5):
            assert mcmc.propose_local_kawasaki(state, inst, None, stream(s))[0] == (0, 1)

    def test_null_fraction_matches_edge_count(self):
        inst = qubo.gen_regular_instance(8, 3, seed=3)
        rng = stream(11)
        for _ in range(10):
            x = qubo.random_weight_k_config(8, 4, rng)
            state = mcmc.ChainState(inst, x)
            equal = sum(
                1 for i, j in zip(inst.edge_i, inst.edge_j) if x[i] == x[j]
            )
            exact = equal / inst.num_edges
            nulls = 0
            trials = 20_000
            for _ in range(trials):
                if mcmc.propose_local_kawasaki(state, inst, None, rng) == ():
                    nulls += 1
            se = math.sqrt(max(exact * (1 - exact), 1e-6) / trials)
            assert abs(nulls / trials - exact) < 5 * se + 1e-3

    def test_edgeless_rejected(self):
        inst = qubo.QuboInstance(n=4, quad={}, lin=np.zeros(4), konst=0.0)
        x = np.array([1, 0, 1, 0], dtype=np.uint8)
        with pytest.raises(ConfigError):
            mcmc.propose_local_kawasaki(mcmc.ChainState(inst, x), inst, None, stream(0))


class TestAccept:
    def test_zero_delta_always_accepts(self):
        inst = qubo.QuboInstance(n=4, quad={}, lin=np.zeros(4), konst=0.0)
        x = np.array([1, 0, 1, 0], dtype=np.uint8)
        trace = mcmc.run_chain(inst, 2, mcmc.KernelConfig("global-kawasaki", 2.0), steps=50, init=x, seed=1)
        assert np.all(trace.acceptance_probs == 1.0)
        assert trace.accepted.all()

    def test_beta_zero_always_accepts(self):
        inst = qubo.gen_regular_instance(8, 3, seed=4)
        x = qubo.random_weight_k_config(8, 4, stream(12))
        trace = mcmc.run_chain(inst, 4, mcmc.KernelConfig("global-kawasaki", 0.0), steps=50, init=x, seed=12)
        assert np.all(trace.acceptance_probs == 1.0)
        assert trace.accepted.all()

    def test_energy_cache_consistent(self):
        inst = qubo.gen_regular_instance(8, 3, seed=5)
        x = qubo.random_weight_k_config(8, 4, stream(13))
        trace = mcmc.run_chain(inst, 4, mcmc.KernelConfig("global-kawasaki", 0.5), steps=200, init=x, seed=13)
        assert 0 < trace.accepted.mean() < 1
        for row, e in zip(trace.configs, trace.energies):
            assert e == pytest.approx(qubo.energy(inst, row), abs=1e-9)


class TestRunChain:
    @pytest.mark.parametrize("kind", list(mcmc.KERNELS))
    def test_zero_steps(self, kind):
        inst = qubo.gen_regular_instance(8, 3, seed=6)
        init = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.uint8)
        cfg = block_surrogate_config(inst, [4, 4]) if kind == "block-surrogate" else mcmc.KernelConfig(kind, 0.5)
        trace = mcmc.run_chain(inst, 4, cfg, steps=0, init=init, seed=1)
        assert trace.steps == 0
        assert np.array_equal(trace.configs, init[None, :])
        assert np.array_equal(trace.energies, [qubo.energy(inst, init)])
        assert len(trace.accepted) == len(trace.acceptance_probs) == 0

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
        short = mcmc.run_chain(inst, 4, cfg, steps=2, init=init, seed=1, thin=5)  # fewer steps than thin
        assert np.array_equal(short.configs, init[None, :])
        assert len(short.energies) == 3


    @pytest.mark.parametrize(
        "init",
        [[2, 1, 1, 0, 0, 0, 0, 0], [1, 1, 1, 1, 0.5, 0, 0, 0], [1, 1, 1, 1, 1, 0, 0, -1]],
        ids=["two-bit", "half-bit", "minus-one"],
    )
    def test_non_binary_init_rejected(self, init):
        inst = qubo.gen_regular_instance(8, 3, seed=6)
        cfg = mcmc.KernelConfig("global-kawasaki", 0.5)
        with pytest.raises(ValueError, match="each 0 or 1"):
            mcmc.run_chain(inst, 4, cfg, steps=10, init=np.array(init), seed=0)

    def test_negative_steps_rejected(self):
        inst = qubo.gen_regular_instance(8, 3, seed=6)
        cfg = mcmc.KernelConfig("global-kawasaki", 0.5)
        init = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.uint8)
        with pytest.raises(ValueError, match="steps must be >= 0"):
            mcmc.run_chain(inst, 4, cfg, steps=-1, init=init, seed=0)


# The per-step numpy path that ``ChainState`` replaced, kept as the parity
# oracle: each step scans x for its 1- and 0-bits and takes the energy change
# from fancy-indexed dot products.
def ref_energy_delta_swap(inst, x, i, j):
    ni, wi = np.fromiter(inst.adjacency[i], np.intp), np.fromiter(inst.adjacency[i].values(), np.float64)
    nj, wj = np.fromiter(inst.adjacency[j], np.intp), np.fromiter(inst.adjacency[j].values(), np.float64)
    qij = inst.quad.get((min(i, j), max(i, j)), 0.0)
    s_i = float(wi @ x[ni]) - qij * float(x[j])
    s_j = float(wj @ x[nj]) - qij * float(x[i])
    d_i = float(x[j]) - float(x[i])
    return d_i * (inst.lin[i] + s_i) - d_i * (inst.lin[j] + s_j)


def ref_energy_delta_block(inst, x, verts, new_bits):
    """dE = (new - old) . (l + C_U x_U + S (new + old) / 2)."""
    inside = [int(v) for v in verts]
    outside = sorted({int(u) for v in inside for u in inst.adjacency[v]} - set(inside))
    col = {u: c for c, u in enumerate([*outside, *inside])}
    couplings = np.zeros((len(inside), len(col)))
    for t, v in enumerate(inside):
        for u, w in inst.adjacency[v].items():
            c = col[int(u)]
            couplings[t, c] = w if c < len(outside) else w / 2
    idx = np.array([*outside, *inside], dtype=np.intp)
    v = x[idx].astype(np.float64)
    old = v[len(idx) - len(inside) :]
    d = new_bits - old
    old += new_bits
    return float(d @ (inst.lin[verts] + couplings @ v))


_REF_TABLES = {}  # (block id, k) -> mcmc.sector_table; each ref_chain starts it empty


def ref_propose_block_surrogate(x, inst, cfg, rng):
    pp = cfg.partition_pair
    blocks = (pp.p1, pp.p2)[rng.integers(2)]
    block = blocks[rng.integers(len(blocks))]
    verts = np.array(block.vertices, dtype=np.intp)
    code = int(x[verts] @ (1 << np.arange(block.size)))
    key = (block.id, code.bit_count())
    if key not in _REF_TABLES:
        _REF_TABLES[key] = mcmc.sector_table(cfg.models[block.id], key[1])
    cdf, codes, log_q = _REF_TABLES[key]
    u = rng.random()
    if u >= cdf[-1]:
        return None
    new = codes[int(np.searchsorted(cdf, u, side="right"))]
    bits = (new >> np.arange(block.size)) & 1
    delta = ref_energy_delta_block(inst, x, verts, bits)
    return verts, bits, delta, log_q[code], log_q[new]


def ref_propose_global_kawasaki(x, inst, cfg, rng):
    ones = np.flatnonzero(x == 1)
    zeros = np.flatnonzero(x == 0)
    i = int(ones[rng.integers(len(ones))])
    j = int(zeros[rng.integers(len(zeros))])
    return [i, j], (0, 1), ref_energy_delta_swap(inst, x, i, j), 0.0, 0.0


def ref_propose_local_kawasaki(x, inst, cfg, rng):
    e = rng.integers(inst.num_edges)
    i = int(inst.edge_i[e])
    j = int(inst.edge_j[e])
    if x[i] == x[j]:
        return ()
    return [i, j], (x[j], x[i]), ref_energy_delta_swap(inst, x, i, j), 0.0, 0.0


REF_PROPOSE = {
    "block-surrogate": ref_propose_block_surrogate,
    "global-kawasaki": ref_propose_global_kawasaki,
    "local-kawasaki": ref_propose_local_kawasaki,
}


def ref_accept(x, e, move, beta_pi, rng):
    if move is None:
        return e, False, 0.0
    if not move:
        return e, True, 1.0
    vertices, bits, delta, log_q_rev, log_q_fwd = move
    log_alpha = -beta_pi * delta + log_q_rev - log_q_fwd
    alpha = 1.0 if log_alpha >= 0.0 else math.exp(log_alpha)
    if rng.random() <= alpha:
        x[vertices] = bits
        return e + delta, True, alpha
    return e, False, alpha


def ref_chain(inst, cfg, steps, init, seed, thin):
    """(configs, energies, accepted, probs) of the numpy stepper, with the
    energy reset to the exact one every 10^4 steps as ``run_chain`` does."""
    _REF_TABLES.clear()
    rng = stream(seed)
    x = init.copy()
    e = qubo.energy(inst, x)
    configs, energies, accepted, probs = [x.copy()], [e], [], []
    for t in range(steps):
        e, acc, alpha = ref_accept(x, e, REF_PROPOSE[cfg.kind](x, inst, cfg, rng), cfg.beta_pi, rng)
        energies.append(e)
        accepted.append(acc)
        probs.append(alpha)
        if (t + 1) % thin == 0:
            configs.append(x.copy())
        if (t + 1) % 10_000 == 0:
            e = qubo.energy(inst, x)
    return np.array(configs), np.array(energies), np.array(accepted), np.array(probs)


def sharpened_block_config(inst, sizes, seed, beta_pi=0.5):
    """Untrained, sharpened MADEs: q_fwd != q_rev and draws that miss the block's weight."""
    pp = build_partition_pair(inst, sizes, sizes, seed=seed)
    models = {}
    for i, b in enumerate([*pp.p1, *pp.p2]):
        model = made.build_model(b.size, made.TrainConfig(), seed=seed + i)
        for w in (*model.weights, *model.ctx_weights):
            w *= 1.5
        models[b.id] = model
    return mcmc.KernelConfig("block-surrogate", beta_pi, pp, models)


class TestParityWithNumpyStepper:
    """The chain state draws the same random numbers in the same order as
    the numpy stepper, so a seed gives the same chain."""

    def _check(self, inst, cfg, k, steps, thin, seed):
        init = qubo.random_weight_k_config(inst.n, k, stream(seed, 1))
        trace = mcmc.run_chain(inst, k, cfg, steps, init, seed, thin)
        configs, energies, accepted, probs = ref_chain(inst, cfg, steps, init, seed, thin)
        assert np.array_equal(trace.configs, configs)
        assert np.array_equal(trace.accepted, accepted)
        assert np.max(np.abs(trace.energies - energies)) < 1e-10
        assert np.max(np.abs(trace.acceptance_probs - probs)) < 1e-10
        return trace

    @pytest.mark.parametrize("kind", list(mcmc.KERNELS))
    def test_past_a_revalidation_thinned(self, kind):
        inst = qubo.gen_regular_instance(16, 3, seed=21)
        if kind == "block-surrogate":
            cfg = sharpened_block_config(inst, [4, 4, 4, 4], seed=22)
        else:
            cfg = mcmc.KernelConfig(kind, 0.7)
        trace = self._check(inst, cfg, 7, steps=10_500, thin=3, seed=23)
        assert 0 < trace.accepted.mean() < 1

    @pytest.mark.parametrize("kind", list(mcmc.KERNELS))
    def test_thin_not_dividing_steps(self, kind):
        """Flips after the last recorded row belong to no row."""
        inst = qubo.gen_regular_instance(16, 3, seed=21)
        if kind == "block-surrogate":
            cfg = sharpened_block_config(inst, [4, 4, 4, 4], seed=22)
        else:
            cfg = mcmc.KernelConfig(kind, 0.7)
        trace = self._check(inst, cfg, 7, steps=10_007, thin=3, seed=23)
        assert len(trace.configs) == 3336 and trace.energies[-1] != trace.energies[-3]  # the tail moved

    def test_mask_search_block_size(self):
        inst = qubo.gen_regular_instance(26, 3, seed=24)
        cfg = sharpened_block_config(inst, [13, 13], seed=25)
        trace = self._check(inst, cfg, 11, steps=3000, thin=1, seed=26)
        assert np.any(trace.acceptance_probs == 0.0)  # weight mismatches
        assert np.any(trace.accepted & (trace.acceptance_probs < 1.0))


class TestRevalidation:
    def _state(self):
        inst = qubo.gen_regular_instance(8, 3, seed=6)
        x = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        return inst, mcmc.ChainState(inst, x), qubo.energy(inst, x), x

    def test_clean_state_rebuilt(self):
        inst, state, e, x = self._state()
        fresh, exact = mcmc._revalidate(inst, state, e, 4, x)
        assert fresh is not state and exact == e
        assert fresh.h == state.h and fresh.ones == state.ones and fresh.zeros == state.zeros

    def test_drifted_field_raises(self):
        inst, state, e, x = self._state()
        state.h[5] += 1e-6
        with pytest.raises(RuntimeError, match="local field drifted at vertex 5"):
            mcmc._revalidate(inst, state, e, 4, x)

    @pytest.mark.parametrize("corrupt", [
        lambda s: s.ones.reverse(),
        lambda s: s.zeros.pop(),
        lambda s: s.bits.__setitem__(0, 0),
    ], ids=["ones-unsorted", "zeros-short", "bits"])
    def test_corrupt_lists_raise(self, corrupt):
        inst, state, e, x = self._state()
        corrupt(state)
        with pytest.raises(RuntimeError, match="bits or position lists"):
            mcmc._revalidate(inst, state, e, 4, x)

    def test_chain_checks_its_lists(self, monkeypatch):
        """Local Kawasaki never reads the position lists, so only the check sees them go wrong."""
        inst = qubo.gen_regular_instance(8, 3, seed=6)
        flip = mcmc.ChainState.flip
        flips = []

        def leaky_flip(state, v):
            flip(state, v)
            flips.append(v)
            if len(flips) == 5:
                state.zeros.append(inst.n)  # a position past the end keeps the list sorted

        monkeypatch.setattr(mcmc.ChainState, "flip", leaky_flip)
        cfg = mcmc.KernelConfig("local-kawasaki", 0.5)
        init = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.uint8)
        with pytest.raises(RuntimeError, match="bits or position lists"):
            mcmc.run_chain(inst, 4, cfg, steps=10_000, init=init, seed=1)


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


def empirical_distribution(trace, burn_in=0):
    """Visit frequencies over recorded configurations (keys as in the
    exact enumeration oracle)."""
    rows = trace.configs[burn_in:]
    counts = {}
    for r in range(len(rows)):
        key = rows[r].tobytes()
        counts[key] = counts.get(key, 0) + 1
    total = len(rows)
    return {key: c / total for key, c in counts.items()}


def total_variation(p, q):
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(x, 0.0) - q.get(x, 0.0)) for x in keys)


class TestStationarity:
    """Quick TV checks; the acceptance suite runs the full 10^6-step gate."""

    def setup_method(self):
        self.inst = qubo.gen_regular_instance(8, 3, seed=17)
        self.exact = qubo.enumerate_constrained_boltzmann(self.inst, 4, beta=0.5)
        self.init = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.uint8)

    def _tv(self, cfg, steps=200_000):
        trace = mcmc.run_chain(self.inst, 4, cfg, steps, self.init, seed=23)
        emp = empirical_distribution(trace, burn_in=steps // 100)
        return total_variation(emp, self.exact)

    def test_global_kawasaki(self):
        assert self._tv(mcmc.KernelConfig("global-kawasaki", 0.5)) < 0.05

    def test_local_kawasaki(self):
        assert self._tv(mcmc.KernelConfig("local-kawasaki", 0.5)) < 0.05

    def test_block_surrogate_uniform_models(self):
        cfg = block_surrogate_config(self.inst, [4, 4], beta_pi=0.5, partition_seed=5)
        assert self._tv(cfg, steps=100_000) < 0.05

    def test_block_surrogate_nonuniform_models(self):
        """Untrained, sharpened models: q_fwd != q_rev, so the Hastings
        ratio has to be right for the chain to hit the target."""
        pp = build_partition_pair(self.inst, [4, 4], [4, 4], seed=5)
        models = {}
        for i, b in enumerate([*pp.p1, *pp.p2]):
            model = made.build_model(4, made.TrainConfig(), seed=40 + i)
            for w in (*model.weights, *model.ctx_weights):
                w *= 1.5
            models[b.id] = model
        cfg = mcmc.KernelConfig("block-surrogate", 0.5, pp, models)
        assert self._tv(cfg) < 0.06


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


class TestKernelTable:
    def test_codes_are_fixed(self):
        """Trace files store these codes; a kernel keeps its code for good."""
        codes = {name: kernel.code for name, kernel in mcmc.KERNELS.items()}
        assert codes == {"block-surrogate": 1, "global-kawasaki": 2, "local-kawasaki": 3}

    @pytest.mark.parametrize("kind", list(mcmc.KERNELS))
    def test_kind_round_trips(self, tmp_path, kind):
        inst = qubo.gen_regular_instance(8, 3, seed=6)
        if mcmc.KERNELS[kind].uses_blocks:
            cfg = block_surrogate_config(inst, [4, 4])
        else:
            cfg = mcmc.KernelConfig(kind, 0.5)
        init = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.uint8)
        trace = mcmc.run_chain(inst, 4, cfg, steps=50, init=init, seed=2)
        path = tmp_path / "trace.bin"
        mcmc.save_trace(trace, path)
        assert path.read_bytes()[6] == mcmc.KERNELS[kind].code
        back = mcmc.load_trace(path)
        assert back.kind == kind
        assert np.array_equal(back.configs, trace.configs)


class TestTableOwnership:
    def test_each_table_built_once_per_config(self, monkeypatch):
        """Every chain of a config shares its (block, k) tables; a new config builds its own."""
        build, calls = mcmc.sector_table, []

        def counting(model, k):
            calls.append((id(model), k))
            return build(model, k)

        monkeypatch.setattr(mcmc, "sector_table", counting)
        inst = qubo.gen_regular_instance(8, 3, seed=6)
        cfg = sharpened_block_config(inst, [4, 4], seed=3)  # one model per block
        init = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.uint8)
        for seed in range(3):
            mcmc.run_chain(inst, 4, cfg, steps=300, init=init, seed=seed)
        assert len(calls) > 4 and len(set(calls)) == len(calls)
        built = len(calls)
        fresh = mcmc.KernelConfig("block-surrogate", cfg.beta_pi, cfg.partition_pair, cfg.models)
        mcmc.run_chain(inst, 4, fresh, steps=300, init=init, seed=0)
        assert len(calls) > built

    def test_config_built_after_train_reads_trained_weights(self):
        inst = qubo.gen_regular_instance(8, 3, seed=6)
        pp = build_partition_pair(inst, [4, 4], [4, 4], seed=3)
        model = made.build_model(4, made.TrainConfig(), seed=6)
        models = {b.id: model for part in (pp.p1, pp.p2) for b in part}
        init = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.uint8)
        before = mcmc.KernelConfig("block-surrogate", 0.5, pp, models)
        mcmc.run_chain(inst, 4, before, steps=200, init=init, seed=1)
        rows = stream(19).integers(0, 2, size=(200, 4)).astype(np.uint8)
        made.train(model, rows, made.TrainConfig(epochs=2, seed=1))
        after = mcmc.KernelConfig("block-surrogate", 0.5, pp, models)
        mcmc.run_chain(inst, 4, after, steps=200, init=init, seed=1)
        checked = 0
        for old_blocks, new_blocks in zip(before._blocks, after._blocks):
            for (_, _, old), (_, _, new) in zip(old_blocks, new_blocks):
                for k, (cdf, codes, log_q) in new.items():
                    exact = exhaustive_conditional_distribution(model, k)
                    assert np.allclose(np.exp([log_q[c] for c in codes]), exact[list(codes)], atol=1e-12)
                    if k in old and 0 < k < 4:
                        assert old[k][2] != log_q  # the first config keeps its untrained tables
                    checked += 1
        assert checked > 0


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
        assert back.thin == trace.thin
        assert np.array_equal(back.configs, trace.configs)
        assert np.array_equal(back.energies, trace.energies)
        assert np.array_equal(back.accepted, trace.accepted)
        assert np.array_equal(back.acceptance_probs, trace.acceptance_probs)

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

    # _trace() in the v3 layout: a 27-byte header, 41 config rows of one byte,
    # 201 f8 energies from offset 68, 200 accepted bytes from 1676 and 200 f8
    # acceptance probabilities from 1876
    @pytest.mark.parametrize(
        "offset, value, what",
        [
            (27 + 4, b"\xff", "config of weight other than k=4"),
            (27 + 4, b"\x07", "config of weight other than k=4"),
            (68 + 8 * 5, struct.pack(">d", math.inf), "non-finite energy"),
            (68 + 8 * 5, struct.pack(">d", math.nan), "non-finite energy"),
            (1676 + 3, b"\x07", "accepted flag other than 0 or 1"),
            (1676 + 3, b"\x02", "accepted flag other than 0 or 1"),
            (1876 + 8 * 2, struct.pack(">d", math.nan), r"acceptance probability outside \[0, 1\]"),
            (1876 + 8 * 2, struct.pack(">d", 7.5), r"acceptance probability outside \[0, 1\]"),
            (1876 + 8 * 2, struct.pack(">d", -0.25), r"acceptance probability outside \[0, 1\]"),
        ],
        ids=["weight-8", "weight-3", "energy-inf", "energy-nan", "accepted-7", "accepted-2",
             "prob-nan", "prob-7.5", "prob-negative"],
    )
    def test_malformed_value(self, tmp_path, offset, value, what):
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw[:offset] + value + raw[offset + len(value) :])
        with pytest.raises(FormatError, match=f"{what} at offset {offset}$"):
            mcmc.load_trace(path)

    @pytest.mark.parametrize("cut", [4, 20, 26])
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

    def test_zero_n(self, tmp_path):
        """No config bytes bound the step count, so n = 0 is refused before any read."""
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw[:7] + bytes(4) + raw[11:15] + (2**62).to_bytes(8, "big") + raw[23:])
        with pytest.raises(FormatError, match="offset 7"):
            mcmc.load_trace(path)

    def test_zero_thin(self, tmp_path):
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw[:23] + bytes(4) + raw[27:])
        with pytest.raises(FormatError, match="offset 23"):
            mcmc.load_trace(path)
