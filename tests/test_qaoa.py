"""Tests for the block QAOA simulator against dense matrix-exponential oracles."""

import json
import math
import struct

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from blockmc import qaoa, qubo
from blockmc.errors import FormatError, ResourceLimitError
from blockmc.partition import Block
from blockmc.streams import stream

_I = np.eye(2, dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)


def op_on(ops: dict, size: int) -> np.ndarray:
    """Kron chain with qubit t at bit t of the basis index (low bits last)."""
    acc = np.array([[1.0 + 0j]])
    for t in reversed(range(size)):
        acc = np.kron(acc, ops.get(t, _I))
    return acc


def dense_mixer(edges, size):
    dim = 1 << size
    h = np.zeros((dim, dim), dtype=np.complex128)
    for a, b in edges:
        h += 0.5 * (op_on({a: _X, b: _X}, size) + op_on({a: _Y, b: _Y}, size))
    return h


def random_block_problem(size, seed, degree=3):
    n = max(2 * size, 8)
    inst = qubo.gen_regular_instance(n, degree, seed=seed)
    block = Block(id=(1, 0), vertices=list(range(size)))
    return qaoa.build_block_problem(inst, block)


def random_state(dim, rng):
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def one_layer(bp, psi, gamma=0.0, beta=0.0):
    """One cost layer then one mixer layer: a p = 1 circuit."""
    return qaoa.qaoa_state(bp, qaoa.QaoaParams([gamma], [beta]), psi)


def draw(psi, shots, rng):
    """``shots`` basis indices drawn from the measurement law of ``psi``."""
    return qaoa._sample_rows(np.abs(psi[None]) ** 2, shots, rng)[0]


class TestBasis:
    def test_tables_agree_and_are_read_only(self):
        """Shared by every caller of a block size, so nobody may write to it."""
        b = qaoa.basis(5)
        assert qaoa.basis(5) is b
        idx = np.arange(32)
        assert np.array_equal(b.bits @ (1 << np.arange(5)), idx)
        assert np.array_equal(b.weight, b.bits.sum(axis=1))
        for w in range(6):
            sector = b.order[b.bounds[w] : b.bounds[w + 1]]
            assert np.array_equal(sector, idx[b.weight == w])
            assert np.array_equal(b.rank[sector], np.arange(len(sector)))
        for a in (b.bits, b.weight, b.order, b.rank):
            with pytest.raises(ValueError):
                a[0] = 0


class TestBlockProblem:
    def test_diag_energies_exhaustive(self):
        """Block-restricted energies must agree with direct evaluation."""
        inst = qubo.gen_regular_instance(12, 3, seed=5)
        block = Block(id=(1, 0), vertices=[3, 7, 1, 10])
        bp = qaoa.build_block_problem(inst, block)
        for z in range(16):
            xb = [(z >> t) & 1 for t in range(4)]
            e = 0.0
            for t, v in enumerate(block.vertices):
                e += inst.lin[v] * xb[t]
                for s, u in enumerate(block.vertices):
                    if s > t:
                        e += inst.quad.get((min(v, u), max(v, u)), 0.0) * xb[t] * xb[s]
            assert bp.diag_energies[z] == pytest.approx(e, abs=1e-12)

    def test_ring_mixer_edges(self):
        assert qaoa.ring_mixer_edges(1) == []
        assert qaoa.ring_mixer_edges(2) == [(0, 1)]
        assert qaoa.ring_mixer_edges(4) == [(0, 1), (1, 2), (2, 3), (3, 0)]


class TestPrepareInitialState:
    def test_uniform_two_qubits(self):
        psi = qaoa.prepare_initial_state(2, math.pi / 2)
        assert np.allclose(psi, 0.5)

    def test_zero_angle(self):
        psi = qaoa.prepare_initial_state(4, 0.0)
        expected = np.zeros(16)
        expected[0] = 1.0
        assert np.allclose(psi, expected)

    def test_sampled_weight_mean(self):
        angle = 2.0 * math.asin(math.sqrt(2.0 / 16.0))
        psi = qaoa.prepare_initial_state(16, angle)
        rng = stream(123)
        idx = draw(psi, 10_000, rng)
        w = qaoa.basis(16).weight[idx]
        assert abs(w.mean() - 2.0) < 0.1

    def test_limits(self):
        with pytest.raises(ResourceLimitError):
            qaoa.prepare_initial_state(25, 0.3)
        with pytest.raises(ValueError):
            qaoa.prepare_initial_state(4, -0.1)


class TestCostLayer:
    def test_gamma_zero_identity(self):
        bp = random_block_problem(4, seed=1)
        rng = stream(2)
        psi = random_state(16, rng)
        assert np.allclose(one_layer(bp, psi, gamma=0.0), psi)

    def test_single_qubit_phase(self):
        bp = qaoa.BlockProblem(
            block=Block(id=(1, 0), vertices=[0]),
            diag_energies=np.array([0.0, 1.3]),
        )
        psi = np.array([0.6, 0.8], dtype=np.complex128)
        out = one_layer(bp, psi, gamma=0.5)
        assert out[0] == pytest.approx(0.6)
        assert out[1] == pytest.approx(0.8 * np.exp(-1j * 0.5 * 1.3))

    def test_matches_dense_expm(self):
        bp = random_block_problem(6, seed=3)
        rng = stream(4)
        psi = random_state(64, rng)
        gamma = 0.37
        oracle = scipy.linalg.expm(-1j * gamma * np.diag(bp.diag_energies)) @ psi
        out = one_layer(bp, psi, gamma=gamma)
        assert np.max(np.abs(out - oracle)) < 1e-12


class TestXyMixerLayer:
    def test_beta_zero_identity(self):
        bp = random_block_problem(4, seed=5)
        rng = stream(6)
        psi = random_state(16, rng)
        assert np.allclose(one_layer(bp, psi, beta=0.0), psi)

    def test_two_qubit_rotation(self):
        """Single XY edge rotates in the {|01>, |10>} plane."""
        bp = qaoa.BlockProblem(
            block=Block(id=(1, 0), vertices=[0, 1]),
            diag_energies=np.zeros(4),
        )
        psi = np.zeros(4, dtype=np.complex128)
        psi[1] = 1.0  # bit 0 set
        beta = math.pi / 4
        out = one_layer(bp, psi, beta=beta)
        assert out[1] == pytest.approx(math.cos(beta))
        assert out[2] == pytest.approx(-1j * math.sin(beta))
        assert abs(out[0]) < 1e-14 and abs(out[3]) < 1e-14

    def test_matches_dense_expm(self):
        bp = random_block_problem(6, seed=7)
        rng = stream(8)
        psi = random_state(64, rng)
        beta = 0.7
        h = dense_mixer(qaoa.ring_mixer_edges(6), 6)
        oracle = scipy.linalg.expm(-1j * beta * h) @ psi
        out = one_layer(bp, psi, beta=beta)
        assert np.max(np.abs(out - oracle)) < 1e-9

    def test_randomized_oracle_cases(self):
        """Both layer types match dense Hermitian expm on random cases."""
        rng = stream(99)
        for case in range(20):
            size = int(rng.integers(2, 7))
            bp = random_block_problem(size, seed=100 + case)
            psi = random_state(1 << size, rng)
            beta = float(rng.uniform(-1.5, 1.5))
            h = dense_mixer(qaoa.ring_mixer_edges(size), size)
            oracle = scipy.linalg.expm(-1j * beta * h) @ psi
            out = one_layer(bp, psi, beta=beta)
            assert np.max(np.abs(out - oracle)) < 1e-9

    def test_norm_preserved(self):
        bp = random_block_problem(6, seed=9)
        rng = stream(10)
        psi = random_state(64, rng)
        out = one_layer(bp, psi, beta=1.2)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10


class TestQaoaState:
    def test_zero_params_identity(self):
        bp = random_block_problem(4, seed=11)
        rng = stream(12)
        psi = random_state(16, rng)
        params = qaoa.QaoaParams(gammas=np.zeros(1), betas=np.zeros(1))
        assert np.allclose(qaoa.qaoa_state(bp, params, psi), psi)

    def test_weight_subspace_confinement(self):
        """Support stays in the initial Hamming-weight subspace."""
        bp = random_block_problem(6, seed=13)
        w = qaoa.basis(6).weight
        rng = stream(14)
        for k in (1, 3, 5):
            psi = np.zeros(64, dtype=np.complex128)
            sel = w == k
            psi[sel] = random_state(int(sel.sum()), rng)
            params = qaoa.QaoaParams(gammas=rng.uniform(0, 1.5, 3), betas=rng.uniform(0, 1.5, 3))
            out = qaoa.qaoa_state(bp, params, psi)
            leakage = float(np.sum(np.abs(out[~sel]) ** 2))
            assert leakage < 1e-8

    def test_matches_layerwise_dense_oracle(self):
        bp = random_block_problem(4, seed=15)
        rng = stream(16)
        psi = random_state(16, rng)
        params = qaoa.QaoaParams(gammas=rng.uniform(0, 1.5, 2), betas=rng.uniform(0, 1.5, 2))
        h = dense_mixer(qaoa.ring_mixer_edges(4), 4)
        oracle = psi
        for g, b in zip(params.gammas, params.betas):
            oracle = scipy.linalg.expm(-1j * g * np.diag(bp.diag_energies)) @ oracle
            oracle = scipy.linalg.expm(-1j * b * h) @ oracle
        out = qaoa.qaoa_state(bp, params, psi)
        assert np.max(np.abs(out - oracle)) < 1e-9


class TestExpectedEnergy:
    def test_basis_state(self):
        bp = random_block_problem(4, seed=17)
        psi = np.zeros(16, dtype=np.complex128)
        psi[0] = 1.0
        assert qaoa.expected_energy(psi, bp) == pytest.approx(bp.diag_energies[0])

    def test_uniform_weight_subspace(self):
        bp = random_block_problem(6, seed=18)
        w = qaoa.basis(6).weight
        sel = w == 2
        psi = np.zeros(64, dtype=np.complex128)
        psi[sel] = 1.0 / math.sqrt(sel.sum())
        expected = bp.diag_energies[sel].mean()
        assert qaoa.expected_energy(psi, bp) == pytest.approx(expected)

    def test_monte_carlo_estimate(self):
        bp = random_block_problem(6, seed=19)
        rng = stream(20)
        psi = random_state(64, rng)
        idx = draw(psi, 1_000_000, rng)
        draws = bp.diag_energies[idx]
        se = draws.std() / math.sqrt(len(draws))
        assert abs(qaoa.expected_energy(psi, bp) - draws.mean()) < 3 * se


class TestOptimizeParams:
    def test_flat_landscape(self):
        bp = qaoa.BlockProblem(
            block=Block(id=(1, 0), vertices=[0, 1]),
            diag_energies=np.full(4, 2.5),
        )
        init = qaoa.prepare_initial_state(2, math.pi / 2)
        _, loss = qaoa.optimize_params(bp, p=1, init=init, restarts=2, seed=0)
        assert loss == pytest.approx(2.5)

    def test_improves_on_initial_state(self):
        """Optimized loss beats the untouched initial expectation."""
        strict_wins = 0
        for s in range(10):
            bp = random_block_problem(4, seed=200 + s)
            init = qaoa.prepare_initial_state(4, math.pi / 2)
            base = qaoa.expected_energy(init, bp)
            _, loss = qaoa.optimize_params(
                bp, p=5, init=init, restarts=2, seed=s, max_evals_per_restart=250
            )
            assert loss <= base + 1e-12
            if loss < base - 1e-9:
                strict_wins += 1
        assert strict_wins >= 9

    def test_reaches_subspace_minimum(self):
        """|B|=2 with a weight-1 init: the optimum is the smaller diagonal."""
        inst = qubo.QuboInstance(
            n=2, quad={(0, 1): 1.0}, lin=np.array([0.7, -0.4]), konst=0.0
        )
        bp = qaoa.build_block_problem(inst, Block(id=(1, 0), vertices=[0, 1]))
        init = np.zeros(4, dtype=np.complex128)
        init[1] = 1.0  # weight-1 basis state
        target = min(bp.diag_energies[1], bp.diag_energies[2])
        _, loss = qaoa.optimize_params(bp, p=3, init=init, restarts=4, seed=3)
        assert loss == pytest.approx(target, abs=1e-3)

    def test_deterministic(self):
        bp = random_block_problem(4, seed=21)
        init = qaoa.prepare_initial_state(4, math.pi / 2)
        p1, l1 = qaoa.optimize_params(bp, p=2, init=init, restarts=2, seed=7)
        p2, l2 = qaoa.optimize_params(bp, p=2, init=init, restarts=2, seed=7)
        assert np.array_equal(p1.gammas, p2.gammas)
        assert l1 == l2

    def test_each_restart_spends_exactly_its_evaluation_cap(self, monkeypatch):
        """The start is the simplex's first vertex: no evaluation outside Nelder-Mead."""
        calls = []
        state = qaoa.qaoa_state
        monkeypatch.setattr(qaoa, "qaoa_state", lambda *a: calls.append(1) or state(*a))
        bp = random_block_problem(4, seed=23)
        init = qaoa.prepare_initial_state(4, math.pi / 2)
        _, loss = qaoa.optimize_params(bp, p=2, init=init, restarts=3, seed=4, max_evals_per_restart=40)
        assert len(calls) == 3 * 40
        starts = stream(4, 90).uniform(0.0, math.pi / 2.0, size=(3, 4))
        for x0 in starts:
            params = qaoa.QaoaParams(gammas=x0[:2], betas=x0[2:])
            assert loss <= qaoa.expected_energy(state(bp, params, init), bp)

    def test_more_restarts_never_worse(self):
        bp = random_block_problem(4, seed=22)
        init = qaoa.prepare_initial_state(4, math.pi / 2)
        losses = [
            qaoa.optimize_params(bp, p=2, init=init, restarts=r, seed=5)[1]
            for r in (1, 2, 4)
        ]
        assert losses[0] >= losses[1] >= losses[2]


class TestTrainingSet:
    def test_zero_angle_all_zero_samples(self):
        bp = random_block_problem(4, seed=23)
        params = qaoa.QaoaParams(gammas=np.array([0.4]), betas=np.array([0.9]))
        samples = qaoa.generate_training_set(bp, params, [0.0], 200, seed=1)
        assert np.all(samples == 0)
        assert np.all(samples.sum(axis=1) == 0)

    def test_pi_angle_all_one_samples(self):
        bp = random_block_problem(4, seed=24)
        params = qaoa.QaoaParams(gammas=np.array([0.4]), betas=np.array([0.9]))
        samples = qaoa.generate_training_set(bp, params, [math.pi], 200, seed=2)
        assert np.all(samples == 1)
        assert np.all(samples.sum(axis=1) == 4)

    def test_weight_histogram_matches_exact_masses(self):
        """Chi-squared agreement between sampled and exact subspace masses."""
        bp = random_block_problem(6, seed=25)
        init = qaoa.prepare_initial_state(6, math.pi / 2)
        params, _ = qaoa.optimize_params(bp, p=2, init=init, restarts=2, seed=9)
        angles = qaoa.default_training_angles(6)
        shots = 10_000
        weights = qaoa.generate_training_set(bp, params, angles, shots, seed=3).sum(axis=1)
        w = qaoa.basis(6).weight
        for a_idx, angle in enumerate(angles):
            psi = qaoa.qaoa_state(bp, params, qaoa.prepare_initial_state(6, angle))
            probs = np.abs(psi) ** 2
            mass = np.array([probs[w == k].sum() for k in range(7)])
            got = weights[a_idx * shots : (a_idx + 1) * shots]
            counts = np.bincount(got, minlength=7)
            expected = shots * mass
            keep = expected > 5
            chi2 = float(np.sum((counts[keep] - expected[keep]) ** 2 / expected[keep]))
            # dof <= 6; 99.9th percentile of chi2(6) is 22.46
            assert chi2 < 22.46

    @pytest.mark.parametrize("size", [5, 8, 9, 13])
    def test_sample_set_roundtrip(self, tmp_path, size):
        """Rows of one and of two packed bytes, with and without padding bits."""
        bp = random_block_problem(size, seed=26)
        params = qaoa.QaoaParams(gammas=np.array([0.4]), betas=np.array([0.9]))
        samples = qaoa.generate_training_set(bp, params, [0.8, 1.9], 100, seed=4)
        path = tmp_path / "samples.bin"
        qaoa.save_sample_set(samples, path)
        back = qaoa.load_sample_set(path)
        assert back.dtype == np.uint8
        assert np.array_equal(back, samples)

    def test_params_roundtrip(self, tmp_path):
        params = qaoa.QaoaParams(gammas=np.array([0.1, 0.2]), betas=np.array([0.3, 0.4]))
        path = tmp_path / "params.json"
        qaoa.save_params(params, -1.25, path)
        back, loss = qaoa.load_params(path)
        assert np.array_equal(back.gammas, params.gammas)
        assert np.array_equal(back.betas, params.betas)
        assert loss == -1.25


class TestSectorEigenMixer:
    def test_sector_positions(self):
        """Sector w lists the weight-w basis indices in ascending order."""
        for size in (1, 2, 5, 8):
            eig = qaoa.mixer_operator(size)
            assert isinstance(eig, qaoa.SectorEigenbasis)
            b = qaoa.basis(size)
            d = eig.padded_values.shape[1]
            for w in range(size + 1):
                expected = [z for z in range(1 << size) if bin(z).count("1") == w]
                got = b.order[b.bounds[w] : b.bounds[w + 1]]
                assert got.tolist() == expected
                assert eig.slot[got].tolist() == list(range(w * d, w * d + len(expected)))

    def test_sector_blocks_reconstruct_dense_mixer(self):
        size = 7
        eig = qaoa.mixer_operator(size)
        h = dense_mixer(qaoa.ring_mixer_edges(size), size)
        b = qaoa.basis(size)
        assert eig.stack.dtype == np.float64
        for w in range(size + 1):
            lo, hi = b.bounds[w], b.bounds[w + 1]
            dw = hi - lo
            sector = b.order[lo:hi]
            v = eig.stack[w, :dw, :dw]
            rebuilt = (v * eig.padded_values[w, :dw]) @ v.T
            assert np.max(np.abs(rebuilt - h[np.ix_(sector, sector)])) < 1e-12
            assert not eig.stack[w, dw:].any() and not eig.stack[w, :, dw:].any()
            assert not eig.padded_values[w, dw:].any()

    def test_csr_above_512_dims(self):
        """One read-only CSR serves every block of a size."""
        first = random_block_problem(10, seed=31)
        second = random_block_problem(10, seed=32)
        h = qaoa.mixer_operator(first.size)
        assert scipy.sparse.issparse(h)
        assert qaoa.mixer_operator(second.size) is h
        for a in (h.data, h.indices, h.indptr):
            with pytest.raises(ValueError):
                a[0] = 0

    @pytest.mark.parametrize("size", [7, 8, 9])
    def test_matches_dense_expm_larger_blocks(self, size):
        bp = random_block_problem(size, seed=40 + size)
        rng = stream(50 + size)
        h = dense_mixer(qaoa.ring_mixer_edges(size), size)
        for beta in (-1.3, 0.0, 0.4, 2.9):
            psi = random_state(1 << size, rng)
            oracle = scipy.linalg.expm(-1j * beta * h) @ psi
            out = one_layer(bp, psi, beta=beta)
            assert np.max(np.abs(out - oracle)) < 1e-9

    def test_single_sector_stays_exactly_in_sector(self):
        size = 8
        bp = random_block_problem(size, seed=32)
        w = qaoa.basis(size).weight
        rng = stream(33)
        for k in (0, 3, 8):
            sel = w == k
            psi = np.zeros(1 << size, dtype=np.complex128)
            psi[sel] = random_state(int(sel.sum()), rng)
            out = one_layer(bp, psi, beta=1.1)
            assert np.all(out[~sel] == 0.0)
            assert abs(np.linalg.norm(out[sel]) - 1.0) < 1e-12


def sector_mixer(edges, size, w):
    """The mixer on the weight-w sector, in ascending index order, from
    (XX + YY)/2 = |01><10| + |10><01| on each edge."""
    sector = [z for z in range(1 << size) if bin(z).count("1") == w]
    pos = {z: i for i, z in enumerate(sector)}
    h = np.zeros((len(sector), len(sector)))
    for z in sector:
        for a, b in edges:
            if (z >> a) & 1 != (z >> b) & 1:
                h[pos[z], pos[z ^ (1 << a) ^ (1 << b)]] = 1.0
    return np.array(sector), h


class CountingOperator:
    """Delegates ``@`` to the wrapped operator and counts the products."""

    def __init__(self, op):
        self.op = op
        self.products = 0

    def __matmul__(self, other):
        self.products += 1
        return self.op @ other


class TestMixerAbove512Dims:
    @pytest.mark.parametrize("size", [10, 11])
    def test_matches_sector_expm(self, size):
        bp = random_block_problem(size, seed=70 + size)
        rng = stream(80 + size)
        sectors = [sector_mixer(qaoa.ring_mixer_edges(size), size, w) for w in range(size + 1)]
        for beta in (-1.3, 0.0, 0.4, 2.9):
            psi = random_state(1 << size, rng)
            oracle = np.empty_like(psi)
            for sector, h in sectors:
                oracle[sector] = scipy.linalg.expm(-1j * beta * h) @ psi[sector]
            out = one_layer(bp, psi, beta=beta)
            assert np.max(np.abs(out - oracle)) < 1e-9

    def test_single_sector_stays_exactly_in_sector(self):
        size = 10
        bp = random_block_problem(size, seed=34)
        w = qaoa.basis(size).weight
        rng = stream(35)
        for k in (0, 4, 10):
            sel = w == k
            psi = np.zeros(1 << size, dtype=np.complex128)
            psi[sel] = random_state(int(sel.sum()), rng)
            out = one_layer(bp, psi, beta=1.1)
            assert np.all(out[~sel] == 0.0)
            assert abs(np.linalg.norm(out[sel]) - 1.0) < 1e-12

    def test_zero_state_stays_zero(self):
        bp = random_block_problem(10, seed=36)
        out = one_layer(bp, np.zeros(1 << 10, dtype=np.complex128), beta=0.4)
        assert np.all(out == 0.0)

    @pytest.mark.parametrize("size", range(3, 12))
    def test_ring_radius_is_the_mixer_norm(self, size):
        """The free-fermion R bounds ||H|| (from each weight sector's spectrum) and is tight."""
        norm = max(
            float(np.max(np.abs(np.linalg.eigvalsh(h)))) if len(h) else 0.0
            for _, h in (sector_mixer(qaoa.ring_mixer_edges(size), size, w) for w in range(size + 1))
        )
        radius = qaoa._ring_radius(size)
        assert norm <= radius <= norm * (1 + 1e-9)
        assert radius < size or size == 3

    def test_ring_layer_matches_sector_expm_to_1e_12(self):
        size = 10
        bp = random_block_problem(size, seed=41)
        rng = stream(42)
        sectors = [sector_mixer(qaoa.ring_mixer_edges(size), size, w) for w in range(size + 1)]
        for beta in (-1.3, 0.4, 2.9):
            psi = random_state(1 << size, rng)
            oracle = np.empty_like(psi)
            for sector, h in sectors:
                oracle[sector] = scipy.linalg.expm(-1j * beta * h) @ psi[sector]
            out = one_layer(bp, psi, beta=beta)
            assert np.max(np.abs(out - oracle)) < 1e-12

    @pytest.mark.parametrize("size", [10, 11])
    def test_matches_layerwise_sector_oracle(self, size):
        """A p = 3 circuit, one Chebyshev series and one rescale per layer."""
        bp = random_block_problem(size, seed=150 + size)
        rng = stream(160 + size)
        psi = random_state(1 << size, rng)
        params = qaoa.QaoaParams(gammas=rng.uniform(0, 1.5, 3), betas=rng.uniform(-1.5, 0, 3))
        sectors = [sector_mixer(qaoa.ring_mixer_edges(size), size, w) for w in range(size + 1)]
        oracle = psi
        for g, b in zip(params.gammas, params.betas):
            oracle = np.exp(-1j * g * bp.diag_energies) * oracle  # expm of the diagonal cost
            for sector, h in sectors:
                oracle[sector] = scipy.linalg.expm(-1j * b * h) @ oracle[sector]
        out = qaoa.qaoa_state(bp, params, psi)
        assert np.max(np.abs(out - oracle)) < 1e-12

    @pytest.mark.parametrize("beta", [0.4, 1.5, -2.9])
    def test_sparse_products_per_layer(self, beta, monkeypatch):
        """One layer costs about |beta| * edges sparse products, not a series per sub-step."""
        size = 10
        bp = random_block_problem(size, seed=37)
        counter = CountingOperator(qaoa.mixer_operator(size))
        monkeypatch.setattr(qaoa, "mixer_operator", lambda _size: counter)
        psi = random_state(1 << size, stream(38))
        one_layer(bp, psi, beta=beta)
        assert 0 < counter.products <= math.ceil(abs(beta) * size) + 40


class TestTrainingSetOneEvolution:
    @pytest.mark.parametrize("size", [6, 10])
    def test_matches_per_angle_reference_loop(self, size):
        """One evolution scaled per angle samples exactly as one evolution per angle."""
        bp = random_block_problem(size, seed=60 + size)
        rng = stream(61)
        params = qaoa.QaoaParams(gammas=rng.uniform(0, 1.5, 3), betas=rng.uniform(-1.5, 1.5, 3))
        angles = [0.0, 0.7, math.pi / 2, 2.2, math.pi]
        shots, seed = 400, 17
        samples = qaoa.generate_training_set(bp, params, angles, shots, seed=seed)
        ref_rng = stream(seed, 91)
        ref_samples = []
        for angle in angles:
            psi = qaoa.qaoa_state(bp, params, qaoa.prepare_initial_state(size, angle))
            idx = draw(psi, shots, ref_rng)
            ref_samples.append(((idx[:, None] >> np.arange(size)) & 1).astype(np.uint8))
        # rows a * shots : (a + 1) * shots come from angle a
        assert np.array_equal(samples, np.concatenate(ref_samples))

    def test_one_circuit_evaluation_per_block(self, monkeypatch):
        bp = random_block_problem(5, seed=62)
        params = qaoa.QaoaParams(gammas=np.array([0.4]), betas=np.array([0.9]))
        calls = []
        inner = qaoa.qaoa_state
        monkeypatch.setattr(qaoa, "qaoa_state", lambda *a: calls.append(1) or inner(*a))
        qaoa.generate_training_set(bp, params, qaoa.default_training_angles(5, 1.0), 10, seed=5)
        assert len(calls) == 1


class TestPaddedSectorCircuit:
    @pytest.mark.parametrize("size", range(2, 10))
    def test_matches_layerwise_dense_oracle(self, size):
        bp = random_block_problem(size, seed=110 + size)
        rng = stream(120 + size)
        psi = random_state(1 << size, rng)
        params = qaoa.QaoaParams(gammas=rng.uniform(0, 1.5, 3), betas=rng.uniform(-1.5, 0, 3))
        h = dense_mixer(qaoa.ring_mixer_edges(size), size)
        oracle = psi
        for g, b in zip(params.gammas, params.betas):
            oracle = np.exp(-1j * g * bp.diag_energies) * oracle  # expm of the diagonal cost
            oracle = scipy.linalg.expm(-1j * b * h) @ oracle
        out = qaoa.qaoa_state(bp, params, psi)
        assert np.max(np.abs(out - oracle)) < 1e-12

    def test_blocks_of_one_size_share_one_read_only_eigenbasis(self):
        first = random_block_problem(5, seed=130)
        second = random_block_problem(5, seed=131)
        eig = qaoa.mixer_operator(first.size)
        assert qaoa.mixer_operator(second.size) is eig
        for a in (eig.stack, eig.padded_values, eig.slot):
            with pytest.raises(ValueError):
                a.flat[0] = 1.0

    def test_weight_k_state_leaks_nothing_into_other_sectors(self):
        size = 7
        bp = random_block_problem(size, seed=134)
        w = qaoa.basis(size).weight
        rng = stream(135)
        for k in (0, 2, 5, 7):
            sel = w == k
            psi = np.zeros(1 << size, dtype=np.complex128)
            psi[sel] = random_state(int(sel.sum()), rng)
            params = qaoa.QaoaParams(gammas=rng.uniform(0, 1.5, 4), betas=rng.uniform(-1.5, 1.5, 4))
            out = qaoa.qaoa_state(bp, params, psi)
            assert np.all(out[~sel] == 0.0)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_params_reject_non_finite_angles(self, bad):
        with pytest.raises(ValueError, match="finite"):
            qaoa.QaoaParams(gammas=np.array([0.3, bad]), betas=np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="finite"):
            qaoa.QaoaParams(gammas=np.array([0.3, 0.4]), betas=np.array([bad, 0.2]))

    @pytest.mark.parametrize(("size", "error", "match"), [(4, RuntimeError, "drift"), (10, RuntimeError, "drift")])
    def test_nan_gamma_past_the_params_check_raises(self, size, error, match):
        """The norm check catches it, once per circuit up to 512 dims and per layer above."""
        bp = random_block_problem(size, seed=141)
        init = qaoa.prepare_initial_state(size, math.pi / 2)
        params = qaoa.QaoaParams(gammas=np.array([0.3, 0.4]), betas=np.array([0.1, 0.2]))
        params.gammas = np.array([0.3, math.nan])
        with pytest.raises(error, match=match):
            qaoa.qaoa_state(bp, params, init)

    @pytest.mark.parametrize("size", [4, 10])
    def test_non_finite_state_fails_the_drift_check(self, size):
        bp = random_block_problem(size, seed=142)
        psi = qaoa.prepare_initial_state(size, math.pi / 2)
        psi[3] = math.nan
        with pytest.raises(RuntimeError, match="drift"):
            one_layer(bp, psi, beta=0.4)


class TestArgumentChecks:
    @pytest.mark.parametrize("size", [4, 10])
    def test_sampling_rejects_a_zero_state(self, size):
        with pytest.raises(ValueError, match="probability"):
            draw(np.zeros(1 << size, dtype=np.complex128), 3, stream(1))

    def test_sampling_rejects_a_non_finite_state(self):
        psi = qaoa.prepare_initial_state(4, math.pi / 2)
        psi[0] = math.inf
        with pytest.raises(ValueError, match="probability"):
            draw(psi, 3, stream(1))

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_optimize_rejects_restarts_below_one(self, restarts):
        bp = random_block_problem(4, seed=143)
        init = qaoa.prepare_initial_state(4, math.pi / 2)
        with pytest.raises(ValueError, match="restarts"):
            qaoa.optimize_params(bp, p=1, init=init, restarts=restarts)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_optimize_rejects_an_evaluation_cap_below_one(self, cap):
        bp = random_block_problem(4, seed=144)
        init = qaoa.prepare_initial_state(4, math.pi / 2)
        with pytest.raises(ValueError, match="max_evals_per_restart"):
            qaoa.optimize_params(bp, p=1, init=init, restarts=1, max_evals_per_restart=cap)


GOOD_PARAMS = {"gammas": [0.1, 0.2], "betas": [0.3, 0.4], "loss": -1.0}
BAD_PARAMS = [
    "{not json",
    "[1, 2]",
    json.dumps({k: v for k, v in GOOD_PARAMS.items() if k != "betas"}),
    json.dumps({**GOOD_PARAMS, "betas": [0.3]}),
    json.dumps({**GOOD_PARAMS, "gammas": [], "betas": []}),
    json.dumps({**GOOD_PARAMS, "gammas": [0.1, "x"]}),
    json.dumps({**GOOD_PARAMS, "gammas": [0.1, True]}),
    json.dumps(GOOD_PARAMS).replace("-1.0", "NaN"),
] + [json.dumps(GOOD_PARAMS).replace("0.2", bad) for bad in ("NaN", "Infinity", "1e999", "1" + "0" * 400)]


class TestLoaderValidation:
    @pytest.mark.parametrize("text", BAD_PARAMS, ids=[f"case{i}" for i in range(len(BAD_PARAMS))])
    def test_bad_params_raise_format_error(self, tmp_path, text):
        path = tmp_path / "params.json"
        path.write_text(text)
        with pytest.raises(FormatError):
            qaoa.load_params(path)

    def test_non_utf8_params_raise_format_error(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_bytes(b'{"p": "\xff"}')
        with pytest.raises(FormatError):
            qaoa.load_params(path)

    def test_good_params_load(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(GOOD_PARAMS))
        params, loss = qaoa.load_params(path)
        assert len(params.gammas) == 2 and loss == -1.0

    def test_zero_block_size_raises_format_error(self, tmp_path):
        """No row bytes bound the count, so |B| = 0 is refused before any read."""
        path = tmp_path / "samples.bin"
        path.write_bytes(b"BMCS" + struct.pack(">HHQ", 3, 0, 2**62))
        with pytest.raises(FormatError, match="offset 6"):
            qaoa.load_sample_set(path)

    @pytest.mark.parametrize("cut", [4, 10, 15])
    def test_short_sample_header_raises_format_error(self, tmp_path, cut):
        bp = random_block_problem(4, seed=63)
        params = qaoa.QaoaParams(gammas=np.array([0.4]), betas=np.array([0.9]))
        samples = qaoa.generate_training_set(bp, params, [1.0], 5, seed=6)
        path = tmp_path / "samples.bin"
        qaoa.save_sample_set(samples, path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(FormatError, match="offset"):
            qaoa.load_sample_set(path)
