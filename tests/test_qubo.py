"""Tests for the QUBO/Ising core: energies, deltas, conversion, oracles."""

import math

import mpmath
import numpy as np
import pytest

from blockmc import qubo
from blockmc.errors import FormatError, ResourceLimitError
from blockmc.streams import stream


def slow_energy(inst, x):
    """Independent term-by-term evaluator used as the oracle."""
    e = inst.konst
    for i in range(inst.n):
        e += inst.lin[i] * int(x[i])
        for j in range(i + 1, inst.n):
            e += inst.quad.get((i, j), 0.0) * int(x[i]) * int(x[j])
    return e


def all_configs(n):
    for z in range(2**n):
        yield np.array([(z >> t) & 1 for t in range(n)], dtype=np.uint8)


class TestEnergy:
    def test_all_zero_is_konst(self):
        inst = qubo.QuboInstance(n=3, quad={(0, 1): 1.5}, lin=np.array([1.0, 2.0, 3.0]), konst=7.25)
        assert qubo.energy(inst, np.zeros(3, dtype=np.uint8)) == 7.25

    def test_single_active_term(self):
        inst = qubo.QuboInstance(n=2, quad={(0, 1): 2.0}, lin=np.zeros(2), konst=0.0)
        assert qubo.energy(inst, np.array([1, 1], dtype=np.uint8)) == 2.0

    def test_matches_term_by_term_oracle(self):
        inst = qubo.gen_regular_instance(8, 3, seed=11)
        for x in all_configs(8):
            assert qubo.energy(inst, x) == pytest.approx(slow_energy(inst, x), abs=1e-12)

    def test_dimension_mismatch(self):
        inst = qubo.QuboInstance(n=3, quad={}, lin=np.zeros(3), konst=0.0)
        with pytest.raises(ValueError):
            qubo.energy(inst, np.zeros(4, dtype=np.uint8))


class TestEnergyDeltaSwap:
    def test_linear_only(self):
        inst = qubo.QuboInstance(n=2, quad={}, lin=np.array([1.0, 0.0]), konst=0.0)
        x = np.array([1, 0], dtype=np.uint8)
        assert qubo.energy_delta_swap(inst, x, 0, 1) == pytest.approx(-1.0)

    def test_swap_is_involution(self):
        inst = qubo.gen_regular_instance(8, 3, seed=3)
        rng = stream(5)
        for _ in range(20):
            x = qubo.random_weight_k_config(8, 4, rng)
            ones = np.flatnonzero(x == 1)
            zeros = np.flatnonzero(x == 0)
            i = int(rng.choice(ones))
            j = int(rng.choice(zeros))
            d1 = qubo.energy_delta_swap(inst, x, i, j)
            y = x.copy()
            y[i], y[j] = y[j], y[i]
            d2 = qubo.energy_delta_swap(inst, y, i, j)
            assert d1 + d2 == pytest.approx(0.0, abs=1e-12)

    def test_matches_full_recomputation(self):
        inst = qubo.gen_regular_instance(8, 3, seed=7)
        rng = stream(9)
        for _ in range(100):
            x = qubo.random_weight_k_config(8, 4, rng)
            i = int(rng.choice(np.flatnonzero(x == 1)))
            j = int(rng.choice(np.flatnonzero(x == 0)))
            y = x.copy()
            y[i], y[j] = y[j], y[i]
            expected = qubo.energy(inst, y) - qubo.energy(inst, x)
            assert qubo.energy_delta_swap(inst, x, i, j) == pytest.approx(expected, abs=1e-12)

    def test_equal_bits_rejected(self):
        inst = qubo.QuboInstance(n=2, quad={}, lin=np.zeros(2), konst=0.0)
        with pytest.raises(ValueError):
            qubo.energy_delta_swap(inst, np.array([1, 1], dtype=np.uint8), 0, 1)


class TestEnergyDeltaBlock:
    def test_matches_full_recomputation(self):
        inst = qubo.gen_regular_instance(12, 3, seed=2)
        rng = stream(4)
        for _ in range(50):
            x = qubo.random_weight_k_config(12, 6, rng)
            verts = rng.choice(12, size=4, replace=False)
            new_bits = rng.integers(0, 2, size=4).astype(np.uint8)
            y = x.copy()
            y[verts] = new_bits
            expected = qubo.energy(inst, y) - qubo.energy(inst, x)
            got = qubo.energy_delta_block(inst, x, verts, new_bits)
            assert got == pytest.approx(expected, abs=1e-12)


class TestGenRegularInstance:
    def test_edge_count_and_degrees(self):
        inst = qubo.gen_regular_instance(16, 3, seed=0)
        assert inst.num_edges == 24
        assert all(inst.degree(i) == 3 for i in range(16))

    def test_simple_graph(self):
        inst = qubo.gen_regular_instance(32, 3, seed=5)
        assert all(i < j for i, j in inst.quad)  # no loops, keys unique by dict

    def test_deterministic(self):
        a = qubo.gen_regular_instance(16, 3, seed=42)
        b = qubo.gen_regular_instance(16, 3, seed=42)
        assert a.quad == b.quad

    def test_zero_linear_and_constant(self):
        inst = qubo.gen_regular_instance(16, 3, seed=1)
        assert np.all(inst.lin == 0.0)
        assert inst.konst == 0.0

    def test_coefficient_mean_sane(self):
        coeffs = []
        for s in range(10):
            coeffs.extend(qubo.gen_regular_instance(128, 3, seed=s).edge_w)
        coeffs = np.array(coeffs)
        assert abs(coeffs.mean()) < 3.0 / math.sqrt(len(coeffs))

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError):
            qubo.gen_regular_instance(7, 3, seed=0)  # odd stub count
        with pytest.raises(ValueError):
            qubo.gen_regular_instance(4, 5, seed=0)


class TestEnumerateConstrainedBoltzmann:
    def test_beta_zero_uniform(self):
        inst = qubo.gen_regular_instance(6, 3, seed=13)
        dist = qubo.enumerate_constrained_boltzmann(inst, 3, beta=0.0)
        assert len(dist) == 20
        for p in dist.values():
            assert p == pytest.approx(1.0 / 20.0, abs=1e-12)

    def test_constant_energy_uniform(self):
        inst = qubo.QuboInstance(n=6, quad={}, lin=np.zeros(6), konst=3.0)
        dist = qubo.enumerate_constrained_boltzmann(inst, 2, beta=1.7)
        assert len(dist) == 15
        for p in dist.values():
            assert p == pytest.approx(1.0 / 15.0, abs=1e-12)

    def test_matches_high_precision_oracle(self):
        inst = qubo.gen_regular_instance(8, 3, seed=17)
        beta = 0.5
        dist = qubo.enumerate_constrained_boltzmann(inst, 4, beta=beta)
        mpmath.mp.dps = 50
        weights = {}
        for key in dist:
            x = np.frombuffer(key, dtype=np.uint8)
            weights[key] = mpmath.exp(mpmath.mpf(-beta) * mpmath.mpf(slow_energy(inst, x)))
        z = mpmath.fsum(weights.values())
        for key, p in dist.items():
            assert p == pytest.approx(float(weights[key] / z), abs=1e-13)

    def test_is_probability_distribution(self):
        inst = qubo.gen_regular_instance(10, 3, seed=23)
        dist = qubo.enumerate_constrained_boltzmann(inst, 5, beta=0.8)
        probs = np.array(list(dist.values()))
        assert np.all(probs >= 0.0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_cap_enforced(self):
        inst = qubo.QuboInstance(n=40, quad={}, lin=np.zeros(40), konst=0.0)
        with pytest.raises(ResourceLimitError):
            qubo.enumerate_constrained_boltzmann(inst, 20, beta=1.0)


class TestInstanceIO:
    def test_json_roundtrip(self, tmp_path):
        inst = qubo.gen_regular_instance(16, 3, seed=9)
        path = tmp_path / "inst.json"
        qubo.save_instance(inst, path)
        back = qubo.load_instance(path)
        assert back.n == inst.n
        assert back.quad == inst.quad
        assert np.array_equal(back.lin, inst.lin)
        assert back.konst == inst.konst

    def test_csv_import(self, tmp_path):
        path = tmp_path / "coeff.csv"
        path.write_text("1.0,2.0,0.0\n0.0,-1.0,0.5\n0.0,0.0,0.0\n")
        inst = qubo.load_instance_csv(path)
        assert inst.n == 3
        assert inst.quad == {(0, 1): 2.0, (1, 2): 0.5}
        assert np.array_equal(inst.lin, np.array([1.0, -1.0, 0.0]))

    def test_csv_rejects_lower_triangle(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,1.0\n")
        with pytest.raises(FormatError):
            qubo.load_instance_csv(path)

    def test_zero_quad_entry_rejected(self):
        with pytest.raises(ValueError):
            qubo.QuboInstance(n=2, quad={(0, 1): 0.0}, lin=np.zeros(2), konst=0.0)
