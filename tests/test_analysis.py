"""Tests for overlap, autocorrelation, and decay-rate fitting."""

import math

import numpy as np
import pytest
import scipy.signal

from blockmc import analysis, mcmc, qubo
from blockmc.errors import InsufficientDataError
from blockmc.streams import stream


def fake_trace(configs, kind="global-kawasaki", energies=None):
    configs = np.asarray(configs, dtype=np.uint8)
    steps = len(configs) - 1
    if energies is None:
        energies = np.zeros(len(configs))
    return mcmc.ChainTrace(
        n=configs.shape[1],
        k=int(configs[0].sum()),
        kind=kind,
        seed=0,
        thin=1,
        beta_pi=0.5,
        configs=configs,
        energies=np.asarray(energies, dtype=np.float64),
        accepted=np.ones(steps, dtype=bool),
        acceptance_probs=np.ones(steps),
        details=np.zeros((steps, 2), dtype=np.int32),
    )


class TestOverlapSeries:
    def test_identical_chains(self):
        rng = stream(1)
        configs = np.array([qubo.random_weight_k_config(16, 4, rng) for _ in range(50)])
        t = fake_trace(configs)
        s = analysis.overlap_series(t, t)
        assert np.allclose(s.values, 4 / 16)

    def test_disjoint_supports(self):
        a = np.zeros((20, 8), dtype=np.uint8)
        a[:, :4] = 1
        b = np.zeros((20, 8), dtype=np.uint8)
        b[:, 4:] = 1
        s = analysis.overlap_series(fake_trace(a), fake_trace(b))
        assert np.all(s.values == 0.0)

    def test_matches_naive_loop(self):
        rng = stream(2)
        a = np.array([qubo.random_weight_k_config(16, 8, rng) for _ in range(100)])
        b = np.array([qubo.random_weight_k_config(16, 8, rng) for _ in range(100)])
        s = analysis.overlap_series(fake_trace(a), fake_trace(b))
        for t in range(100):
            naive = sum(int(a[t, i]) * int(b[t, i]) for i in range(16)) / 16
            assert s.values[t] == pytest.approx(naive)

    def test_mismatched_lengths(self):
        a = np.zeros((10, 8), dtype=np.uint8)
        b = np.zeros((11, 8), dtype=np.uint8)
        with pytest.raises(ValueError):
            analysis.overlap_series(fake_trace(a), fake_trace(b))


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        rng = stream(3)
        s = analysis.OverlapSeries(values=rng.random(1000), n_sites=8)
        ac = analysis.autocorrelation(s, max_lag=50)
        assert ac.rho[0] == pytest.approx(1.0, abs=1e-12)

    def test_white_noise(self):
        rng = stream(4)
        s = analysis.OverlapSeries(values=rng.random(100_000), n_sites=8)
        ac = analysis.autocorrelation(s, max_lag=100)
        assert np.all(np.abs(ac.rho[1:]) < 0.02)

    def test_ar1_analytic(self):
        """AR(1) with phi = 0.9 has rho(l) = phi^l."""
        phi = 0.9
        rng = stream(5)
        noise = rng.standard_normal(1_000_000)
        series = scipy.signal.lfilter([1.0], [1.0, -phi], noise)
        ac = analysis.autocorrelation(
            analysis.OverlapSeries(values=series, n_sites=1), max_lag=30
        )
        for l in range(31):
            assert abs(ac.rho[l] - phi**l) < 0.02

    def test_constant_series_degenerate(self):
        s = analysis.OverlapSeries(values=np.full(1000, 0.25), n_sites=8)
        ac = analysis.autocorrelation(s, max_lag=20)
        assert ac.degenerate
        assert ac.var_q == 0.0

    def test_too_short_series(self):
        s = analysis.OverlapSeries(values=np.zeros(50), n_sites=8)
        with pytest.raises(ValueError):
            analysis.autocorrelation(s, max_lag=45)

    def test_matches_direct_estimator(self):
        """FFT path equals the direct biased covariance sum."""
        rng = stream(6)
        q = rng.random(500)
        ac = analysis.autocorrelation(analysis.OverlapSeries(values=q, n_sites=4), 20)
        qc = q - q.mean()
        for l in range(21):
            direct = float(np.sum(qc[: 500 - l] * qc[l:])) / 500
            assert ac.rho[l] == pytest.approx(direct / (np.sum(qc * qc) / 500), abs=1e-10)


class TestFitDecayRate:
    def test_exact_geometric(self):
        rho = 0.8 ** np.arange(40)
        ac = analysis.AutocorrResult(rho=rho, mean_q=0.0, var_q=1.0)
        fit = analysis.fit_decay_rate(ac)
        assert fit.rate == pytest.approx(-math.log(0.8), abs=1e-6)
        assert fit.amplitude == pytest.approx(1.0, abs=1e-9)
        assert fit.residual < 1e-10
        assert not fit.slow_mixing

    def test_noisy_recovery_within_ten_percent(self):
        tau_star = 0.05
        rng = stream(7)
        lags = np.arange(200)
        rho = np.exp(-tau_star * lags) + rng.normal(0.0, 0.01, size=200)
        rho[0] = 1.0
        ac = analysis.AutocorrResult(rho=rho, mean_q=0.0, var_q=1.0)
        fit = analysis.fit_decay_rate(ac)
        assert abs(fit.rate - tau_star) < 0.1 * tau_star

    def test_flat_series_flagged_slow(self):
        rho = np.full(50, 0.98)
        rho[0] = 1.0
        ac = analysis.AutocorrResult(rho=rho, mean_q=0.0, var_q=1.0)
        fit = analysis.fit_decay_rate(ac)
        assert fit.slow_mixing
        assert fit.rate == pytest.approx(0.0, abs=1e-2)

    def test_too_few_usable_lags(self):
        rho = np.array([1.0, 0.5, 0.01, 0.001, 0.0001])
        ac = analysis.AutocorrResult(rho=rho, mean_q=0.0, var_q=1.0)
        with pytest.raises(InsufficientDataError):
            analysis.fit_decay_rate(ac)

    def test_rate_never_negative(self):
        rng = stream(8)
        rho = np.clip(0.3 + rng.normal(0, 0.05, 30), 0.06, 1.0)
        rho[0] = 1.0
        ac = analysis.AutocorrResult(rho=rho, mean_q=0.0, var_q=1.0)
        fit = analysis.fit_decay_rate(ac)
        assert fit.rate >= 0.0


class TestBestEnergyTrace:
    def test_monotone_input_unchanged(self):
        energies = np.array([5.0, 4.0, 3.0, 2.0])
        t = fake_trace(np.zeros((4, 4), dtype=np.uint8), energies=energies)
        assert np.array_equal(analysis.best_energy_trace(t), energies)

    def test_running_min_property(self):
        rng = stream(9)
        energies = rng.standard_normal(500)
        t = fake_trace(np.zeros((500, 4), dtype=np.uint8), energies=energies)
        best = analysis.best_energy_trace(t)
        assert np.all(np.diff(best) <= 0.0 + 1e-15)
        assert np.all(best <= energies + 1e-15)

    def test_matches_quadratic_recompute(self):
        rng = stream(10)
        energies = rng.standard_normal(200)
        t = fake_trace(np.zeros((200, 4), dtype=np.uint8), energies=energies)
        best = analysis.best_energy_trace(t)
        for i in range(200):
            assert best[i] == pytest.approx(min(energies[: i + 1]))


class TestEnsembleSummary:
    def _fit(self, rate):
        return analysis.DecayFit(
            amplitude=1.0, rate=rate, fit_window=(1, 10), residual=0.0
        )

    def test_single_fit_ratio(self):
        summary = analysis.ensemble_summary(
            {"a": [self._fit(0.4)], "b": [self._fit(0.1)]}
        )
        assert summary.ratios[("a", "b")] == pytest.approx(4.0)

    def test_mean_std_recompute(self):
        rates = [0.1, 0.2, 0.15, 0.3, 0.25, 0.18, 0.22, 0.12, 0.28, 0.2, 0.17, 0.23]
        summary = analysis.ensemble_summary({"a": [self._fit(r) for r in rates]})
        assert summary.stats["a"].tau_mean == pytest.approx(sum(rates) / len(rates))
        m = sum(rates) / len(rates)
        var = sum((r - m) ** 2 for r in rates) / (len(rates) - 1)
        assert summary.stats["a"].tau_std == pytest.approx(math.sqrt(var))

    def test_identical_kernels_unit_ratio(self):
        summary = analysis.ensemble_summary(
            {"a": [self._fit(0.2)], "b": [self._fit(0.2)]}
        )
        assert summary.ratios[("a", "b")] == pytest.approx(1.0)


class TestCsvOutputs:
    def test_rho_csv(self, tmp_path):
        rng = stream(11)
        results = [
            analysis.AutocorrResult(rho=0.9 ** np.arange(20) + rng.normal(0, 1e-3, 20),
                                    mean_q=0.2, var_q=0.01)
            for _ in range(3)
        ]
        rho_path = tmp_path / "rho.csv"
        analysis.save_rho_csv(results, rho_path)
        lines = rho_path.read_text().strip().split("\n")
        assert lines[0] == "lag,rho_mean,rho_std"
        assert len(lines) == 21

    def test_best_energy_csv(self, tmp_path):
        rng = stream(12)
        t = fake_trace(np.zeros((50, 4), dtype=np.uint8), energies=rng.standard_normal(50))
        path = tmp_path / "best.csv"
        analysis.save_best_energy_csv(t, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,best_energy"
        assert len(lines) == 51
