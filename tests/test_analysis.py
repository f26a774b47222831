"""Tests for overlap, autocorrelation, and decay-rate fitting."""

import math

import numpy as np
import pytest
import scipy.signal

from blockmc import analysis, mcmc, pipeline, qubo
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
        thin=1,
        configs=configs,
        energies=np.asarray(energies, dtype=np.float64),
        accepted=np.ones(steps, dtype=bool),
        acceptance_probs=np.ones(steps),
    )


class TestOverlapSeries:
    def test_identical_chains(self):
        rng = stream(1)
        configs = np.array([qubo.random_weight_k_config(16, 4, rng) for _ in range(50)])
        t = fake_trace(configs)
        s = analysis.overlap_series(t, t)
        assert np.allclose(s, 4 / 16)

    def test_disjoint_supports(self):
        a = np.zeros((20, 8), dtype=np.uint8)
        a[:, :4] = 1
        b = np.zeros((20, 8), dtype=np.uint8)
        b[:, 4:] = 1
        s = analysis.overlap_series(fake_trace(a), fake_trace(b))
        assert np.all(s == 0.0)

    def test_matches_naive_loop(self):
        rng = stream(2)
        a = np.array([qubo.random_weight_k_config(16, 8, rng) for _ in range(100)])
        b = np.array([qubo.random_weight_k_config(16, 8, rng) for _ in range(100)])
        s = analysis.overlap_series(fake_trace(a), fake_trace(b))
        for t in range(100):
            naive = sum(int(a[t, i]) * int(b[t, i]) for i in range(16)) / 16
            assert s[t] == pytest.approx(naive)

    def test_mismatched_lengths(self):
        a = np.zeros((10, 8), dtype=np.uint8)
        b = np.zeros((11, 8), dtype=np.uint8)
        with pytest.raises(ValueError):
            analysis.overlap_series(fake_trace(a), fake_trace(b))


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        rng = stream(3)
        s = rng.random(1000)
        rho = analysis.autocorrelation(s, max_lag=50)
        assert rho[0] == pytest.approx(1.0, abs=1e-12)

    def test_white_noise(self):
        rng = stream(4)
        s = rng.random(100_000)
        rho = analysis.autocorrelation(s, max_lag=100)
        assert np.all(np.abs(rho[1:]) < 0.02)

    def test_ar1_analytic(self):
        """AR(1) with phi = 0.9 has rho(l) = phi^l."""
        phi = 0.9
        rng = stream(5)
        noise = rng.standard_normal(1_000_000)
        series = scipy.signal.lfilter([1.0], [1.0, -phi], noise)
        rho = analysis.autocorrelation(series, max_lag=30)
        for l in range(31):
            assert abs(rho[l] - phi**l) < 0.02

    def test_constant_series_degenerate(self):
        s = np.full(1000, 0.25)
        rho = analysis.autocorrelation(s, max_lag=20)
        assert np.isnan(rho).all()

    def test_too_short_series(self):
        s = np.zeros(50)
        with pytest.raises(ValueError):
            analysis.autocorrelation(s, max_lag=45)

    def test_matches_direct_estimator(self):
        """FFT path equals the direct biased covariance sum."""
        rng = stream(6)
        q = rng.random(500)
        rho = analysis.autocorrelation(q, 20)
        qc = q - q.mean()
        for l in range(21):
            direct = float(np.sum(qc[: 500 - l] * qc[l:])) / 500
            assert rho[l] == pytest.approx(direct / (np.sum(qc * qc) / 500), abs=1e-10)


class TestPairAutocorrelation:
    def test_lags_stop_eleven_short_of_the_series(self):
        """60 samples less a 0.1 burn-in leave 54, so lags 0..43 however many are asked for."""
        rng = stream(31)
        a, b = (fake_trace((rng.random((60, 8)) < 0.5).astype(np.uint8)) for _ in range(2))
        rho = analysis.pair_autocorrelation(a, b, 300, 0.1)
        assert len(rho) == 44
        np.testing.assert_array_equal(rho, analysis.autocorrelation(analysis.overlap_series(a, b, 0.1), 43))

    def test_no_lag_after_burn_in(self):
        rng = stream(32)
        a, b = (fake_trace((rng.random((12, 8)) < 0.5).astype(np.uint8)) for _ in range(2))
        with pytest.raises(InsufficientDataError, match="^12 recorded samples leave no lag after burn-in$"):
            analysis.pair_autocorrelation(a, b, 300, 0.1)


class TestFitDecayRate:
    def test_exact_geometric(self):
        rho = 0.8 ** np.arange(40)
        fit = analysis.fit_decay_rate(rho)
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
        fit = analysis.fit_decay_rate(rho)
        assert abs(fit.rate - tau_star) < 0.1 * tau_star

    def test_flat_series_flagged_slow(self):
        rho = np.full(50, 0.98)
        rho[0] = 1.0
        fit = analysis.fit_decay_rate(rho)
        assert fit.slow_mixing
        assert fit.rate == pytest.approx(0.0, abs=1e-2)

    def test_too_few_usable_lags(self):
        rho = np.array([1.0, 0.5, 0.01, 0.001, 0.0001])
        with pytest.raises(InsufficientDataError):
            analysis.fit_decay_rate(rho)

    def test_rate_never_negative(self):
        rng = stream(8)
        rho = np.clip(0.3 + rng.normal(0, 0.05, 30), 0.06, 1.0)
        rho[0] = 1.0
        fit = analysis.fit_decay_rate(rho)
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
    """The kernel ratios that ``pipeline.analyze_traces`` reports."""

    def _pairs(self, kind, n_pairs):
        inst = qubo.gen_regular_instance(16, 3, seed=7)
        init = np.zeros(16, dtype=np.uint8)
        init[:8] = 1
        cfg = mcmc.KernelConfig(kind, 0.5)
        return [tuple(mcmc.run_chain(inst, 8, cfg, 3000, init, seed=10 * p + t) for t in range(2))
                for p in range(n_pairs)]

    def test_single_fit_ratio(self):
        """With one pair per kernel, tau_mean is that pair's rate and the ratio
        is the quotient of the two rates."""
        traces = {kind: self._pairs(kind, 1) for kind in ("global-kawasaki", "local-kawasaki")}
        result = pipeline.analyze_traces(traces, max_lag=300, cutoff=0.05, burn_fraction=0.1)
        rate = {kind: analysis.fit_decay_rate(analysis.pair_autocorrelation(a, b, 300, 0.1), cutoff=0.05).rate
                for kind, [(a, b)] in traces.items()}
        for kind, r in rate.items():
            assert result["kernels"][kind]["tau_mean"] == pytest.approx(r, rel=1e-12)
            assert result["kernels"][kind]["tau_std"] == 0.0
        g, l = rate["global-kawasaki"], rate["local-kawasaki"]
        assert result["ratios"]["global-kawasaki/local-kawasaki"] == pytest.approx(g / l)
        assert result["ratios"]["local-kawasaki/global-kawasaki"] == pytest.approx(l / g)

    def test_identical_kernels_unit_ratio(self):
        pairs = self._pairs("local-kawasaki", 2)
        result = pipeline.analyze_traces({"a": pairs, "b": pairs}, max_lag=300, cutoff=0.05, burn_fraction=0.1)
        assert result["kernels"]["a"]["tau_mean"] > 0.0
        assert result["ratios"] == {"a/b": 1.0, "b/a": 1.0}


class TestCsvOutputs:
    def test_rho_csv(self, tmp_path):
        rng = stream(11)
        results = [
            0.9 ** np.arange(20) + rng.normal(0, 1e-3, 20)
            for _ in range(3)
        ]
        rho_path = tmp_path / "rho.csv"
        analysis.save_rho_csv(results, rho_path)
        lines = rho_path.read_text().strip().split("\n")
        assert lines[0] == "lag,rho_mean,rho_std"
        assert len(lines) == 21

    @pytest.mark.parametrize("runs", [1, 2, 4, 8, 9])
    def test_rho_csv_matches_per_lag_loop(self, tmp_path, runs):
        """Bytes equal those of a mean/std taken lag by lag; degenerate runs
        are dropped."""
        rng = stream(14, runs)
        results = [rng.normal(size=301) for _ in range(runs)]
        results.insert(1, np.full(301, np.nan))
        rhos = np.array([r for r in results if not np.isnan(r[0])])
        expected = ["lag,rho_mean,rho_std"]
        for lag in range(rhos.shape[1]):
            std = rhos[:, lag].std(ddof=1) if len(rhos) > 1 else 0.0
            expected.append(f"{lag * 3},{float(rhos[:, lag].mean())!r},{float(std)!r}")
        analysis.save_rho_csv(results, tmp_path / "rho.csv", thin=3)
        assert (tmp_path / "rho.csv").read_bytes() == "".join(f"{line}\n" for line in expected).encode()

    def test_rho_csv_all_degenerate_is_header_only(self, tmp_path):
        results = [np.full(5, np.nan)]
        analysis.save_rho_csv(results, tmp_path / "rho.csv")
        assert (tmp_path / "rho.csv").read_text() == "lag,rho_mean,rho_std\n"

    def test_best_energy_csv(self, tmp_path):
        rng = stream(12)
        t = fake_trace(np.zeros((50, 4), dtype=np.uint8), energies=rng.standard_normal(50))
        path = tmp_path / "best.csv"
        analysis.save_best_energy_csv([t], path, ["best_energy"])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,best_energy"
        assert len(lines) == 51

    def test_every_field_is_a_number(self, tmp_path):
        """numpy scalars are written as plain numbers, not as np.float64(...)."""
        rng = stream(13)
        results = [rng.random(5) for _ in range(2)]
        analysis.save_rho_csv(results, tmp_path / "rho.csv", thin=2)
        t = fake_trace(np.zeros((6, 4), dtype=np.uint8), energies=rng.standard_normal(6))
        analysis.save_best_energy_csv([t], tmp_path / "best.csv", ["best_energy"])
        for name in ("rho.csv", "best.csv"):
            rows = (tmp_path / name).read_text().splitlines()[1:]
            assert rows
            for row in rows:
                [float(v) for v in row.split(",")]
