"""Mixing diagnostics: chain overlap, autocorrelation, decay-rate fits.

Two independent chains sampling the same target produce the overlap series
q(t) = (1/N) sum_i x_i(t) x'_i(t); how fast q decorrelates measures how
fast the pair explores the feasible set. The autocorrelation rho(l) uses
the biased (1/T) covariance estimator, and the decay rate tau comes from a
weighted log-domain straight-line fit of rho(l) ~ A exp(-tau l) over the
lags above a cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .mcmc import ChainTrace


@dataclass
class OverlapSeries:
    values: np.ndarray
    n_sites: int


@dataclass
class AutocorrResult:
    rho: np.ndarray  # indexed by lag, rho[0] == 1 unless degenerate
    mean_q: float
    var_q: float
    degenerate: bool = False


@dataclass
class DecayFit:
    amplitude: float
    rate: float
    fit_window: tuple[int, int]
    residual: float
    slow_mixing: bool = False


def overlap_series(a: ChainTrace, b: ChainTrace, burn_fraction: float = 0.0) -> OverlapSeries:
    """Elementwise bit agreement popcount(x AND x')/N per recorded step."""
    if a.n != b.n:
        raise ValueError(f"traces disagree on N: {a.n} vs {b.n}")
    if len(a.configs) != len(b.configs):
        raise ValueError("traces have different recorded lengths")
    start = int(burn_fraction * len(a.configs))
    common = a.configs[start:] & b.configs[start:]
    return OverlapSeries(values=common.sum(axis=1) / a.n, n_sites=a.n)


def autocorrelation(s: OverlapSeries, max_lag: int) -> AutocorrResult:
    """Biased-estimator autocorrelation of the overlap series via FFT."""
    q = np.asarray(s.values, dtype=np.float64)
    t = len(q)
    if t <= max_lag + 10:
        raise ValueError(f"series length {t} too short for max_lag {max_lag}")
    mean_q = float(q.mean())
    qc = q - mean_q
    spec = np.fft.rfft(qc, 2 * t)
    cov = np.fft.irfft(spec * np.conj(spec))[: max_lag + 1] / t
    var_q = float(cov[0])
    if var_q <= 1e-300:
        return AutocorrResult(
            rho=np.full(max_lag + 1, np.nan), mean_q=mean_q, var_q=0.0, degenerate=True
        )
    return AutocorrResult(rho=cov / var_q, mean_q=mean_q, var_q=var_q)


def fit_decay_rate(ac: AutocorrResult, cutoff: float = 0.05) -> DecayFit:
    """Weighted least squares of log rho(l) against l, lags 1..first crossing.

    Weights are proportional to rho^2 (delta-method variance of log rho);
    tau is the negated slope, clamped at zero. A window that never crosses
    the cutoff flags slow mixing.
    """
    if ac.degenerate:
        raise InsufficientDataError("degenerate autocorrelation (zero variance)")
    rho = ac.rho
    last = len(rho) - 1
    slow = True
    for l in range(1, len(rho)):
        if not rho[l] > cutoff:
            last = l - 1
            slow = False
            break
    lags = np.arange(1, last + 1)
    if len(lags) < 4:
        raise InsufficientDataError(
            f"only {len(lags)} usable lags above cutoff {cutoff}; need >= 4"
        )
    y = np.log(rho[lags])
    slope, intercept = np.polyfit(lags, y, 1, w=rho[lags])
    fitted = intercept + slope * lags
    residual = float(np.sqrt(np.mean((y - fitted) ** 2)))
    return DecayFit(
        amplitude=float(np.exp(intercept)),
        rate=max(0.0, float(-slope)),
        fit_window=(1, int(last)),
        residual=residual,
        slow_mixing=slow,
    )


def best_energy_trace(t: ChainTrace) -> np.ndarray:
    """Running minimum of the per-step energies."""
    if len(t.energies) == 0:
        raise ValueError("empty trace")
    return np.minimum.accumulate(t.energies)


def pair_autocorrelation(
    a: ChainTrace, b: ChainTrace, max_lag: int, burn_fraction: float = 0.1
) -> AutocorrResult:
    """Overlap autocorrelation of one chain pair after burn-in discard."""
    return autocorrelation(overlap_series(a, b, burn_fraction=burn_fraction), max_lag)


def mean_autocorrelation(results: list[AutocorrResult]) -> AutocorrResult:
    """Average rho over runs (the default object the decay fit acts on)."""
    usable = [r for r in results if not r.degenerate]
    if not usable:
        raise InsufficientDataError("all autocorrelation results degenerate")
    rho = np.mean([r.rho for r in usable], axis=0)
    return AutocorrResult(
        rho=rho,
        mean_q=float(np.mean([r.mean_q for r in usable])),
        var_q=float(np.mean([r.var_q for r in usable])),
    )


@dataclass
class KernelTauStats:
    kernel: str
    tau_mean: float
    tau_std: float
    n: int


@dataclass
class EnsembleSummary:
    stats: dict[str, KernelTauStats]
    ratios: dict[tuple[str, str], float]


def ensemble_summary(fits: dict[str, list[DecayFit]]) -> EnsembleSummary:
    """Mean/std of tau per kernel plus all pairwise mean-tau ratios."""
    stats = {}
    for kernel, fs in fits.items():
        if not fs:
            raise ValueError(f"no fits for kernel {kernel}")
        taus = np.array([f.rate for f in fs])
        std = float(taus.std(ddof=1)) if len(taus) > 1 else 0.0
        stats[kernel] = KernelTauStats(kernel, float(taus.mean()), std, len(taus))
    ratios = {}
    for ka in fits:
        for kb in fits:
            if ka != kb and stats[kb].tau_mean > 0.0:
                ratios[(ka, kb)] = stats[ka].tau_mean / stats[kb].tau_mean
    return EnsembleSummary(stats=stats, ratios=ratios)


def save_rho_csv(results: list[AutocorrResult], path, thin: int = 1) -> None:
    """(lag, rho_mean, rho_std) across runs; lags in chain steps, one recorded
    sample per ``thin`` steps."""
    rhos = np.array([r.rho for r in results if not r.degenerate])
    with open(path, "w") as f:
        f.write("lag,rho_mean,rho_std\n")
        for l in range(rhos.shape[1]):
            mean = rhos[:, l].mean()
            std = rhos[:, l].std(ddof=1) if len(rhos) > 1 else 0.0
            f.write(f"{l * thin},{mean!r},{std!r}\n")


def save_best_energy_csv(trace: ChainTrace, path) -> None:
    best = best_energy_trace(trace)
    with open(path, "w") as f:
        f.write("step,best_energy\n")
        for t, e in enumerate(best):
            f.write(f"{t},{e!r}\n")
