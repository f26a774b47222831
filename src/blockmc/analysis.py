"""Mixing diagnostics: chain overlap, autocorrelation, decay-rate fits.

Two independent chains sampling the same target produce the overlap series
q(t) = (1/N) sum_i x_i(t) x'_i(t); how fast q decorrelates measures how
fast the pair explores the feasible set. The autocorrelation rho(l) uses
the biased (1/T) covariance estimator, and the decay rate tau comes from a
weighted log-domain straight-line fit of rho(l) ~ A exp(-tau l) over the
lags above a cutoff. An overlap series and its autocorrelation are plain
float arrays; a series with no variance has rho NaN at every lag, so
``np.isnan(rho[0])`` marks it (otherwise rho[0] is 1). A chain pair whose
overlap series has T samples allows lags up to T - 11, the one lag limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .fileio import write_lines
from .mcmc import ChainTrace


@dataclass
class DecayFit:
    amplitude: float
    rate: float
    fit_window: tuple[int, int]
    residual: float
    slow_mixing: bool = False


def overlap_series(a: ChainTrace, b: ChainTrace, burn_fraction: float = 0.0) -> np.ndarray:
    """Elementwise bit agreement popcount(x AND x')/N per recorded step."""
    if a.n != b.n:
        raise ValueError(f"traces disagree on N: {a.n} vs {b.n}")
    if len(a.configs) != len(b.configs):
        raise ValueError("traces have different recorded lengths")
    start = int(burn_fraction * len(a.configs))
    common = a.configs[start:] & b.configs[start:]
    return common.sum(axis=1) / a.n


def autocorrelation(q: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased-estimator autocorrelation rho via FFT of ``q``, a 1-D series such
    as the overlap series, at lags 0..max_lag; all NaN if ``q`` has no variance."""
    q = np.asarray(q, dtype=np.float64)
    t = len(q)
    if t <= max_lag + 10:
        raise ValueError(f"series length {t} too short for max_lag {max_lag}")
    qc = q - q.mean()
    spec = np.fft.rfft(qc, 2 * t)
    cov = np.fft.irfft(spec * np.conj(spec))[: max_lag + 1] / t
    var_q = float(cov[0])
    if var_q <= 1e-300:
        return np.full(max_lag + 1, np.nan)
    return cov / var_q


def fit_decay_rate(rho: np.ndarray, cutoff: float = 0.05) -> DecayFit:
    """Weighted least squares of log rho(l) against l, lags 1..first crossing.

    Weights are proportional to rho^2 (delta-method variance of log rho);
    tau is the negated slope, clamped at zero. A window that never crosses
    the cutoff flags slow mixing.
    """
    if np.isnan(rho[0]):
        raise InsufficientDataError("degenerate autocorrelation (zero variance)")
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
) -> np.ndarray:
    """Overlap autocorrelation of one chain pair after burn-in discard, at
    lags 0..min(max_lag, T - 11) for an overlap series of T samples."""
    q = overlap_series(a, b, burn_fraction=burn_fraction)
    if len(q) <= 11:
        raise InsufficientDataError(f"{len(a.configs)} recorded samples leave no lag after burn-in")
    return autocorrelation(q, min(max_lag, len(q) - 11))


def mean_autocorrelation(rhos: list[np.ndarray]) -> np.ndarray:
    """Average rho over the non-degenerate runs (the default object the decay fit acts on)."""
    usable = [rho for rho in rhos if not np.isnan(rho[0])]
    if not usable:
        raise InsufficientDataError("all autocorrelation results degenerate")
    return np.mean(usable, axis=0)


def save_rho_csv(rhos: list[np.ndarray], path, thin: int = 1) -> None:
    """(lag, rho_mean, rho_std) across the non-degenerate runs; lags in chain
    steps, one recorded sample per ``thin`` steps."""
    rhos = [rho for rho in rhos if not np.isnan(rho[0])]
    lines = ["lag,rho_mean,rho_std"]
    if rhos:  # every run degenerate: no rows
        # reduce along contiguous lag rows: axis=0 of the run-major array
        # sums in another order and moves the last digit from 8 runs up
        by_lag = np.ascontiguousarray(np.array(rhos).T)
        mean = by_lag.mean(axis=1)
        std = by_lag.std(axis=1, ddof=1) if len(rhos) > 1 else np.zeros(len(by_lag))
        lines += [f"{l * thin},{mu!r},{sd!r}" for l, (mu, sd) in enumerate(zip(mean.tolist(), std.tolist()))]
    write_lines(path, lines)


def save_best_energy_csv(traces: list[ChainTrace], path, names: list[str]) -> None:
    """Running minimum energy of each trace, one column per trace headed by its name."""
    best = [best_energy_trace(t).tolist() for t in traces]
    rows = (",".join([str(t), *map(repr, row)]) for t, row in enumerate(zip(*best)))
    write_lines(path, [",".join(["step", *names]), *rows])
