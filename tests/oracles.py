"""Independent reference implementations used to check the library.

Nothing here may call into the code paths under test: moments come from raw
multivariate-Gaussian sampling, payoffs from an explicit double loop, the
variance formula and the zero-drift IR from literal double sums, segmentation
from exhaustive enumeration, and the square-wave IR from exact per-period
payoff moments.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def toeplitz_covariance(variance: float, rho: tuple[float, ...], size: int) -> np.ndarray:
    cov = np.empty((size, size))
    for a in range(size):
        for b in range(size):
            d = abs(a - b)
            if d == 0:
                c = 1.0
            elif d <= len(rho):
                c = rho[d - 1]
            else:
                c = 0.0
            cov[a, b] = variance * c
    return cov


def sample_strategy_payoffs(
    mu: float, variance: float, rho: tuple[float, ...], n: int, samples: int, seed: int
) -> np.ndarray:
    """Draw payoffs m_{t-1}(N) * X_t from the exact joint Gaussian."""
    cov = toeplitz_covariance(variance, rho, n + 1)
    chol = np.linalg.cholesky(cov)
    z = np.random.default_rng(seed).standard_normal((samples, n + 1))
    x = z @ chol.T + mu
    return x[:, :n].mean(axis=1) * x[:, n]


def payoffs_from_correlated_normals(
    z_corr: np.ndarray, mu: float, variance: float
) -> np.ndarray:
    """Payoffs for X = mu + sqrt(V) * Z given pre-correlated unit-variance Z."""
    x = mu + math.sqrt(variance) * z_corr
    n = x.shape[1] - 1
    return x[:, :n].mean(axis=1) * x[:, n]


def mean_with_se(values: np.ndarray) -> tuple[float, float]:
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(len(values)))


def variance_with_se(values: np.ndarray) -> tuple[float, float]:
    """Sample variance and its large-sample standard error sqrt((m4 - s^4)/n)."""
    n = len(values)
    s2 = float(values.var(ddof=1))
    dev = values - values.mean()
    m4 = float(np.mean(np.square(np.square(dev))))  # dev**4 up to rounding, ~20x faster
    return s2, math.sqrt(max(m4 - s2 * s2, 0.0) / n)


def ir_with_batch_se(payoffs: np.ndarray, batches: int = 200) -> tuple[float, float]:
    """IR of the pooled payoffs plus a batch-means standard error."""
    ir = float(payoffs.mean() / payoffs.std(ddof=1))
    usable = (len(payoffs) // batches) * batches
    chunks = payoffs[:usable].reshape(batches, -1)
    per_batch = chunks.mean(axis=1) / chunks.std(axis=1, ddof=1)
    return ir, float(per_batch.std(ddof=1) / math.sqrt(batches))


def eq_mean_literal(mu: float, variance: float, rho: tuple[float, ...], n: int) -> float:
    """mu^2 + (V/N) sum rho(i), written as an explicit loop."""

    def r(k: int) -> float:
        return rho[k - 1] if 1 <= k <= len(rho) else 0.0

    return mu * mu + variance / n * sum(r(i) for i in range(1, n + 1))


def eq_variance_literal(mu: float, variance: float, rho: tuple[float, ...], n: int) -> float:
    """The payoff variance written with literal ordered-pair double sums."""

    def r(k: int) -> float:
        if k == 0:
            return 1.0
        return rho[k - 1] if 1 <= k <= len(rho) else 0.0

    v, mu2 = variance, mu * mu
    s1 = sum(r(i) for i in range(1, n + 1))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    sum_rho_ij = sum(r(abs(i - j)) for i, j in pairs)
    mixed = sum(r(j) + r(abs(i - j)) + r(i) for i, j in pairs)
    total = (
        n * v * v
        + n * mu2 * v
        + n * n * v * mu2
        + v * v * (s1 * s1 + sum_rho_ij)
        + mu2 * v * (2.0 * s1 + mixed)
    )
    return total / (n * n)


def zero_drift_ir_literal(rho: tuple[float, ...], n: int) -> float:
    """Zero-drift IR S1 / sqrt(N + S1^2 + S2), from explicit loops over the lags.

    S1 = sum of rho(i) over i = 1..N and S2 = sum of rho(|i - j|) over the
    ordered pairs i != j; the process variance cancels.
    """

    def r(k: int) -> float:
        return rho[k - 1] if 1 <= k <= len(rho) else 0.0

    s1 = sum(r(i) for i in range(1, n + 1))
    s2 = sum(r(abs(i - j)) for i in range(1, n + 1) for j in range(1, n + 1) if i != j)
    return s1 / math.sqrt(n + s1 * s1 + s2)


def double_loop_backtest(values: np.ndarray, n: int) -> np.ndarray:
    """Naive payoff computation: explicit signal loop, sequential summation."""
    out = []
    for t in range(n, len(values)):
        acc = 0.0
        for i in range(t - n, t):
            acc += values[i]
        out.append((acc / n) * values[t])
    return np.array(out)


def segment_sse(y: np.ndarray, start: int, end: int) -> float:
    x = np.arange(end - start, dtype=float)
    design = np.column_stack([np.ones(end - start), x])
    coef, _, _, _ = np.linalg.lstsq(design, y[start:end], rcond=None)
    resid = y[start:end] - design @ coef
    return float(resid @ resid)


def spans_sse(y: np.ndarray, breaks) -> float:
    """Total SSE of an independent line over each span between ``breaks``."""
    bounds = [0, *breaks, len(y)]
    return float(sum(segment_sse(y, a, b) for a, b in zip(bounds, bounds[1:])))


def brute_force_breaks(y: np.ndarray, n_breaks: int, min_segment: int) -> tuple[tuple[int, ...], float]:
    """Exhaustively minimize total SSE over all admissible break placements."""
    n = len(y)
    best: tuple[tuple[int, ...], float] | None = None
    positions = range(min_segment, n - min_segment + 1)
    for combo in itertools.combinations(positions, n_breaks):
        bounds = [0, *combo, n]
        if any(bounds[i + 1] - bounds[i] < min_segment for i in range(len(bounds) - 1)):
            continue
        sse = sum(segment_sse(y, bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1))
        if best is None or sse < best[1]:
            best = (combo, sse)
    assert best is not None, "no admissible placement"
    return best


def full_row_dp_tables(
    y: np.ndarray, min_segment: int, max_breaks: int
) -> tuple[np.ndarray, np.ndarray]:
    """Segmentation DP over the whole (n+1)^2 segment-cost matrix, every row at every level.

    opt[k, j] is the least SSE of k+1 segments of >= min_segment over [0, j);
    argt[k, j] is the start of the last one.  The line cost over [i, j) is
    the closed form from prefix sums, written out in the same operation order
    as the library so that the tables can be compared exactly.
    """
    n = len(y)
    x = np.arange(n, dtype=float)
    px, py, pxx, pxy, pyy = (
        np.concatenate([[0.0], np.cumsum(v)]) for v in (x, y, x * x, x * y, y * y)
    )
    length = np.arange(n + 1, dtype=float)[None, :] - np.arange(n + 1, dtype=float)[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        sx, sy, sxx, sxy, syy = (p[None, :] - p[:, None] for p in (px, py, pxx, pxy, pyy))
        cxx = sxx - sx * sx / length
        cxy = sxy - sx * sy / length
        cyy = syy - sy * sy / length
        sse = cyy - cxy * cxy / cxx
    cost = np.where(length >= min_segment, np.maximum(sse, 0.0), np.inf)
    opt = np.full((max_breaks + 1, n + 1), np.inf)
    argt = np.zeros((max_breaks + 1, n + 1), dtype=int)
    opt[0] = cost[0]
    for k in range(1, max_breaks + 1):
        cand = opt[k - 1][:, None] + cost
        argt[k] = np.argmin(cand, axis=0)
        opt[k] = cand.min(axis=0)
    return opt, argt


def square_wave_ir_limit(
    mu: float, amplitude: float, t_wave: float, sigma: float, ns, length: int
) -> np.ndarray:
    """Large-length IR of the momentum payoff on a square wave plus iid noise, per N in ``ns``.

    X_t = d_t + sigma * eps_t for t = 1..length, with the drift
    d_t = mu + A * sgn(sin(2 pi t / T)) and sgn(0) := +1: +A while t mod T is
    at most T/2.  The window mean of X over t-N..t-1 has mean D_t and variance
    sigma^2 / N and is independent of X_t, so the payoff has exact moments
    E[p_t] = D_t d_t and E[p_t^2] = (D_t^2 + sigma^2/N)(d_t^2 + sigma^2).
    Averaged over t = N+1..length, IR(N) = <D d> / sqrt(<E p^2> - <D d>^2).
    """
    t = np.arange(1, length + 1)
    wave = amplitude * np.where(2.0 * np.mod(t, t_wave) <= t_wave, 1.0, -1.0)
    # window means of the wave alone, so that A = 0 leaves D_t = mu exactly
    cum = np.concatenate([[0.0], np.cumsum(wave)])
    v = sigma * sigma
    out = []
    for n in ns:
        window = mu + (cum[n:length] - cum[: length - n]) / n
        now = mu + wave[n:]
        first = float(np.mean(window * now))
        second = float(np.mean((window * window + v / n) * (now * now + v)))
        out.append(first / math.sqrt(second - first * first))
    return np.array(out)


def sample_acf(values: np.ndarray, lag: int) -> float:
    """Tail-count-normalized autocorrelation, written independently."""
    d = values - values.mean()
    cov = float(np.dot(d[lag:], d[:-lag])) / (len(values) - lag)
    return cov / float(np.mean(d * d))
