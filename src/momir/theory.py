"""Closed-form mean, variance, and IR of the momentum strategy.

For a stationary process X with mean mu, variance V, and autocorrelation
rho(k) (zero beyond the stored horizon), the one-period payoff of the
N-lookback strategy is R = m_{t-1}(N) * X_t.  Under a multivariate-Gaussian
assumption its moments are available in closed form:

    E[R]   = mu^2 + (V/N) * sum_{i=1..N} rho(i)

    Var(R) = (1/N^2) * [ N V^2 + N mu^2 V + N^2 V mu^2
                         + V^2 * (S1^2 + S2)
                         + mu^2 V * (2 N S1 + S2) ]

with S1 = sum_{i=1..N} rho(i) and S2 the sum of rho(|i-j|) over ordered pairs
i != j in {1..N}, i.e. S2 = 2 * sum_{d=1..N-1} (N-d) * rho(d).  Two limits are
special cases of :func:`theory_curve`: the drift-only IR (all autocorrelations
zero), which rises with N toward |mu|/sqrt(V), and the zero-drift IR
S1 / sqrt(N + S1^2 + S2), which depends only on the autocorrelations and
typically humps at small N before 1/sqrt(N) takes over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .strategy import check_lookbacks, lookback_range
from .timeseries import write_csv

__all__ = [
    "MomentProfile",
    "TheoreticalIr",
    "theoretical_ir",
    "theory_curve",
    "realizability_violation",
    "write_theory_curve_csv",
]

# Tolerance used when testing the correlation structure for realizability.
PSD_TOLERANCE = 1e-10

# Largest lookback :func:`write_theory_curve_csv` evaluates, and most curve
# points the stationary fit takes.  No series length bounds either, and the
# curve's time, memory and file size grow with ``--n-max``; on 2^16 points the
# fit took 0.6-1.0 s and 134 MiB at ``--k-lags`` 10 and 6.7 s and 493 MiB at
# 100 (one BLAS thread).
MAX_THEORY_N = 2**16

# Most autocorrelations that ``theory --rho`` and ``fit --k-lags`` take.  The
# realizability check decomposes a (K+1)x(K+1) matrix, and the stationary
# fit does so in each of its thousands of residual evaluations: at K = 100
# the fit took 1.4-4.5 s on three 400- to 2000-row curves, and at K = 200
# 10.6 s on one and over 150 s on another (one BLAS thread).
MAX_LAGS = 100


def realizability_violation(autocorr: Sequence[float]) -> float:
    """How far the Toeplitz correlation matrix is from realizable; 0 when it is.

    The matrix is (K+1)x(K+1) with entry (i, j) = rho(|i - j|), rho(0) = 1.
    Realizable means positive semi-definite up to ``PSD_TOLERANCE``: the
    smallest eigenvalue is at least -PSD_TOLERANCE.
    """
    rho = np.concatenate([[1.0], np.asarray(autocorr, dtype=float)])
    lags = np.arange(len(rho))
    matrix = rho[np.abs(np.subtract.outer(lags, lags))]
    return max(0.0, -float(np.linalg.eigvalsh(matrix)[0]) - PSD_TOLERANCE)


@dataclass(frozen=True)
class MomentProfile:
    """Stationary process parameters: drift, variance, and autocorrelations.

    Lags beyond the stored horizon are treated as zero.  Construction fails if
    the variance is not positive, any |rho(k)| exceeds 1, or the implied
    (K+1)x(K+1) Toeplitz correlation matrix is not realizable (see
    :func:`realizability_violation`).
    """

    mu: float
    variance: float
    autocorr: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "autocorr", tuple(float(r) for r in self.autocorr))
        if not (self.variance > 0.0) or not math.isfinite(self.variance):
            raise ValueError(f"variance must be positive and finite, got {self.variance}")
        if not math.isfinite(self.mu):
            raise ValueError("drift must be finite")
        for k, r in enumerate(self.autocorr, start=1):
            if not math.isfinite(r) or abs(r) > 1.0:
                raise ValueError(f"autocorrelation at lag {k} out of [-1, 1]: {r}")
        if realizability_violation(self.autocorr) > 0.0:
            raise ValueError(
                "autocorrelation sequence is not realizable: Toeplitz correlation "
                "matrix is not positive semi-definite"
            )


@dataclass(frozen=True)
class TheoreticalIr:
    """Closed-form strategy moments at one lookback."""

    n: int
    mean: float
    variance: float
    ir: float


def _rho_sums(autocorr: Sequence[float], ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S1 = sum of rho(1..N); S2 = ordered-pair sum of rho(|i-j|), i != j.

    Both come from cumulative sums over the lags, for every N at once:
    S2 = 2 * sum_{d<N} (N-d) rho(d) = 2 * (N * C0(N-1) - C1(N-1)) with
    C0(m) = sum_{d<=m} rho(d) and C1(m) = sum_{d<=m} d rho(d).  Every rho past
    the stored horizon K is zero, so C0(m) = C0(min(m, K)) and so is C1.
    """
    rho = np.asarray(autocorr, dtype=float)
    c0 = np.concatenate([[0.0], np.cumsum(rho)])
    c1 = np.concatenate([[0.0], np.cumsum(np.arange(1, len(rho) + 1) * rho)])
    m = np.minimum(ns - 1, len(rho))
    return c0[np.minimum(ns, len(rho))], 2.0 * (ns * c0[m] - c1[m])


def theory_curve(profile: MomentProfile, ns) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form (E[R], Var(R), IR) at every lookback in ``ns``, as arrays.

    Var(R) is exact for a multivariate-Gaussian X; IR = E[R] / sqrt(Var(R)).
    """
    ns = check_lookbacks(ns)
    mu2 = profile.mu * profile.mu
    v = profile.variance
    s1, s2 = _rho_sums(profile.autocorr, ns)
    mean = mu2 + v / ns * s1
    base = v * mu2 + v * v / ns + mu2 * v / ns
    variance = base + (v * v * (s1 * s1 + s2) + mu2 * v * (2.0 * ns * s1 + s2)) / (ns * ns)
    return mean, variance, mean / np.sqrt(variance)


def theoretical_ir(profile: MomentProfile, n: int) -> TheoreticalIr:
    """Closed-form IR = E[R] / sqrt(Var(R)) at lookback N."""
    mean, variance, ir = (float(v[0]) for v in theory_curve(profile, [n]))
    return TheoreticalIr(n=n, mean=mean, variance=variance, ir=ir)


# ---------------------------------------------------------------------------
# CSV interface: `n,mean,variance,ir` over a lookback range.
# ---------------------------------------------------------------------------


def write_theory_curve_csv(path: str, profile: MomentProfile, n_range: tuple[int, int]) -> None:
    """Write the closed-form curve over [n_min, n_max], at most :data:`MAX_THEORY_N`.

    The range is checked by its ends before it is built: an n_max above the
    cap fails naming ``--n-max``, and :func:`lookback_range` checks the rest.
    A curve that floats cannot hold fails naming its first N: a non-finite
    mean, variance or IR, or a variance below the smallest normal float,
    where Var(R) >= V^2 / N has lost its digits.
    """
    if int(n_range[1]) > MAX_THEORY_N:
        raise ValueError(f"--n-max {n_range[1]} exceeds the closed-form limit of {MAX_THEORY_N}")
    ns = lookback_range(n_range)
    with np.errstate(all="ignore"):
        mean, variance, ir = theory_curve(profile, ns)
        bad = ~(np.isfinite(mean) & np.isfinite(ir) & (variance >= np.finfo(float).tiny))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(
            f"--mu {profile.mu} and --variance {profile.variance} put the closed form at "
            f"N={ns[i]} outside the float range: mean {mean[i]}, variance {variance[i]}, "
            f"IR {ir[i]}"
        )
    rows = zip(*(c.tolist() for c in (ns, mean, variance, ir)))
    write_csv(path, ["n", "mean", "variance", "ir"], rows)
