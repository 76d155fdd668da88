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
exposed directly: the drift-only IR (all autocorrelations zero), which rises
with N toward |mu|/sqrt(V), and the zero-drift IR, which depends only on the
autocorrelations and typically humps at small N before 1/sqrt(N) takes over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .strategy import check_lookbacks
from .timeseries import write_csv

__all__ = [
    "MomentProfile",
    "TheoreticalIr",
    "theoretical_ir",
    "theory_curve",
    "realizability_violation",
    "ir_case1",
    "ir_case2",
    "correlation_matrix",
    "write_theory_curve_csv",
]

# Tolerance used when testing the correlation structure for realizability.
PSD_TOLERANCE = 1e-10


def correlation_matrix(autocorr: Sequence[float], size: int) -> np.ndarray:
    """Toeplitz correlation matrix of the given size, rho(k)=0 beyond the horizon."""
    rho = np.asarray(autocorr, dtype=float)
    full = np.concatenate([[1.0], rho, np.zeros(max(0, size - 1 - len(rho)))])
    idx = np.abs(np.subtract.outer(np.arange(size), np.arange(size)))
    return full[idx]


def realizability_violation(autocorr: Sequence[float]) -> float:
    """How far the Toeplitz correlation matrix is from realizable; 0 when it is.

    Realizable means positive semi-definite up to ``PSD_TOLERANCE``: the
    smallest eigenvalue is at least -PSD_TOLERANCE.
    """
    matrix = correlation_matrix(autocorr, len(autocorr) + 1)
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
            raise ValueError(f"variance must be positive, got {self.variance}")
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

    def rho(self, lag: int) -> float:
        """rho(lag) with the beyond-horizon lags equal to zero."""
        if lag == 0:
            return 1.0
        return self.autocorr[lag - 1] if lag <= len(self.autocorr) else 0.0


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
    C0(m) = sum_{d<=m} rho(d) and C1(m) = sum_{d<=m} d rho(d).
    """
    rho = np.zeros(int(ns.max()))
    k = min(len(autocorr), len(rho))
    rho[:k] = autocorr[:k]
    c0 = np.concatenate([[0.0], np.cumsum(rho)])
    c1 = np.concatenate([[0.0], np.cumsum(np.arange(1, len(rho) + 1) * rho)])
    return c0[ns], 2.0 * (ns * c0[ns - 1] - c1[ns - 1])


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


def ir_case1(mu: float, variance: float, n: int) -> float:
    """Drift-only IR (all autocorrelations zero).

    mu^2 / sqrt(V mu^2 + V^2/N + mu^2 V / N); strictly increasing in N and
    approaching |mu|/sqrt(V).  Zero drift gives exactly 0 for finite N.
    """
    return float(theory_curve(MomentProfile(mu, variance), [n])[2][0])


def ir_case2(autocorr: Sequence[float], n: int) -> float:
    """Zero-drift IR, driven entirely by autocorrelation.

    S1 / sqrt(N + S1^2 + S2); independent of the process variance.
    """
    s1, s2 = (float(v[0]) for v in _rho_sums(autocorr, check_lookbacks([n])))
    return s1 / math.sqrt(n + s1 * s1 + s2)


# ---------------------------------------------------------------------------
# CSV interface: `n,mean,variance,ir` over a lookback range.
# ---------------------------------------------------------------------------


def write_theory_curve_csv(path: str, profile: MomentProfile, n_range: tuple[int, int]) -> None:
    ns = check_lookbacks(range(int(n_range[0]), int(n_range[1]) + 1))
    mean, variance, ir = theory_curve(profile, ns)
    rows = zip(*(c.tolist() for c in (ns, mean, variance, ir)))
    write_csv(path, ["n", "mean", "variance", "ir"], rows)
