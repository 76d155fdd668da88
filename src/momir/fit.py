"""Least-squares fits of the closed-form IR models to empirical IR curves.

Two fitters are provided.  The stationary fitter recovers a drift and a short
autocorrelation sequence (variance held fixed) by minimizing the squared
mismatch between the closed-form IR curve and an empirical one.  The
square-wave fitter recovers the amplitude and period of an oscillating growth
rate by grid search over integer periods crossed with a derivative-free local
search, scoring candidates against a seeded Monte Carlo IR curve evaluated
with common random numbers, so the objective is a deterministic function of
the parameters.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .strategy import IrCurve, ir_matrix
from .simulate import (
    IidGaussian, InfeasibleTargets, MovingAverage, SquareWaveDrift, innovations,
    ma_from_target_acf, series,
)
from .theory import MomentProfile, realizability_violation, theory_curve
from .timeseries import atomic_write_text

__all__ = ["FitResult", "fit_moment_profile", "fit_square_wave", "write_fit_result_json"]

# Ratio of curve points to parameters below which a fit is flagged as
# qualitative only.
OVERFIT_POINTS_PER_PARAM = 4

# Lags whose autocorrelations the square-wave fit's correlated noise
# (noise_kind 'ma_targets') fits: no two differ by a target lag, so each
# target pair has an exact closed-form MA start.
MA_TARGET_LAGS = (1, 20)

# Most Monte Carlo candidates one square-wave fit scores; the next one raises.
MAX_EVALUATIONS = 20000


@dataclass(frozen=True)
class FitResult:
    """Outcome of a least-squares model fit."""

    parameters: dict[str, float]
    rss: float
    iterations: int
    converged: bool
    fitted_n: np.ndarray
    fitted_ir: np.ndarray
    settings: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fitted_n", np.asarray(self.fitted_n, dtype=int))
        object.__setattr__(self, "fitted_ir", np.asarray(self.fitted_ir, dtype=float))
        if self.rss < 0:
            raise ValueError("residual sum of squares cannot be negative")


def _curve_points(empirical: IrCurve) -> tuple[np.ndarray, np.ndarray]:
    """Defined (N, IR) pairs sorted by N, so fits ignore row order."""
    order = np.argsort(empirical.n, kind="stable")
    n = empirical.n[order]
    ir = empirical.ir[order]
    keep = np.isfinite(ir)
    if not np.any(keep):
        raise ValueError("empirical curve has no defined IR entries")
    return n[keep], ir[keep]


def _warn_if_overfitting(n_points: int, n_params: int) -> None:
    if n_points < OVERFIT_POINTS_PER_PARAM * n_params:
        warnings.warn(
            f"fitting {n_params} parameters to {n_points} curve points; "
            "treat the fitted values as qualitative",
            stacklevel=3,
        )


def fit_moment_profile(
    empirical: IrCurve,
    k_lags: int = 10,
    fixed_sd: float = 1.5,
) -> FitResult:
    """Fit drift plus the first ``k_lags`` autocorrelations to an IR curve.

    The variance is held fixed at ``fixed_sd**2``.  One trust-region
    least-squares solve of the residual vector (closed-form IR minus the
    empirical IR at every defined lookback) starts from drift = (curve tail
    level) * fixed_sd and all autocorrelations zero, with each
    autocorrelation bounded to [-1, 1].  Unrealizable correlation sequences
    get a large residual that grows with the violation.  ``iterations``
    counts every residual evaluation, finite-difference ones included.
    """
    if fixed_sd <= 0:
        raise ValueError("fixed_sd must be positive")
    if k_lags < 1:
        raise ValueError("k_lags must be >= 1")
    ns, irs = _curve_points(empirical)
    if len(ns) < k_lags + 1:
        raise ValueError(
            f"curve has {len(ns)} usable points; need more than k_lags={k_lags}"
        )
    _warn_if_overfitting(len(ns), k_lags + 1)
    from scipy import optimize

    variance = fixed_sd * fixed_sd
    evaluations = 0

    def residuals(theta: np.ndarray) -> np.ndarray:
        nonlocal evaluations
        evaluations += 1
        violation = realizability_violation(theta[1:])
        if violation > 0.0:
            return np.full(len(ns), 1e3 * (1.0 + violation))
        profile = MomentProfile(mu=float(theta[0]), variance=variance, autocorr=theta[1:])
        return theory_curve(profile, ns)[2] - irs

    tail = float(np.mean(irs[-min(5, len(irs)) :]))
    start = np.zeros(1 + k_lags)
    start[0] = tail * fixed_sd
    bounds = (np.r_[-np.inf, -np.ones(k_lags)], np.r_[np.inf, np.ones(k_lags)])
    res = optimize.least_squares(
        residuals, start, bounds=bounds, xtol=1e-15, ftol=1e-15, gtol=1e-15
    )
    mu_hat = float(res.x[0])
    rho_hat = tuple(float(r) for r in res.x[1:])
    fitted = theory_curve(MomentProfile(mu=mu_hat, variance=variance, autocorr=rho_hat), ns)[2]
    parameters = {"mu": mu_hat}
    parameters.update({f"rho_{k}": r for k, r in enumerate(rho_hat, start=1)})
    return FitResult(
        parameters=parameters,
        rss=float(res.fun @ res.fun),
        iterations=evaluations,
        converged=bool(res.success),
        fitted_n=ns,
        fitted_ir=fitted,
        settings={
            "model": "stationary",
            "k_lags": k_lags,
            "fixed_sd": fixed_sd,
            "curve_points": int(len(ns)),
            "n_params": k_lags + 1,
            "start_mu": float(start[0]),
        },
    )


def fit_square_wave(
    empirical: IrCurve,
    mu_fixed: float,
    sigma_fixed: float,
    noise_kind: str = "iid",
    t_range: tuple[int, int, int] = (100, 260, 10),
    paths: int = 120,
    length: int | None = None,
    seed: int = 0,
) -> FitResult:
    """Fit the square-wave growth model to an empirical IR curve.

    Grid-searches integer periods over ``range(*t_range)`` and, inside each
    cell, runs a derivative-free search over theta = (amplitude, *targets):
    the amplitude in [0, max(10 |mu_fixed|, sigma_fixed / 2)], plus the
    target autocorrelations at :data:`MA_TARGET_LAGS` when
    ``noise_kind == 'ma_targets'``.  One builder turns (period, theta) into a
    process spec.  Candidates are scored by a seeded common-random-numbers
    Monte Carlo estimate of the model IR curve at the empirical lookbacks:
    every candidate series is built by :func:`momir.simulate.series` from one
    innovation matrix, drawn from the seed and sized by the builder's spec
    at theta = 0, so re-scoring identical parameters is bit-stable.  The
    best cell is the first with the smallest rss.
    ``length`` defaults to the series length implied by the curve's sample
    counts, which must then satisfy samples + n = length on every row, as on
    a curve written by ``ir``.  Raises if the period grid is empty, and
    before scoring a candidate beyond :data:`MAX_EVALUATIONS`.
    """
    if noise_kind not in ("iid", "ma_targets"):
        raise ValueError(f"noise_kind must be 'iid' or 'ma_targets', got {noise_kind!r}")
    if sigma_fixed <= 0:
        raise ValueError("sigma_fixed must be positive")
    if paths < 2:
        raise ValueError("paths must be >= 2")
    if int(t_range[2]) < 1:
        raise ValueError(f"period grid step must be >= 1, got {t_range[2]}")
    t_values = list(range(int(t_range[0]), int(t_range[1]) + 1, int(t_range[2])))
    if not t_values or any(t < 2 for t in t_values):
        raise ValueError(f"empty or invalid period grid from t_range={t_range}")
    ns, irs = _curve_points(empirical)
    if length is None:
        implied = np.unique(empirical.samples + empirical.n)
        if len(implied) != 1:
            raise ValueError(
                "the curve's samples + n differ between rows, so they do not give "
                "the series length; pass it with --length"
            )
        length = int(implied[0])
    if length - int(ns[-1]) < 2:
        raise ValueError(
            f"series length {length} leaves fewer than two payoffs at lookback {int(ns[-1])}"
        )
    amplitude_max = max(10.0 * abs(mu_fixed), 0.5 * sigma_fixed)
    lags = MA_TARGET_LAGS if noise_kind == "ma_targets" else ()

    from scipy import optimize

    def spec(t_wave: int, theta) -> SquareWaveDrift:
        if lags:
            coefficients = ma_from_target_acf(dict(zip(lags, theta[1:])), max(lags) + 1)
            noise = MovingAverage(0.0, coefficients, sigma_fixed)
        else:
            noise = IidGaussian(0.0, sigma_fixed)
        return SquareWaveDrift(mu_fixed, theta[0], float(t_wave), noise)

    # Every candidate is built from this one draw (common random numbers).
    eta = innovations(spec(t_values[0], np.zeros(1 + len(lags))), paths, length, seed)
    evaluations = 0

    def curve(t_wave: int, theta) -> np.ndarray:
        return ir_matrix(series(spec(t_wave, theta), eta), ns).mean(axis=0)

    def score(theta, t_wave: int) -> float:
        nonlocal evaluations
        theta = np.atleast_1d(theta)
        # Only the simplex search can leave the amplitude bounds; such a point
        # gets a penalty and is not counted as a scored candidate.
        if theta[0] < 0 or theta[0] > amplitude_max:
            return 1e6 * (1.0 + abs(theta[0]))
        if evaluations >= MAX_EVALUATIONS:
            raise RuntimeError(f"Monte Carlo budget of {MAX_EVALUATIONS} evaluations exhausted")
        evaluations += 1
        try:
            diff = curve(t_wave, theta) - irs
        except InfeasibleTargets:
            return 1e6
        return float(diff @ diff)

    cells = []
    for t_wave in t_values:
        if lags:
            res = optimize.minimize(
                score,
                np.r_[abs(mu_fixed), np.full(len(lags), 0.02)],
                args=(t_wave,),
                method="Nelder-Mead",
                options={"maxiter": 300, "fatol": 1e-8, "xatol": 1e-5, "adaptive": True},
            )
        else:
            res = optimize.minimize_scalar(
                score,
                bounds=(0.0, amplitude_max),
                args=(t_wave,),
                method="bounded",
                options={"xatol": 1e-4 * amplitude_max, "maxiter": 200},
            )
        cells.append((float(res.fun), t_wave, np.atleast_1d(res.x), bool(res.success)))
    rss, t_hat, theta_hat, converged = min(cells, key=lambda cell: cell[0])
    parameters = {"t_wave": float(t_hat), "amplitude": float(theta_hat[0])}
    parameters.update({f"rho_{lag}": float(v) for lag, v in zip(lags, theta_hat[1:])})
    return FitResult(
        parameters=parameters,
        rss=rss,
        iterations=evaluations,
        converged=converged,
        fitted_n=ns,
        fitted_ir=curve(t_hat, theta_hat),
        settings={
            "model": "squarewave",
            "noise_kind": noise_kind,
            "mu_fixed": mu_fixed,
            "sigma_fixed": sigma_fixed,
            "t_range": list(t_range),
            "paths": paths,
            "length": length,
            "seed": seed,
            "curve_points": int(len(ns)),
        },
    )


def fit_result_json_text(result: FitResult) -> str:
    payload = {
        "parameters": result.parameters,
        "rss": result.rss,
        "iterations": result.iterations,
        "converged": result.converged,
        "settings": result.settings,
        "fitted": {
            "n": [int(v) for v in result.fitted_n],
            "ir": [float(v) for v in result.fitted_ir],
        },
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def write_fit_result_json(path: str, result: FitResult) -> None:
    atomic_write_text(path, fit_result_json_text(result))
