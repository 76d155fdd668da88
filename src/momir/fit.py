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
from typing import Mapping

import numpy as np

from .strategy import IrCurve, ir_matrix
from .simulate import (
    IidGaussian, InfeasibleTargets, MovingAverage, ProcessSpec, SquareWaveDrift, innovations,
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
    max_evaluations: int = 20000,
) -> FitResult:
    """Fit the square-wave growth model to an empirical IR curve.

    Grid-searches integer periods over ``range(*t_range)`` and, inside each
    cell, runs a derivative-free search over the amplitude in
    [0, max(10 |mu_fixed|, sigma_fixed / 2)] (plus the target autocorrelations
    at :data:`MA_TARGET_LAGS` when ``noise_kind == 'ma_targets'``).
    Candidates are scored by a seeded common-random-numbers Monte Carlo
    estimate of the model IR curve at the empirical lookbacks: every
    candidate series is built by :func:`momir.simulate.series` from one
    innovation matrix drawn from the seed, so re-scoring identical parameters
    is bit-stable.
    ``length`` defaults to the series length implied by the curve's sample
    counts, which must then satisfy samples + n = length on every row, as on
    a curve written by ``ir``.  Raises if the period grid is empty or
    ``max_evaluations`` Monte Carlo evaluations are exhausted.
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

    from scipy import optimize

    ma_horizon = max(MA_TARGET_LAGS) + 1

    def noise(targets: Mapping[int, float]) -> ProcessSpec:
        if noise_kind == "iid":
            return IidGaussian(0.0, sigma_fixed)
        return MovingAverage(0.0, ma_from_target_acf(targets, ma_horizon), sigma_fixed)

    # Every candidate is built from one draw (common random numbers), as wide
    # as the longest noise filter needs.
    width = ma_horizon if noise_kind == "ma_targets" else 1
    eta = innovations(MovingAverage(0.0, (1.0,) * width, sigma_fixed), paths, length, seed)
    evaluations = 0

    def model_curve(t_wave: int, amplitude: float, targets: Mapping[int, float]) -> np.ndarray:
        spec = SquareWaveDrift(mu_fixed, amplitude, float(t_wave), noise(targets))
        return ir_matrix(series(spec, eta), ns).mean(axis=0)

    def score(t_wave: int, amplitude: float, targets: Mapping[int, float]) -> float:
        nonlocal evaluations
        evaluations += 1
        try:
            diff = model_curve(t_wave, amplitude, targets) - irs
        except InfeasibleTargets:
            return 1e6
        return float(diff @ diff)

    best: tuple[float, int, float, dict[int, float]] | None = None
    converged = True
    for t_wave in t_values:
        if noise_kind == "iid":
            res = optimize.minimize_scalar(
                lambda a: score(t_wave, a, {}),
                bounds=(0.0, amplitude_max),
                method="bounded",
                options={"xatol": 1e-4 * amplitude_max, "maxiter": 200},
            )
            cell = (float(res.fun), t_wave, float(res.x), {})
            cell_ok = bool(res.success)
        else:
            start = np.array([abs(mu_fixed), 0.02, 0.02])

            def nm_obj(theta: np.ndarray) -> float:
                a = theta[0]
                if a < 0 or a > amplitude_max:
                    return 1e6 * (1.0 + abs(a))
                targets = dict(zip(MA_TARGET_LAGS, map(float, theta[1:])))
                return score(t_wave, float(a), targets)

            res = optimize.minimize(
                nm_obj,
                start,
                method="Nelder-Mead",
                options={"maxiter": 300, "fatol": 1e-8, "xatol": 1e-5, "adaptive": True},
            )
            targets = dict(zip(MA_TARGET_LAGS, map(float, res.x[1:])))
            cell = (float(res.fun), t_wave, float(res.x[0]), targets)
            cell_ok = bool(res.success)
        if evaluations > max_evaluations:
            raise RuntimeError(f"Monte Carlo budget exhausted after {evaluations} evaluations")
        if best is None or cell[0] < best[0]:
            best = cell
            converged = cell_ok
    assert best is not None
    rss, t_hat, a_hat, targets_hat = best
    parameters = {"t_wave": float(t_hat), "amplitude": a_hat}
    parameters.update({f"rho_{lag}": v for lag, v in sorted(targets_hat.items())})
    fitted = model_curve(t_hat, a_hat, targets_hat)
    return FitResult(
        parameters=parameters,
        rss=rss,
        iterations=evaluations,
        converged=converged,
        fitted_n=ns,
        fitted_ir=fitted,
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
