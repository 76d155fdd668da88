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

from .strategy import IrCurve
from .simulate import (
    IidGaussian, InfeasibleTargets, MovingAverage, SquareWaveDrift, ma_from_target_acf,
    scored_paths,
)
from .theory import MAX_LAGS, MAX_THEORY_N, MomentProfile, realizability_violation, theory_curve
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

    The variance is held fixed at ``fixed_sd**2``; the closed form squares it
    again, so ``fixed_sd**4`` must be a finite normal float.  One trust-region
    least-squares solve of the residual vector (closed-form IR minus the
    empirical IR at every defined lookback) starts from drift = (curve tail
    level) * fixed_sd and all autocorrelations zero, with each
    autocorrelation bounded to [-1, 1].  Unrealizable correlation sequences
    get a large residual that grows with the violation.  ``iterations``
    counts every residual evaluation, finite-difference ones included.  The
    solve's time and memory grow with the curve's defined points, so at most
    :data:`momir.theory.MAX_THEORY_N` are taken.
    """
    variance = fixed_sd * fixed_sd
    if not (fixed_sd > 0 and np.finfo(float).tiny <= variance * variance < np.inf):
        raise ValueError(
            f"--fixed-sd {fixed_sd} must be positive, with a fourth power (the closed "
            "form's squared variance) that is a finite normal float"
        )
    if k_lags < 1:
        raise ValueError("k_lags must be >= 1")
    if k_lags > MAX_LAGS:
        raise ValueError(f"--k-lags {k_lags} exceeds the limit of {MAX_LAGS} lags")
    ns, irs = _curve_points(empirical)
    if not k_lags < len(ns) <= MAX_THEORY_N:
        raise ValueError(f"curve has {len(ns)} usable points; need more than "
                         f"k_lags={k_lags} and at most {MAX_THEORY_N}")
    _warn_if_overfitting(len(ns), k_lags + 1)
    from scipy import optimize

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
    Monte Carlo estimate of the model IR curve at the empirical lookbacks,
    by :func:`momir.simulate.scored_paths` on one kept draw, sized by the
    builder's spec at theta = 0, so re-scoring identical parameters is
    bit-stable.  The best cell is the first with the smallest rss.
    ``length`` defaults to the series length implied by the curve's sample
    counts, which must then satisfy samples + n = length on every row, as on
    a curve written by ``ir``.  Raises, naming ``--t-min``, ``--t-max`` and
    ``--t-step`` before the grid is built, if the period grid is empty, holds
    a period below 2 or is longer than :data:`MAX_EVALUATIONS` (each period
    scores at least one candidate); before scoring a candidate beyond that
    budget; and, naming ``--mu-fixed`` and ``--sigma-fixed``, on a candidate
    too large for the IR kernel's float64 payoff moments.
    """
    if noise_kind not in ("iid", "ma_targets"):
        raise ValueError(f"noise_kind must be 'iid' or 'ma_targets', got {noise_kind!r}")
    if sigma_fixed <= 0:
        raise ValueError("sigma_fixed must be positive")
    if paths < 2:
        raise ValueError(f"--paths must be >= 2 for the square-wave fit, got {paths}")
    t_min, t_max, t_step = (int(t) for t in t_range)
    grid = f"--t-min {t_min}, --t-max {t_max} and --t-step {t_step}"
    if not 2 <= t_min <= t_max or t_step < 1:
        raise ValueError(f"{grid} give no period grid with periods >= 2 and a step >= 1")
    t_values = range(t_min, t_max + 1, t_step)
    if t_values[MAX_EVALUATIONS:]:  # a slice, as len() overflows past sys.maxsize
        raise ValueError(
            f"{grid} give more than {MAX_EVALUATIONS} periods, but each period scores at "
            f"least one candidate and the fit scores at most {MAX_EVALUATIONS}"
        )
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
    if not np.isfinite(amplitude_max):
        raise ValueError(
            f"--mu-fixed {mu_fixed} and --sigma-fixed {sigma_fixed} give an amplitude bound "
            "max(10 |mu|, sigma / 2) that overflows"
        )
    lags = MA_TARGET_LAGS if noise_kind == "ma_targets" else ()

    from scipy import optimize

    def spec(t_wave: int, theta) -> SquareWaveDrift:
        if lags:
            coefficients = ma_from_target_acf(dict(zip(lags, theta[1:])), max(lags) + 1)
            noise = MovingAverage(0.0, coefficients, sigma_fixed)
        else:
            noise = IidGaussian(0.0, sigma_fixed)
        return SquareWaveDrift(mu_fixed, theta[0], float(t_wave), noise)

    evaluations = 0

    def curve(t_wave: int, theta) -> np.ndarray:
        candidate = spec(t_wave, theta)
        try:
            return scored(candidate).mean(axis=0)
        except ValueError as exc:
            raise ValueError(
                f"--mu-fixed {mu_fixed} and --sigma-fixed {sigma_fixed} give candidate series "
                f"(period {t_wave}, amplitude {theta[0]:.6g}) that the IR kernel cannot "
                f"score: {exc}"
            ) from None

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
    template = spec(t_values[0], np.zeros(1 + len(lags)))
    with scored_paths(template, ns, paths, length, seed, keep=True) as scored:
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
        fitted_ir = curve(t_hat, theta_hat)
    parameters = {"t_wave": float(t_hat), "amplitude": float(theta_hat[0])}
    parameters.update({f"rho_{lag}": float(v) for lag, v in zip(lags, theta_hat[1:])})
    return FitResult(
        parameters=parameters,
        rss=rss,
        iterations=evaluations,
        converged=converged,
        fitted_n=ns,
        fitted_ir=fitted_ir,
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


def write_fit_result_json(path: str, result: FitResult) -> None:
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
    atomic_write_text(path, json.dumps(payload, indent=2, allow_nan=False) + "\n")
