"""Synthetic return processes and Monte Carlo IR curves.

Three generators are available: iid Gaussian; a moving-average (MA) process
mu + sigma * sum_k a_k eta_{t-k+1} over iid standard-normal innovations; and a
square-wave drift process mu + A * sgn(sin(2 pi t / T_wave)) + noise, whose
growth rate flips sign every half period (sgn(0) is defined as +1).  Generated
series model the normalized return X directly and feed the strategy without
re-normalization.

Randomness comes from the counter-based Philox engine.  A run seed plus a path
index determine each path's stream (``SeedSequence(seed, spawn_key=(path,))``),
so paths can be evaluated in any order with identical results.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .strategy import block_rows, check_lookbacks, ir_matrix
from .timeseries import atomic_write_text, write_csv

__all__ = [
    "IidGaussian",
    "MovingAverage",
    "SquareWaveDrift",
    "ProcessSpec",
    "McIrCurve",
    "generate",
    "innovations",
    "series",
    "path_rng",
    "theoretical_acf_of_ma",
    "ma_from_target_acf",
    "mc_ir_curve",
    "load_process_spec",
    "dump_process_spec",
    "write_mc_ir_curve_csv",
]

RNG_ALGORITHM = "Philox(4x64, 10 rounds)"

# Most standard-normal draws one call of :func:`innovations` may hold
# (2^24 float64, 128 MiB); a larger request fails before anything is drawn.
MAX_DRAW_ELEMENTS = 2**24

# Largest miss of any target autocorrelation that :func:`ma_from_target_acf` accepts.
ACF_TOL = 1e-6


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class IidGaussian:
    """Independent draws: mu + sigma * z, z ~ N(0, 1)."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        _require_finite(mu=self.mu, sigma=self.sigma)
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class MovingAverage:
    """MA process mu + sigma * sum_k a_k eta_{t-k+1}, eta iid N(0, 1).

    ``coefficients[0]`` multiplies the newest innovation.  Process variance is
    sigma^2 * sum(a^2).
    """

    mu: float
    coefficients: tuple[float, ...]
    sigma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", tuple(float(a) for a in self.coefficients))
        if not self.coefficients:
            raise ValueError("MA process needs at least one coefficient")
        _require_finite(mu=self.mu, sigma=self.sigma)
        _require_finite(**{f"coefficients[{k}]": a for k, a in enumerate(self.coefficients)})
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class SquareWaveDrift:
    """Mean growth mu plus a square wave of amplitude A and period T_wave, plus noise.

    The noise is any zero-mean process spec; set its sigma to 0 for the pure
    integrated-square-wave path.
    """

    mu: float
    amplitude: float
    t_wave: float
    noise: ProcessSpec

    def __post_init__(self) -> None:
        _require_finite(mu=self.mu, amplitude=self.amplitude, t_wave=self.t_wave)
        if self.t_wave < 2:
            raise ValueError(f"t_wave must be >= 2 periods, got {self.t_wave}")
        if isinstance(self.noise, SquareWaveDrift):
            raise ValueError("square-wave noise cannot itself be a square wave")
        if self.noise.mu != 0.0:
            raise ValueError("square-wave noise must have zero mean")


ProcessSpec = Union[IidGaussian, MovingAverage, SquareWaveDrift]


def path_rng(seed, path: int | None = None) -> np.random.Generator:
    key = np.random.SeedSequence(seed) if path is None else np.random.SeedSequence(seed, spawn_key=(path,))
    return np.random.Generator(np.random.Philox(key))


def square_wave(t: np.ndarray, t_wave: float) -> np.ndarray:
    """sgn(sin(2 pi t / T)) with sgn(0) := +1, computed without trigonometry.

    sin crosses zero exactly at t mod T in {0, T/2}; both map to +1.
    """
    phase = np.mod(t, t_wave)
    return np.where(phase <= t_wave / 2.0, 1.0, -1.0)


def _width(spec: ProcessSpec, length: int) -> int:
    """Draws behind one series of ``length``: an MA of K coefficients needs K - 1 more."""
    noise = spec.noise if isinstance(spec, SquareWaveDrift) else spec
    return length + (len(noise.coefficients) - 1 if isinstance(noise, MovingAverage) else 0)


def innovations(spec: ProcessSpec, paths: int, length: int, seed, first: int = 0) -> np.ndarray:
    """Standard-normal draws behind ``paths`` series of ``length``.

    Row k comes from path ``first + k``'s stream, so consecutive blocks of
    paths stack to the rows of one draw.  A draw of more than
    :data:`MAX_DRAW_ELEMENTS` fails naming the option that sized it.
    """
    width = _width(spec, length)
    if paths * width > MAX_DRAW_ELEMENTS:
        raise ValueError(
            f"{paths} x {width} standard normals exceed the draw budget of "
            f"{MAX_DRAW_ELEMENTS}; lower --length" + (" or --paths" if paths > 1 else "")
        )
    return np.stack([path_rng(seed, k).standard_normal(width) for k in range(first, first + paths)])


def series(spec: ProcessSpec, eta: np.ndarray) -> np.ndarray:
    """The process built from standard-normal innovations ``eta``, time on the last axis.

    Equal innovations give bit-identical series, so a fit that varies the
    parameters over one draw compares candidates with common random numbers.
    """
    if isinstance(spec, IidGaussian):
        return spec.mu + spec.sigma * eta
    if isinstance(spec, MovingAverage):
        a = np.asarray(spec.coefficients)
        return spec.mu + spec.sigma * np.apply_along_axis(np.convolve, -1, eta, a, mode="valid")
    noise = series(spec.noise, eta)
    t = np.arange(1, noise.shape[-1] + 1, dtype=float)
    return spec.mu + spec.amplitude * square_wave(t, spec.t_wave) + noise


def generate(spec: ProcessSpec, length: int, seed) -> np.ndarray:
    """Draw one series of the given length; bit-identical for equal (spec, seed)."""
    if length < 1:
        raise ValueError("length must be >= 1")
    return series(spec, path_rng(seed).standard_normal(_width(spec, length)))


def theoretical_acf_of_ma(coefficients, lag: int) -> float:
    """Autocorrelation of an MA process: sum_j a_j a_{j+k} / sum_j a_j^2.

    Exactly zero at and beyond the coefficient count.
    """
    if lag < 0:
        raise ValueError("lag must be >= 0")
    a = np.asarray(coefficients, dtype=float)
    if lag >= len(a):
        return 0.0
    denom = float(np.dot(a, a))
    if denom == 0.0:
        raise ValueError("all-zero coefficient list has no autocorrelation")
    return float(np.dot(a[: len(a) - lag], a[lag:])) / denom


class InfeasibleTargets(ValueError):
    """Raised when no MA process can realize the requested autocorrelations."""


def ma_from_target_acf(
    targets: Mapping[int, float],
    horizon: int,
    variance: float = 1.0,
) -> np.ndarray:
    """Find MA coefficients whose autocorrelation hits each target lag.

    ``targets`` maps lags (1 <= lag < horizon) to desired autocorrelations;
    unlisted lags are unconstrained.  The match must be within :data:`ACF_TOL`
    at every target or :class:`InfeasibleTargets` is raised.  The returned
    coefficients are scaled so a unit-sigma MA process has the requested
    variance.

    The search fixes a_1 = 1 (autocorrelation is scale-free) and starts warm:
    each target value goes at its own lag, and the shared normalization
    s = sum(a^2) is solved by the quadratic fixed point it induces.  When no
    two target lags differ by a target lag and sum(target^2) <= 1/4, this
    start is exact and is returned as is.  Only when it misses some target by
    more than :data:`ACF_TOL` is it polished, by a derivative-free simplex
    search on the squared ACF error.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    targets = {int(k): float(v) for k, v in targets.items()}
    for lag in targets:
        if not (1 <= lag < horizon):
            raise ValueError(f"target lag {lag} outside 1..{horizon - 1}")
    if variance <= 0:
        raise ValueError("variance must be positive")

    start = np.zeros(horizon)
    start[0] = 1.0
    tsq = sum(v * v for v in targets.values())
    if tsq > 0 and 4.0 * tsq <= 1.0:
        scale = (1.0 - math.sqrt(1.0 - 4.0 * tsq)) / (2.0 * tsq)
    else:
        scale = 1.0
    for lag, value in targets.items():
        start[lag] = value * scale

    def acf_error(free: np.ndarray) -> float:
        a = np.concatenate([[1.0], free])
        return sum((theoretical_acf_of_ma(a, lag) - t) ** 2 for lag, t in targets.items())

    def misses(coeffs: np.ndarray) -> dict[int, float]:
        """Each target's miss above :data:`ACF_TOL`."""
        found = {lag: abs(theoretical_acf_of_ma(coeffs, lag) - t) for lag, t in targets.items()}
        return {lag: m for lag, m in found.items() if m > ACF_TOL}

    coeffs = start
    if misses(start):
        from scipy import optimize

        best = optimize.minimize(
            acf_error,
            start[1:],
            method="Nelder-Mead",
            options={"maxiter": 20000, "maxfev": 40000, "xatol": 1e-12, "fatol": 1e-16, "adaptive": True},
        )
        if acf_error(start[1:]) >= best.fun:
            coeffs = np.concatenate([[1.0], best.x])
    missed = misses(coeffs)
    if missed:
        detail = ", ".join(
            f"lag {lag}: target {targets[lag]:+.6f} missed by {m:.2e}"
            for lag, m in sorted(missed.items())
        )
        raise InfeasibleTargets(f"no MA({horizon}) process realizes the targets ({detail})")
    return coeffs * math.sqrt(variance / float(np.dot(coeffs, coeffs)))


@dataclass(frozen=True)
class McIrCurve:
    """Monte Carlo IR curve: per-lookback mean IR across paths and its standard error."""

    n: np.ndarray
    ir_mean: np.ndarray
    ir_se: np.ndarray
    paths: int
    length: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", np.asarray(self.n, dtype=int))
        object.__setattr__(self, "ir_mean", np.asarray(self.ir_mean, dtype=float))
        object.__setattr__(self, "ir_se", np.asarray(self.ir_se, dtype=float))
        if self.paths < 1:
            raise ValueError("paths must be >= 1")

    def __len__(self) -> int:
        return len(self.n)


def mc_ir_curve(
    spec: ProcessSpec,
    n_range: tuple[int, int],
    paths: int = 500,
    length: int = 6068,
    seed: int = 0,
) -> McIrCurve:
    """Average the per-path IR curve over independently seeded realizations.

    Each path draws its own series (:func:`innovations`, :func:`series`) and is run
    through the momentum strategy at every lookback in the range; the MC
    standard error is the cross-path standard deviation over sqrt(paths).
    Paths are drawn, built and scored one block at a time
    (:func:`momir.strategy.block_rows`), so memory does not grow with
    ``paths``.
    """
    ns = check_lookbacks(range(int(n_range[0]), int(n_range[1]) + 1), length)
    if paths < 1:
        raise ValueError("paths must be >= 1")
    per_path = np.empty((paths, len(ns)))
    step = block_rows(length)
    for first in range(0, paths, step):
        block = min(step, paths - first)
        x = series(spec, innovations(spec, block, length, seed, first))
        per_path[first : first + block] = ir_matrix(x, ns)
    ir_mean = per_path.mean(axis=0)
    if paths >= 2:
        ir_se = per_path.std(axis=0, ddof=1) / math.sqrt(paths)
    else:
        ir_se = np.zeros(per_path.shape[1])
    return McIrCurve(
        n=ns,
        ir_mean=ir_mean,
        ir_se=ir_se,
        paths=paths,
        length=length,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# JSON process-spec files ({"variant": ...}) and the MC curve CSV.
# ---------------------------------------------------------------------------

_VARIANTS = {
    "iid_gaussian": IidGaussian,
    "moving_average": MovingAverage,
    "square_wave_drift": SquareWaveDrift,
}
_VARIANT_NAMES = {cls: name for name, cls in _VARIANTS.items()}


def spec_to_dict(spec: ProcessSpec) -> dict:
    out = {"variant": _VARIANT_NAMES[type(spec)]}
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        if f.type == "ProcessSpec":
            value = spec_to_dict(value)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def _number(where: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} must be a number, got {value!r}")
    return float(value)


def spec_from_dict(data: dict) -> ProcessSpec:
    """Decode a spec object; a missing, unknown or non-numeric field is an error.

    Each field is read by its declared type: a number, a list of numbers or
    a nested spec.  Finiteness and ranges are checked by the spec classes.
    """
    if not isinstance(data, dict) or "variant" not in data:
        raise ValueError("process spec must be an object with a 'variant' field")
    variant = data["variant"]
    if not isinstance(variant, str) or variant not in _VARIANTS:
        raise ValueError(
            f"unknown process variant {variant!r}; expected one of {sorted(_VARIANTS)}"
        )
    fields = dataclasses.fields(_VARIANTS[variant])
    unknown = sorted(set(data) - {"variant"} - {f.name for f in fields})
    if unknown:
        raise ValueError(f"process spec {variant!r} has unknown field {unknown[0]!r}")
    values = {}
    for f in fields:
        where = f"process spec {variant!r} field {f.name!r}"
        if f.name not in data:
            raise ValueError(f"process spec {variant!r} is missing field {f.name!r}")
        value = data[f.name]
        if f.type == "ProcessSpec":
            values[f.name] = spec_from_dict(value)
        elif f.type == "float":
            values[f.name] = _number(where, value)
        elif isinstance(value, list):
            values[f.name] = tuple(_number(where, v) for v in value)
        else:
            raise ValueError(f"{where} must be a list of numbers, got {value!r}")
    return _VARIANTS[variant](**values)


def load_process_spec(path: str) -> ProcessSpec:
    with open(path, encoding="utf-8") as fh:
        return spec_from_dict(json.load(fh))


def dump_process_spec(path: str, spec: ProcessSpec) -> None:
    atomic_write_text(path, json.dumps(spec_to_dict(spec), indent=2) + "\n")


MC_CURVE_HEADER = ["n", "ir_mean", "ir_mc_se", "paths", "length", "seed"]


def write_mc_ir_curve_csv(path: str, curve: McIrCurve) -> None:
    rows = (
        (n, m, se, curve.paths, curve.length, curve.seed)
        for n, m, se in zip(curve.n.tolist(), curve.ir_mean.tolist(), curve.ir_se.tolist())
    )
    write_csv(path, MC_CURVE_HEADER, rows, comment=f"rng={RNG_ALGORITHM}")
