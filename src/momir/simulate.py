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

import contextlib
import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Union

import numpy as np

from .strategy import block_rows, ir_matrix, lookback_range, sharded
from .timeseries import write_csv

__all__ = [
    "IidGaussian",
    "MovingAverage",
    "SquareWaveDrift",
    "ProcessSpec",
    "McIrCurve",
    "innovations",
    "series",
    "path_rng",
    "theoretical_acf_of_ma",
    "ma_from_target_acf",
    "mc_ir_curve",
    "scored_paths",
    "load_process_spec",
    "write_mc_ir_curve_csv",
]

RNG_ALGORITHM = "Philox(4x64, 10 rounds)"

# Most float64 cells (2^24, 128 MiB) that one draw of standard normals, or
# the per-path IR table of :func:`mc_ir_curve`, may hold; a larger request
# fails before anything is allocated.
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


def path_rng(seed, path: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(path,))))


def square_wave(t: np.ndarray, t_wave: float) -> np.ndarray:
    """sgn(sin(2 pi t / T)) with sgn(0) := +1, computed without trigonometry.

    sin crosses zero exactly at t mod T in {0, T/2}; both map to +1.
    """
    phase = np.mod(t, t_wave)
    return np.where(phase <= t_wave / 2.0, 1.0, -1.0)


def drift(spec: SquareWaveDrift, length: int) -> np.ndarray:
    """The growth rate mu + A * sgn(sin(2 pi t / T_wave)) at t = 1..length."""
    t = np.arange(1, length + 1, dtype=float)
    return spec.mu + spec.amplitude * square_wave(t, spec.t_wave)


def _check_budget(rows: int, columns: int, what: str, options: str) -> None:
    """Fail naming ``options`` when rows x columns exceeds :data:`MAX_DRAW_ELEMENTS`."""
    if rows * columns > MAX_DRAW_ELEMENTS:
        raise ValueError(
            f"{rows} x {columns} {what} exceed the budget of {MAX_DRAW_ELEMENTS}; lower {options}"
        )


def _width(spec: ProcessSpec, length: int, paths: int) -> int:
    """Draws behind one series of ``length``: an MA of K coefficients needs K - 1 more.

    ``paths`` such series must fit the draw budget.
    """
    noise = spec.noise if isinstance(spec, SquareWaveDrift) else spec
    width = length + (len(noise.coefficients) - 1 if isinstance(noise, MovingAverage) else 0)
    _check_budget(paths, width, "standard normals",
                  "--length" + (" or --paths" if paths > 1 else ""))
    return width


def innovations(spec: ProcessSpec, paths: int, length: int, seed, first: int = 0) -> np.ndarray:
    """Standard-normal draws behind ``paths`` series of ``length``.

    Row k comes from path ``first + k``'s stream, so consecutive blocks of
    paths stack to the rows of one draw.  A draw of more than
    :data:`MAX_DRAW_ELEMENTS` fails naming the option that sized it.
    """
    width = _width(spec, length, paths)
    return np.stack([path_rng(seed, k).standard_normal(width) for k in range(first, first + paths)])


def series(spec: ProcessSpec, eta: np.ndarray) -> np.ndarray:
    """The process built from standard-normal innovations ``eta``, time on the last axis.

    Equal innovations give bit-identical series.
    """
    if isinstance(spec, IidGaussian):
        return spec.mu + spec.sigma * eta
    if isinstance(spec, MovingAverage):
        a = np.asarray(spec.coefficients)
        return spec.mu + spec.sigma * np.apply_along_axis(np.convolve, -1, eta, a, mode="valid")
    noise = series(spec.noise, eta)
    return drift(spec, noise.shape[-1]) + noise


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


def ma_from_target_acf(targets: Mapping[int, float], horizon: int) -> np.ndarray:
    """Find MA coefficients whose autocorrelation hits each target lag.

    ``targets`` maps lags (1 <= lag < horizon) to desired autocorrelations;
    unlisted lags are unconstrained.  The match must be within :data:`ACF_TOL`
    at every target or :class:`InfeasibleTargets` is raised.  The returned
    coefficients are scaled so a unit-sigma MA process has unit variance.

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
    return coeffs * math.sqrt(1.0 / float(np.dot(coeffs, coeffs)))


@dataclass(frozen=True)
class McIrCurve:
    """Monte Carlo IR curve: per-lookback mean IR across paths and its standard error."""

    n: np.ndarray
    ir_mean: np.ndarray
    ir_se: np.ndarray
    paths: int
    length: int
    seed: int

    def __len__(self) -> int:
        return len(self.n)


@contextlib.contextmanager
def scored_paths(template: ProcessSpec, ns: np.ndarray, paths: int, length: int, seed,
                 keep: bool = False) -> Iterator[Callable[[ProcessSpec], np.ndarray]]:
    """Yield ``score(spec)``: every path's IRs at ``ns`` on ``spec``, (paths, len(ns)).

    The table ``score`` returns is valid until its next call.  Path k's
    series is :func:`series` of ``spec`` on path k's draw, sized by
    ``template``.  Each of :func:`momir.strategy.sharded`'s shards draws,
    builds and scores its own part of the paths into its rows of the table:
    streamed, a block of :func:`momir.strategy.block_rows` at a time, each
    dropped once scored; with ``keep``, drawn whole once and kept across
    calls (common random numbers), with its noise series while the noise
    spec repeats, so the whole draw must fit :data:`MAX_DRAW_ELEMENTS`.
    """
    if paths < 1:
        raise ValueError(f"--paths must be >= 1, got {paths}")
    _width(template, length, paths if keep else 1)
    step = paths if keep else block_rows(length)
    kept = {}  # a kept part's first path -> (its draw, noise spec, noise series)

    def score(part: slice, out: np.ndarray, spec: ProcessSpec) -> None:
        noise = spec.noise if isinstance(spec, SquareWaveDrift) else spec
        for first in range(part.start, part.stop, step):
            eta, built, x = kept.get(first) or (innovations(
                template, min(step, part.stop - first), length, seed, first), None, None)
            if built != noise:
                x = series(noise, eta)
            if keep:
                kept[first] = (eta, noise, x)
            if noise is not spec:
                x = drift(spec, x.shape[-1]) + x
            out[first - part.start:][:len(x)] = ir_matrix(x, ns, first)

    with sharded(score, paths, len(ns)) as run:
        yield run


def mc_ir_curve(
    spec: ProcessSpec,
    n_range: tuple[int, int],
    paths: int = 500,
    length: int = 6068,
    seed: int = 0,
) -> McIrCurve:
    """Average the per-path IR curve over independently seeded realizations.

    The per-path IRs at every lookback in the range come from
    :func:`scored_paths`, streamed; the MC standard error is their
    cross-path standard deviation over sqrt(paths).  That table is the only
    array here that grows with ``paths``, and it is held once: the squared
    deviations are summed a row at a time, in the order, and so to the bits,
    of ``np.std(axis=0, ddof=1)``.
    """
    ns = lookback_range(n_range, length)
    _check_budget(paths, len(ns), "per-path IRs", "--paths or --n-max")
    with scored_paths(spec, ns, paths, length, seed) as score:
        per_path = score(spec)
    ir_mean = per_path.mean(axis=0)
    ir_se = np.zeros(len(ns))  # one path has no spread to report
    if paths >= 2:
        squares = np.zeros(len(ns))
        for row in per_path:
            deviation = row - ir_mean
            squares += deviation * deviation
        ir_se = np.sqrt(squares / (paths - 1)) / math.sqrt(paths)
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


MC_CURVE_HEADER = ["n", "ir_mean", "ir_mc_se", "paths", "length", "seed"]


def write_mc_ir_curve_csv(path: str, curve: McIrCurve) -> None:
    rows = (
        (n, m, se, curve.paths, curve.length, curve.seed)
        for n, m, se in zip(curve.n.tolist(), curve.ir_mean.tolist(), curve.ir_se.tolist())
    )
    write_csv(path, MC_CURVE_HEADER, rows, comment=f"rng={RNG_ALGORITHM}")
