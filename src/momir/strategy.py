"""Moving-average momentum strategy and empirical information-ratio curves.

The signal at time t is the simple moving average m_t(N) of the last N
normalized returns; the position held into t+1 is m_t(N) itself (long when
positive, short when negative), so the per-period payoff is m_t(N) * X_{t+1}.
The information ratio (IR) for a lookback N is the mean payoff divided by the
payoff standard deviation; annualization multiplies by sqrt(periods per year).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .timeseries import NormalizedReturnSeries, write_csv

__all__ = [
    "StrategyPayoffs",
    "IrCurve",
    "signal",
    "backtest",
    "ir_curve",
    "annualize",
    "ir_standard_error",
    "write_ir_curve_csv",
    "read_ir_curve_csv",
]

# 95% normal critical value used in every standard-error rule below.
Z95 = 1.96


def _values(x) -> np.ndarray:
    if isinstance(x, NormalizedReturnSeries):
        return x.values
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class StrategyPayoffs:
    """Per-period payoffs m_{t-1}(N) * X_t for one lookback N.

    ``start`` is the index (into the source series) of the first traded
    return, so payoff k settles on series index ``start + k``.
    """

    lookback: int
    payoffs: np.ndarray
    start: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "payoffs", np.asarray(self.payoffs, dtype=float))

    def __len__(self) -> int:
        return len(self.payoffs)


@dataclass(frozen=True)
class IrCurve:
    """Per-lookback strategy statistics.

    ``ir`` holds the per-period information ratio and is NaN where the payoff
    standard deviation vanishes (undefined, never +/-inf).  ``stderr`` is the
    annualized 95% half-width Z95 * sqrt(periods_per_year / samples).
    """

    n: np.ndarray
    mean: np.ndarray
    sd: np.ndarray
    ir: np.ndarray
    stderr: np.ndarray
    samples: np.ndarray
    periods_per_year: float = 52.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", np.asarray(self.n, dtype=int))
        for name in ("mean", "sd", "ir", "stderr"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=int))
        sizes = {len(getattr(self, f)) for f in ("n", "mean", "sd", "ir", "stderr", "samples")}
        if len(sizes) != 1:
            raise ValueError("IR curve: columns differ in length")

    @property
    def ir_annualized(self) -> np.ndarray:
        return self.ir * math.sqrt(self.periods_per_year)

    def __len__(self) -> int:
        return len(self.n)


def signal(x, n: int, t: int) -> float:
    """Moving-average signal m_t(N): mean of the N values ending at index t."""
    values = _values(x)
    if n < 1:
        raise ValueError("lookback N must be >= 1")
    if t < n - 1 or t >= len(values):
        raise ValueError(
            f"signal at index {t} needs {n} past values within a series of "
            f"length {len(values)}"
        )
    return float(values[t - n + 1 : t + 1].mean())


def _payoffs(x: np.ndarray, ns) -> Iterator[np.ndarray]:
    """Payoffs m_{t-1}(N) * X_t along the last axis of ``x``, for each N in turn.

    Window sums are differences of one prefix sum, shared by every lookback.
    """
    length = x.shape[-1]
    prefix = np.concatenate([np.zeros(x.shape[:-1] + (1,)), np.cumsum(x, axis=-1)], axis=-1)
    for n in ns:
        yield (prefix[..., n:length] - prefix[..., : length - n]) / n * x[..., n:]


def backtest(x, n: int) -> StrategyPayoffs:
    """Payoffs m_{t-1}(N) * X_t for every t with a full lookback window.

    One payoff per period (rebalanced every period, no costs), t running from
    N to len(X)-1, giving exactly len(X) - N payoffs.
    """
    values = _values(x)
    if n < 1:
        raise ValueError("lookback N must be >= 1")
    if len(values) <= n:
        raise ValueError(f"series of length {len(values)} too short for lookback {n}")
    return StrategyPayoffs(lookback=n, payoffs=next(_payoffs(values, [n])), start=n)


def ir_standard_error(samples: int, periods_per_year: float) -> float:
    """Annualized 95% half-width for an estimated IR: Z95 * sqrt(ppy / samples)."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    return Z95 * math.sqrt(periods_per_year) / math.sqrt(samples)


# Payoff spreads below this fraction of the mean are indistinguishable from a
# constant payoff in double precision; the IR is reported as undefined there.
DEGENERATE_SD_RTOL = 1e-12


def _ir_stats(x: np.ndarray, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row payoff mean, sample sd and IR at each lookback, each (rows, len(ns)).

    The sd is NaN with fewer than two payoffs; the IR is NaN where the sd is
    undefined, zero or degenerate.
    """
    mean = np.empty((x.shape[0], len(ns)))
    sd = np.full_like(mean, np.nan)
    for i, pays in enumerate(_payoffs(x, ns)):
        mean[:, i] = pays.mean(axis=1)
        if pays.shape[1] >= 2:
            sd[:, i] = pays.std(axis=1, ddof=1)
    defined = (sd > 0.0) & (sd > DEGENERATE_SD_RTOL * np.abs(mean))
    with np.errstate(divide="ignore", invalid="ignore"):
        ir = np.where(defined, mean / sd, np.nan)
    return mean, sd, ir


def ir_curve(x, n_range: tuple[int, int], periods_per_year: float = 52.0) -> IrCurve:
    """Backtest every lookback in [n_min, n_max] and collect IR statistics."""
    values = _values(x)
    n_min, n_max = int(n_range[0]), int(n_range[1])
    if n_min < 1 or n_max < n_min:
        raise ValueError(f"bad lookback range [{n_min}, {n_max}]")
    if n_max >= len(values):
        raise ValueError(
            f"max lookback {n_max} needs a series longer than {n_max}, got {len(values)}"
        )
    if periods_per_year <= 0:
        raise ValueError("periods_per_year must be positive")
    ns = np.arange(n_min, n_max + 1)
    mean, sd, ir = (v[0] for v in _ir_stats(values[None, :], ns))
    samples = len(values) - ns
    stderr = [ir_standard_error(int(s), periods_per_year) for s in samples]
    return IrCurve(
        n=ns, mean=mean, sd=sd, ir=ir, stderr=stderr, samples=samples,
        periods_per_year=periods_per_year,
    )


def annualize(ir_per_period: float, periods_per_year: float) -> float:
    """Scale a per-period IR to annual units: ir * sqrt(periods_per_year)."""
    if periods_per_year <= 0:
        raise ValueError("periods_per_year must be positive")
    return ir_per_period * math.sqrt(periods_per_year)


def ir_matrix(x_matrix: np.ndarray, lookbacks) -> np.ndarray:
    """Per-row IR at each requested lookback, over a (rows, length) matrix.

    The same statistics as running ``ir_curve`` on every row.  Returns an
    array of shape (rows, len(lookbacks)) with NaN where the payoff sd
    vanishes.
    """
    x = np.asarray(x_matrix, dtype=float)
    if x.ndim != 2:
        raise ValueError("expected a 2-d matrix of series")
    length = x.shape[1]
    ns = np.asarray(lookbacks, dtype=int)
    if ns.size == 0 or ns.min() < 1 or ns.max() >= length:
        raise ValueError(f"lookbacks must lie in [1, {length - 1}], got {ns!r}")
    return _ir_stats(x, ns)[2]


# ---------------------------------------------------------------------------
# CSV interface: `n,mean,sd,ir,ir_annualized,stderr,samples`; undefined IR
# entries leave the ir columns empty.
# ---------------------------------------------------------------------------

IR_CURVE_HEADER = ["n", "mean", "sd", "ir", "ir_annualized", "stderr", "samples"]


def write_ir_curve_csv(path: str, curve: IrCurve) -> None:
    columns = (curve.n, curve.mean, curve.sd, curve.ir, curve.ir_annualized, curve.stderr,
               curve.samples)
    write_csv(path, IR_CURVE_HEADER, zip(*(c.tolist() for c in columns)))


def read_ir_curve_csv(path: str, periods_per_year: float = 52.0) -> IrCurve:
    """Load an IR-curve CSV written by :func:`write_ir_curve_csv`."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != IR_CURVE_HEADER:
            raise ValueError(f"{path}: expected header {','.join(IR_CURVE_HEADER)!r}")
        rows = [row for row in reader if row and any(f.strip() for f in row)]
    if not rows:
        raise ValueError(f"{path}: no data rows")

    def num(s: str) -> float:
        return float(s) if s.strip() else math.nan

    n = [int(r[0]) for r in rows]
    return IrCurve(
        n=n,
        mean=[num(r[1]) for r in rows],
        sd=[num(r[2]) for r in rows],
        ir=[num(r[3]) for r in rows],
        stderr=[num(r[5]) for r in rows],
        samples=[int(r[6]) for r in rows],
        periods_per_year=periods_per_year,
    )
