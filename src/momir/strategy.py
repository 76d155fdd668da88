"""Moving-average momentum strategy and empirical information-ratio curves.

The signal at time t is the simple moving average m_t(N) of the last N
normalized returns; the position held into t+1 is m_t(N) itself (long when
positive, short when negative), so the per-period payoff is m_t(N) * X_{t+1}.
The information ratio (IR) for a lookback N is the mean payoff divided by the
payoff standard deviation.  Every series is weekly, so annualization
multiplies by sqrt(PERIODS_PER_YEAR).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .timeseries import finite_number, read_csv, write_csv

__all__ = [
    "PERIODS_PER_YEAR",
    "IrCurve",
    "check_lookbacks",
    "lookback_range",
    "backtest",
    "ir_curve",
    "annualize",
    "ir_standard_error",
    "write_ir_curve_csv",
    "read_ir_curve_csv",
]

# 95% normal critical value used in every standard-error rule below.
Z95 = 1.96

# Every series momir analyses is weekly; :func:`annualize` is the one rule that uses this.
PERIODS_PER_YEAR = 52


def check_lookbacks(ns, length: int | None = None) -> np.ndarray:
    """The lookbacks ``ns`` as an int array, after checking the one lookback rule.

    There must be at least one lookback, every N must be >= 1 and, given a
    series ``length``, every N must be below it.
    """
    arr = np.asarray(ns, dtype=int)
    if arr.size == 0:
        raise ValueError(f"no lookbacks in {ns!r}")
    if arr.min() < 1:
        raise ValueError(f"lookback N must be >= 1, got {arr.min()}")
    if length is not None and arr.max() >= length:
        raise ValueError(f"series of length {length} too short for max lookback {arr.max()}")
    return arr


def lookback_range(n_range: tuple[int, int], length: int | None = None) -> np.ndarray:
    """Every lookback in [n_min, n_max] as an int array, checked before it is built.

    The rule of :func:`check_lookbacks` depends only on the smallest and the
    largest N, so it sees the two ends (an empty range as it is), and an
    oversized range fails before anything is allocated.
    """
    lo, hi = int(n_range[0]), int(n_range[1])
    check_lookbacks([lo, hi] if lo <= hi else range(lo, hi + 1), length)
    return np.arange(lo, hi + 1)


def _finite(values, use: str) -> np.ndarray:
    """``values`` as floats, failing on the first non-finite value, which ``use`` cannot take."""
    y = np.asarray(values, dtype=float)
    finite = np.isfinite(y)
    if not finite.all():
        i = int(np.argmin(finite))
        row, col = divmod(i, y.shape[1]) if y.ndim == 2 else (None, i)
        where = f"index {col}" if row is None else f"index {col} of row {row}"
        raise ValueError(f"series value at {where} is {y.flat[i]}; {use} needs finite values")
    return y


@dataclass(frozen=True)
class IrCurve:
    """Per-lookback strategy statistics.

    ``ir`` holds the per-period information ratio and is NaN where the payoff
    standard deviation vanishes (undefined, never +/-inf).  ``stderr`` is the
    annualized 95% half-width Z95 * sqrt(PERIODS_PER_YEAR / samples).
    """

    n: np.ndarray
    mean: np.ndarray
    sd: np.ndarray
    ir: np.ndarray
    stderr: np.ndarray
    samples: np.ndarray

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
        return annualize(self.ir)

    def __len__(self) -> int:
        return len(self.n)


def _prefix_sums(x: np.ndarray) -> np.ndarray:
    """Prefix sums along the last axis of ``x``, with a leading 0: one more column than ``x``."""
    prefix = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
    np.cumsum(x, axis=-1, out=prefix[..., 1:])
    return prefix


def _payoffs(x: np.ndarray, ns, prefix=None, buffer=None) -> Iterator[np.ndarray]:
    """Payoffs m_{t-1}(N) * X_t along the last axis of ``x``, for each N in turn.

    Window sums are differences of ``prefix``, the prefix sums of ``x``
    (:func:`_prefix_sums`), shared by every lookback.  Every yielded array is
    a view of ``buffer``, which holds at least the payoffs of the smallest N,
    so each is valid only until the next one is drawn.  Either is made here
    when not given.
    """
    lead, length = x.shape[:-1], x.shape[-1]
    if prefix is None:
        prefix = _prefix_sums(x)
    if buffer is None:
        buffer = np.empty(math.prod(lead) * (length - min(ns)))
    for n in ns:
        pays = buffer[: math.prod(lead) * (length - n)].reshape(lead + (length - n,))
        np.subtract(prefix[..., n:length], prefix[..., : length - n], out=pays)
        np.divide(pays, n, out=pays)
        yield np.multiply(pays, x[..., n:], out=pays)


def backtest(x, n: int) -> np.ndarray:
    """Payoffs m_{t-1}(N) * X_t for every t with a full lookback window.

    One payoff per period (rebalanced every period, no costs), t running from
    N to len(X)-1, giving exactly len(X) - N payoffs: payoff k settles on
    series index N + k.
    """
    values = np.asarray(x, dtype=float)
    return next(_payoffs(values, check_lookbacks([n], len(values))))


def ir_standard_error(samples: int) -> float:
    """Annualized 95% half-width for an estimated IR: Z95 * sqrt(PERIODS_PER_YEAR / samples)."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    return annualize(Z95) / math.sqrt(samples)


# Payoff spreads below this fraction of the mean are indistinguishable from a
# constant payoff in double precision; the IR is reported as undefined there.
DEGENERATE_SD_RTOL = 1e-12

# Rows are scored in blocks of about this many elements, so each payoff
# buffer stays cache-sized.  numpy reduces each row on its own, so every
# statistic is bit-identical to a one-row-at-a-time run.  A block with
# fewer than WORKERS times this many payoffs is scored on the calling
# thread.  The segmentation DP and the Monte Carlo draw block by the same
# rule (block_rows).
IR_BLOCK_ELEMENTS = 2**16

# The IR kernel's threads: one per CPU this process may run on.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)
_POOL = None


def _pool():
    """The IR kernel's thread pool, made on first use."""
    global _POOL
    if _POOL is None:
        from concurrent.futures import ThreadPoolExecutor

        _POOL = ThreadPoolExecutor(WORKERS, thread_name_prefix="momir-ir")
    return _POOL


def _forget_pool() -> None:
    """A forked child has none of its parent's threads, so it makes its own pool."""
    global _POOL
    _POOL = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def block_rows(length: int) -> int:
    """Rows of a (rows, length) matrix that make one block: at least one."""
    return max(1, IR_BLOCK_ELEMENTS // length)


def _ir_stats(x: np.ndarray, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row payoff mean, sample sd and IR at each lookback, each (rows, len(ns)).

    The sd is NaN with fewer than two payoffs; the IR is NaN where the sd is
    undefined, zero or degenerate.  The steps are numpy's own for ``np.mean``
    and ``np.std(ddof=1)``, run in place on a payoff buffer, so every
    statistic is bit-identical to those calls.  Each block of rows gets one
    prefix sum; worker k scores lookbacks ``ns[k::WORKERS]`` from it into its
    own buffer and its own columns, so the statistics are the same bits at
    any worker count.
    """
    rows, length = x.shape
    mean = np.empty((rows, len(ns)))
    sd = np.full_like(mean, np.nan)
    step = block_rows(length)
    shares = [np.arange(k, len(ns), WORKERS) for k in range(min(WORKERS, len(ns)))]
    buffers = [np.empty(min(step, rows) * (length - ns[cols].min())) for cols in shares]
    row_payoffs = int(np.sum(length - ns))
    for lo in range(0, rows, step):
        block = slice(lo, lo + step)
        prefix = _prefix_sums(x[block])

        def score(cols, buffer):
            for i, pays in zip(cols, _payoffs(x[block], ns[cols], prefix, buffer)):
                m = pays.shape[1]
                mu = np.add.reduce(pays, axis=1) / m
                mean[block, i] = mu
                if m >= 2:
                    pays -= mu[:, None]
                    pays *= pays
                    sd[block, i] = np.sqrt(np.add.reduce(pays, axis=1) / (m - 1))

        threaded = WORKERS > 1 and len(prefix) * row_payoffs >= WORKERS * IR_BLOCK_ELEMENTS
        list((_pool().map if threaded else map)(score, shares, buffers))
    defined = (sd > 0.0) & (sd > DEGENERATE_SD_RTOL * np.abs(mean))
    with np.errstate(divide="ignore", invalid="ignore"):
        ir = np.where(defined, mean / sd, np.nan)
    return mean, sd, ir


def ir_curve(x, n_range: tuple[int, int]) -> IrCurve:
    """Backtest every lookback in [n_min, n_max] and collect IR statistics."""
    values = _finite(x, "an IR curve")
    ns = lookback_range(n_range, len(values))
    samples = len(values) - ns
    stderr = [ir_standard_error(int(s)) for s in samples]
    mean, sd, ir = (v[0] for v in _ir_stats(values[None, :], ns))
    return IrCurve(n=ns, mean=mean, sd=sd, ir=ir, stderr=stderr, samples=samples)


def annualize(ir_per_period):
    """Scale a per-period IR (a float or an array) to annual units: ir * sqrt(PERIODS_PER_YEAR)."""
    return ir_per_period * math.sqrt(PERIODS_PER_YEAR)


def ir_matrix(x_matrix: np.ndarray, lookbacks) -> np.ndarray:
    """Per-row IR at each requested lookback, over a (rows, length) matrix.

    The same statistics as running ``ir_curve`` on every row.  Returns an
    array of shape (rows, len(lookbacks)) with NaN where the payoff sd
    vanishes.
    """
    x = _finite(x_matrix, "an IR matrix")
    if x.ndim != 2:
        raise ValueError("expected a 2-d matrix of series")
    return _ir_stats(x, check_lookbacks(lookbacks, x.shape[1]))[2]


# ---------------------------------------------------------------------------
# CSV interface: `n,mean,sd,ir,ir_annualized,stderr,samples`; undefined IR
# entries leave the ir columns empty.
# ---------------------------------------------------------------------------

IR_CURVE_HEADER = ["n", "mean", "sd", "ir", "ir_annualized", "stderr", "samples"]


def write_ir_curve_csv(path: str, curve: IrCurve) -> None:
    columns = (curve.n, curve.mean, curve.sd, curve.ir, curve.ir_annualized, curve.stderr,
               curve.samples)
    write_csv(path, IR_CURVE_HEADER, zip(*(c.tolist() for c in columns)))


def _number(text: str) -> float:
    """A finite float cell; an empty cell is NaN."""
    return finite_number(text) if text.strip() else math.nan


def read_ir_curve_csv(path: str) -> IrCurve:
    """Load an IR-curve CSV written by :func:`write_ir_curve_csv`."""
    n, mean, sd, ir, _, stderr, samples = read_csv(
        path, IR_CURVE_HEADER, [int, _number, _number, _number, _number, _number, int]
    )
    return IrCurve(n, mean, sd, ir, stderr, samples)
