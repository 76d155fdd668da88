"""Piecewise-linear segmentation into stationary regimes and per-regime diagnostics.

A cumulative log-return series is split by minimizing the total residual sum
of squares of independent per-segment linear fits (discontinuities allowed at
breaks), using dynamic programming over all admissible breakpoint placements.
The number of breaks is chosen by BIC; a segmentation is its break indices.
Each regime kept then gets a lag-1 autocorrelation, its best annualized IR
over a lookback range, and a classification: drift-driven when the best
lookback is long, autocorrelation-driven when it is short.
"""

from __future__ import annotations

import datetime as dt
import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .strategy import IrCurve, Z95, _finite, block_rows, ir_curve, ir_standard_error
from .timeseries import DatedSeries, last_per_key, write_csv

__all__ = [
    "RegimeCase",
    "RegimeStats",
    "detect_breakpoints",
    "acf1",
    "regime_stats",
    "average_ir_curve",
    "weekly_segmentation",
    "write_regime_report_csv",
]


# Most cells the dynamic program may scan (see _dp_cells): about 3 s at the
# 2.6 ns a cell measured on a 2-core Xeon.  Its (K+1)(n+1) tables hold far
# fewer entries, so this bounds its memory too.
MAX_DP_CELLS = 2**30


def _dp_cells(n: int, min_segment: int, max_breaks: int) -> int:
    """Cells the dynamic program scans over a series of ``n`` samples.

    A block of end points [j0, j1) costs (j1 - j0) * j1 cells for its segment
    costs, and level k scans (j1 - j0) * (j1 - k * min_segment) more while
    k * min_segment < j1; the level sum is in closed form per block.
    """
    height = block_rows(n + 1)
    cells = 0
    for j0 in range(0, n + 1, height):
        j1 = min(j0 + height, n + 1)
        levels = min(max_breaks, (j1 - 1) // min_segment)
        cells += (j1 - j0) * ((levels + 1) * j1 - min_segment * levels * (levels + 1) // 2)
    return cells


def _dp_tables(y: np.ndarray, min_segment: int, max_breaks: int) -> tuple[np.ndarray, np.ndarray]:
    """opt[k, j]: minimal SSE splitting [0, j) into k+1 segments; argt backtracks.

    The cost of a line over [i, j) (inf where j - i < min_segment) comes in
    closed form from prefix sums.  It is made one block of end points j at a
    time, laid out (j, i) so that every reduction runs along contiguous
    memory, and every break count is advanced over that block before the
    next: opt[k, j] needs opt[k - 1, i] only for i < j, so the (n+1)^2 cost
    matrix is never held; a block has the IR kernel's cache-sized height,
    :func:`momir.strategy.block_rows` (n + 1).  Level k scans only the starts
    i >= k * min_segment that can hold a split, adding opt[k - 1, i] into one
    reused candidate buffer and taking the first minimum along i.  Callers
    pass the series as :func:`_segmentable` makes it.  A series whose scan
    would exceed :data:`MAX_DP_CELLS` fails before anything is allocated.
    """
    n = len(y)
    cells = _dp_cells(n, min_segment, max_breaks)
    if cells > MAX_DP_CELLS:
        raise ValueError(
            f"segmenting {n} samples into up to {max_breaks + 1} segments of >= {min_segment} "
            f"would scan {cells:.3g} cells, over the budget of {MAX_DP_CELLS:.3g}; "
            "lower --max-breaks or raise --min-segment-months"
        )
    x = np.arange(n, dtype=float)
    px, py, pxx, pxy, pyy = (
        np.concatenate([[0.0], np.cumsum(v)]) for v in (x, y, x * x, x * y, y * y)
    )
    opt = np.full((max_breaks + 1, n + 1), np.inf)
    argt = np.zeros((max_breaks + 1, n + 1), dtype=int)
    height = block_rows(n + 1)
    buffer = np.empty(height * (n + 1))
    for j0 in range(0, n + 1, height):
        j1 = min(j0 + height, n + 1)
        i = np.arange(j1, dtype=float)[None, :]
        length = np.arange(j0, j1, dtype=float)[:, None] - i
        with np.errstate(invalid="ignore", divide="ignore"):
            sx, sy, sxx, sxy, syy = (
                p[j0:j1, None] - p[None, :j1] for p in (px, py, pxx, pxy, pyy)
            )
            cxx = sxx - sx * sx / length
            cxy = sxy - sx * sy / length
            cyy = syy - sy * sy / length
            sse = cyy - cxy * cxy / cxx
        cost = np.where(length >= min_segment, np.maximum(sse, 0.0), np.inf)
        opt[0, j0:j1] = cost[:, 0]
        rows = np.arange(j1 - j0)
        for k in range(1, max_breaks + 1):
            # k segments of >= min_segment end no earlier than k * min_segment;
            # opt[k - 1] is inf at every start before it.
            first = k * min_segment
            if first >= j1:
                break
            cand = buffer[: (j1 - j0) * (j1 - first)].reshape(j1 - j0, j1 - first)
            np.add(opt[k - 1, first:j1], cost[:, first:], out=cand)
            t = np.argmin(cand, axis=1)
            opt[k, j0:j1] = cand[rows, t]
            argt[k, j0:j1] = t + first
    return opt, argt


def _backtrack(argt: np.ndarray, k: int, n: int) -> tuple[int, ...]:
    """Ascending break indices of the optimal k-break split of [0, n)."""
    breaks = (n,)
    for level in range(k, 0, -1):
        breaks = (int(argt[level, breaks[0]]), *breaks)
    return breaks[:-1]


def _segmentable(values, min_segment: int) -> np.ndarray:
    """``values`` as the dynamic program takes them: v - v[0] times the power of
    two that puts its largest magnitude in [0.5, 1).

    The shift makes the costs independent of the level; the scaling is exact
    away from underflow and commutes with every step, so no square overflows
    or underflows and the breaks do not depend on the scale.  Fails on a
    minimum segment below 2 or a non-finite value or v - v[0].
    """
    if min_segment < 2:
        raise ValueError("min_segment must be >= 2 (a line needs two points)")
    v = _finite(values, "segmentation")
    with np.errstate(over="ignore"):
        z = v - v[0]
    if not np.all(np.isfinite(z)):
        raise ValueError("segmentation: the series minus its first value is not finite")
    return np.ldexp(z, -np.frexp(np.max(np.abs(z)))[1])


def detect_breakpoints(
    values, min_segment: int = 12, max_breaks: int | None = None
) -> tuple[int, ...]:
    """Break indices of the optimal piecewise-linear segmentation, the count chosen by BIC.

    For each candidate count k up to ``max_breaks`` (default: as many as the
    minimum segment length allows) the dynamic program finds the global
    least-squares placement; BIC(k) = n*ln(sse/n) + (3k+2)*ln(n) picks k, with
    ties going to fewer breaks.  Each candidate's SSE is the dynamic program's
    own optimal cost, floored at 1e-12 * sum(y^2) with y the series as the
    dynamic program takes it, so that noiseless data selects the minimal break
    count; neither y nor the breaks move under a positive rescaling.  A series
    whose dynamic program would scan more than :data:`MAX_DP_CELLS` cells
    fails before it starts.
    """
    y = _segmentable(values, min_segment)
    if len(y) < 2 * min_segment:
        raise ValueError(
            f"series of length {len(y)} is shorter than 2*min_segment={2 * min_segment}"
        )
    feasible_max = len(y) // min_segment - 1
    if max_breaks is None:
        max_breaks = feasible_max
    if max_breaks < 1:
        raise ValueError("max_breaks must be >= 1")
    max_breaks = min(max_breaks, feasible_max)

    opt, argt = _dp_tables(y, min_segment, max_breaks)
    n = len(y)
    ks = np.flatnonzero(np.isfinite(opt[:, n]))
    if not ks.size:
        raise ValueError("no admissible segmentation found")
    # The prefix-sum costs carry round-off relative to the series' own size;
    # an SSE below this floor is noise, so noiseless data keeps the fewest breaks.
    floor = max(1e-12 * float(y @ y), np.finfo(float).tiny)
    bic = n * np.log(np.maximum(opt[ks, n], floor) / n) + (3 * ks + 2) * math.log(n)
    best_k = int(ks[np.argmin(bic)])
    return _backtrack(argt, best_k, n)


def acf1(values) -> float:
    """Sample lag-1 autocorrelation.

    The lag-1 covariance averages the n-1 overlapping products of deviations
    from the full-sample mean (so a perfectly alternating series scores
    exactly -1) and is divided by the full-sample mean square deviation.
    """
    x = _finite(values, "a lag-1 autocorrelation")
    n = len(x)
    if n <= 2:
        raise ValueError(f"series of length {n} too short for a lag-1 autocorrelation")
    d = x - x.mean()
    denom = float(np.mean(d * d))
    if denom == 0.0:
        raise ValueError("autocorrelation of a zero-variance series is undefined")
    return float(np.dot(d[1:], d[:-1])) / (n - 1) / denom


class RegimeCase(str, enum.Enum):
    """Drift-driven (best IR at long lookback) vs autocorrelation-driven regimes."""

    CASE_I = "CaseI"
    CASE_II = "CaseII"


@dataclass(frozen=True)
class RegimeStats:
    """Per-regime diagnostics: lag-1 autocorrelation and the best IR lookback."""

    start: dt.date
    end: dt.date
    weeks: int
    acf1: float
    acf_se: float
    max_ir_annualized: float
    max_ir_lookback: int
    ir_se: float
    classification: RegimeCase
    curve: IrCurve


def regime_stats(
    x: DatedSeries, n_range: tuple[int, int], threshold_n: int = 20
) -> RegimeStats:
    """IR curve, lag-1 autocorrelation, and case classification for one dated regime.

    The regime is drift-driven (case I) exactly when the lookback with the
    highest annualized IR exceeds ``threshold_n``.  Both standard errors use
    the regime's week count: ``acf_se`` = Z95 / sqrt(weeks) and ``ir_se`` from
    :func:`ir_standard_error`.
    """
    values = x.values
    weeks = len(values)
    curve = ir_curve(values, n_range)
    ann = curve.ir_annualized
    if not np.any(np.isfinite(ann)):
        raise ValueError("IR undefined at every lookback in this regime")
    best = int(np.nanargmax(ann))
    return RegimeStats(
        start=x.dates[0],
        end=x.dates[-1],
        weeks=weeks,
        # Clipped at the boundary: the tail-weighted covariance estimator can
        # leave [-1, 1] on pathological tiny samples.
        acf1=min(1.0, max(-1.0, acf1(values))),
        acf_se=Z95 / math.sqrt(weeks),
        max_ir_annualized=float(ann[best]),
        max_ir_lookback=int(curve.n[best]),
        ir_se=ir_standard_error(weeks),
        classification=RegimeCase.CASE_I if int(curve.n[best]) > threshold_n else RegimeCase.CASE_II,
        curve=curve,
    )


def average_ir_curve(curves: Sequence[IrCurve]) -> IrCurve:
    """Unweighted per-lookback mean IR across regimes, with the SE of the mean.

    All curves must share the same lookback grid.  Undefined entries are
    skipped per lookback; ``samples`` counts the contributing curves.
    """
    if not curves:
        raise ValueError("cannot average an empty list of IR curves")
    base = curves[0]
    for c in curves[1:]:
        if len(c.n) != len(base.n) or np.any(c.n != base.n):
            raise ValueError("IR curves cover different lookback ranges")
    irs = np.vstack([c.ir for c in curves])
    means = np.vstack([c.mean for c in curves])
    sds = np.vstack([c.sd for c in curves])
    finite = np.isfinite(irs)
    count = finite.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        avg_ir = np.where(count > 0, np.nanmean(np.where(finite, irs, np.nan), axis=0), np.nan)
        sem = np.full(len(base.n), np.nan)
        multi = count > 1
        if np.any(multi):
            spread = np.nanstd(np.where(finite, irs, np.nan), axis=0, ddof=1)
            sem[multi] = spread[multi] / np.sqrt(count[multi])
        avg_mean = np.nanmean(means, axis=0)
        avg_sd = np.nanmean(sds, axis=0)
    return IrCurve(n=base.n, mean=avg_mean, sd=avg_sd, ir=avg_ir, stderr=sem, samples=count)


# ---------------------------------------------------------------------------
# Weekly pipeline: sample the cumulative log series monthly, segment there,
# then map the breaks back to weekly indices by date.
# ---------------------------------------------------------------------------


def weekly_segmentation(
    returns: DatedSeries,
    min_segment_months: int = 12,
    max_breaks: int | None = None,
) -> tuple[int, ...]:
    """Detect drift regimes on the monthly-sampled cumulative log series and
    return their ascending weekly break indices: a monthly break at b becomes
    the week after the last week of month b - 1."""
    cumlog = np.cumsum(returns.values)
    month_idx = last_per_key(returns.dates, lambda d: (d.year, d.month))
    if len(month_idx) < 2 * min_segment_months:
        raise ValueError(
            f"{len(month_idx)} monthly samples are too few for segmentation "
            f"(need {2 * min_segment_months})"
        )
    breaks = detect_breakpoints(cumlog[month_idx], min_segment_months, max_breaks)
    return tuple(int(month_idx[b - 1]) + 1 for b in breaks)


REGIME_REPORT_HEADER = [
    "start", "end", "weeks", "acf1", "acf_se", "max_ir", "ir_se", "max_ir_n", "classification",
]


def write_regime_report_csv(path: str, stats: Sequence[RegimeStats]) -> None:
    rows = (
        (
            s.start.isoformat(), s.end.isoformat(), s.weeks, s.acf1, s.acf_se,
            s.max_ir_annualized, s.ir_se, s.max_ir_lookback, s.classification.value,
        )
        for s in stats
    )
    write_csv(path, REGIME_REPORT_HEADER, rows)
