"""Piecewise-linear segmentation into stationary regimes and per-regime diagnostics.

A cumulative log-return series is split by minimizing the total residual sum
of squares of independent per-segment linear fits (discontinuities allowed at
breaks), using dynamic programming over all admissible breakpoint placements.
The number of breaks is chosen by BIC.  Each surviving regime then gets a
lag-1 autocorrelation, its best annualized IR over a lookback range, and a
classification: drift-driven when the best lookback is long, autocorrelation-
driven when it is short.
"""

from __future__ import annotations

import datetime as dt
import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .strategy import IrCurve, Z95, ir_curve, ir_standard_error
from .timeseries import NormalizedReturnSeries, ReturnSeries, write_csv

__all__ = [
    "Segment",
    "Segmentation",
    "RegimeCase",
    "RegimeStats",
    "AcfPoint",
    "detect_breakpoints",
    "best_segmentation",
    "filter_regimes",
    "acf",
    "regime_stats",
    "average_ir_curve",
    "monthly_last_indices",
    "weekly_segmentation",
    "write_regime_report_csv",
]


@dataclass(frozen=True)
class Segment:
    """Half-open index span [start, end) with its independent linear fit.

    ``intercept`` is the fitted level at the segment's first sample; ``slope``
    is per period.  ``resid_var`` is sse / max(length - 2, 1).
    """

    start: int
    end: int
    slope: float
    intercept: float
    resid_var: float
    sse: float

    def __len__(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class Segmentation:
    """Breakpoints plus fitted segments over a series of ``n`` samples."""

    breakpoints: tuple[int, ...]
    segments: tuple[Segment, ...]
    n: int

    @property
    def rss(self) -> float:
        return float(sum(s.sse for s in self.segments))


def _fit_segment(y: np.ndarray, start: int, end: int) -> Segment:
    """Least-squares line over y[start:end] with local x = 0..L-1."""
    seg = y[start:end]
    length = end - start
    x = np.arange(length, dtype=float)
    if length < 2:
        return Segment(start, end, 0.0, float(seg[0]), 0.0, 0.0)
    design = np.column_stack([np.ones(length), x])
    coef, _, _, _ = np.linalg.lstsq(design, seg, rcond=None)
    resid = seg - design @ coef
    sse = float(resid @ resid)
    return Segment(
        start=start,
        end=end,
        slope=float(coef[1]),
        intercept=float(coef[0]),
        resid_var=sse / max(length - 2, 1),
        sse=sse,
    )


# Elements in one column block of the segment-cost matrix; the block width is
# this over the row count, so segmentation memory stays O(n) however long the
# series is.
COST_BLOCK_ELEMENTS = 2**18


def _dp_tables(y: np.ndarray, min_segment: int, max_breaks: int) -> tuple[np.ndarray, np.ndarray]:
    """opt[k, j]: minimal SSE splitting [0, j) into k+1 segments; argt backtracks.

    The cost of a line over [i, j) (inf where j - i < min_segment) comes in
    closed form from prefix sums.  It is made one block of columns j at a
    time, and every break count is advanced over that block before the next:
    opt[k, j] needs opt[k - 1, i] only for i < j, so the (n+1)^2 cost matrix
    is never held, and level k scans only the rows i >= k * min_segment that
    can hold a split.  Callers pass the series shifted to start at zero, which
    keeps the prefix sums small and makes the costs independent of the level.
    """
    n = len(y)
    x = np.arange(n, dtype=float)
    px, py, pxx, pxy, pyy = (
        np.concatenate([[0.0], np.cumsum(v)]) for v in (x, y, x * x, x * y, y * y)
    )
    opt = np.full((max_breaks + 1, n + 1), np.inf)
    argt = np.zeros((max_breaks + 1, n + 1), dtype=int)
    width = max(1, COST_BLOCK_ELEMENTS // (n + 1))
    for j0 in range(0, n + 1, width):
        j1 = min(j0 + width, n + 1)
        i = np.arange(j1, dtype=float)[:, None]
        length = np.arange(j0, j1, dtype=float)[None, :] - i
        with np.errstate(invalid="ignore", divide="ignore"):
            sx, sy, sxx, sxy, syy = (
                p[None, j0:j1] - p[:j1, None] for p in (px, py, pxx, pxy, pyy)
            )
            cxx = sxx - sx * sx / length
            cxy = sxy - sx * sy / length
            cyy = syy - sy * sy / length
            sse = cyy - cxy * cxy / cxx
        cost = np.where(length >= min_segment, np.maximum(sse, 0.0), np.inf)
        opt[0, j0:j1] = cost[0]
        columns = np.arange(j1 - j0)
        for k in range(1, max_breaks + 1):
            # k segments of >= min_segment end no earlier than row k * min_segment;
            # opt[k - 1] is inf on every row above it.
            first = k * min_segment
            if first >= j1:
                break
            cand = opt[k - 1, first:j1, None] + cost[first:]
            t = np.argmin(cand, axis=0)
            opt[k, j0:j1] = cand[t, columns]
            argt[k, j0:j1] = t + first
    return opt, argt


def _backtrack(argt: np.ndarray, k: int, n: int) -> list[int]:
    breaks: list[int] = []
    j = n
    for level in range(k, 0, -1):
        j = int(argt[level, j])
        breaks.append(j)
    breaks.reverse()
    return breaks


def _build_segmentation(y: np.ndarray, breaks: Sequence[int]) -> Segmentation:
    bounds = [0, *breaks, len(y)]
    segments = tuple(_fit_segment(y, bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1))
    return Segmentation(breakpoints=tuple(int(b) for b in breaks), segments=segments, n=len(y))


def best_segmentation(values, n_breaks: int, min_segment: int) -> Segmentation:
    """Globally optimal segmentation with exactly ``n_breaks`` breaks."""
    y = np.asarray(values, dtype=float)
    if min_segment < 2:
        raise ValueError("min_segment must be >= 2 (a line needs two points)")
    if n_breaks < 0:
        raise ValueError("n_breaks must be >= 0")
    if len(y) < (n_breaks + 1) * min_segment:
        raise ValueError(
            f"series of length {len(y)} cannot hold {n_breaks + 1} segments of >= {min_segment}"
        )
    opt, argt = _dp_tables(y - y[0], min_segment, n_breaks)
    if not np.isfinite(opt[n_breaks, len(y)]):
        raise ValueError(f"no admissible placement of {n_breaks} breaks")
    return _build_segmentation(y, _backtrack(argt, n_breaks, len(y)))


def detect_breakpoints(values, min_segment: int = 12, max_breaks: int | None = None) -> Segmentation:
    """Optimal piecewise-linear segmentation with the break count chosen by BIC.

    For each candidate count k up to ``max_breaks`` (default: as many as the
    minimum segment length allows) the dynamic program finds the global
    least-squares placement; BIC(k) = n*ln(sse/n) + (3k+2)*ln(n) picks k, with
    ties going to fewer breaks.  The reported SSE per candidate comes from an
    exact per-segment refit, and an effectively-zero SSE is floored so that
    noiseless data selects the minimal break count.
    """
    y = np.asarray(values, dtype=float)
    if min_segment < 2:
        raise ValueError("min_segment must be >= 2 (a line needs two points)")
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

    # Everything that chooses the breaks sees the series shifted to start at
    # zero, so adding a constant that keeps the values exact cannot move them.
    z = y - y[0]
    opt, argt = _dp_tables(z, min_segment, max_breaks)
    n = len(y)
    scale = math.sqrt(float(np.mean(z * z)))
    floor = n * (1e-13 * max(1.0, scale)) ** 2
    best_k, best_bic, best_breaks = None, math.inf, []
    for k in range(max_breaks + 1):
        if not np.isfinite(opt[k, n]):
            continue
        breaks = _backtrack(argt, k, n)
        refit_sse = _build_segmentation(z, breaks).rss
        bic = n * math.log(max(refit_sse, floor) / n) + (3 * k + 2) * math.log(n)
        if bic < best_bic:
            best_k, best_bic, best_breaks = k, bic, breaks
    if best_k is None:
        raise ValueError("no admissible segmentation found")
    return _build_segmentation(y, best_breaks)


def filter_regimes(seg: Segmentation, min_weeks: int = 70) -> Segmentation:
    """Drop segments shorter than ``min_weeks`` samples; survivors keep their spans.

    Removed segments are not merged into neighbours, so the result may no
    longer tile the series.  Idempotent.  ``breakpoints`` keeps the original
    detection output for provenance.
    """
    if min_weeks < 1:
        raise ValueError("min_weeks must be >= 1")
    kept = tuple(s for s in seg.segments if len(s) >= min_weeks)
    return Segmentation(breakpoints=seg.breakpoints, segments=kept, n=seg.n)


@dataclass(frozen=True)
class AcfPoint:
    lag: int
    value: float
    se95: float


def acf(values, max_lag: int) -> list[AcfPoint]:
    """Sample autocorrelation at lags 1..max_lag with se95 = 1.96/sqrt(n).

    The lag-k covariance averages the n-k overlapping products of deviations
    from the full-sample mean (so a perfectly alternating series scores
    exactly -1 at lag 1) and is divided by the full-sample mean square
    deviation.
    """
    x = np.asarray(values, dtype=float)
    n = len(x)
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    if n <= max_lag + 1:
        raise ValueError(f"series of length {n} too short for max_lag {max_lag}")
    d = x - x.mean()
    denom = float(np.mean(d * d))
    if denom == 0.0:
        raise ValueError("autocorrelation of a zero-variance series is undefined")
    se = Z95 / math.sqrt(n)
    points = []
    for lag in range(1, max_lag + 1):
        cov = float(np.dot(d[lag:], d[:-lag])) / (n - lag)
        points.append(AcfPoint(lag=lag, value=cov / denom, se95=se))
    return points


class RegimeCase(str, enum.Enum):
    """Drift-driven (best IR at long lookback) vs autocorrelation-driven regimes."""

    CASE_I = "CaseI"
    CASE_II = "CaseII"


@dataclass(frozen=True)
class RegimeStats:
    """Per-regime diagnostics: lag-1 autocorrelation and the best IR lookback."""

    start: dt.date | None
    end: dt.date | None
    weeks: int
    acf1: float
    acf_se: float
    max_ir_annualized: float
    max_ir_lookback: int
    ir_se: float
    classification: RegimeCase
    curve: IrCurve


def regime_stats(
    x,
    n_range: tuple[int, int],
    threshold_n: int = 20,
    periods_per_year: float = 52.0,
) -> RegimeStats:
    """IR curve, lag-1 autocorrelation, and case classification for one regime.

    The regime is drift-driven (case I) exactly when the lookback with the
    highest annualized IR exceeds ``threshold_n``.  The IR standard error uses
    the regime's week count.
    """
    if isinstance(x, NormalizedReturnSeries):
        values = x.values
        span = (x.dates[0], x.dates[-1])
    else:
        values = np.asarray(x, dtype=float)
        span = (None, None)
    weeks = len(values)
    if weeks <= max(n_range):
        raise ValueError(
            f"regime of {weeks} samples too short for lookbacks up to {max(n_range)}"
        )
    curve = ir_curve(values, n_range, periods_per_year)
    ann = curve.ir_annualized
    if not np.any(np.isfinite(ann)):
        raise ValueError("IR undefined at every lookback in this regime")
    best = int(np.nanargmax(ann))
    acf1 = acf(values, 1)[0]
    # Clip the tail-weighted covariance estimator at the boundary so the
    # |acf1| <= 1 contract survives pathological tiny samples.
    acf1_value = min(1.0, max(-1.0, acf1.value))
    return RegimeStats(
        start=span[0],
        end=span[1],
        weeks=weeks,
        acf1=acf1_value,
        acf_se=acf1.se95,
        max_ir_annualized=float(ann[best]),
        max_ir_lookback=int(curve.n[best]),
        ir_se=ir_standard_error(weeks, periods_per_year),
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
        if c.periods_per_year != base.periods_per_year:
            raise ValueError("IR curves use different annualization factors")
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
    return IrCurve(
        n=base.n,
        mean=avg_mean,
        sd=avg_sd,
        ir=avg_ir,
        stderr=sem,
        samples=count,
        periods_per_year=base.periods_per_year,
    )


# ---------------------------------------------------------------------------
# Weekly pipeline: sample the cumulative log series monthly, segment there,
# then map the breaks back to weekly indices by date.
# ---------------------------------------------------------------------------


def monthly_last_indices(dates: Sequence[dt.date]) -> np.ndarray:
    """Index of the last observation inside each calendar month."""
    idx = []
    prev_key = None
    for i, d in enumerate(dates):
        key = (d.year, d.month)
        if key == prev_key:
            idx[-1] = i
        else:
            idx.append(i)
            prev_key = key
    return np.asarray(idx, dtype=int)


def weekly_segmentation(
    returns: ReturnSeries,
    min_segment_months: int = 12,
    max_breaks: int | None = None,
) -> Segmentation:
    """Detect drift regimes on the monthly-sampled cumulative log series and
    express them as weekly index spans with refitted weekly linear trends."""
    cumlog = np.cumsum(returns.returns)
    month_idx = monthly_last_indices(returns.dates)
    if len(month_idx) < 2 * min_segment_months:
        raise ValueError(
            f"{len(month_idx)} monthly samples are too few for segmentation "
            f"(need {2 * min_segment_months})"
        )
    seg = detect_breakpoints(cumlog[month_idx], min_segment_months, max_breaks)
    weekly_breaks = [int(month_idx[b - 1]) + 1 for b in seg.breakpoints]
    bounds = [0, *weekly_breaks, len(cumlog)]
    segments = tuple(
        _fit_segment(cumlog, bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)
    )
    return Segmentation(breakpoints=tuple(weekly_breaks), segments=segments, n=len(cumlog))


REGIME_REPORT_HEADER = [
    "start", "end", "weeks", "acf1", "acf_se", "max_ir", "ir_se", "max_ir_n", "classification",
]


def write_regime_report_csv(path: str, stats: Sequence[RegimeStats]) -> None:
    rows = (
        (
            s.start.isoformat() if s.start else "", s.end.isoformat() if s.end else "", s.weeks,
            s.acf1, s.acf_se, s.max_ir_annualized, s.ir_se, s.max_ir_lookback,
            s.classification.value,
        )
        for s in stats
    )
    write_csv(path, REGIME_REPORT_HEADER, rows)
