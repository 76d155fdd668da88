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

from .strategy import IrCurve, Z95, _finite, block_rows, ir_curve, ir_standard_error
from .timeseries import NormalizedReturnSeries, ReturnSeries, last_per_key, write_csv

__all__ = [
    "Segment",
    "Segmentation",
    "RegimeCase",
    "RegimeStats",
    "detect_breakpoints",
    "best_segmentation",
    "filter_regimes",
    "acf1",
    "regime_stats",
    "average_ir_curve",
    "weekly_segmentation",
    "write_regime_report_csv",
]


@dataclass(frozen=True)
class Segment:
    """Half-open index span [start, end) of one regime.

    The span is all a regime keeps: the lines the segmentation fits exist
    only as the dynamic program's costs.
    """

    start: int
    end: int

    def __len__(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class Segmentation:
    """Breakpoints plus the segments between them."""

    breakpoints: tuple[int, ...]
    segments: tuple[Segment, ...]


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
    pass the series shifted to start at zero, which keeps the prefix sums
    small and makes the costs independent of the level.  A series whose scan
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


def _backtrack(argt: np.ndarray, k: int, n: int) -> list[int]:
    breaks: list[int] = []
    j = n
    for level in range(k, 0, -1):
        j = int(argt[level, j])
        breaks.append(j)
    breaks.reverse()
    return breaks


def _build_segmentation(n: int, breaks: Sequence[int]) -> Segmentation:
    bounds = [0, *breaks, n]
    segments = tuple(Segment(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1))
    return Segmentation(breakpoints=tuple(int(b) for b in breaks), segments=segments)


def _segmentable(values, min_segment: int) -> np.ndarray:
    """``values`` as floats, failing on a minimum segment below 2 or a non-finite value."""
    if min_segment < 2:
        raise ValueError("min_segment must be >= 2 (a line needs two points)")
    return _finite(values, "segmentation")


def best_segmentation(values, n_breaks: int, min_segment: int) -> Segmentation:
    """Globally optimal segmentation with exactly ``n_breaks`` breaks."""
    y = _segmentable(values, min_segment)
    if n_breaks < 0:
        raise ValueError("n_breaks must be >= 0")
    if len(y) < (n_breaks + 1) * min_segment:
        raise ValueError(
            f"series of length {len(y)} cannot hold {n_breaks + 1} segments of >= {min_segment}"
        )
    opt, argt = _dp_tables(y - y[0], min_segment, n_breaks)
    if not np.isfinite(opt[n_breaks, len(y)]):
        raise ValueError(f"no admissible placement of {n_breaks} breaks")
    return _build_segmentation(len(y), _backtrack(argt, n_breaks, len(y)))


def detect_breakpoints(values, min_segment: int = 12, max_breaks: int | None = None) -> Segmentation:
    """Optimal piecewise-linear segmentation with the break count chosen by BIC.

    For each candidate count k up to ``max_breaks`` (default: as many as the
    minimum segment length allows) the dynamic program finds the global
    least-squares placement; BIC(k) = n*ln(sse/n) + (3k+2)*ln(n) picks k, with
    ties going to fewer breaks.  Each candidate's SSE is the dynamic program's
    own optimal cost, floored at 1e-12 * sum(z^2) with z = y - y[0], so that
    noiseless data selects the minimal break count at any scale.  A series
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

    # Everything that chooses the breaks sees the series shifted to start at
    # zero, so adding a constant that keeps the values exact cannot move them.
    z = y - y[0]
    opt, argt = _dp_tables(z, min_segment, max_breaks)
    n = len(y)
    ks = np.flatnonzero(np.isfinite(opt[:, n]))
    if not ks.size:
        raise ValueError("no admissible segmentation found")
    # The prefix-sum costs carry round-off relative to the series' own size;
    # an SSE below this floor is noise, so noiseless data keeps the fewest breaks.
    floor = max(1e-12 * float(z @ z), np.finfo(float).tiny)
    bic = n * np.log(np.maximum(opt[ks, n], floor) / n) + (3 * ks + 2) * math.log(n)
    best_k = int(ks[np.argmin(bic)])
    return _build_segmentation(n, _backtrack(argt, best_k, n))


def filter_regimes(seg: Segmentation, min_weeks: int = 70) -> Segmentation:
    """Drop segments shorter than ``min_weeks`` samples; survivors keep their spans.

    Removed segments are not merged into neighbours, so the result may no
    longer tile the series.  Idempotent.  ``breakpoints`` keeps the original
    detection output for provenance.
    """
    if min_weeks < 1:
        raise ValueError("min_weeks must be >= 1")
    kept = tuple(s for s in seg.segments if len(s) >= min_weeks)
    return Segmentation(breakpoints=seg.breakpoints, segments=kept)


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
    x: NormalizedReturnSeries, n_range: tuple[int, int], threshold_n: int = 20
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
    returns: ReturnSeries,
    min_segment_months: int = 12,
    max_breaks: int | None = None,
) -> Segmentation:
    """Detect drift regimes on the monthly-sampled cumulative log series and
    express them as weekly index spans: a monthly break at b becomes the week
    after the last week of month b - 1."""
    cumlog = np.cumsum(returns.returns)
    month_idx = last_per_key(returns.dates, lambda d: (d.year, d.month))
    if len(month_idx) < 2 * min_segment_months:
        raise ValueError(
            f"{len(month_idx)} monthly samples are too few for segmentation "
            f"(need {2 * min_segment_months})"
        )
    seg = detect_breakpoints(cumlog[month_idx], min_segment_months, max_breaks)
    return _build_segmentation(len(cumlog), [int(month_idx[b - 1]) + 1 for b in seg.breakpoints])


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
