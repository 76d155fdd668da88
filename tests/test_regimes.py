import datetime as dt
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momir.regimes import (
    RegimeCase,
    Segment,
    Segmentation,
    acf1,
    average_ir_curve,
    best_segmentation,
    detect_breakpoints,
    filter_regimes,
    regime_stats,
    weekly_segmentation,
    write_regime_report_csv,
)
from momir.strategy import Z95, IrCurve, ir_curve
from momir.timeseries import NormalizedReturnSeries, ReturnSeries, last_per_key

from oracles import brute_force_breaks, full_row_dp_tables, sample_acf, segment_sse, spans_sse


def dated(values):
    """A weekly dated regime from 2001-01-05 holding ``values``."""
    start = dt.date(2001, 1, 5)
    dates = tuple(start + dt.timedelta(days=7 * i) for i in range(len(values)))
    return NormalizedReturnSeries(dates, np.asarray(values, dtype=float))


def two_piece(n_left=30, n_right=30, slope=1.0):
    up = slope * np.arange(n_left, dtype=float)
    down = up[-1] - slope * np.arange(1, n_right + 1)
    return np.concatenate([up, down])


class TestDetectBreakpoints:
    def test_noiseless_two_piece_recovers_kink(self):
        y = two_piece()
        seg = detect_breakpoints(y, min_segment=5, max_breaks=4)
        assert len(seg.breakpoints) == 1
        # the apex sample fits either adjoining line exactly
        assert seg.breakpoints[0] in (29, 30)
        assert spans_sse(y, seg.segments) < 1e-18
        # residual variance sse / max(length - 2, 1) of each span's line
        resid_var = [segment_sse(y, s.start, s.end) / max(len(s) - 2, 1) for s in seg.segments]
        assert all(v < 1e-18 for v in resid_var)

    def test_pure_linear_selects_no_breaks(self):
        y = 0.37 * np.arange(90.0) - 4.0
        seg = detect_breakpoints(y, min_segment=6, max_breaks=5)
        assert seg.breakpoints == ()
        assert len(seg.segments) == 1

    def test_noisy_linear_selects_no_breaks(self):
        rng = np.random.default_rng(2)
        y = 0.2 * np.arange(200.0) + rng.standard_normal(200)
        seg = detect_breakpoints(y, min_segment=12, max_breaks=5)
        assert seg.breakpoints == ()

    def test_segments_tile_series(self):
        rng = np.random.default_rng(3)
        y = np.cumsum(rng.standard_normal(150))
        seg = detect_breakpoints(y, min_segment=12, max_breaks=4)
        bounds = [0, *seg.breakpoints, len(y)]
        for s, (a, b) in zip(seg.segments, zip(bounds, bounds[1:])):
            assert (s.start, s.end) == (a, b)
            assert len(s) >= 12

    def test_rejects_short_series(self):
        with pytest.raises(ValueError, match="shorter than 2"):
            detect_breakpoints(np.arange(20.0), min_segment=12, max_breaks=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("segment", [
        lambda y: detect_breakpoints(y, min_segment=12),
        lambda y: best_segmentation(y, 2, 12),
    ], ids=["detect_breakpoints", "best_segmentation"])
    def test_non_finite_value_fails_naming_its_index(self, bad, segment):
        y = np.cumsum(np.random.default_rng(50).standard_normal(100))
        y[50] = bad
        with pytest.raises(ValueError, match=f"index 50 is {bad}; segmentation needs finite"):
            segment(y)

    def test_more_breaks_never_increase_rss(self):
        rng = np.random.default_rng(4)
        y = np.cumsum(rng.standard_normal(120))
        rss = [spans_sse(y, best_segmentation(y, k, 10).segments) for k in range(0, 5)]
        for a, b in zip(rss, rss[1:]):
            assert b <= a + 1e-9


def noiseless_piecewise_linear(rng):
    """Exact lines with alternating slopes and non-integer levels, breaks on a 40-sample grid."""
    n = int(rng.integers(200, 401))
    k = int(rng.integers(0, 4))
    breaks = np.sort(rng.choice(np.arange(40, n - 39, 40), size=k, replace=False))
    scale = 10.0 ** rng.uniform(-4, 5)
    bounds = [0, *breaks.tolist(), n]
    y = np.empty(n)
    for s in range(k + 1):
        slope = (-1) ** s * rng.uniform(0.2, 2.0)
        level = rng.uniform(-50.0, 50.0)
        y[bounds[s] : bounds[s + 1]] = scale * (level + slope * np.arange(bounds[s + 1] - bounds[s]))
    return y, k


def test_noiseless_data_selects_its_break_count_at_any_scale():
    # the DP's costs carry round-off that grows with the series' size, so the
    # SSE floor must scale with it for exact lines to keep the minimal count
    wrong = []
    for case in range(40):
        y, k = noiseless_piecewise_linear(np.random.default_rng(5100 + case))
        got = len(detect_breakpoints(y, min_segment=12, max_breaks=6).breakpoints)
        if got != k:
            wrong.append((case, k, got))
    assert not wrong


class TestShiftInvariance:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(24, 60),
        st.integers(-2**40, 2**40),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_level_shift_keeps_breaks(self, seed, n, shift):
        # a drifting walk and a shift, both on a 2^-10 grid: y + c is exact,
        # so it must segment exactly like y
        walk = np.cumsum(np.random.default_rng(seed).normal(0.5, 2.0, n))
        y = np.round(walk * 2.0**10) * 2.0**-10
        c = shift * 2.0**-10
        a = detect_breakpoints(y, min_segment=4)
        b = detect_breakpoints(y + c, min_segment=4)
        assert a.breakpoints == b.breakpoints

    @pytest.mark.parametrize("seed", [3, 4])
    def test_large_level_keeps_breaks(self, seed):
        y = np.cumsum(np.random.default_rng(seed).normal(0.01, 1, 300))
        assert detect_breakpoints(y + 1e7).breakpoints == detect_breakpoints(y).breakpoints


def test_segmentation_memory_is_not_quadratic():
    # The (n+1)^2 float64 cost matrix alone is 68.7 MiB at n = 3000.  The
    # break cap keeps the run short; the cost matrix does not depend on it.
    y = np.cumsum(np.random.default_rng(8).normal(0.01, 1, 3000))
    tracemalloc.start()
    try:
        detect_breakpoints(y, min_segment=12, max_breaks=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3001**2 * 8


class TestDpOptimality:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_exhaustive_search(self, seed, k):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(36, 55))
        y = np.cumsum(rng.standard_normal(n)) + 0.5 * np.arange(n)
        seg = best_segmentation(y, k, min_segment=8)
        breaks, sse = brute_force_breaks(y, k, min_segment=8)
        assert seg.breakpoints == breaks
        assert spans_sse(y, seg.segments) == pytest.approx(sse, rel=1e-9, abs=1e-9)

    def test_tables_match_the_full_row_recurrence(self, monkeypatch):
        # Levels skip the starts that cannot hold a split and the cost matrix
        # comes one block of end points at a time; the tables must not move,
        # whatever the block height.  Heights: 1, 7 and the default (109) do
        # not divide n + 1 = 601 (prime), 601 is one block.
        from momir import regimes, strategy

        rng = np.random.default_rng(61)
        walk = np.cumsum(rng.standard_normal(600))
        # integer steps with long flat runs: many splits cost the same, and on
        # the flat start every admissible split costs exactly 0
        steps = np.concatenate([np.zeros(120), np.repeat(rng.integers(-3, 4, 24), 20)])
        default = strategy.IR_BLOCK_ELEMENTS
        for y in (walk, steps):
            z = y - y[0]
            ref_opt, ref_argt = full_row_dp_tables(z, 12, 600 // 12 - 1)
            finite = np.isfinite(ref_opt)
            assert finite.sum() > 10000
            for elements in (601, 7 * 601, default, 601 * 601):
                monkeypatch.setattr(strategy, "IR_BLOCK_ELEMENTS", elements)
                opt, argt = regimes._dp_tables(z, 12, 600 // 12 - 1)
                assert np.array_equal(opt, ref_opt), elements
                assert np.array_equal(argt[finite], ref_argt[finite]), elements
        # first-index tie-breaking: on the flat start the last segment of a
        # zero-cost split starts at the first admissible point
        for k in range(1, 9):
            assert np.all(argt[k, (k + 1) * 12 : 121] == k * 12)

    @pytest.mark.parametrize("n, min_segment, max_breaks", [(600, 12, 49), (600, 12, 3),
                                                            (97, 2, 47), (1380, 12, 114)])
    @pytest.mark.parametrize("elements", [1, 7 * 601, None])
    def test_cell_count_is_what_the_tables_scan(self, monkeypatch, n, min_segment, max_breaks,
                                                elements):
        # every scanned cell passes through one np.where (the segment costs)
        # or one np.argmin (a level's candidates)
        from momir import regimes, strategy

        if elements is not None:
            monkeypatch.setattr(strategy, "IR_BLOCK_ELEMENTS", elements)
        scanned = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def where(self, condition, *args):
                scanned.append(np.size(condition))
                return np.where(condition, *args)

            def argmin(self, a, axis):
                scanned.append(a.size)
                return np.argmin(a, axis=axis)

        monkeypatch.setattr(regimes, "np", CountingNumpy())
        y = np.cumsum(np.random.default_rng(n).standard_normal(n))
        regimes._dp_tables(y - y[0], min_segment, max_breaks)
        assert sum(scanned) == regimes._dp_cells(n, min_segment, max_breaks)


class TestDpBudget:
    def test_history_scale_is_within_budget(self):
        # ~115 years of months at the CLI defaults: 1380 samples, K = 114
        from momir.regimes import MAX_DP_CELLS, _dp_cells

        assert _dp_cells(1380, 12, 114) < MAX_DP_CELLS // 16

    def test_oversized_segmentation_fails_before_it_allocates(self):
        # 20000 months at the defaults would scan ~1.1e11 cells and hold
        # (K+1)(n+1) = 1667 x 20001 tables, 533 MB
        y = np.cumsum(np.random.default_rng(9).normal(0.01, 1, 20000))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="--max-breaks or raise --min-segment-months"):
                detect_breakpoints(y, min_segment=12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the shifted copy of the series, 160 kB, is all it holds
        assert peak < 2**20


class TestFilterRegimes:
    def make_seg(self, lengths):
        bounds = np.concatenate([[0], np.cumsum(lengths)])
        segs = tuple(Segment(int(a), int(b)) for a, b in zip(bounds, bounds[1:]))
        return Segmentation(tuple(int(b) for b in bounds[1:-1]), segs)

    def test_keeps_long_segments(self):
        seg = self.make_seg([100, 90, 80])
        assert filter_regimes(seg, 70) == seg

    def test_drops_short_segment_without_merging(self):
        seg = self.make_seg([100, 50, 100])
        kept = filter_regimes(seg, 70)
        assert [(s.start, s.end) for s in kept.segments] == [(0, 100), (150, 250)]

    def test_idempotent(self):
        seg = self.make_seg([100, 50, 100, 69])
        once = filter_regimes(seg, 70)
        assert filter_regimes(once, 70) == once


class TestAcf:
    def test_iid_standard_error(self):
        values = np.random.default_rng(5).standard_normal(117)
        assert regime_stats(dated(values), (1, 20)).acf_se == pytest.approx(0.18, abs=0.005)

    def test_alternating_series_is_minus_one(self):
        values = np.tile([1.0, -1.0], 60)
        assert acf1(values) == pytest.approx(-1.0, abs=1e-12)

    def test_ar1_recovery(self):
        rng = np.random.default_rng(6)
        phi, n = 0.3, 4000
        x = np.empty(n)
        x[0] = rng.standard_normal()
        for t in range(1, n):
            x[t] = phi * x[t - 1] + rng.standard_normal()
        assert abs(acf1(x) - phi) < 3 * Z95 / math.sqrt(n)

    def test_matches_independent_estimator(self):
        values = np.random.default_rng(7).standard_normal(300)
        assert acf1(values) == pytest.approx(sample_acf(values, 1), rel=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="zero-variance"):
            acf1(np.ones(50))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_fails_naming_its_index(self, bad):
        values = np.random.default_rng(50).standard_normal(100)
        values[50] = bad
        with pytest.raises(ValueError,
                           match=f"index 50 is {bad}; a lag-1 autocorrelation needs finite"):
            acf1(values)


class TestRegimeStats:
    def test_strong_drift_classifies_drift_driven(self):
        rng = np.random.default_rng(8)
        x = 0.8 + rng.standard_normal(400)
        stats = regime_stats(dated(x), (1, 43), threshold_n=20)
        assert stats.classification is RegimeCase.CASE_I
        assert stats.max_ir_lookback > 20
        assert stats.weeks == 400

    def test_zero_drift_ma_classifies_autocorrelation_driven(self):
        rng = np.random.default_rng(9)
        coeffs = np.array([1.0, 0.7, 0.5, 0.3])
        eta = rng.standard_normal(5000 + 3)
        x = np.convolve(eta, coeffs, mode="valid")
        stats = regime_stats(dated(x), (1, 43), threshold_n=20)
        assert stats.classification is RegimeCase.CASE_II
        assert stats.max_ir_lookback <= 10

    def test_series_object_provides_span(self):
        start = dt.date(2001, 1, 5)
        dates = tuple(start + dt.timedelta(days=7 * i) for i in range(120))
        series = NormalizedReturnSeries(dates, np.random.default_rng(10).standard_normal(120) + 0.5)
        stats = regime_stats(series, (1, 20))
        assert stats.start == dates[0]
        assert stats.end == dates[-1]
        assert stats.ir_se == pytest.approx(1.96 * math.sqrt(52) / math.sqrt(120), rel=1e-12)
        # the classification is a pure function of the best lookback
        want = RegimeCase.CASE_I if stats.max_ir_lookback > 20 else RegimeCase.CASE_II
        assert stats.classification is want

    def test_classification_ignores_monotone_rescaling(self):
        rng = np.random.default_rng(11)
        x = 0.3 + rng.standard_normal(300)
        a = regime_stats(dated(x), (1, 30))
        b = regime_stats(dated(2.5 * x), (1, 30))  # scaling leaves every IR unchanged
        assert a.classification == b.classification
        assert a.max_ir_lookback == b.max_ir_lookback

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            regime_stats(dated(np.ones(30) + np.random.default_rng(0).standard_normal(30)), (1, 30))


class TestAverageIrCurve:
    def test_identical_curves_average_to_themselves(self):
        x = np.random.default_rng(12).standard_normal(200)
        curve = ir_curve(x, (1, 10))
        avg = average_ir_curve([curve, curve, curve])
        assert np.allclose(avg.ir, curve.ir, rtol=0, atol=1e-15)
        assert np.allclose(avg.stderr, 0.0, atol=1e-12)
        assert np.all(avg.samples == 3)

    def test_opposite_curves_cancel(self):
        x = np.random.default_rng(13).standard_normal(200)
        curve = ir_curve(x, (1, 10))
        mirrored = IrCurve(
            n=curve.n, mean=-curve.mean, sd=curve.sd, ir=-curve.ir,
            stderr=curve.stderr, samples=curve.samples,
        )
        avg = average_ir_curve([curve, mirrored])
        assert np.allclose(avg.ir, 0.0, atol=1e-15)

    def test_mixed_battery_shows_hump_then_rising_tail(self):
        # half drift-driven regimes, half autocorrelation-driven ones; the
        # ensemble mean humps at short lookbacks, dips, then rises again as
        # the drift component takes over
        rng = np.random.default_rng(14)
        curves = []
        coeffs = np.array([1.0, 1.0 / 3.0])  # lag-1 autocorrelation 0.3
        for i in range(48):
            if i % 2 == 0:
                x = 0.4 + 1.5 * rng.standard_normal(6000)
            else:
                eta = rng.standard_normal(6000 + 1)
                x = np.convolve(eta, coeffs, mode="valid")
            curves.append(ir_curve(x, (1, 43)))
        avg = average_ir_curve(curves)
        early_peak = int(avg.n[np.nanargmax(avg.ir[:6])])
        dip = 5 + int(np.nanargmin(avg.ir[5:30]))
        assert early_peak <= 3
        assert avg.ir[early_peak - 1] > avg.ir[dip] + 0.02
        assert avg.ir[-1] > avg.ir[dip] + 0.005

    def test_mismatched_ranges_rejected(self):
        x = np.random.default_rng(15).standard_normal(100)
        with pytest.raises(ValueError, match="different lookback"):
            average_ir_curve([ir_curve(x, (1, 5)), ir_curve(x, (1, 6))])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            average_ir_curve([])


class TestWeeklyPipeline:
    def test_monthly_last_indices(self):
        dates = [dt.date(2000, 1, 7), dt.date(2000, 1, 14), dt.date(2000, 1, 28),
                 dt.date(2000, 2, 4), dt.date(2000, 3, 3), dt.date(2000, 3, 31)]
        assert last_per_key(dates, lambda d: (d.year, d.month)).tolist() == [2, 3, 5]

    @staticmethod
    def make_returns(noise_sd, seed=16, n=60 * 26):
        rng = np.random.default_rng(seed)
        drift = np.where(np.arange(n) < n // 2, 0.004, -0.004)
        values = drift + noise_sd * rng.standard_normal(n)
        start = dt.date(1990, 1, 5)
        dates = tuple(start + dt.timedelta(days=7 * i) for i in range(n))
        return ReturnSeries(dates, values)

    def test_weekly_segmentation_maps_monthly_break_to_week(self):
        returns = self.make_returns(noise_sd=0.0)
        n = len(returns)
        seg = weekly_segmentation(returns, min_segment_months=12)
        assert len(seg.breakpoints) == 1
        # monthly sampling places the break within a few weeks of the flip
        assert abs(seg.breakpoints[0] - n // 2) <= 5
        # each weekly span's least-squares drift of the cumulative log series
        cumlog = np.cumsum(returns.returns)
        slopes = [np.polyfit(np.arange(len(s)), cumlog[s.start:s.end], 1)[0] for s in seg.segments]
        assert slopes[0] == pytest.approx(0.004, abs=1e-4)
        assert slopes[1] == pytest.approx(-0.004, abs=1e-4)

    def test_weekly_segmentation_finds_flip_under_noise(self):
        # integrated noise makes BIC report extra swings, but the drift flip
        # itself must still be located
        returns = self.make_returns(noise_sd=0.01)
        n = len(returns)
        seg = weekly_segmentation(returns, min_segment_months=12)
        assert min(abs(b - n // 2) for b in seg.breakpoints) <= 10


def test_regime_report_format(tmp_path):
    rng = np.random.default_rng(17)
    start = dt.date(2001, 1, 5)
    dates = tuple(start + dt.timedelta(days=7 * i) for i in range(120))
    series = NormalizedReturnSeries(dates, rng.standard_normal(120) + 0.4)
    stats = regime_stats(series, (1, 20))
    write_regime_report_csv(str(tmp_path / "regimes.csv"), [stats])
    lines = (tmp_path / "regimes.csv").read_text().strip().splitlines()
    assert lines[0] == "start,end,weeks,acf1,acf_se,max_ir,ir_se,max_ir_n,classification"
    fields = lines[1].split(",")
    assert fields[0] == "2001-01-05"
    assert fields[2] == "120"
    assert fields[8] in ("CaseI", "CaseII")
