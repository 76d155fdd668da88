import datetime as dt
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momir.regimes import (
    RegimeCase,
    Segmentation,
    acf,
    average_ir_curve,
    best_segmentation,
    detect_breakpoints,
    filter_regimes,
    monthly_last_indices,
    regime_stats,
    weekly_segmentation,
    write_regime_report_csv,
)
from momir.strategy import IrCurve, ir_curve
from momir.timeseries import NormalizedReturnSeries, Period, ReturnSeries

from oracles import brute_force_breaks, full_row_dp_tables, sample_acf


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
        assert seg.rss < 1e-18
        assert all(s.resid_var < 1e-18 for s in seg.segments)

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

    def test_more_breaks_never_increase_rss(self):
        rng = np.random.default_rng(4)
        y = np.cumsum(rng.standard_normal(120))
        rss = [best_segmentation(y, k, 10).rss for k in range(0, 5)]
        for a, b in zip(rss, rss[1:]):
            assert b <= a + 1e-9


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
        assert seg.rss == pytest.approx(sse, rel=1e-9, abs=1e-9)

    def test_tables_match_the_full_row_recurrence(self):
        # Levels skip the rows that cannot hold a split; the tables must not move.
        from momir.regimes import _dp_tables

        y = np.cumsum(np.random.default_rng(61).standard_normal(600))
        z = y - y[0]
        opt, argt = _dp_tables(z, 12, 600 // 12 - 1)
        ref_opt, ref_argt = full_row_dp_tables(z, 12, 600 // 12 - 1)
        assert np.array_equal(opt, ref_opt)
        finite = np.isfinite(ref_opt)
        assert finite.sum() > 10000
        assert np.array_equal(argt[finite], ref_argt[finite])


class TestFilterRegimes:
    def make_seg(self, lengths):
        bounds = np.concatenate([[0], np.cumsum(lengths)])
        from momir.regimes import Segment

        segs = tuple(
            Segment(int(a), int(b), 0.0, 0.0, 0.0, 0.0) for a, b in zip(bounds, bounds[1:])
        )
        return Segmentation(tuple(int(b) for b in bounds[1:-1]), segs, int(bounds[-1]))

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
        points = acf(values, 3)
        assert points[0].se95 == pytest.approx(0.18, abs=0.005)
        assert [p.lag for p in points] == [1, 2, 3]

    def test_alternating_series_is_minus_one(self):
        values = np.tile([1.0, -1.0], 60)
        assert acf(values, 1)[0].value == pytest.approx(-1.0, abs=1e-12)

    def test_ar1_recovery(self):
        rng = np.random.default_rng(6)
        phi, n = 0.3, 4000
        x = np.empty(n)
        x[0] = rng.standard_normal()
        for t in range(1, n):
            x[t] = phi * x[t - 1] + rng.standard_normal()
        point = acf(x, 1)[0]
        assert abs(point.value - phi) < 3 * point.se95

    def test_matches_independent_estimator(self):
        values = np.random.default_rng(7).standard_normal(300)
        points = acf(values, 5)
        for p in points:
            assert p.value == pytest.approx(sample_acf(values, p.lag), rel=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="zero-variance"):
            acf(np.ones(50), 1)


class TestRegimeStats:
    def test_strong_drift_classifies_drift_driven(self):
        rng = np.random.default_rng(8)
        x = 0.8 + rng.standard_normal(400)
        stats = regime_stats(x, (1, 43), threshold_n=20)
        assert stats.classification is RegimeCase.CASE_I
        assert stats.max_ir_lookback > 20
        assert stats.weeks == 400

    def test_zero_drift_ma_classifies_autocorrelation_driven(self):
        rng = np.random.default_rng(9)
        coeffs = np.array([1.0, 0.7, 0.5, 0.3])
        eta = rng.standard_normal(5000 + 3)
        x = np.convolve(eta, coeffs, mode="valid")
        stats = regime_stats(x, (1, 43), threshold_n=20)
        assert stats.classification is RegimeCase.CASE_II
        assert stats.max_ir_lookback <= 10

    def test_series_object_provides_span(self):
        start = dt.date(2001, 1, 5)
        dates = tuple(start + dt.timedelta(days=7 * i) for i in range(120))
        series = NormalizedReturnSeries(dates, np.random.default_rng(10).standard_normal(120) + 0.5, 10)
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
        a = regime_stats(x, (1, 30))
        b = regime_stats(2.5 * x, (1, 30))  # scaling leaves every IR unchanged
        assert a.classification == b.classification
        assert a.max_ir_lookback == b.max_ir_lookback

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            regime_stats(np.ones(30) + np.random.default_rng(0).standard_normal(30), (1, 30))


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
        assert monthly_last_indices(dates).tolist() == [2, 3, 5]

    @staticmethod
    def make_returns(noise_sd, seed=16, n=60 * 26):
        rng = np.random.default_rng(seed)
        drift = np.where(np.arange(n) < n // 2, 0.004, -0.004)
        values = drift + noise_sd * rng.standard_normal(n)
        start = dt.date(1990, 1, 5)
        dates = tuple(start + dt.timedelta(days=7 * i) for i in range(n))
        return ReturnSeries(dates, values, Period.WEEKLY)

    def test_weekly_segmentation_maps_monthly_break_to_week(self):
        returns = self.make_returns(noise_sd=0.0)
        n = len(returns)
        seg = weekly_segmentation(returns, min_segment_months=12)
        assert len(seg.breakpoints) == 1
        # monthly sampling places the break within a few weeks of the flip
        assert abs(seg.breakpoints[0] - n // 2) <= 5
        assert seg.segments[0].slope == pytest.approx(0.004, abs=1e-4)
        assert seg.segments[1].slope == pytest.approx(-0.004, abs=1e-4)

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
    series = NormalizedReturnSeries(dates, rng.standard_normal(120) + 0.4, 10)
    stats = regime_stats(series, (1, 20))
    write_regime_report_csv(str(tmp_path / "regimes.csv"), [stats])
    lines = (tmp_path / "regimes.csv").read_text().strip().splitlines()
    assert lines[0] == "start,end,weeks,acf1,acf_se,max_ir,ir_se,max_ir_n,classification"
    fields = lines[1].split(",")
    assert fields[0] == "2001-01-05"
    assert fields[2] == "120"
    assert fields[8] in ("CaseI", "CaseII")
