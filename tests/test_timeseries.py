import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momir.timeseries import (
    Period,
    PriceSeries,
    ReturnSeries,
    log_returns,
    mean_abs_level,
    normalize,
    read_price_csv,
    read_value_csv,
    resample_to_weekly,
    write_csv,
    write_series_csv,
)


def dates_from(start: dt.date, count: int, step_days: int = 7) -> tuple[dt.date, ...]:
    return tuple(start + dt.timedelta(days=step_days * i) for i in range(count))


def price_series(values, start=dt.date(2000, 1, 3), period=Period.DAILY, step_days=1):
    return PriceSeries(dates_from(start, len(values), step_days), np.asarray(values, float), period)


def weekly_returns(values, start=dt.date(2000, 1, 7)):
    return ReturnSeries(dates_from(start, len(values)), np.asarray(values, float), Period.WEEKLY)


class TestPriceSeries:
    def test_rejects_non_positive_price_naming_index_and_date(self):
        with pytest.raises(ValueError, match=r"index 2.*2000-01-05"):
            price_series([100.0, 101.0, -5.0, 102.0])

    def test_rejects_unordered_dates(self):
        dates = (dt.date(2000, 1, 3), dt.date(2000, 1, 3))
        with pytest.raises(ValueError, match="strictly increasing"):
            PriceSeries(dates, np.array([1.0, 2.0]))

    def test_rejects_single_observation(self):
        with pytest.raises(ValueError, match="at least 2"):
            PriceSeries((dt.date(2000, 1, 3),), np.array([1.0]))


class TestLogReturns:
    def test_constant_prices_give_zero_returns(self):
        r = log_returns(price_series([100.0, 100.0, 100.0]))
        assert np.array_equal(r.returns, [0.0, 0.0])
        assert r.period is Period.DAILY

    def test_single_step_e(self):
        r = log_returns(price_series([1.0, math.e]))
        assert r.returns[0] == pytest.approx(1.0, abs=1e-15)

    def test_direct_evaluation(self):
        r = log_returns(price_series([100.0, 110.0, 99.0]))
        assert r.returns == pytest.approx([math.log(1.1), math.log(0.9)], abs=1e-15)

    def test_dates_drop_first(self):
        p = price_series([1.0, 2.0, 3.0])
        assert log_returns(p).dates == p.dates[1:]

    @given(
        st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=2, max_size=40),
        st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_recovers_prices(self, factors, p0):
        prices = p0 * np.cumprod(factors)
        series = price_series(prices)
        r = log_returns(series)
        rebuilt = prices[0] * np.exp(np.cumsum(r.returns))
        assert np.allclose(rebuilt, prices[1:], rtol=1e-12, atol=0.0)


class TestResampleToWeekly:
    def test_two_full_weeks_keep_fridays(self):
        # Mon 2000-01-03 .. Fri 2000-01-14, business days only
        days = [dt.date(2000, 1, d) for d in (3, 4, 5, 6, 7, 10, 11, 12, 13, 14)]
        series = PriceSeries(tuple(days), np.arange(1.0, 11.0))
        weekly = resample_to_weekly(series)
        assert weekly.dates == (dt.date(2000, 1, 7), dt.date(2000, 1, 14))
        assert np.array_equal(weekly.prices, [5.0, 10.0])
        assert weekly.period is Period.WEEKLY

    def test_friday_holiday_falls_back_to_thursday(self):
        days = [dt.date(2000, 1, d) for d in (3, 4, 5, 6, 10, 11, 12, 13, 14)]
        weekly = resample_to_weekly(PriceSeries(tuple(days), np.arange(1.0, 10.0)))
        assert weekly.dates[0] == dt.date(2000, 1, 6)

    def test_three_weeks_give_three_points(self):
        days = [dt.date(2000, 1, 3) + dt.timedelta(days=i) for i in range(21)]
        weekly = resample_to_weekly(PriceSeries(tuple(days), np.linspace(10, 12, 21)))
        assert len(weekly) == 3

    def test_requires_daily_input(self):
        with pytest.raises(ValueError, match="daily"):
            resample_to_weekly(price_series([1.0, 2.0], period=Period.WEEKLY, step_days=7))


class TestNormalize:
    def test_constant_returns_map_to_one(self):
        r = weekly_returns([0.02] * 12)
        x = normalize(r, 3)
        assert np.allclose(x.values, 1.0, atol=1e-14)
        assert len(x) == 9
        assert x.dates == r.dates[3:]

    def test_hand_computed_value(self):
        x = normalize(weekly_returns([1.0, -1.0, 2.0]), 2)
        assert x.values == pytest.approx([2.0])

    @given(
        st.lists(st.floats(min_value=-0.3, max_value=0.3), min_size=8, max_size=60),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, values, k):
        values = np.asarray(values)
        values[np.abs(values) < 0.01] = 0.01  # avoid degenerate flat windows
        r = weekly_returns(values)
        scaled = weekly_returns(k * values)
        x = normalize(r, 4)
        y = normalize(scaled, 4)
        assert np.allclose(x.values, y.values, rtol=1e-12, atol=1e-12)

    def test_no_look_ahead(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(50)
        full = normalize(weekly_returns(values), 10)
        truncated = normalize(weekly_returns(values[:30]), 10)
        assert np.array_equal(full.values[: len(truncated)], truncated.values)

    def test_zero_window_rejected_with_date(self):
        r = weekly_returns([0.0, 0.0, 0.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="2000-01-21"):
            normalize(r, 2)

    def test_needs_more_than_p_returns(self):
        with pytest.raises(ValueError, match="more than p"):
            normalize(weekly_returns([0.1, 0.2]), 2)

    def test_mean_abs_level_near_one_for_gaussian_input(self):
        rng = np.random.default_rng(11)
        r = weekly_returns(0.02 * rng.standard_normal(3000))
        x = normalize(r, 10)
        assert abs(mean_abs_level(x) - 1.0) < 0.2


class TestCsv:
    def test_price_round_trip_and_line_numbers(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("date,price\n2000-01-03,100\n2000-01-04,101.5\n")
        series = read_price_csv(str(path))
        assert series.dates[1] == dt.date(2000, 1, 4)
        assert np.array_equal(series.prices, [100.0, 101.5])

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("date,price\n2000-01-03,100\nnot-a-date,101\n")
        with pytest.raises(ValueError, match="line 3"):
            read_price_csv(str(path))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("day,px\n2000-01-03,100\n")
        with pytest.raises(ValueError, match="expected header"):
            read_price_csv(str(path))

    def test_value_csv_round_trip(self, tmp_path):
        path = tmp_path / "series.csv"
        dates = dates_from(dt.date(2001, 2, 2), 3)
        write_series_csv(str(path), dates, [0.1, -0.25, 1.0 / 3.0])
        series = read_value_csv(str(path))
        assert series.dates == dates
        assert series.returns == pytest.approx([0.1, -0.25, 1.0 / 3.0], abs=1e-15)
        assert path.read_text().splitlines()[0] == "date,value"

    def test_write_csv_cell_format(self, tmp_path):
        path = tmp_path / "table.csv"
        rows = [(1, float("nan"), -0.0, 1.0 / 3.0, "CaseI"), (2, 1e-20, 2.5, 1e21, "")]
        write_csv(str(path), ["n", "a", "b", "c", "d"], rows)
        assert path.read_text() == (
            "n,a,b,c,d\n1,,-0,0.333333333333333,CaseI\n2,1e-20,2.5,1e+21,\n"
        )
        write_csv(str(path), ["n"], [(1,)], comment="rng=Philox")
        assert path.read_text() == "# rng=Philox\nn\n1\n"
