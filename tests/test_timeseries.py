import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momir.timeseries import (
    DatedSeries,
    log_returns,
    normalize,
    read_csv,
    read_price_csv,
    read_value_csv,
    resample_to_weekly,
    write_csv,
    write_series_csv,
)


def dates_from(start: dt.date, count: int, step_days: int = 7) -> tuple[dt.date, ...]:
    return tuple(start + dt.timedelta(days=step_days * i) for i in range(count))


def price_series(values, start=dt.date(2000, 1, 3), step_days=1):
    return DatedSeries(dates_from(start, len(values), step_days), np.asarray(values, float))


def weekly_returns(values, start=dt.date(2000, 1, 7)):
    return DatedSeries(dates_from(start, len(values)), np.asarray(values, float))


class TestDatedSeries:
    def test_rejects_length_mismatch_naming_index_and_date(self):
        with pytest.raises(ValueError, match=r"3 dates but 2 values; index 2 \(2000-01-05\)"):
            DatedSeries(dates_from(dt.date(2000, 1, 3), 3, 1), np.array([1.0, 2.0]))

    def test_rejects_unordered_dates_naming_index_and_date(self):
        dates = (dt.date(2000, 1, 3), dt.date(2000, 1, 5), dt.date(2000, 1, 4))
        with pytest.raises(ValueError, match=r"strictly increasing; entry 2 \(2000-01-04\)"):
            DatedSeries(dates, np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_value_naming_index_and_date(self, bad):
        with pytest.raises(ValueError, match=rf"non-finite value {bad} at index 1 \(2000-01-04\)"):
            DatedSeries(dates_from(dt.date(2000, 1, 3), 3, 1), np.array([1.0, bad, 3.0]))


class TestPriceSeries:
    # construction takes any finite values; the price rules hold where a log needs them
    def test_rejects_non_positive_price_naming_index_and_date(self):
        with pytest.raises(ValueError, match=r"index 2.*2000-01-05"):
            log_returns(price_series([100.0, 101.0, -5.0, 102.0]))

    def test_rejects_unordered_dates(self):
        dates = (dt.date(2000, 1, 3), dt.date(2000, 1, 3))
        with pytest.raises(ValueError, match="strictly increasing"):
            log_returns(DatedSeries(dates, np.array([1.0, 2.0])))

    def test_rejects_single_observation(self):
        with pytest.raises(ValueError, match="at least 2"):
            log_returns(DatedSeries((dt.date(2000, 1, 3),), np.array([1.0])))


class TestLogReturns:
    def test_constant_prices_give_zero_returns(self):
        r = log_returns(price_series([100.0, 100.0, 100.0]))
        assert np.array_equal(r.values, [0.0, 0.0])

    def test_single_step_e(self):
        r = log_returns(price_series([1.0, math.e]))
        assert r.values[0] == pytest.approx(1.0, abs=1e-15)

    def test_direct_evaluation(self):
        r = log_returns(price_series([100.0, 110.0, 99.0]))
        assert r.values == pytest.approx([math.log(1.1), math.log(0.9)], abs=1e-15)

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
        rebuilt = prices[0] * np.exp(np.cumsum(r.values))
        assert np.allclose(rebuilt, prices[1:], rtol=1e-12, atol=0.0)


class TestResampleToWeekly:
    def test_two_full_weeks_keep_fridays(self):
        # Mon 2000-01-03 .. Fri 2000-01-14, business days only
        days = [dt.date(2000, 1, d) for d in (3, 4, 5, 6, 7, 10, 11, 12, 13, 14)]
        series = DatedSeries(tuple(days), np.arange(1.0, 11.0))
        weekly = resample_to_weekly(series)
        assert weekly.dates == (dt.date(2000, 1, 7), dt.date(2000, 1, 14))
        assert np.array_equal(weekly.values, [5.0, 10.0])

    def test_friday_holiday_falls_back_to_thursday(self):
        days = [dt.date(2000, 1, d) for d in (3, 4, 5, 6, 10, 11, 12, 13, 14)]
        weekly = resample_to_weekly(DatedSeries(tuple(days), np.arange(1.0, 10.0)))
        assert weekly.dates[0] == dt.date(2000, 1, 6)

    def test_three_weeks_give_three_points(self):
        days = [dt.date(2000, 1, 3) + dt.timedelta(days=i) for i in range(21)]
        weekly = resample_to_weekly(DatedSeries(tuple(days), np.linspace(10, 12, 21)))
        assert len(weekly) == 3

    @pytest.mark.parametrize("year", [2004, 2015, 2020])
    def test_keeps_the_rows_of_the_iso_calendar_rule_across_year_ends(self, year):
        # 2004, 2015 and 2020 have 53 ISO weeks; the last one runs into January
        start = dt.date(year, 12, 1)
        days = [start + dt.timedelta(days=i) for i in range(70) if i % 11 not in (3, 4)]
        self.assert_iso_rule(days)

    def test_keeps_the_rows_of_the_iso_calendar_rule_on_random_dates(self):
        rng = np.random.default_rng(2024)
        ordinals = np.unique(rng.integers(dt.date(1890, 1, 1).toordinal(),
                                          dt.date(2110, 1, 1).toordinal(), 30000))
        self.assert_iso_rule([dt.date.fromordinal(int(o)) for o in ordinals])

    @staticmethod
    def assert_iso_rule(days):
        kept = [i for i in range(len(days))
                if i + 1 == len(days) or days[i + 1].isocalendar()[:2] != days[i].isocalendar()[:2]]
        weekly = resample_to_weekly(DatedSeries(tuple(days), np.arange(1.0, len(days) + 1)))
        assert weekly.dates == tuple(days[i] for i in kept)
        assert np.array_equal(weekly.values, np.asarray(kept) + 1.0)


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
        assert abs(np.mean(np.abs(x.values)) - 1.0) < 0.2


class TestCsv:
    def test_price_round_trip_and_line_numbers(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("date,price\n2000-01-03,100\n2000-01-04,101.5\n")
        series = read_price_csv(str(path))
        assert series.dates[1] == dt.date(2000, 1, 4)
        assert np.array_equal(series.values, [100.0, 101.5])

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
        assert series.values == pytest.approx([0.1, -0.25, 1.0 / 3.0], abs=1e-15)
        assert path.read_text().splitlines()[0] == "date,value"

    def test_value_csv_tolerates_a_skipped_week(self, tmp_path):
        # one 14-day gap is a market closure, not another sampling rate
        path = tmp_path / "series.csv"
        weekly = dates_from(dt.date(2001, 2, 2), 5)
        write_series_csv(str(path), weekly[:2] + weekly[3:], [0.1] * 4)
        assert read_value_csv(str(path)).dates == weekly[:2] + weekly[3:]

    def test_read_csv_rules_hold_across_a_long_file(self, tmp_path):
        # a header in other case and spacing, blank lines, and thousands of
        # rows: every row comes back in order, and a bad cell deep in the file
        # names its own line
        path = tmp_path / "table.csv"
        lines = [" N , Value"] + [f"{i},{i / 4}" for i in range(3000)]
        lines[1500:1500] = ["", "   "]
        path.write_text("\n".join(lines) + "\n")
        n, value = read_csv(str(path), ["n", "value"], [int, float])
        assert n == list(range(3000)) and value == [i / 4 for i in range(3000)]
        lines[2700] = "2697,abc"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"table\.csv, line 2701: bad value 'abc'"):
            read_csv(str(path), ["n", "value"], [int, float])

    def test_write_csv_cell_format(self, tmp_path):
        path = tmp_path / "table.csv"
        rows = [(1, float("nan"), -0.0, 1.0 / 3.0, "CaseI"), (2, 1e-20, 2.5, 1e21, "")]
        write_csv(str(path), ["n", "a", "b", "c", "d"], rows)
        assert path.read_text() == (
            "n,a,b,c,d\n1,,-0,0.333333333333333,CaseI\n2,1e-20,2.5,1e+21,\n"
        )
        write_csv(str(path), ["n"], [(1,)], comment="rng=Philox")
        assert path.read_text() == "# rng=Philox\nn\n1\n"
