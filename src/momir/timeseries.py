"""Price ingestion, log returns, weekly resampling, and volatility normalization.

Everything here is a pure function over immutable series objects.  The
normalization divides each return by the trailing mean absolute return over a
window of ``p`` periods, which stabilizes variance without look-ahead: the
value emitted at time t depends only on returns up to and including t.
"""

from __future__ import annotations

import csv
import datetime as dt
import enum
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Period",
    "PriceSeries",
    "ReturnSeries",
    "NormalizedReturnSeries",
    "log_returns",
    "resample_to_weekly",
    "normalize",
    "read_price_csv",
    "read_value_csv",
    "write_csv",
    "write_series_csv",
]


class Period(str, enum.Enum):
    """Sampling frequency of a series."""

    DAILY = "daily"
    WEEKLY = "weekly"


def _check_dates(dates: Sequence[dt.date], what: str) -> None:
    for i in range(1, len(dates)):
        if dates[i] <= dates[i - 1]:
            raise ValueError(
                f"{what}: timestamps must be strictly increasing; "
                f"entry {i} ({dates[i]}) does not follow {dates[i - 1]}"
            )


@dataclass(frozen=True)
class PriceSeries:
    """Dated positive prices at a fixed sampling frequency.

    Invariants (checked on construction): strictly increasing dates, all
    prices strictly positive, at least two observations.
    """

    dates: tuple[dt.date, ...]
    prices: np.ndarray
    period: Period = Period.DAILY

    def __post_init__(self) -> None:
        prices = np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "dates", tuple(self.dates))
        if len(self.dates) != len(prices):
            raise ValueError("price series: dates and prices differ in length")
        if len(prices) < 2:
            raise ValueError("price series: need at least 2 observations")
        _check_dates(self.dates, "price series")
        bad = np.flatnonzero(~(prices > 0) | ~np.isfinite(prices))
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"price series: non-positive or non-finite price {prices[i]!r} "
                f"at index {i} ({self.dates[i]})"
            )

    def __len__(self) -> int:
        return len(self.prices)


@dataclass(frozen=True)
class ReturnSeries:
    """Dated log returns; one value per period, dated at the period end."""

    dates: tuple[dt.date, ...]
    returns: np.ndarray
    period: Period

    def __post_init__(self) -> None:
        returns = np.asarray(self.returns, dtype=float)
        object.__setattr__(self, "returns", returns)
        object.__setattr__(self, "dates", tuple(self.dates))
        if len(self.dates) != len(returns):
            raise ValueError("return series: dates and returns differ in length")
        _check_dates(self.dates, "return series")

    def __len__(self) -> int:
        return len(self.returns)


@dataclass(frozen=True)
class NormalizedReturnSeries:
    """Returns divided by the trailing mean absolute return over ``window`` periods."""

    dates: tuple[dt.date, ...]
    values: np.ndarray
    window: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dates", tuple(self.dates))
        if len(self.dates) != len(values):
            raise ValueError("normalized series: dates and values differ in length")
        if self.window < 1:
            raise ValueError("normalized series: window must be >= 1")
        _check_dates(self.dates, "normalized series")
        if values.size and not np.all(np.isfinite(values)):
            i = int(np.flatnonzero(~np.isfinite(values))[0])
            raise ValueError(
                f"normalized series: non-finite value at index {i} ({self.dates[i]})"
            )

    def __len__(self) -> int:
        return len(self.values)


def log_returns(prices: PriceSeries) -> ReturnSeries:
    """Log returns ln(S[i+1]/S[i]), dated at the later observation.

    The output has one fewer entry than the input and inherits its period.
    """
    r = np.diff(np.log(prices.prices))
    return ReturnSeries(dates=prices.dates[1:], returns=r, period=prices.period)


def resample_to_weekly(prices: PriceSeries) -> PriceSeries:
    """Keep the last available observation of each ISO week (Monday-start).

    Weeks with no observations are skipped.  Requires daily input.
    """
    if prices.period is not Period.DAILY:
        raise ValueError(f"weekly resampling expects daily input, got {prices.period.value}")
    dates: list[dt.date] = []
    values: list[float] = []
    prev_key: tuple[int, int] | None = None
    for d, p in zip(prices.dates, prices.prices):
        iso = d.isocalendar()
        key = (iso[0], iso[1])
        if key == prev_key:
            dates[-1] = d
            values[-1] = p
        else:
            dates.append(d)
            values.append(p)
            prev_key = key
    return PriceSeries(dates=tuple(dates), prices=np.array(values), period=Period.WEEKLY)


def normalize(returns: ReturnSeries, p: int) -> NormalizedReturnSeries:
    """Divide each return by the mean absolute return of the previous ``p`` periods.

    X[t] = r[t] / ((1/p) * sum_{i=1..p} |r[t-i]|).  The first emitted value
    corresponds to input index ``p``, so the output is ``p`` entries shorter.
    The transform is invariant to positive rescaling of the input and uses no
    future data.  A window of all-zero returns (flat prices) is a data defect
    and is rejected rather than skipped.
    """
    if p < 1:
        raise ValueError("normalization window p must be >= 1")
    r = returns.returns
    if len(r) <= p:
        raise ValueError(
            f"normalization needs more than p={p} returns, got {len(r)}"
        )
    abs_r = np.abs(r)
    csum = np.concatenate(([0.0], np.cumsum(abs_r)))
    trailing = (csum[p:-1] - csum[:-p - 1]) / p  # mean |r| over [t-p, t-1]
    zero = np.flatnonzero(trailing == 0.0)
    if zero.size:
        t = int(zero[0]) + p
        raise ValueError(
            f"zero trailing mean absolute return at {returns.dates[t]} "
            f"(index {t}): window of flat prices"
        )
    return NormalizedReturnSeries(
        dates=returns.dates[p:], values=r[p:] / trailing, window=p
    )


def mean_abs_level(series: NormalizedReturnSeries) -> float:
    """Mean |X|, a data-sanity diagnostic: roughly 1 for well-behaved input."""
    return float(np.mean(np.abs(series.values)))


# ---------------------------------------------------------------------------
# CSV interfaces.  Prices arrive as `date,price`; every series type is emitted
# as `date,value` with 15-significant-digit decimals.  Dates are ISO-8601.
# ---------------------------------------------------------------------------


def _parse_rows(path: str, expected_header: list[str]) -> list[tuple[dt.date, float]]:
    rows: list[tuple[dt.date, float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != expected_header:
            raise ValueError(
                f"{path}: expected header {','.join(expected_header)!r}, "
                f"got {','.join(header) if header else 'empty file'!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ValueError(f"{path}, line {lineno}: expected 2 fields, got {len(row)}")
            try:
                d = dt.date.fromisoformat(row[0].strip())
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: bad date {row[0]!r}: {exc}") from None
            try:
                v = float(row[1])
            except ValueError:
                raise ValueError(f"{path}, line {lineno}: bad number {row[1]!r}") from None
            rows.append((d, v))
    return rows


def read_price_csv(path: str, period: Period = Period.DAILY) -> PriceSeries:
    """Load a `date,price` CSV into a PriceSeries."""
    rows = _parse_rows(path, ["date", "price"])
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 price rows, got {len(rows)}")
    dates, prices = zip(*rows)
    return PriceSeries(dates=dates, prices=np.array(prices), period=period)


def read_value_csv(path: str, period: Period = Period.WEEKLY) -> ReturnSeries:
    """Load a `date,value` CSV into a ReturnSeries."""
    rows = _parse_rows(path, ["date", "value"])
    if not rows:
        raise ValueError(f"{path}: no data rows")
    dates, values = zip(*rows)
    return ReturnSeries(dates=dates, returns=np.array(values), period=period)


def atomic_write_text(path: str, text: str) -> None:
    """Write a file via a same-directory temp file and rename, so a failed run
    never leaves a truncated output behind."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".csv")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(
    path: str, header: Sequence[str], rows: Iterable[Sequence], comment: str | None = None
) -> None:
    """Write a comma-separated table, the one CSV layout of every momir output.

    An optional ``# comment`` line precedes the header.  Float cells get 15
    significant digits and NaN leaves the cell empty; other cells are written
    with ``str``.
    """
    lines = [] if comment is None else [f"# {comment}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(
            ("" if math.isnan(v) else format(v, ".15g")) if isinstance(v, float) else str(v)
            for v in row
        ))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_series_csv(path: str, dates: Iterable[dt.date], values: Iterable[float]) -> None:
    """Emit any dated series as a `date,value` CSV."""
    write_csv(path, ["date", "value"], ((d.isoformat(), float(v)) for d, v in zip(dates, values)))
