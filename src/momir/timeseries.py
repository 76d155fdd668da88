"""Price ingestion, log returns, weekly resampling, and volatility normalization.

Everything here is a pure function over immutable series objects.  The
normalization divides each return by the trailing mean absolute return over a
window of ``p`` periods, which stabilizes variance without look-ahead: the
value emitted at time t depends only on returns up to and including t.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

__all__ = [
    "PriceSeries",
    "ReturnSeries",
    "NormalizedReturnSeries",
    "log_returns",
    "last_per_key",
    "resample_to_weekly",
    "normalize",
    "read_csv",
    "read_price_csv",
    "read_value_csv",
    "write_csv",
    "write_series_csv",
]


def _check_dates(dates: Sequence[dt.date], what: str) -> None:
    for i in range(1, len(dates)):
        if dates[i] <= dates[i - 1]:
            raise ValueError(
                f"{what}: timestamps must be strictly increasing; "
                f"entry {i} ({dates[i]}) does not follow {dates[i - 1]}"
            )


@dataclass(frozen=True)
class PriceSeries:
    """Dated positive prices.

    Invariants (checked on construction): strictly increasing dates, all
    prices strictly positive, at least two observations.
    """

    dates: tuple[dt.date, ...]
    prices: np.ndarray

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
                f"price series: non-positive or non-finite price {float(prices[i])} "
                f"at index {i} ({self.dates[i]})"
            )

    def __len__(self) -> int:
        return len(self.prices)


@dataclass(frozen=True)
class ReturnSeries:
    """Dated log returns; one value per period, dated at the period end."""

    dates: tuple[dt.date, ...]
    returns: np.ndarray

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
    """Returns divided by their trailing mean absolute return (see :func:`normalize`)."""

    dates: tuple[dt.date, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dates", tuple(self.dates))
        if len(self.dates) != len(values):
            raise ValueError("normalized series: dates and values differ in length")
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

    The output has one fewer entry than the input.
    """
    r = np.diff(np.log(prices.prices))
    return ReturnSeries(dates=prices.dates[1:], returns=r)


def last_per_key(dates: Sequence[dt.date], key: Callable[[dt.date], Hashable]) -> np.ndarray:
    """Index of the last date in each run of consecutive dates with an equal ``key``."""
    keys = [key(d) for d in dates]
    return np.asarray(
        [i for i in range(len(keys)) if i + 1 == len(keys) or keys[i + 1] != keys[i]], dtype=int
    )


def resample_to_weekly(prices: PriceSeries) -> PriceSeries:
    """Keep the last available observation of each ISO week (Monday-start).

    A week is keyed by the ordinal of its Monday.  Weeks with no observations
    are skipped.
    """
    idx = last_per_key(prices.dates, lambda d: d.toordinal() - d.weekday())
    return PriceSeries(dates=tuple(prices.dates[i] for i in idx), prices=prices.prices[idx])


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
    return NormalizedReturnSeries(dates=returns.dates[p:], values=r[p:] / trailing)


# ---------------------------------------------------------------------------
# CSV interfaces.  Prices arrive as `date,price`; every series type is emitted
# as `date,value` with 15-significant-digit decimals.  Dates are ISO-8601.
# ---------------------------------------------------------------------------


def read_csv(path: str, header: Sequence[str], parsers: Sequence[Callable]) -> list[list]:
    """Read a comma-separated table, the one CSV reader behind every momir input.

    The header must match ``header`` with case and surrounding spaces ignored.
    Blank lines are skipped, every other line needs one field per column, and
    column j is converted by ``parsers[j]`` as each row is read.  Returns the
    converted columns; a bad row fails naming the file and the line.
    """
    columns: list[list] = [[] for _ in header]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got is None or [h.strip().lower() for h in got] != [h.lower() for h in header]:
            raise ValueError(f"{path}: expected header {','.join(header)!r}, "
                             f"got {','.join(got) if got else 'empty file'!r}")
        for row in reader:
            if len(row) != len(header):
                if len(row) <= 1 and not "".join(row).strip():
                    continue
                raise ValueError(f"{path}, line {reader.line_num}: expected {len(header)} "
                                 f"fields, got {len(row)}")
            for column, name, parse, cell in zip(columns, header, parsers, row):
                try:
                    column.append(parse(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}, line {reader.line_num}: bad {name} {cell!r}") from None
    if not columns[0]:
        raise ValueError(f"{path}: no data rows")
    return columns


def _iso_date(text: str) -> dt.date:
    return dt.date.fromisoformat(text.strip())


def finite_number(text: str) -> float:
    """A number cell; ``nan`` and ``inf`` fail like any other bad cell."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def read_price_csv(path: str) -> PriceSeries:
    """Load a `date,price` CSV into a PriceSeries."""
    dates, prices = read_csv(path, ["date", "price"], [_iso_date, finite_number])
    return PriceSeries(dates=dates, prices=np.array(prices))


def read_value_csv(path: str) -> ReturnSeries:
    """Load a weekly `date,value` CSV into a ReturnSeries.

    The median gap between consecutive dates must be 5 to 9 days: market
    closures pass, daily or monthly returns fail naming the gap.
    """
    dates, values = read_csv(path, ["date", "value"], [_iso_date, finite_number])
    series = ReturnSeries(dates=dates, returns=np.array(values))
    gaps = [(b - a).days for a, b in zip(dates, dates[1:])]
    if gaps and not 5 <= np.median(gaps) <= 9:
        raise ValueError(f"{path}: median gap of {np.median(gaps):g} days between dates; "
                         "returns must be weekly")
    return series


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
