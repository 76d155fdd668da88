"""Price ingestion, log returns, weekly resampling, and volatility normalization.

Everything here is a pure function over immutable :class:`DatedSeries`.  The
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
    "DatedSeries",
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


def _check_dates(dates: Sequence[dt.date]) -> None:
    for i in range(1, len(dates)):
        if dates[i] <= dates[i - 1]:
            raise ValueError(
                f"dated series: timestamps must be strictly increasing; "
                f"entry {i} ({dates[i]}) does not follow {dates[i - 1]}"
            )


@dataclass(frozen=True)
class DatedSeries:
    """One finite value per date: prices, log returns or normalized returns.

    Invariants (checked on construction): as many values as dates, strictly
    increasing dates, every value finite; a failure names the index and date.
    """

    dates: tuple[dt.date, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dates", tuple(self.dates))
        if len(self.dates) != len(values):
            i = min(len(self.dates), len(values))
            date = f" ({self.dates[i]})" if i < len(self.dates) else ""
            raise ValueError(f"dated series: {len(self.dates)} dates but {len(values)} values; "
                             f"index {i}{date} has no partner")
        _check_dates(self.dates)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"dated series: non-finite value {float(values[i])} at index {i} ({self.dates[i]})"
            )

    def __len__(self) -> int:
        return len(self.values)


def _check_prices(prices: DatedSeries) -> DatedSeries:
    """``prices`` if it holds at least two prices and every one is positive."""
    if len(prices) < 2:
        raise ValueError("price series: need at least 2 observations")
    bad = np.flatnonzero(~(prices.values > 0))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"price series: non-positive price {float(prices.values[i])} "
            f"at index {i} ({prices.dates[i]})"
        )
    return prices


def log_returns(prices: DatedSeries) -> DatedSeries:
    """Log returns ln(S[i+1]/S[i]) of at least two positive prices, dated at the later one.

    The output has one fewer entry than the input.
    """
    r = np.diff(np.log(_check_prices(prices).values))
    return DatedSeries(dates=prices.dates[1:], values=r)


def last_per_key(dates: Sequence[dt.date], key: Callable[[dt.date], Hashable]) -> np.ndarray:
    """Index of the last date in each run of consecutive dates with an equal ``key``."""
    keys = [key(d) for d in dates]
    return np.asarray(
        [i for i in range(len(keys)) if i + 1 == len(keys) or keys[i + 1] != keys[i]], dtype=int
    )


def resample_to_weekly(prices: DatedSeries) -> DatedSeries:
    """Keep the last available observation of each ISO week (Monday-start).

    A week is keyed by the ordinal of its Monday.  Weeks with no observations
    are skipped.
    """
    idx = last_per_key(prices.dates, lambda d: d.toordinal() - d.weekday())
    return DatedSeries(dates=tuple(prices.dates[i] for i in idx), values=prices.values[idx])


def normalize(returns: DatedSeries, p: int) -> DatedSeries:
    """Divide each return by the mean absolute return of the previous ``p`` periods.

    X[t] = r[t] / ((1/p) * sum_{i=1..p} |r[t-i]|).  The first emitted value
    corresponds to input index ``p``, so the output is ``p`` entries shorter.
    The transform is invariant to positive rescaling of the input and uses no
    future data.  A window of all-zero returns (flat prices) is a data defect
    and is rejected rather than skipped.
    """
    if p < 1:
        raise ValueError("normalization window p must be >= 1")
    r = returns.values
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
    return DatedSeries(dates=returns.dates[p:], values=r[p:] / trailing)


# ---------------------------------------------------------------------------
# CSV interfaces.  Prices arrive as `date,price`; every series is emitted
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


def read_price_csv(path: str) -> DatedSeries:
    """Load a `date,price` CSV of at least two prices, all positive."""
    dates, prices = read_csv(path, ["date", "price"], [_iso_date, finite_number])
    return _check_prices(DatedSeries(dates=dates, values=np.array(prices)))


def read_value_csv(path: str) -> DatedSeries:
    """Load a weekly `date,value` CSV.

    The median gap between consecutive dates must be 5 to 9 days: market
    closures pass, daily or monthly returns fail naming the gap.
    """
    dates, values = read_csv(path, ["date", "value"], [_iso_date, finite_number])
    series = DatedSeries(dates=dates, values=np.array(values))
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
