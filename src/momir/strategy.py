"""Moving-average momentum strategy and empirical information-ratio curves.

The signal at time t is the simple moving average m_t(N) of the last N
normalized returns; the position held into t+1 is m_t(N) itself (long when
positive, short when negative), so the per-period payoff is m_t(N) * X_{t+1}.
The information ratio (IR) for a lookback N is the mean payoff divided by the
payoff standard deviation.  Every series is weekly, so annualization
multiplies by sqrt(PERIODS_PER_YEAR).
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterator

import numpy as np

from .timeseries import finite_number, read_csv, write_csv

__all__ = [
    "PERIODS_PER_YEAR",
    "IrCurve",
    "check_lookbacks",
    "lookback_range",
    "backtest",
    "ir_curve",
    "annualize",
    "ir_standard_error",
    "write_ir_curve_csv",
    "read_ir_curve_csv",
]

# 95% normal critical value used in every standard-error rule below.
Z95 = 1.96

# Every series momir analyses is weekly; :func:`annualize` is the one rule that uses this.
PERIODS_PER_YEAR = 52


def check_lookbacks(ns, length: int | None = None) -> np.ndarray:
    """The lookbacks ``ns`` as an int array, after checking the one lookback rule.

    There must be at least one lookback, every N must be >= 1 and, given a
    series ``length``, every N must be below it.
    """
    arr = np.asarray(ns, dtype=int)
    if arr.size == 0:
        raise ValueError(f"no lookbacks in {ns!r}")
    if arr.min() < 1:
        raise ValueError(f"lookback N must be >= 1, got {arr.min()}")
    if length is not None and arr.max() >= length:
        raise ValueError(f"series of length {length} too short for max lookback {arr.max()}")
    return arr


def lookback_range(n_range: tuple[int, int], length: int | None = None) -> np.ndarray:
    """Every lookback in [n_min, n_max] as an int array, checked before it is built.

    The rule of :func:`check_lookbacks` depends only on the smallest and the
    largest N, so it sees the two ends (an empty range as it is), and an
    oversized range fails before anything is allocated.
    """
    lo, hi = int(n_range[0]), int(n_range[1])
    check_lookbacks([lo, hi] if lo <= hi else range(lo, hi + 1), length)
    return np.arange(lo, hi + 1)


def _finite(values, use: str, first_row: int = 0) -> np.ndarray:
    """``values`` as floats, failing on the first non-finite value, which ``use`` cannot take.

    The rows of a matrix are numbered from ``first_row``.
    """
    y = np.asarray(values, dtype=float)
    finite = np.isfinite(y)
    if not finite.all():
        i = int(np.argmin(finite))
        row, col = divmod(i, y.shape[1]) if y.ndim == 2 else (None, i)
        where = f"index {col}" if row is None else f"index {col} of row {first_row + row}"
        raise ValueError(f"series value at {where} is {y.flat[i]}; {use} needs finite values")
    return y


@dataclass(frozen=True)
class IrCurve:
    """Per-lookback strategy statistics.

    ``ir`` holds the per-period information ratio and is NaN where the payoff
    standard deviation vanishes (undefined, never +/-inf).  ``stderr`` is the
    annualized 95% half-width Z95 * sqrt(PERIODS_PER_YEAR / samples).
    """

    n: np.ndarray
    mean: np.ndarray
    sd: np.ndarray
    ir: np.ndarray
    stderr: np.ndarray
    samples: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", np.asarray(self.n, dtype=int))
        for name in ("mean", "sd", "ir", "stderr"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=int))
        sizes = {len(getattr(self, f)) for f in ("n", "mean", "sd", "ir", "stderr", "samples")}
        if len(sizes) != 1:
            raise ValueError("IR curve: columns differ in length")

    @property
    def ir_annualized(self) -> np.ndarray:
        return annualize(self.ir)

    def __len__(self) -> int:
        return len(self.n)


def _payoffs(x: np.ndarray, ns, buffer=None) -> Iterator[np.ndarray]:
    """Payoffs m_{t-1}(N) * X_t along the last axis of ``x``, for each N in turn.

    Window sums are differences of one prefix sum of ``x``, shared by every
    lookback.  Every yielded array is a view of ``buffer``, which holds at
    least the payoffs of the smallest N (made here when not given), so each
    is valid only until the next one is drawn.
    """
    lead, length = x.shape[:-1], x.shape[-1]
    prefix = np.zeros(lead + (length + 1,))
    np.cumsum(x, axis=-1, out=prefix[..., 1:])
    if buffer is None:
        buffer = np.empty(math.prod(lead) * (length - min(ns)))
    for n in ns:
        pays = buffer[: math.prod(lead) * (length - n)].reshape(lead + (length - n,))
        np.subtract(prefix[..., n:length], prefix[..., : length - n], out=pays)
        np.divide(pays, n, out=pays)
        yield np.multiply(pays, x[..., n:], out=pays)


def backtest(x, n: int) -> np.ndarray:
    """Payoffs m_{t-1}(N) * X_t for every t with a full lookback window.

    One payoff per period (rebalanced every period, no costs), t running from
    N to len(X)-1, giving exactly len(X) - N payoffs: payoff k settles on
    series index N + k.
    """
    values = np.asarray(x, dtype=float)
    return next(_payoffs(values, check_lookbacks([n], len(values))))


def ir_standard_error(samples):
    """Annualized 95% half-width for an estimated IR: Z95 * sqrt(PERIODS_PER_YEAR / samples).

    ``samples`` is one count or an array of them, each at least 1.
    """
    if np.min(samples) < 1:
        raise ValueError("samples must be >= 1")
    return annualize(Z95) / np.sqrt(samples)


# Payoff spreads below this fraction of the mean are indistinguishable from a
# constant payoff in double precision; the IR is reported as undefined there.
DEGENERATE_SD_RTOL = 1e-12

# Rows are scored in blocks of about this many elements, so the payoff
# buffer stays cache-sized.  numpy reduces each row on its own, so every
# statistic is bit-identical to a one-row-at-a-time run.  The segmentation
# DP and the Monte Carlo draw block by the same rule (block_rows).
IR_BLOCK_ELEMENTS = 2**16

# The processes :func:`sharded` scores rows on: one per CPU this process may run on.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)


def block_rows(length: int) -> int:
    """Rows of a (rows, length) matrix that make one block: at least one."""
    return max(1, IR_BLOCK_ELEMENTS // length)


@contextlib.contextmanager
def sharded(work: Callable[..., None], rows: int, width: int) -> Iterator[Callable]:
    """Fill one float64 (``rows``, ``width``) table on one pinned, forked process per CPU.

    Yields ``run``: ``run(*args)`` calls ``work(part, table[part], *args)``,
    which fills its rows in place, for each of ``min(WORKERS, rows)`` shards,
    ``part`` being the shard's slice of ``range(rows)`` as ``np.array_split``
    cuts it, and returns the table, valid until the next call.  The table is
    a shared anonymous mapping made before the fork, so the children inherit
    it and every input made before entry, and each call pipes only ``args``
    down and a pickled exception or ``None`` back.  Child k runs on the k-th
    CPU this process may run on (a new process starts on its parent's CPU
    and stays there for about a second).  A shard's exception is raised here
    with its type and message after every shard has replied, so no child is
    left blocked on a full pipe; a child that dies raises naming its shard.
    Every child is killed and reaped on exit.  With one shard, or without
    ``os.fork``, ``work`` runs once in this process on a plain array.
    momir starts no thread, but numpy's OpenBLAS starts a pool unless
    ``OPENBLAS_NUM_THREADS=1`` (the benchmark sets it), and a fork copies
    the pool's locks but no thread.  The children do call BLAS: for
    moving-average noise ``simulate.series`` calls ``np.convolve``, which
    takes each output from the float64 dot, ``cblas_ddot``.
    """
    shards = min(WORKERS, rows)
    if shards == 1 or not hasattr(os, "fork"):
        table = np.empty((rows, width))

        def run_here(*args) -> np.ndarray:
            work(slice(0, rows), table, *args)
            return table

        yield run_here
        return
    import mmap  # only a forking call pays for these imports
    import signal

    table = np.frombuffer(mmap.mmap(-1, rows * width * 8)).reshape(rows, width)
    size, extra = divmod(rows, shards)
    parts = [slice(k * size + min(k, extra), (k + 1) * size + min(k + 1, extra))
             for k in range(shards)]
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    children: list[tuple[int, BinaryIO, BinaryIO]] = []

    def run(*args) -> np.ndarray:
        request = pickle.dumps(args, pickle.HIGHEST_PROTOCOL)
        for _, requests, _ in children:
            with contextlib.suppress(BrokenPipeError):  # its reply reports the death
                requests.write(request)
                requests.flush()
        errors = []
        for k, (pid, _, replies) in enumerate(children):
            try:
                errors.append(pickle.load(replies))
            except (EOFError, pickle.UnpicklingError):
                errors.append(RuntimeError(f"shard {k} of {shards} (pid {pid}) died before it "
                                           f"replied: {_exit_status(pid)}"))
        for error in errors:
            if error is not None:
                raise error
        return table

    try:
        for k, part in enumerate(parts):
            children.append(_fork_shard(work, part, table[part],
                                        cpus[k % len(cpus)] if cpus else None))
        yield run
    finally:
        for pid, requests, replies in children:
            os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(OSError):  # a request left unsent to a dead child
                requests.close()
            replies.close()
            os.waitpid(pid, 0)


def _fork_shard(work, part: slice, out, cpu: int | None) -> tuple[int, BinaryIO, BinaryIO]:
    """Fork one child that answers each pickled ``args`` by calling ``work(part, out, *args)``.

    Returns its pid, the file its requests go to and the file its replies come from.
    """
    request_in, request_out = os.pipe()
    reply_in, reply_out = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(request_out)
            os.close(reply_in)
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            _serve(work, part, out, os.fdopen(request_in, "rb"), os.fdopen(reply_out, "wb"))
            code = 0
        finally:
            os._exit(code)  # the child never returns into its parent's stack
    os.close(request_in)
    os.close(reply_out)
    return pid, os.fdopen(request_out, "wb"), os.fdopen(reply_in, "rb")


def _serve(work, part: slice, out: np.ndarray, requests, replies) -> None:
    """Answer each request with ``work(part, out, *args)``'s exception or ``None``, until EOF."""
    while True:
        try:
            args = pickle.load(requests)
        except EOFError:
            return
        try:
            work(part, out, *args)
            error = None
        except Exception as exc:
            error = exc
        pickle.dump(error, replies, pickle.HIGHEST_PROTOCOL)
        replies.flush()


def _exit_status(pid: int) -> str:
    """How the exited child ``pid`` ended, read without reaping it."""
    info = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    if info.si_code == os.CLD_EXITED:
        return f"exit code {info.si_status}"
    return f"killed by signal {info.si_status}"


def _ir_stats(
    x: np.ndarray, ns: np.ndarray, first_row: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row payoff mean, sample sd and IR at each lookback, each (rows, len(ns)).

    The sd is NaN with fewer than two payoffs; the IR is NaN where the sd is
    undefined, zero or degenerate.  The steps are numpy's own for ``np.mean``
    and ``np.std(ddof=1)``, run in place on one payoff buffer, so every
    statistic is bit-identical to those calls.  Each block of rows gets one
    prefix sum, shared by every lookback.  A mean that is not finite or an sd
    that is +inf means the payoffs' sums or squares overflowed, so it fails
    naming its row, numbered from ``first_row``, and lookback rather than
    reporting an IR of 0 or NaN.
    """
    rows, length = x.shape
    mean = np.empty((rows, len(ns)))
    sd = np.full_like(mean, np.nan)
    step = block_rows(length)
    buffer = np.empty(min(step, rows) * (length - ns.min()))
    # overflow fails below; a zero or undefined sd leaves the IR undefined
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for lo in range(0, rows, step):
            block = slice(lo, lo + step)
            for i, pays in enumerate(_payoffs(x[block], ns, buffer=buffer)):
                m = pays.shape[1]
                mu = np.add.reduce(pays, axis=1) / m
                mean[block, i] = mu
                if m >= 2:
                    pays -= mu[:, None]
                    pays *= pays
                    sd[block, i] = np.sqrt(np.add.reduce(pays, axis=1) / (m - 1))
        defined = (sd > 0.0) & (sd > DEGENERATE_SD_RTOL * np.abs(mean))
        ir = np.where(defined, mean / sd, np.nan)
    overflowed = ~np.isfinite(mean) | (sd == np.inf)
    if overflowed.any():
        r, i = np.argwhere(overflowed)[0]
        what, value = ("mean", mean[r, i]) if not np.isfinite(mean[r, i]) else ("sd", sd[r, i])
        raise ValueError(
            f"payoff {what} of row {first_row + r} at lookback {ns[i]} is {value}: the series "
            "is too large for float64 payoff moments"
        )
    return mean, sd, ir


def ir_curve(x, n_range: tuple[int, int]) -> IrCurve:
    """Backtest every lookback in [n_min, n_max] and collect IR statistics."""
    values = _finite(x, "an IR curve")
    ns = lookback_range(n_range, len(values))
    samples = len(values) - ns
    mean, sd, ir = (v[0] for v in _ir_stats(values[None, :], ns))
    return IrCurve(n=ns, mean=mean, sd=sd, ir=ir, stderr=ir_standard_error(samples),
                   samples=samples)


def annualize(ir_per_period):
    """Scale a per-period IR (a float or an array) to annual units: ir * sqrt(PERIODS_PER_YEAR)."""
    return ir_per_period * math.sqrt(PERIODS_PER_YEAR)


def ir_matrix(x_matrix: np.ndarray, lookbacks, first_row: int = 0) -> np.ndarray:
    """Per-row IR at each requested lookback, over a (rows, length) matrix.

    The same statistics as running ``ir_curve`` on every row.  Returns an
    array of shape (rows, len(lookbacks)) with NaN where the payoff sd
    vanishes.  Errors number the rows from ``first_row``, so a caller scoring
    one block of a larger draw names the draw's own row.
    """
    x = _finite(x_matrix, "an IR matrix", first_row)
    if x.ndim != 2:
        raise ValueError("expected a 2-d matrix of series")
    return _ir_stats(x, check_lookbacks(lookbacks, x.shape[1]), first_row)[2]


# ---------------------------------------------------------------------------
# CSV interface: `n,mean,sd,ir,ir_annualized,stderr,samples`; undefined IR
# entries leave the ir columns empty.
# ---------------------------------------------------------------------------

IR_CURVE_HEADER = ["n", "mean", "sd", "ir", "ir_annualized", "stderr", "samples"]


def write_ir_curve_csv(path: str, curve: IrCurve) -> None:
    columns = (curve.n, curve.mean, curve.sd, curve.ir, curve.ir_annualized, curve.stderr,
               curve.samples)
    write_csv(path, IR_CURVE_HEADER, zip(*(c.tolist() for c in columns)))


def _number(text: str) -> float:
    """A finite float cell; an empty cell is NaN."""
    return finite_number(text) if text.strip() else math.nan


def read_ir_curve_csv(path: str) -> IrCurve:
    """Load an IR-curve CSV written by :func:`write_ir_curve_csv`."""
    n, mean, sd, ir, _, stderr, samples = read_csv(
        path, IR_CURVE_HEADER, [int, _number, _number, _number, _number, _number, int]
    )
    return IrCurve(n, mean, sd, ir, stderr, samples)
