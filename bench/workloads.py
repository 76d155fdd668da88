"""Seeded inputs and CLI argv for the three benchmark workloads.

Each workload writes its inputs into a work directory with numpy alone and
returns the operations to run there: one ``momir`` command each, with argv
laid out as README.md writes it and the files the command produces.  The
program sees only these files; the independent checks live in ``checks.py``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

# history: 115 years of business days -> ~30k prices, 6000 weekly returns,
# 1380 month-ends.
HISTORY_START, HISTORY_END = "1900-01-01", "2015-01-01"
NORMALIZATION_P = 10
IR_N_MAX = 400
REGIME_N_MAX = 43
MIN_WEEKS = 70
THRESHOLD_N = 20
FIXED_SD = 1.5
K_LAGS = 10
THEORY = {"mu": 0.1, "variance": 2.25, "rho": (0.05, 0.02), "n_max": 43}

# montecarlo: README's square-wave spec and sizes, plus a drifting MA spec.
WAVE_SPEC = {
    "variant": "square_wave_drift", "mu": 0.075, "amplitude": 0.15, "t_wave": 180,
    "noise": {"variant": "iid_gaussian", "mu": 0.0, "sigma": 1.5},
}
MC_PATHS, MC_LENGTH, MC_N_MAX = 500, 6068, 400
MA_PATHS, MA_LENGTH, MA_N_MAX = 200, 2000, 100

# wavefit: a curve made here from a known (T, A), fitted back by the program.
WAVE_MU, WAVE_SIGMA = 0.075, 1.5
WAVE_LENGTH = 6068
WAVE_CURVE_PATHS = 200
WAVE_LOOKBACKS = tuple(range(10, 201, 10))
WAVE_T_GRID = (150, 210, 10)
WAVE_TRUE_T = (160, 170, 180, 190, 200)
WAVE_TRUE_A = (0.12, 0.20)
WAVE_FIT_PATHS = 60
WAVE_MA_FIT_PATHS = 10
WAVE_MA_FIT_SEED = 11

# The number of objective evaluations of the stationary fit and of the
# ma_targets fit depends on the data: over eight seeded price paths the
# stationary fit took 4.5k to 7.6k evaluations, and over six seeded curves the
# ma_targets fit took 175 to 296.  A run seed there would move wall_s by more
# than any bound allows, so those inputs come from this fixed seed and the
# same work is timed in every run.
FIXED_SEED = 0


@dataclasses.dataclass(frozen=True)
class Op:
    """One CLI command: its name, argv (run inside the work directory) and outputs."""

    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class Prepared:
    ops: tuple[Op, ...]
    truth: dict


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def square_wave_sign(t: np.ndarray, t_wave: int) -> np.ndarray:
    """sgn(sin(2 pi t / T)) with sgn(0) = +1, for integer t and T."""
    return np.where(2 * (t % t_wave) <= t_wave, 1.0, -1.0)


def history_prices(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Business-day dates and prices: drift regimes plus MA(2) daily noise."""
    rng = np.random.default_rng([seed, 1])
    days = np.arange(np.datetime64(HISTORY_START), np.datetime64(HISTORY_END))
    days = days[np.is_busday(days)]
    n = len(days)
    drift = np.empty(n)
    vol = np.empty(n)
    i = 0
    while i < n:
        span = int(rng.integers(750, 4000))
        drift[i : i + span] = rng.normal(2e-4, 6e-4)
        vol[i : i + span] = rng.uniform(0.007, 0.015)
        i += span
    eps = rng.standard_normal(n + 2)
    noise = eps[2:] + 0.3 * eps[1:-1] + 0.15 * eps[:-2]
    log_price = np.log(100.0) + np.cumsum(drift + vol * noise)
    return days, np.exp(log_price)


def prepare_history(seed: int, workdir: str) -> Prepared:
    # The price path does not depend on the run seed: see FIXED_SEED.
    days, prices = history_prices(FIXED_SEED)
    lines = ["date,price"] + [f"{d},{p!r}" for d, p in zip(days.astype(str), prices.tolist())]
    _write(os.path.join(workdir, "prices.csv"), "\n".join(lines) + "\n")
    rho = ",".join(str(r) for r in THEORY["rho"])
    ops = (
        Op("ingest", ("ingest", "--input", "prices.csv", "--output", "returns.csv",
                      "--frequency", "daily"), ("returns.csv",)),
        Op("ir", ("ir", "--input", "returns.csv", "--output", "ir.csv",
                  "--p", str(NORMALIZATION_P), "--n-max", str(IR_N_MAX)), ("ir.csv",)),
        Op("regimes", ("regimes", "--input", "returns.csv", "--output", "regimes.csv",
                       "--output-curve", "avg_ir.csv", "--n-max", str(REGIME_N_MAX),
                       "--min-weeks", str(MIN_WEEKS), "--threshold-n", str(THRESHOLD_N)),
           ("regimes.csv", "avg_ir.csv")),
        Op("fit", ("fit", "--input", "avg_ir.csv", "--output", "fit.json",
                   "--model", "stationary", "--k-lags", str(K_LAGS),
                   "--fixed-sd", str(FIXED_SD)), ("fit.json",)),
        Op("theory", ("theory", "--output", "theory.csv", "--mu", str(THEORY["mu"]),
                      "--variance", str(THEORY["variance"]), "--rho", rho,
                      "--n-max", str(THEORY["n_max"])), ("theory.csv",)),
    )
    return Prepared(ops=ops, truth={})


def ma_spec(seed: int) -> dict:
    """A drifting MA(3) spec; its IR curve has a closed form."""
    rng = np.random.default_rng([seed, 2])
    coefficients = [1.0, float(rng.uniform(0.1, 0.4)), float(rng.uniform(0.05, 0.2))]
    return {"variant": "moving_average", "mu": float(rng.uniform(0.03, 0.08)),
            "coefficients": coefficients, "sigma": float(rng.uniform(0.8, 1.2))}


def prepare_montecarlo(seed: int, workdir: str) -> Prepared:
    _write(os.path.join(workdir, "wave.json"), json.dumps(WAVE_SPEC) + "\n")
    spec = ma_spec(seed)
    _write(os.path.join(workdir, "ma.json"), json.dumps(spec) + "\n")
    ops = (
        Op("simulate", ("simulate", "--spec", "wave.json", "--output", "mc.csv",
                        "--n-max", str(MC_N_MAX), "--paths", str(MC_PATHS),
                        "--length", str(MC_LENGTH), "--seed", str(seed)), ("mc.csv",)),
        Op("simulate_ma", ("simulate", "--spec", "ma.json", "--output", "ma_mc.csv",
                           "--n-max", str(MA_N_MAX), "--paths", str(MA_PATHS),
                           "--length", str(MA_LENGTH), "--seed", str(seed)), ("ma_mc.csv",)),
    )
    return Prepared(ops=ops, truth={"seed": seed, "ma": spec})


def payoffs(x: np.ndarray, n: int) -> np.ndarray:
    """Payoffs m_{t-1}(N) * X_t along the last axis.

    Window sums come from extended-precision running sums, so they carry no
    cancellation error at the digits the checks compare.
    """
    csum = np.cumsum(np.asarray(x, dtype=np.longdouble), axis=-1)
    csum = np.concatenate([np.zeros(x.shape[:-1] + (1,), dtype=np.longdouble), csum], axis=-1)
    windows = (csum[..., n:-1] - csum[..., : -n - 1]) / n
    return (windows * x[..., n:]).astype(float)


def path_irs(x: np.ndarray, lookbacks) -> np.ndarray:
    """Per-row IR (mean payoff over its sample sd) at each lookback."""
    out = np.empty((x.shape[0], len(lookbacks)))
    for j, n in enumerate(lookbacks):
        pays = payoffs(x, n)
        out[:, j] = pays.mean(axis=1) / pays.std(axis=1, ddof=1)
    return out


def wave_curve(rng: np.random.Generator, t_wave: int, amplitude: float) -> tuple[dict, str]:
    """A square-wave IR curve from a known (T, A), as an IR-curve CSV."""
    t = np.arange(1, WAVE_LENGTH + 1)
    wave = amplitude * square_wave_sign(t, t_wave)
    x = WAVE_MU + wave + WAVE_SIGMA * rng.standard_normal((WAVE_CURVE_PATHS, WAVE_LENGTH))
    per_path = path_irs(x, WAVE_LOOKBACKS)
    ir = per_path.mean(axis=0)
    rows = ["n,mean,sd,ir,ir_annualized,stderr,samples"]
    for n, v in zip(WAVE_LOOKBACKS, ir.tolist()):
        samples = WAVE_LENGTH - n
        stderr = 1.96 * math.sqrt(52.0 / samples)
        # mean and sd are left empty: the fit reads only n, ir and samples.
        rows.append(f"{n},,,{v!r},{v * math.sqrt(52.0)!r},{stderr!r},{samples}")
    truth = {"t_wave": t_wave, "amplitude": amplitude, "ir": ir.tolist(),
             "ir_path_sd": per_path.std(axis=0, ddof=1).tolist()}
    return truth, "\n".join(rows) + "\n"


def prepare_wavefit(seed: int, workdir: str) -> Prepared:
    rng = np.random.default_rng([seed, 3])
    iid, text = wave_curve(rng, int(rng.choice(WAVE_TRUE_T)), float(rng.uniform(*WAVE_TRUE_A)))
    _write(os.path.join(workdir, "wave_ir.csv"), text)
    ma, text = wave_curve(np.random.default_rng(FIXED_SEED), WAVE_SPEC["t_wave"],
                          WAVE_SPEC["amplitude"])
    _write(os.path.join(workdir, "wave_ma_ir.csv"), text)
    common = ("--model", "squarewave", "--mu-fixed", str(WAVE_MU),
              "--sigma-fixed", str(WAVE_SIGMA))
    t_ma = str(WAVE_SPEC["t_wave"])
    ops = (
        Op("fit_iid", ("fit", "--input", "wave_ir.csv", "--output", "wavefit.json", *common,
                       "--seed", str(seed), "--t-min", str(WAVE_T_GRID[0]),
                       "--t-max", str(WAVE_T_GRID[1]), "--t-step", str(WAVE_T_GRID[2]),
                       "--paths", str(WAVE_FIT_PATHS)), ("wavefit.json",)),
        Op("fit_ma", ("fit", "--input", "wave_ma_ir.csv", "--output", "wavefit_ma.json",
                      *common, "--seed", str(WAVE_MA_FIT_SEED), "--noise-kind", "ma_targets",
                      "--t-min", t_ma, "--t-max", t_ma, "--paths", str(WAVE_MA_FIT_PATHS)),
           ("wavefit_ma.json",)),
    )
    return Prepared(ops=ops, truth={"iid": iid, "ma": ma})


PREPARE = {
    "history": prepare_history,
    "montecarlo": prepare_montecarlo,
    "wavefit": prepare_wavefit,
}
