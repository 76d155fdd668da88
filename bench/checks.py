"""Checks of every workload output against computations made apart from momir.

Nothing here imports the program.  Each check returns a list of problems
(empty when the output is right) and is keyed by the operation whose output
it reads, so a wrong output counts against that operation.  The references
are plain numpy or plain Python: ISO-week resampling and log returns, the
trailing mean-absolute normalisation, the moving-average backtest, literal
closed-form sums, and square-wave paths regenerated by README's seeding rule.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
import os

import numpy as np

import workloads as w

Z95 = 1.96
PPY = 52.0


def _rows(path: str, skip_comments: bool = False) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [ln for ln in fh if not (skip_comments and ln.startswith("#"))]
    rows = list(csv.reader(lines))
    return rows[0], [r for r in rows[1:] if r]


def _num(s: str) -> float:
    return float(s) if s.strip() else math.nan


def _close(got, want, rtol: float, atol: float = 0.0) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= atol + rtol * np.abs(want)))


class Problems(list):
    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)


# ---------------------------------------------------------------------------
# Literal closed forms (README "Closed forms"), written as explicit sums.
# ---------------------------------------------------------------------------


def closed_form(mu: float, variance: float, rho, n: int) -> tuple[float, float, float]:
    """(E[R], Var(R), IR) at lookback n from literal single and double sums."""

    def r(k: int) -> float:
        if k == 0:
            return 1.0
        return rho[k - 1] if k <= len(rho) else 0.0

    v, mu2 = variance, mu * mu
    s1 = sum(r(i) for i in range(1, n + 1))
    s2 = sum(r(abs(i - j)) for i in range(1, n + 1) for j in range(1, n + 1) if i != j)
    mean = mu2 + v / n * s1
    var = (n * v * v + n * mu2 * v + n * n * v * mu2
           + v * v * (s1 * s1 + s2) + mu2 * v * (2 * n * s1 + s2)) / (n * n)
    return mean, var, mean / math.sqrt(var)


# ---------------------------------------------------------------------------
# history
# ---------------------------------------------------------------------------


def weekly_returns(prices_csv: str) -> tuple[list[str], np.ndarray]:
    """Last price of each ISO week, then log returns dated at the later week."""
    _, rows = _rows(prices_csv)
    dates, prices = [], []
    last_key = None
    for date_text, price_text in rows:
        key = dt.date.fromisoformat(date_text).isocalendar()[:2]
        if key == last_key:
            dates[-1], prices[-1] = date_text, float(price_text)
        else:
            dates.append(date_text)
            prices.append(float(price_text))
            last_key = key
    logs = np.array([math.log(p) for p in prices])
    return dates[1:], logs[1:] - logs[:-1]


def normalized(values: np.ndarray, p: int) -> np.ndarray:
    """X[t] = r[t] / mean(|r[t-p .. t-1]|) for t >= p."""
    trailing = np.array([np.abs(values[t - p : t]).mean() for t in range(p, len(values))])
    return values[p:] / trailing


def curve_stats(x: np.ndarray, n: int) -> tuple[float, float, float, int]:
    pays = w.payoffs(x, n)
    mean, sd = float(pays.mean()), float(pays.std(ddof=1))
    return mean, sd, mean / sd, len(pays)


def check_returns(workdir: str) -> Problems:
    problems = Problems()
    dates, ref = weekly_returns(os.path.join(workdir, "prices.csv"))
    header, rows = _rows(os.path.join(workdir, "returns.csv"))
    problems.expect(header == ["date", "value"], f"returns.csv header {header}")
    problems.expect([r[0] for r in rows] == dates, "weekly return dates differ from ISO weeks")
    got = [float(r[1]) for r in rows]
    problems.expect(_close(got, ref, 1e-9, 1e-13), "weekly log returns differ")
    return problems


def _returns_file(workdir: str) -> tuple[list[str], np.ndarray]:
    _, rows = _rows(os.path.join(workdir, "returns.csv"))
    return [r[0] for r in rows], np.array([float(r[1]) for r in rows])


def check_ir(workdir: str) -> Problems:
    problems = Problems()
    _, r = _returns_file(workdir)
    x = normalized(r, w.NORMALIZATION_P)
    header, rows = _rows(os.path.join(workdir, "ir.csv"))
    problems.expect(header == ["n", "mean", "sd", "ir", "ir_annualized", "stderr", "samples"],
                    f"ir.csv header {header}")
    problems.expect([int(row[0]) for row in rows] == list(range(1, w.IR_N_MAX + 1)),
                    "ir.csv lookbacks are not 1..n_max")
    for row in rows:
        n = int(row[0])
        mean, sd, ir, samples = curve_stats(x, n)
        got = [_num(v) for v in row[1:6]]
        ok = (abs(got[0] - mean) <= 1e-9 * sd and _close(got[1], sd, 1e-9)
              and abs(got[2] - ir) <= 1e-9 and abs(got[3] - ir * math.sqrt(PPY)) <= 1e-8
              and int(row[6]) == samples == len(x) - n
              and _close(got[4], Z95 * math.sqrt(PPY / samples), 1e-12))
        problems.expect(ok, f"ir.csv row N={n} differs from the reference backtest")
    return problems


def _regime_curve(piece: np.ndarray) -> np.ndarray:
    return np.array([curve_stats(piece, n)[2] for n in range(1, w.REGIME_N_MAX + 1)])


def check_regimes(workdir: str) -> Problems:
    problems = Problems()
    dates, r = _returns_file(workdir)
    p = w.NORMALIZATION_P
    x = normalized(r, p)
    x_dates = dates[p:]
    position = {d: i for i, d in enumerate(x_dates)}
    header, rows = _rows(os.path.join(workdir, "regimes.csv"))
    problems.expect(header == ["start", "end", "weeks", "acf1", "acf_se", "max_ir", "ir_se",
                               "max_ir_n", "classification"], f"regimes.csv header {header}")
    problems.expect(len(rows) >= 1, "no regimes reported")
    curves = []
    previous_end = -1
    for k, row in enumerate(rows):
        start, end = position.get(row[0]), position.get(row[1])
        if start is None or end is None:
            problems.append(f"regime {k}: dates {row[0]}..{row[1]} not in the series")
            continue
        weeks = int(row[2])
        problems.expect(start > previous_end, f"regime {k} overlaps or precedes regime {k - 1}")
        problems.expect(end - start + 1 == weeks, f"regime {k}: weeks != span length")
        # A regime that starts with the series lost its first p returns to
        # the normalisation window; its span in the return series is weeks + p.
        span = weeks + p if start == 0 else weeks
        problems.expect(span >= w.MIN_WEEKS, f"regime {k} shorter than --min-weeks")
        previous_end = end
        piece = x[start : end + 1]
        curves.append(_regime_curve(piece))
        ann = curves[-1] * math.sqrt(PPY)
        max_ir, max_n = _num(row[5]), int(row[7])
        problems.expect(abs(max_ir - ann.max()) <= 1e-8, f"regime {k}: max_ir differs")
        problems.expect(1 <= max_n <= w.REGIME_N_MAX and ann[max_n - 1] >= ann.max() - 1e-8,
                        f"regime {k}: max_ir_n is not the best lookback")
        case = "CaseI" if max_n > w.THRESHOLD_N else "CaseII"
        problems.expect(row[8] == case, f"regime {k}: classification {row[8]} != {case}")
        problems.expect(_close(_num(row[6]), Z95 * math.sqrt(PPY / weeks), 1e-12),
                        f"regime {k}: ir_se differs")
        d = piece - piece.mean()
        acf1 = min(1.0, max(-1.0, float(d[1:] @ d[:-1]) / (len(d) - 1) / float(d @ d / len(d))))
        problems.expect(abs(_num(row[3]) - acf1) <= 1e-9, f"regime {k}: acf1 differs")
    if curves and not problems:
        problems.extend(_check_average(workdir, np.array(curves)))
    return problems


def _check_average(workdir: str, irs: np.ndarray) -> Problems:
    problems = Problems()
    curve = read_ir_curve(os.path.join(workdir, "avg_ir.csv"))
    problems.expect(list(curve["n"]) == list(range(1, w.REGIME_N_MAX + 1)),
                    "avg_ir.csv lookbacks are not 1..n_max")
    problems.expect(_close(curve["ir"], irs.mean(axis=0), 1e-9, 1e-12),
                    "avg_ir.csv ir is not the mean regime ir")
    problems.expect(list(curve["samples"]) == [len(irs)] * irs.shape[1],
                    "avg_ir.csv samples is not the regime count")
    if len(irs) > 1:
        sem = irs.std(axis=0, ddof=1) / math.sqrt(len(irs))
        problems.expect(_close(curve["stderr"], sem, 1e-8, 1e-14),
                        "avg_ir.csv stderr is not the standard error of the mean ir")
    return problems


def read_ir_curve(path: str) -> dict[str, np.ndarray]:
    header, rows = _rows(path)
    cols = {h: [row[i] for row in rows] for i, h in enumerate(header)}
    return {"n": np.array([int(v) for v in cols["n"]]),
            "ir": np.array([_num(v) for v in cols["ir"]]),
            "stderr": np.array([_num(v) for v in cols["stderr"]]),
            "samples": np.array([int(v) for v in cols["samples"]])}


def check_stationary_fit(workdir: str) -> Problems:
    problems = Problems()
    with open(os.path.join(workdir, "fit.json"), encoding="utf-8") as fh:
        fit = json.load(fh)
    curve = read_ir_curve(os.path.join(workdir, "avg_ir.csv"))
    keep = np.isfinite(curve["ir"])
    ns, target = curve["n"][keep], curve["ir"][keep]
    params = fit["parameters"]
    mu = params["mu"]
    rho = [params[f"rho_{k}"] for k in range(1, w.K_LAGS + 1)]
    variance = w.FIXED_SD ** 2
    problems.expect(fit["fitted"]["n"] == [int(n) for n in ns], "fitted lookbacks differ")
    model = np.array([closed_form(mu, variance, rho, int(n))[2] for n in ns])
    problems.expect(_close(fit["fitted"]["ir"], model, 1e-9, 1e-14),
                    "fitted ir is not the closed form at the fitted parameters")
    rss = float(np.sum((model - target) ** 2))
    problems.expect(_close(fit["rss"], rss, 1e-8, 1e-18), "rss is not the residual sum")
    start_mu = float(np.mean(target[-5:])) * w.FIXED_SD
    start = np.array([closed_form(start_mu, variance, [], int(n))[2] for n in ns])
    start_rss = float(np.sum((start - target) ** 2))
    problems.expect(fit["rss"] <= start_rss * (1 + 1e-12), "rss above the start point's")
    return problems


def check_theory(workdir: str) -> Problems:
    problems = Problems()
    header, rows = _rows(os.path.join(workdir, "theory.csv"))
    problems.expect(header == ["n", "mean", "variance", "ir"], f"theory.csv header {header}")
    problems.expect([int(r[0]) for r in rows] == list(range(1, w.THEORY["n_max"] + 1)),
                    "theory.csv lookbacks are not 1..n_max")
    for row in rows:
        want = closed_form(w.THEORY["mu"], w.THEORY["variance"], w.THEORY["rho"], int(row[0]))
        problems.expect(_close([float(v) for v in row[1:4]], want, 1e-12),
                        f"theory.csv row N={row[0]} differs from the literal sums")
    return problems


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------

MC_RNG_LINE = "# rng=Philox(4x64, 10 rounds)"
# Lookbacks at which the square-wave curve is recomputed from regenerated paths.
MC_RECHECK_N = (1, 45, 90, 180, 270, 400)
MA_CHECK_N = (1, 2, 3, 5, 10, 20, 50, 100)
# A deviation larger than this many MC standard errors fails a check.
SE_MULTIPLE = 5.0


def read_mc_curve(path: str) -> tuple[str, list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
    header, rows = _rows(path, skip_comments=True)
    return first, header, rows


def _check_mc_frame(path: str, paths: int, length: int, n_max: int, seed: int) -> tuple[
        Problems, np.ndarray, np.ndarray]:
    problems = Problems()
    first, header, rows = read_mc_curve(path)
    problems.expect(first == MC_RNG_LINE, f"rng line {first!r}")
    problems.expect(header == ["n", "ir_mean", "ir_mc_se", "paths", "length", "seed"],
                    f"mc header {header}")
    problems.expect([int(r[0]) for r in rows] == list(range(1, n_max + 1)),
                    "mc lookbacks are not 1..n_max")
    problems.expect(all((int(r[3]), int(r[4]), int(r[5])) == (paths, length, seed)
                        for r in rows), "paths, length or seed column differs from the argv")
    return problems, np.array([_num(r[1]) for r in rows]), np.array([_num(r[2]) for r in rows])


def wave_paths(seed: int, paths: int, length: int) -> np.ndarray:
    """README's square-wave paths: path k draws from Philox(SeedSequence(seed, spawn_key=(k,)))."""
    spec, noise = w.WAVE_SPEC, w.WAVE_SPEC["noise"]
    wave = spec["amplitude"] * w.square_wave_sign(np.arange(1, length + 1), spec["t_wave"])
    x = np.empty((paths, length))
    for k in range(paths):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(k,))))
        x[k] = spec["mu"] + wave + noise["mu"] + noise["sigma"] * rng.standard_normal(length)
    return x


def check_square_wave_mc(workdir: str, seed: int) -> Problems:
    problems, ir_mean, ir_se = _check_mc_frame(
        os.path.join(workdir, "mc.csv"), w.MC_PATHS, w.MC_LENGTH, w.MC_N_MAX, seed)
    if problems:
        return problems
    irs = w.path_irs(wave_paths(seed, w.MC_PATHS, w.MC_LENGTH), MC_RECHECK_N)
    idx = np.array(MC_RECHECK_N) - 1
    problems.expect(_close(ir_mean[idx], irs.mean(axis=0), 0, 1e-10),
                    "ir_mean differs from the regenerated paths")
    problems.expect(_close(ir_se[idx], irs.std(axis=0, ddof=1) / math.sqrt(w.MC_PATHS), 1e-8),
                    "ir_mc_se differs from the regenerated paths")
    problems.extend(damped_oscillation(ir_mean, ir_se))
    return problems


def damped_oscillation(ir_mean: np.ndarray, ir_se: np.ndarray) -> Problems:
    """The curve peaks, dips below the peak by more than the MC error of both
    points, then recovers by as much."""
    problems = Problems()
    peak = int(np.argmax(ir_mean))
    dip = peak + int(np.argmin(ir_mean[peak:]))
    margin = SE_MULTIPLE * (ir_se[peak] + ir_se[dip])
    problems.expect(dip > peak and ir_mean[peak] - ir_mean[dip] > margin,
                    "no peak followed by a dip beyond the MC standard error")
    problems.expect(dip < len(ir_mean) - 1 and ir_mean[dip:].max() - ir_mean[dip] > margin,
                    "the curve does not recover after its dip")
    return problems


def ma_closed_form(spec: dict, n: int) -> float:
    a = spec["coefficients"]
    ss = sum(c * c for c in a)
    rho = [sum(a[j] * a[j + k] for j in range(len(a) - k)) / ss for k in range(1, len(a))]
    return closed_form(spec["mu"], spec["sigma"] ** 2 * ss, rho, n)[2]


def check_ma_mc(workdir: str, seed: int, spec: dict) -> Problems:
    problems, ir_mean, ir_se = _check_mc_frame(
        os.path.join(workdir, "ma_mc.csv"), w.MA_PATHS, w.MA_LENGTH, w.MA_N_MAX, seed)
    if problems:
        return problems
    for n in MA_CHECK_N:
        # README: the estimator's finite-sample bias is of order sqrt(N)/length.
        allowed = SE_MULTIPLE * ir_se[n - 1] + math.sqrt(n) / w.MA_LENGTH
        gap = abs(ir_mean[n - 1] - ma_closed_form(spec, n))
        problems.expect(gap <= allowed, f"MA curve at N={n} is {gap:.3g} from the closed form "
                                        f"(allowed {allowed:.3g})")
    return problems


# ---------------------------------------------------------------------------
# wavefit
# ---------------------------------------------------------------------------


# A fit whose rss exceeds this multiple of the rss expected from Monte Carlo
# noise alone does not explain the curve.
NOISE_RSS_MULTIPLE = 10.0


def _check_wave_fit(workdir: str, name: str, truth: dict, paths: int) -> tuple[Problems, dict]:
    """Checks common to both square-wave fits; returns the fit as well."""
    problems = Problems()
    with open(os.path.join(workdir, name), encoding="utf-8") as fh:
        fit = json.load(fh)
    problems.expect(fit["fitted"]["n"] == list(w.WAVE_LOOKBACKS), f"{name}: fitted lookbacks")
    fitted, target = np.array(fit["fitted"]["ir"]), np.array(truth["ir"])
    rss = float(np.sum((fitted - target) ** 2))
    problems.expect(_close(fit["rss"], rss, 1e-6, 1e-15),
                    f"{name}: rss is not the residual sum of the fitted curve")
    # Both curves are means over paths; their difference carries the
    # cross-path IR variance over each path count.
    sd = np.array(truth["ir_path_sd"])
    noise_rss = float(np.sum(sd ** 2 * (1.0 / paths + 1.0 / w.WAVE_CURVE_PATHS)))
    problems.expect(rss <= NOISE_RSS_MULTIPLE * noise_rss,
                    f"{name}: rss {rss:.3g} is beyond Monte Carlo noise ({noise_rss:.3g})")
    return problems, fit["parameters"]


def check_wave_fit(workdir: str, truth: dict) -> Problems:
    """The iid fit recovers T within one grid step and A within 20%."""
    problems, params = _check_wave_fit(workdir, "wavefit.json", truth, w.WAVE_FIT_PATHS)
    problems.expect(abs(params["t_wave"] - truth["t_wave"]) <= w.WAVE_T_GRID[2],
                    f"T={params['t_wave']} but the curve was made with T={truth['t_wave']}")
    problems.expect(abs(params["amplitude"] - truth["amplitude"]) <= 0.2 * truth["amplitude"],
                    f"A={params['amplitude']:.4f} but the curve was made with "
                    f"A={truth['amplitude']:.4f}")
    return problems


# The ma_targets fit's amplitude tolerance.  It is wider than the iid fit's
# 20% because the fitted autocorrelations absorb part of the wave's effect on
# the curve: over six seeded curves the fitted A ranged from -23% to +9% of
# the true A.
MA_AMPLITUDE_TOLERANCE = 0.3


def check_wave_fit_ma(workdir: str, truth: dict) -> Problems:
    """The ma_targets fit over the one-period grid {T} explains the curve.

    Its grid holds only the true T, so the period check shows only that the
    fit reports a grid period; the iid fit is the one that must find T.
    """
    problems, params = _check_wave_fit(workdir, "wavefit_ma.json", truth, w.WAVE_MA_FIT_PATHS)
    problems.expect(params["t_wave"] == truth["t_wave"],
                    f"T={params['t_wave']} outside the grid {{{truth['t_wave']}}}")
    problems.expect(abs(params["amplitude"] - truth["amplitude"])
                    <= MA_AMPLITUDE_TOLERANCE * truth["amplitude"],
                    f"A={params['amplitude']:.4f} but the curve was made with "
                    f"A={truth['amplitude']:.4f}")
    problems.expect(all(abs(params[f"rho_{lag}"]) < 1 for lag in (1, 20)),
                    "fitted autocorrelation outside (-1, 1)")
    return problems


def check(workload: str, workdir: str, truth: dict) -> dict[str, Problems]:
    """Problems found in each operation's outputs."""
    if workload == "history":
        return {"ingest": check_returns(workdir), "ir": check_ir(workdir),
                "regimes": check_regimes(workdir), "fit": check_stationary_fit(workdir),
                "theory": check_theory(workdir)}
    if workload == "montecarlo":
        return {"simulate": check_square_wave_mc(workdir, truth["seed"]),
                "simulate_ma": check_ma_mc(workdir, truth["seed"], truth["ma"])}
    return {"fit_iid": check_wave_fit(workdir, truth["iid"]),
            "fit_ma": check_wave_fit_ma(workdir, truth["ma"])}
