import argparse
import datetime as dt
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import momir
from momir import simulate as simulate_mod
from momir import strategy
from momir.cli import _build_parser, main
from momir.regimes import weekly_segmentation
from momir.strategy import IR_CURVE_HEADER, read_ir_curve_csv
from momir.theory import MAX_LAGS, MAX_THEORY_N
from momir.timeseries import read_value_csv, write_series_csv


# A unit-variance iid Gaussian process spec, as a `simulate --spec` file holds it.
IID_UNIT_SPEC = '{"variant": "iid_gaussian", "mu": 0.0, "sigma": 1.0}\n'


def write_prices(path, dates, prices):
    lines = ["date,price"] + [f"{d.isoformat()},{p:.6f}" for d, p in zip(dates, prices)]
    path.write_text("\n".join(lines) + "\n")


def daily_dates(start: dt.date, count: int):
    # business days only
    out, d = [], start
    while len(out) < count:
        if d.weekday() < 5:
            out.append(d)
        d += dt.timedelta(days=1)
    return out


def weekly_dates(start: dt.date, count: int):
    return [start + dt.timedelta(days=7 * i) for i in range(count)]


@pytest.fixture()
def returns_csv(tmp_path):
    rng = np.random.default_rng(77)
    n = 2000
    values = 0.004 + 0.02 * rng.standard_normal(n)
    path = tmp_path / "returns.csv"
    write_series_csv(str(path), weekly_dates(dt.date(1980, 1, 4), n), values)
    return path


class TestIngest:
    def test_two_prices_one_return(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        write_prices(src, weekly_dates(dt.date(2000, 1, 7), 2), [100.0, 101.0])
        out = tmp_path / "r.csv"
        code = main(["ingest", "--input", str(src), "--output", str(out), "--frequency", "weekly"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "date,value"
        assert len(lines) == 2
        assert float(lines[1].split(",")[1]) == pytest.approx(math.log(1.01))
        assert "2 prices" in capsys.readouterr().out

    def test_daily_input_resamples_to_weekly(self, tmp_path, capsys):
        days = daily_dates(dt.date(2000, 1, 3), 20)  # 4 business weeks
        src = tmp_path / "p.csv"
        write_prices(src, days, np.linspace(100, 110, 20))
        out = tmp_path / "r.csv"
        assert main(["ingest", "--input", str(src), "--output", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4  # 4 weekly prices -> 3 returns
        assert "4 weekly prices -> 3 returns" in capsys.readouterr().out

    def test_non_positive_price_exits_nonzero_naming_date(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        write_prices(src, weekly_dates(dt.date(2000, 1, 7), 3), [100.0, -1.0, 101.0])
        out = tmp_path / "r.csv"
        code = main(["ingest", "--input", str(src), "--output", str(out), "--frequency", "weekly"])
        assert code == 1
        err = capsys.readouterr().err
        assert "2000-01-14" in err
        assert "-1.0" in err and "np.float64" not in err
        assert not out.exists()

    def test_mid_week_non_positive_price_fails_at_read(self, tmp_path, capsys):
        # weekly resampling would drop the Tuesday row; every input cell is still checked
        src = tmp_path / "p.csv"
        prices = np.linspace(100, 110, 10)
        prices[1] = -5.0
        write_prices(src, daily_dates(dt.date(2000, 1, 3), 10), prices)
        out = tmp_path / "r.csv"
        assert main(["ingest", "--input", str(src), "--output", str(out)]) == 1
        assert "price -5.0 at index 1 (2000-01-04)" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_row_exits_nonzero_with_line(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        src.write_text("date,price\n2000-01-07,100\n2000-01-14\n")
        code = main(["ingest", "--input", str(src), "--output", str(tmp_path / "r.csv"),
                     "--frequency", "weekly"])
        assert code == 1
        assert "line 3" in capsys.readouterr().err


class TestIr:
    def test_drift_series_rising_ir(self, returns_csv, tmp_path):
        out = tmp_path / "ir.csv"
        code = main(["ir", "--input", str(returns_csv), "--output", str(out),
                     "--p", "10", "--n-min", "1", "--n-max", "43"])
        assert code == 0
        curve = read_ir_curve_csv(str(out))
        assert len(curve) == 43
        assert curve.ir[-1] > curve.ir[0]
        assert np.nanmax(curve.ir_annualized) > 0.5

    def test_byte_identical_reruns(self, returns_csv, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["ir", "--input", str(returns_csv), "--p", "10", "--n-min", "1", "--n-max", "20"]
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_insufficient_data_message(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        write_series_csv(str(path), weekly_dates(dt.date(2000, 1, 7), 30), np.ones(30) * 0.01)
        code = main(["ir", "--input", str(path), "--output", str(tmp_path / "o.csv"),
                     "--p", "10", "--n-max", "25"])
        assert code == 1
        assert "need more than" in capsys.readouterr().err

    def test_zero_variance_payoffs_flagged_undefined(self, tmp_path):
        path = tmp_path / "flat.csv"
        write_series_csv(str(path), weekly_dates(dt.date(2000, 1, 7), 60), np.full(60, 0.01))
        out = tmp_path / "o.csv"
        assert main(["ir", "--input", str(path), "--output", str(out),
                     "--p", "5", "--n-max", "10"]) == 0
        curve = read_ir_curve_csv(str(out))
        assert np.all(~np.isfinite(curve.ir))  # constant payoffs, sd = 0


class TestRegimes:
    def test_report_and_average_curve(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 30 * 52
        drift = np.where(np.arange(n) < n // 2, 0.02, -0.015)
        values = drift + 0.02 * rng.standard_normal(n)
        src = tmp_path / "returns.csv"
        write_series_csv(str(src), weekly_dates(dt.date(1970, 1, 2), n), values)
        report = tmp_path / "regimes.csv"
        curve_out = tmp_path / "avg.csv"
        code = main(["regimes", "--input", str(src), "--output", str(report),
                     "--output-curve", str(curve_out), "--n-max", "43"])
        assert code == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "start,end,weeks,acf1,acf_se,max_ir,ir_se,max_ir_n,classification"
        assert len(lines) >= 3
        weeks = [int(row.split(",")[2]) for row in lines[1:]]
        assert all(w >= 70 for w in weeks)
        avg = read_ir_curve_csv(str(curve_out))
        assert len(avg) == 43

    def test_short_regime_is_dropped_and_the_long_ones_keep_their_dates(self, tmp_path, caplog,
                                                                       monkeypatch):
        # drift up, a short dip, drift up again: two breaks, and the middle
        # span is shorter than --min-weeks
        rng = np.random.default_rng(5)
        n = 30 * 52
        drift = np.where((np.arange(n) >= 700) & (np.arange(n) < 780), -0.02, 0.02)
        values = drift + 0.02 * rng.standard_normal(n)
        dates = weekly_dates(dt.date(1970, 1, 2), n)
        src = tmp_path / "returns.csv"
        write_series_csv(str(src), dates, values)
        breaks = weekly_segmentation(read_value_csv(str(src)), max_breaks=2)
        # monthly sampling and the noise place each break within weeks of its flip
        assert len(breaks) == 2 and all(abs(b - f) <= 10 for b, f in zip(breaks, (700, 780)))
        report = tmp_path / "regimes.csv"
        monkeypatch.setenv("MOMIR_LOG", "INFO")
        code = main(["regimes", "--input", str(src), "--output", str(report),
                     "--output-curve", str(tmp_path / "avg.csv"), "--max-breaks", "2",
                     "--min-weeks", "100"])
        assert code == 0
        assert "2 breakpoints -> 3 segments, 2 of length >= 100 weeks" in caplog.text
        rows = [row.split(",")[:3] for row in report.read_text().splitlines()[1:]]
        # a regime reports the dates of its normalized returns, which start
        # --p = 10 returns into the series; the dropped span is not merged
        assert rows == [
            [str(dates[10]), str(dates[breaks[0] - 1]), str(breaks[0] - 10)],
            [str(dates[breaks[1]]), str(dates[-1]), str(n - breaks[1])],
        ]

    @pytest.mark.parametrize("power", [900, -900])
    def test_rescaled_returns_write_the_unscaled_outputs(self, tmp_path, power):
        # times 2^power every value stays exact and normal, so every output
        # must match the unscaled run's byte for byte
        rng = np.random.default_rng(5)
        n = 30 * 52
        values = np.where(np.arange(n) < n // 2, 0.02, -0.015) + 0.02 * rng.standard_normal(n)
        dates = weekly_dates(dt.date(1970, 1, 2), n)
        outputs = []
        for scale in (1.0, 2.0**power):
            src = tmp_path / "returns.csv"
            src.write_text("date,value\n" + "".join(
                f"{d},{v!r}\n" for d, v in zip(dates, (scale * values).tolist())))
            report, curve = tmp_path / "regimes.csv", tmp_path / "avg.csv"
            assert main(["regimes", "--input", str(src), "--output", str(report),
                         "--output-curve", str(curve), "--n-max", "43"]) == 0
            outputs.append((report.read_bytes(), curve.read_bytes()))
        assert len(outputs[0][0].splitlines()) >= 3
        assert outputs[1] == outputs[0]

    def test_too_short_for_segmentation(self, tmp_path, capsys):
        src = tmp_path / "short.csv"
        write_series_csv(str(src), weekly_dates(dt.date(2000, 1, 7), 90),
                         0.01 * np.ones(90))
        code = main(["regimes", "--input", str(src), "--output", str(tmp_path / "r.csv"),
                     "--output-curve", str(tmp_path / "c.csv")])
        assert code == 1
        assert "monthly samples" in capsys.readouterr().err


class TestSimulate:
    def test_mc_curve_from_spec_file(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"variant": "iid_gaussian", "mu": 0.075, "sigma": 1.5}\n')
        out = tmp_path / "mc.csv"
        code = main(["simulate", "--spec", str(spec_path), "--output", str(out),
                     "--n-max", "10", "--paths", "8", "--length", "300", "--seed", "4"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# rng=")
        assert lines[1] == "n,ir_mean,ir_mc_se,paths,length,seed"
        assert len(lines) == 12

    def test_square_wave_spec_round_trip(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            '{"variant": "square_wave_drift", "mu": 0.075, "amplitude": 0.15, "t_wave": 180, '
            '"noise": {"variant": "iid_gaussian", "mu": 0.0, "sigma": 1.5}}\n'
        )
        out = tmp_path / "mc.csv"
        assert main(["simulate", "--spec", str(spec_path), "--output", str(out),
                     "--n-max", "5", "--paths", "4", "--length", "400", "--seed", "1"]) == 0

    def test_seed_required(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(IID_UNIT_SPEC)
        with pytest.raises(SystemExit):
            main(["simulate", "--spec", str(spec_path), "--output", str(tmp_path / "o.csv"),
                  "--n-max", "5"])

    def test_identical_seeds_identical_bytes(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(IID_UNIT_SPEC)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main(["simulate", "--spec", str(spec_path), "--output", str(out),
                  "--n-max", "6", "--paths", "5", "--length", "200", "--seed", "11"])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"variant": "iid_gaussian", "mu": null, "sigma": 1.0}', "mu"),
            ('{"variant": "moving_average", "mu": 0.0, "coefficients": 3, "sigma": 1.0}',
             "coefficients"),
            ('{"variant": "moving_average", "mu": 0.0, "coefficients": [1.0, Infinity], '
             '"sigma": 1.0}', "coefficients[1]"),
            ('{"variant": "square_wave_drift", "mu": 0.075, "amplitude": 0.15, "t_wave": NaN, '
             '"noise": {"variant": "iid_gaussian", "mu": 0.0, "sigma": 1.5}}', "t_wave"),
            ('{"variant": "iid_gaussian", "mu": NaN, "sigma": 1.0}', "mu"),
            ('{"variant": "iid_gaussian", "mu": 0.0, "sigma": 1.0, "amplitude": 0.2}',
             "amplitude"),
            ('{"variant": "iid_gaussian", "mu": 0.0}', "sigma"),
        ],
    )
    def test_malformed_spec_fails_naming_the_field(self, tmp_path, capsys, text, field):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(text)
        out = tmp_path / "mc.csv"
        code = main(["simulate", "--spec", str(spec_path), "--output", str(out),
                     "--n-max", "5", "--paths", "2", "--length", "50", "--seed", "1"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert f"{field} " in err[0] or f"{field!r}" in err[0]
        assert not out.exists()



@pytest.mark.parametrize("target, loads", [("momir", []), ("momir.cli", None)],
                         ids=["momir", "momir.cli"])
def test_cli_import_leaves_scipy_unloaded(target, loads):
    # scipy is imported only by the fits that use it, and signal and mmap only
    # by a call of strategy.sharded that forks, so every other command starts
    # without paying for them; momir starts no thread pool, so
    # concurrent.futures stays out too; the package itself loads no module
    src = str(Path(momir.__file__).resolve().parents[1])
    code = (f"import sys, {target}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "print('concurrent.futures' in sys.modules); "
            "print('signal' in sys.modules, 'mmap' in sys.modules); "
            "print(sorted(m for m in sys.modules if m.startswith('momir.')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=src))
    scipy_modules, futures_loaded, signal_loaded, momir_modules = done.stdout.splitlines()
    assert scipy_modules == "[]"
    assert futures_loaded == "False"
    assert signal_loaded == "False False"
    if loads is not None:
        assert momir_modules == repr(loads)


# Every option of every subcommand, in declaration order: adding or removing a
# settable value shows up as an edit to this table.
CLI_OPTIONS = {
    "ingest": ["--input", "--output", "--frequency"],
    "ir": ["--input", "--output", "--p", "--n-min", "--n-max"],
    "regimes": ["--input", "--output", "--output-curve", "--p", "--n-min", "--n-max",
                "--min-weeks", "--threshold-n", "--min-segment-months", "--max-breaks"],
    "simulate": ["--spec", "--output", "--n-min", "--n-max", "--paths", "--length", "--seed"],
    "fit": ["--input", "--output", "--model", "--k-lags", "--fixed-sd", "--mu-fixed",
            "--sigma-fixed", "--noise-kind", "--t-min", "--t-max", "--t-step", "--paths",
            "--length", "--seed"],
    "theory": ["--output", "--mu", "--variance", "--rho", "--n-min", "--n-max"],
}


def test_each_subcommand_has_exactly_the_pinned_options():
    parser = _build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: [s for a in sub._actions for s in a.option_strings if s not in ("-h", "--help")]
        for name, sub in commands.items()
    }
    assert got == CLI_OPTIONS


# Inputs that are checked, drawn and scored, and only then found too large
# for the IR kernel's payoff moments.
OVERFLOWING = (
    "simulate --spec {tmp}/huge.json --n-max 5 --paths 20 --length 500 --seed 1",
    *(f"fit --input {{curve}} --model squarewave --mu-fixed {mu} --t-min 100 --t-max 100 "
      "--paths 4 --seed 1" for mu in ("1e80", "1e307")),
)

CURVE_ROWS = ["1,0.01,1,0.01,0.0721,0.098,399", "2,0.02,1,0.02,0.144,0.098,398",
              "3,0.03,1,0.03,0.216,0.098,397"]


@pytest.mark.parametrize(
    "argv, bad_row, needle",
    [
        ("fit --input {curve} --model stationary --k-lags 1", "2,0.02,1", "ir.csv, line 3"),
        ("fit --input {curve} --model stationary --k-lags 1", "2,abc,1,0.02,0.144,0.098,398",
         "ir.csv, line 3"),
        ("fit --input {curve} --model stationary --k-lags 1", "6.5,0.02,1,0.02,0.144,0.098,398",
         "ir.csv, line 3"),
        ("fit --input {curve} --model stationary --k-lags 1", "2,0.02,1,inf,0.144,0.098,398",
         "ir.csv, line 3: bad ir 'inf'"),
        ("ir --input {tmp}/nan.csv --n-max 5", None, "nan.csv, line 151: bad value 'nan'"),
        ("ir --input {tmp}/inf.csv --n-max 5", None, "inf.csv, line 151: bad value 'inf'"),
        ("fit --input {curve} --model squarewave --mu-fixed 0.02 --seed 1 --t-step 0", None,
         "--t-step 0"),
        ("fit --input {curve} --model squarewave --mu-fixed 0.02 --seed 1 --t-min 1", None,
         "--t-min 1, --t-max 260 and --t-step 10 give no period grid with periods >= 2"),
        ("ir --input {daily} --n-max 5", None, "daily.csv: median gap of 1 days"),
        ("regimes --input {monthly} --output-curve {tmp}/avg.csv", None,
         "monthly.csv: median gap of 31 days"),
        ("regimes --input {tmp}/long.csv --output-curve {tmp}/avg.csv --min-segment-months 3",
         None, "lower --max-breaks or raise --min-segment-months"),
        ("simulate --spec {spec} --n-min 5 --n-max 3 --seed 1", None, "lookbacks"),
        ("theory --mu 0.1 --variance 2.25 --rho 0.1,x --n-max 5", None, "--rho, lag 2"),
        ("theory --mu 0.1 --variance 2.25 --n-max 200000", None, "--n-max 200000"),
        ("fit --input {curve} --model stationary --k-lags 1 --fixed-sd nan", None, "--fixed-sd"),
        ("fit --input {curve} --model squarewave --mu-fixed nan --seed 1", None, "--mu-fixed"),
        ("fit --input {curve} --model squarewave --mu-fixed inf --seed 1", None, "--mu-fixed"),
        ("fit --input {curve} --model squarewave --mu-fixed 0.02 --sigma-fixed nan --seed 1",
         None, "--sigma-fixed"),
        ("fit --input {curve} --model squarewave --mu-fixed 0.02 --seed -1", None, "--seed"),
        ("simulate --spec {spec} --n-max 3 --seed -1", None, "--seed"),
        ("regimes --input {tmp}/nan.csv --output-curve {tmp}/avg.csv --min-weeks 0", None,
         "--min-weeks must be >= 1, got 0"),
        ("theory --mu 1e200 --variance 2.25 --n-max 5", None,
         "--mu 1e+200 and --variance 2.25 put the closed form at N=1 outside the float range"),
        ("theory --mu 0 --variance 1e-320 --rho 0.1 --n-max 5", None,
         "--mu 0.0 and --variance 1e-320 put the closed form at N=1 outside the float range"),
        ("theory --mu 0 --variance 1e-160 --rho 0.1 --n-max 5", None,
         "--mu 0.0 and --variance 1e-160 put the closed form at N=1 outside the float range"),
        ("theory --mu 0.1 --variance inf --n-max 5", None,
         "variance must be positive and finite, got inf"),
        ("fit --input {curve} --model squarewave --mu-fixed 1e308 --seed 1", None,
         "--mu-fixed 1e+308 and --sigma-fixed 1.5"),
        ("fit --input {curve} --model stationary --k-lags 1 --fixed-sd 1e200", None,
         "--fixed-sd 1e+200 must be positive"),
        ("fit --input {curve} --model stationary --k-lags 1 --fixed-sd 1e-300", None,
         "--fixed-sd 1e-300 must be positive"),
        ("fit --input {curve} --model stationary --k-lags 1 --fixed-sd 1e100", None,
         "--fixed-sd 1e+100 must be positive"),
        ("fit --input {curve} --model squarewave --mu-fixed 0.02 --seed 1 --t-max 1000000000",
         None, "--t-min 100, --t-max 1000000000 and --t-step 10 give more than 20000 periods"),
        (OVERFLOWING[0], None, "payoff sd of row 0 at lookback 1 is inf"),
        (OVERFLOWING[1], None, "--mu-fixed 1e+80 and --sigma-fixed 1.5 give candidate series"),
        (OVERFLOWING[2], None, "--mu-fixed 1e+307 and --sigma-fixed 1.5 give candidate series"),
        ("simulate --spec {spec} --n-max 3 --paths 0 --seed 1", None,
         "--paths must be >= 1, got 0"),
        ("fit --input {curve} --model squarewave --mu-fixed 0.02 --paths 1 --seed 1", None,
         "--paths must be >= 2 for the square-wave fit, got 1"),
        ("theory --mu 0.1 --variance 2.25 --rho " + ",".join(["0"] * (MAX_LAGS + 1))
         + " --n-max 5", None, f"--rho gives {MAX_LAGS + 1} lags, over the limit of {MAX_LAGS}"),
        (f"fit --input {{curve}} --model stationary --k-lags {MAX_LAGS + 1}", None,
         f"--k-lags {MAX_LAGS + 1} exceeds the limit of {MAX_LAGS} lags"),
        ("fit --input {tmp}/big.csv --model stationary --k-lags 1", None,
         f"curve has {MAX_THEORY_N + 1} usable points; need more than k_lags=1 and at most "
         f"{MAX_THEORY_N}"),
    ],
    ids=["truncated-row", "non-numeric-cell", "non-integer-n", "inf-ir-cell", "nan-return",
         "inf-return", "zero-t-step", "period-below-two", "ir-daily-returns",
         "regimes-month-end-returns", "regimes-oversized-segmentation", "empty-lookback-range", "theory-bad-rho",
         "theory-oversized-n-max", "nan-fixed-sd",
         "nan-mu-fixed", "inf-mu-fixed", "nan-sigma-fixed", "fit-negative-seed",
         "simulate-negative-seed", "regimes-zero-min-weeks", "theory-overflowing-mu",
         "theory-underflowing-variance", "theory-subnormal-variance", "theory-infinite-variance",
         "overflowing-mu-fixed", "overflowing-fixed-sd", "underflowing-fixed-sd",
         "fixed-sd-overflowing-closed-form", "oversized-period-grid",
         "simulate-overflowing-payoff-sd", "fit-overflowing-payoff-sd",
         "fit-overflowing-prefix-sums", "simulate-zero-paths", "fit-one-path",
         "theory-too-many-rho-lags", "fit-too-many-k-lags", "fit-too-many-curve-points"],
)
def test_bad_input_fails_naming_the_cause(tmp_path, capsys, monkeypatch, argv, bad_row, needle):
    month_ends = [dt.date(1990 + m // 12, m % 12 + 1, 1) - dt.timedelta(days=1)
                  for m in range(1, 241)]
    for name, dates in [("daily", daily_dates(dt.date(1990, 1, 1), 240)),
                        ("monthly", month_ends)]:
        write_series_csv(str(tmp_path / f"{name}.csv"), dates, np.full(len(dates), 0.01))
    weekly = weekly_dates(dt.date(1990, 1, 5), 200)
    for cell in ("nan", "inf"):
        # row 150 of 200, on line 151 after the header, holds the bad cell
        values = ["0.01"] * 149 + [cell] + ["0.01"] * 50
        (tmp_path / f"{cell}.csv").write_text(
            "date,value\n" + "".join(f"{d.isoformat()},{v}\n" for d, v in zip(weekly, values)))
    # 250 years of weeks: ~3000 months, whose segmentation at 3-month minimum
    # segments would scan ~1.5e9 cells
    long_weeks = weekly_dates(dt.date(1750, 1, 2), 13045)
    write_series_csv(str(tmp_path / "long.csv"), long_weeks, np.full(len(long_weeks), 0.01))
    rows = list(CURVE_ROWS)
    if bad_row is not None:
        rows[1] = bad_row
    curve = tmp_path / "ir.csv"
    curve.write_text("\n".join([",".join(IR_CURVE_HEADER), *rows]) + "\n")
    # one defined point more than the stationary fit takes
    (tmp_path / "big.csv").write_text(",".join(IR_CURVE_HEADER) + "\n" + "".join(
        f"{n},0.01,1,0.01,0.0721,0.098,{10**6 - n}\n" for n in range(1, MAX_THEORY_N + 2)))
    spec = tmp_path / "spec.json"
    spec.write_text(IID_UNIT_SPEC)
    (tmp_path / "huge.json").write_text(
        '{"variant": "iid_gaussian", "mu": 5e98, "sigma": 1e100}\n')

    def draw(*args):
        raise AssertionError("a series was drawn before the input was checked")

    if argv not in OVERFLOWING:
        monkeypatch.setattr(simulate_mod, "innovations", draw)
    line = argv.format(curve=curve, spec=spec, tmp=tmp_path, daily=tmp_path / "daily.csv",
                       monthly=tmp_path / "monthly.csv")
    code = main([*line.split(), "--output", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert needle in err[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "big.csv", "daily.csv", "huge.json", "inf.csv", "ir.csv", "long.csv", "monthly.csv",
        "nan.csv", "spec.json"]


@pytest.mark.parametrize(
    "argv, needles",
    [
        ("simulate --spec {spec} --n-max 3 --paths 1 --length 1000000000000 --seed 1",
         ["--length"]),
        ("fit --input {curve} --model squarewave --mu-fixed 0.02 --seed 1 "
         "--length 1000000000000", ["--length", "--paths"]),
        ("simulate --spec {spec} --n-max 400 --paths 100000000 --seed 1", ["--paths"]),
    ],
    ids=["simulate", "fit-squarewave", "simulate-paths"],
)
def test_oversized_draw_fails_naming_length(tmp_path, capsys, monkeypatch, argv, needles):
    curve = tmp_path / "ir.csv"
    curve.write_text("\n".join([",".join(IR_CURVE_HEADER), *CURVE_ROWS]) + "\n")
    spec = tmp_path / "spec.json"
    spec.write_text(IID_UNIT_SPEC)

    def stream(*args):
        raise AssertionError("a random stream was opened before the draw size was checked")

    monkeypatch.setattr(simulate_mod, "path_rng", stream)
    line = argv.format(curve=curve, spec=spec)
    code = main([*line.split(), "--output", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert all(needle in err[0] for needle in needles)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ir.csv", "spec.json"]


class TestFitCommand:
    def test_stationary_fit_through_cli(self, returns_csv, tmp_path):
        curve_path = tmp_path / "ir.csv"
        main(["ir", "--input", str(returns_csv), "--output", str(curve_path),
              "--p", "10", "--n-max", "43"])
        out = tmp_path / "fit.json"
        code = main(["fit", "--input", str(curve_path), "--output", str(out),
                     "--model", "stationary", "--k-lags", "3"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["settings"]["model"] == "stationary"
        assert set(payload["parameters"]) == {"mu", "rho_1", "rho_2", "rho_3"}
        # the input was built with weekly drift 0.004 over |r| mean-normalized
        # values, so the recovered drift must be positive and modest
        assert 0.0 < payload["parameters"]["mu"] < 1.0

    def test_squarewave_requires_seed_and_mu(self, tmp_path, returns_csv, capsys):
        curve_path = tmp_path / "ir.csv"
        main(["ir", "--input", str(returns_csv), "--output", str(curve_path),
              "--p", "10", "--n-max", "30"])
        code = main(["fit", "--input", str(curve_path), "--output", str(tmp_path / "f.json"),
                     "--model", "squarewave"])
        assert code == 1
        assert "--seed" in capsys.readouterr().err

    def test_squarewave_fit_through_cli(self, tmp_path):
        rng = np.random.default_rng(99)
        n = 700
        wave = 0.05 * np.where((np.arange(1, n + 1) % 120) <= 60, 1.0, -1.0)
        values = 0.02 + wave + rng.standard_normal(n)
        src = tmp_path / "returns.csv"
        write_series_csv(str(src), weekly_dates(dt.date(1995, 1, 6), n), values)
        curve_path = tmp_path / "ir.csv"
        main(["ir", "--input", str(src), "--output", str(curve_path),
              "--p", "10", "--n-max", "150"])
        out = tmp_path / "wavefit.json"
        code = main(["fit", "--input", str(curve_path), "--output", str(out),
                     "--model", "squarewave", "--mu-fixed", "0.02",
                     "--sigma-fixed", "1.0", "--t-min", "100", "--t-max", "140",
                     "--t-step", "20", "--paths", "10", "--seed", "3"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["settings"]["model"] == "squarewave"
        assert {"t_wave", "amplitude"} <= set(payload["parameters"])

    def test_simulate_and_fit_write_the_same_bytes_on_one_or_two_processes(self, tmp_path,
                                                                           monkeypatch):
        spec = tmp_path / "wave.json"
        spec.write_text(json.dumps({
            "variant": "square_wave_drift", "mu": 0.02, "amplitude": 0.05, "t_wave": 120,
            "noise": {"variant": "iid_gaussian", "mu": 0.0, "sigma": 1.0}}))
        rng = np.random.default_rng(98)
        wave = 0.05 * np.where((np.arange(1, 701) % 120) <= 60, 1.0, -1.0)
        src = tmp_path / "returns.csv"
        write_series_csv(str(src), weekly_dates(dt.date(1995, 1, 6), 700),
                         0.02 + wave + rng.standard_normal(700))
        curve = tmp_path / "ir.csv"
        assert main(["ir", "--input", str(src), "--output", str(curve), "--n-max", "150"]) == 0
        written = {}
        for workers in (1, 2):
            monkeypatch.setattr(strategy, "WORKERS", workers)
            out = tmp_path / str(workers)
            out.mkdir()
            # 120 paths of 700 are a block of 93 paths and one of 27
            assert main(["simulate", "--spec", str(spec), "--output", str(out / "mc.csv"),
                         "--n-max", "150", "--paths", "120", "--length", "700",
                         "--seed", "4"]) == 0
            assert main(["fit", "--input", str(curve), "--output", str(out / "fit.json"),
                         "--model", "squarewave", "--mu-fixed", "0.02", "--sigma-fixed", "1.0",
                         "--t-min", "100", "--t-max", "140", "--t-step", "20", "--paths", "10",
                         "--seed", "3"]) == 0
            written[workers] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert sorted(written[1]) == ["fit.json", "mc.csv"]
        assert written[2] == written[1]

    def test_squarewave_fit_of_averaged_curve_names_length(self, tmp_path, capsys):
        # samples counts regimes on an averaged curve, not payoffs
        rng = np.random.default_rng(5)
        n = 30 * 52
        drift = np.where(np.arange(n) < n // 2, 0.02, -0.015)
        src = tmp_path / "returns.csv"
        write_series_csv(str(src), weekly_dates(dt.date(1970, 1, 2), n),
                         drift + 0.02 * rng.standard_normal(n))
        curve_out = tmp_path / "avg.csv"
        assert main(["regimes", "--input", str(src), "--output", str(tmp_path / "r.csv"),
                     "--output-curve", str(curve_out), "--n-max", "43"]) == 0
        capsys.readouterr()
        out = tmp_path / "wavefit.json"
        code = main(["fit", "--input", str(curve_out), "--output", str(out),
                     "--model", "squarewave", "--mu-fixed", "0.02", "--seed", "1"])
        assert code == 1
        assert "--length" in capsys.readouterr().err
        assert not out.exists()


class TestLogging:
    def test_momir_log_env_controls_verbosity(self, tmp_path, returns_csv, monkeypatch, caplog):
        monkeypatch.setenv("MOMIR_LOG", "INFO")
        with caplog.at_level("INFO", logger="momir"):
            main(["ir", "--input", str(returns_csv), "--output", str(tmp_path / "o.csv"),
                  "--p", "10", "--n-max", "10"])
        assert any("mean |X|" in r.message for r in caplog.records)

    def test_default_level_suppresses_info(self, tmp_path, returns_csv, monkeypatch, caplog):
        monkeypatch.delenv("MOMIR_LOG", raising=False)
        main(["ir", "--input", str(returns_csv), "--output", str(tmp_path / "o.csv"),
              "--p", "10", "--n-max", "10"])
        assert not any("mean |X|" in r.message for r in caplog.records)


class TestTheoryCommand:
    def test_curve_csv(self, tmp_path):
        out = tmp_path / "theory.csv"
        code = main(["theory", "--output", str(out), "--mu", "0.1", "--variance", "1.0",
                     "--rho", "0.05,0.02", "--n-min", "1", "--n-max", "5"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,mean,variance,ir"
        assert len(lines) == 6

    def test_invalid_rho_rejected(self, tmp_path, capsys):
        code = main(["theory", "--output", str(tmp_path / "t.csv"), "--mu", "0",
                     "--variance", "1", "--rho", "1.5", "--n-max", "3"])
        assert code == 1
        assert "out of" in capsys.readouterr().err


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> dict[str, list[str]]:
    """README's `momir` command lines as argv, keyed by subcommand (and fit model)."""
    text = README.read_text(encoding="utf-8").replace("\\\n", " ")
    commands = {}
    for line in text.splitlines():
        if line.startswith("momir "):
            argv = shlex.split(line)[1:]
            key = argv[0]
            if key == "fit":
                key += " " + argv[argv.index("--model") + 1]
            commands[key] = argv
    return commands


class TestReadme:
    def test_walkthrough_runs_as_written(self, tmp_path, monkeypatch):
        commands = readme_commands()
        assert set(commands) == {
            "ingest", "ir", "regimes", "theory", "simulate", "fit stationary", "fit squarewave",
        }
        # 30 years of business days: drift regimes with MA(1) daily noise
        rng = np.random.default_rng(21)
        days = daily_dates(dt.date(1985, 1, 1), 30 * 261)
        drift = np.repeat(rng.normal(3e-4, 8e-4, 15), -(-len(days) // 15))[: len(days)]
        eps = rng.standard_normal(len(days) + 1)
        prices = 100.0 * np.exp(np.cumsum(drift + 0.01 * (eps[1:] + 0.3 * eps[:-1])))
        write_prices(tmp_path / "prices.csv", days, prices)
        monkeypatch.chdir(tmp_path)
        for key in ("ingest", "ir", "regimes", "theory"):
            assert main(commands[key]) == 0, key
        # the documented stationary fit has enough curve points for its parameters
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(commands["fit stationary"]) == 0
        assert not any("qualitative" in str(w.message) for w in caught)
        for name in ("returns.csv", "ir.csv", "regimes.csv", "avg_ir.csv", "fit.json",
                     "theory.csv"):
            assert (tmp_path / name).exists(), name
        # a full simulate or square-wave fit takes 15-35 s: parse them only
        parser = _build_parser()
        parser.parse_args(commands["simulate"])
        wave = parser.parse_args(commands["fit squarewave"])
        assert wave.input == parser.parse_args(commands["ir"]).output
