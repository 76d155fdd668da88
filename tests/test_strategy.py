import math
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momir import strategy
from momir.fit import fit_square_wave
from momir.simulate import IidGaussian, SquareWaveDrift, mc_ir_curve
from momir.strategy import (
    DEGENERATE_SD_RTOL,
    IR_BLOCK_ELEMENTS,
    IrCurve,
    _ir_stats,
    annualize,
    block_rows,
    backtest,
    ir_curve,
    ir_matrix,
    ir_standard_error,
    read_ir_curve_csv,
    write_ir_curve_csv,
)
from momir.theory import MomentProfile, ir_case1, ir_case2, theory_curve

from oracles import double_loop_backtest


class TestBacktest:
    # With a unit return after index t, the last payoff is the window mean m_t(N) itself.
    def test_constant_series(self):
        assert backtest([2.5] * 6 + [1.0], 4)[-1] == 2.5

    def test_symmetric_cancellation(self):
        assert backtest([1.0, -1.0, 1.0], 2)[-1] == 0.0

    def test_arithmetic_mean_at_last_index(self):
        assert backtest([0.5, 1.5, -1.0, 1.0], 3)[-1] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_rejects_short_history(self):
        with pytest.raises(ValueError, match="too short"):
            backtest([1.0, 2.0, 3.0], 3)

    def test_zero_series_gives_zero_payoffs(self):
        assert np.array_equal(backtest([0.0] * 5, 2), np.zeros(3))

    def test_unit_series_n1(self):
        assert np.array_equal(backtest([1.0, 1.0, 1.0, 1.0], 1), [1.0, 1.0, 1.0])
        # payoff k settles on series index N + k
        x = [3.0, -1.0, 2.0, 5.0, -4.0]
        assert np.array_equal(backtest(x, 2), [(x[k] + x[k + 1]) / 2 * x[k + 2] for k in range(3)])

    def test_alternating_series_n1_loses_every_period(self):
        x = np.tile([1.0, -1.0], 8)
        assert np.array_equal(backtest(x, 1), -np.ones(15))

    def test_payoff_count(self):
        x = np.random.default_rng(0).standard_normal(40)
        for n in (1, 7, 39):
            assert len(backtest(x, n)) == 40 - n

    def test_matches_double_loop(self):
        x = np.random.default_rng(1).standard_normal(300)
        for n in (1, 5, 26):
            got = backtest(x, n)
            want = double_loop_backtest(x, n)
            assert np.max(np.abs(got - want)) < 1e-13

    @given(st.lists(st.floats(min_value=-3, max_value=3), min_size=4, max_size=50))
    @settings(max_examples=80, deadline=None)
    def test_sign_antisymmetry(self, values):
        x = np.asarray(values)
        n = min(3, len(x) - 1)
        assert np.array_equal(backtest(x, n), backtest(-x, n))

    def test_shift_equivariance(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(60)
        extended = np.concatenate([rng.standard_normal(10), x])
        base = backtest(x, 5)
        shifted = backtest(extended, 5)
        # payoffs settling on shared timestamps are identical
        assert np.allclose(shifted[10:], base, rtol=0, atol=1e-12)

    def test_series_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            backtest([1.0, 2.0], 2)


class TestIrCurve:
    def test_zero_mean_gaussian_ir_statistically_zero(self):
        hits = total = 0
        for seed in range(10):
            x = np.random.default_rng(seed).standard_normal(2000)
            curve = ir_curve(x, (1, 20))
            ann = curve.ir_annualized
            hits += int(np.sum(np.abs(ann) < 3 * curve.stderr))
            total += len(curve)
        assert hits / total >= 0.95

    def test_strong_drift_ir_rises_toward_case1_limit(self):
        rng = np.random.default_rng(3)
        mu, sigma = 0.5, 1.0
        x = mu + sigma * rng.standard_normal(60_000)
        curve = ir_curve(x, (1, 60))
        assert curve.ir[-1] > curve.ir[9] > curve.ir[0]
        want = ir_case1(mu, sigma**2, 60)
        assert curve.ir[-1] == pytest.approx(want, rel=0.05)

    def test_ma_correlated_series_hump(self):
        # zero-drift MA noise with positive short-lag autocorrelation: the IR
        # peaks at a small lookback and decays, tracking the closed form
        rng = np.random.default_rng(4)
        coeffs = np.array([1.0, 0.6, 0.4, 0.25, 0.15, 0.1])
        eta = rng.standard_normal(200_000 + len(coeffs) - 1)
        x = np.convolve(eta, coeffs, mode="valid")
        curve = ir_curve(x, (1, 40))
        rho = [
            float(np.dot(coeffs[:-k], coeffs[k:]) / np.dot(coeffs, coeffs))
            for k in range(1, len(coeffs))
        ]
        peak_n = int(curve.n[np.nanargmax(curve.ir)])
        theory_peak = max(range(1, 41), key=lambda n: ir_case2(rho, n))
        assert abs(peak_n - theory_peak) <= 3
        assert curve.ir[-1] < np.nanmax(curve.ir)
        want = [ir_case2(rho, int(n)) for n in curve.n]
        assert np.allclose(curve.ir, want, atol=0.02)

    def test_degenerate_payoffs_flagged_not_infinite(self):
        x = np.concatenate([np.zeros(6), [1.0]])
        curve = ir_curve(x, (1, 3))
        assert np.all(~np.isfinite(curve.ir[:2]) | (curve.sd[:2] > 0))
        assert not np.any(np.isinf(curve.ir))

    def test_single_payoff_at_max_lookback(self):
        x = np.random.default_rng(9).standard_normal(10)
        curve = ir_curve(x, (9, 9))
        assert curve.samples[0] == 1
        assert math.isnan(curve.ir[0])

    def test_mean_matches_direct_average(self):
        x = np.random.default_rng(11).standard_normal(500)
        curve = ir_curve(x, (4, 4))
        want = double_loop_backtest(x, 4)
        assert curve.mean[0] == pytest.approx(want.mean(), abs=1e-13)
        assert curve.samples[0] == len(want)

    def test_range_validation(self):
        with pytest.raises(ValueError, match="max lookback"):
            ir_curve(np.ones(5), (1, 5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_fails_naming_its_index(self, bad):
        x = np.random.default_rng(50).standard_normal(100)
        x[50] = bad
        with pytest.raises(ValueError, match=f"index 50 is {bad}; an IR curve needs finite"):
            ir_curve(x, (1, 5))

    def test_long_lookbacks_match_double_loop_oracle(self):
        # prefix-sum window means under drift, far beyond the windows above
        x = 0.15 + np.random.default_rng(13).standard_normal(6000)
        curve = ir_curve(x, (1, 400))
        for n in (1, 2, 43, 200, 400):
            want = double_loop_backtest(x, n)
            mean, sd = want.mean(), want.std(ddof=1)
            got = curve.n == n
            assert curve.mean[got][0] == pytest.approx(mean, rel=1e-12)
            assert curve.sd[got][0] == pytest.approx(sd, rel=1e-12)
            assert curve.ir[got][0] == pytest.approx(mean / sd, rel=1e-12)


class TestIrMatrix:
    def test_matches_per_series_curve(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 400)) + 0.05
        ns = np.array([1, 3, 10, 50])
        got = ir_matrix(x, ns)
        for row in range(4):
            curve = ir_curve(x[row], (1, 50))
            want = curve.ir[np.isin(curve.n, ns)]
            assert np.allclose(got[row], want, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_fails_naming_its_index(self, bad):
        x = np.random.default_rng(50).standard_normal((3, 100))
        x[2, 50] = bad
        with pytest.raises(ValueError,
                           match=f"index 50 of row 2 is {bad}; an IR matrix needs finite"):
            ir_matrix(x, [1, 5])

    @pytest.mark.parametrize("length, blocks", [(2000, 3), (IR_BLOCK_ELEMENTS + 100, 3)],
                             ids=["multi-row-blocks", "one-row-blocks"])
    def test_block_boundaries_are_bit_identical_to_row_by_row_curves(self, length, blocks):
        step = block_rows(length)
        rows = blocks * step + (step // 2 + 1 if step > 1 else 0)
        x = np.random.default_rng(31).standard_normal((rows, length)) + 0.02
        # undefined IRs on either side of a block boundary: a zero row and a
        # constant row (degenerate sd), plus one payoff at lookback length - 1
        x[step - 1] = 0.0
        x[min(step, rows - 1)] = 0.5
        ns = [1, 2, 7, 40, length - 2, length - 1]
        got = ir_matrix(x, ns)
        want = np.array([[ir_curve(row, (n, n)).ir[0] for n in ns] for row in x])
        assert np.isnan(want).any() and not np.isnan(want).all()
        np.testing.assert_array_equal(got, want)


def direct_payoffs(x, n):
    """Payoffs formed in one expression, as (prefix[n:] - prefix[:-n]) / n * x[n:]."""
    prefix = np.concatenate([np.zeros(x.shape[:-1] + (1,)), np.cumsum(x[..., :-1], axis=-1)],
                            axis=-1)
    return (prefix[..., n:] - prefix[..., :-n]) / n * x[..., n:]


def numpy_stats(x, ns):
    """Mean, sample sd and IR of directly formed payoffs, by np.mean and np.std(ddof=1)."""
    pays = [direct_payoffs(x, n) for n in ns]
    mean = np.stack([np.mean(p, axis=1) for p in pays], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        sd = np.stack([np.std(p, axis=1, ddof=1) for p in pays], axis=1)
        defined = (sd > 0.0) & (sd > DEGENERATE_SD_RTOL * np.abs(mean))
        ir = np.where(defined, mean / sd, np.nan)
    return mean, sd, ir


class TestIrKernel:
    """The kernel's statistics are np.mean / np.std(ddof=1) bit for bit."""

    @pytest.mark.parametrize("rows, length",
                             [(5, 1001), (1, 4000), (2 * block_rows(2000) + 3, 2000)],
                             ids=["odd-length", "one-row", "ragged-last-block"])
    @pytest.mark.filterwarnings("ignore:Degrees of freedom")
    def test_bit_identical_to_numpy_mean_and_std(self, rows, length):
        x = np.random.default_rng(41).standard_normal((rows, length)) + 0.03
        if rows >= 3:
            x[1] = 0.0
            x[-1] = 0.5
        # one payoff (m = 1) at length - 1 and two payoffs at length - 2
        ns = np.array([1, 2, 13, length // 3, length - 2, length - 1])
        mean, sd, ir = _ir_stats(x, ns)
        want_mean, want_sd, want_ir = numpy_stats(x, ns)
        np.testing.assert_array_equal(mean, want_mean)
        np.testing.assert_array_equal(sd, want_sd)
        np.testing.assert_array_equal(ir, want_ir)
        assert np.isnan(sd[:, -1]).all() and np.isnan(ir[:, -1]).all()
        assert not np.isnan(sd[:, -2]).any()
        if rows >= 3:
            assert np.isnan(ir[1]).all() and np.isnan(ir[-1]).all()

    def test_backtest_is_the_direct_expression(self):
        x = np.random.default_rng(43).standard_normal(999) + 0.1
        for n in (1, 2, 52, 400, 998):
            np.testing.assert_array_equal(backtest(x, n), direct_payoffs(x, n))


@pytest.fixture
def pool_entries(monkeypatch):
    """Each entry to the kernel's pool, on a fresh pool that is shut down afterwards."""
    entries = []
    make_pool = strategy._pool

    def counting_pool():
        entries.append(strategy.WORKERS)
        return make_pool()

    monkeypatch.setattr(strategy, "_POOL", None)
    monkeypatch.setattr(strategy, "_pool", counting_pool)
    yield entries
    if strategy._POOL is not None:
        strategy._POOL.shutdown()


class TestIrKernelWorkers:
    """Worker k scores lookbacks k, k + WORKERS, ...: the same bits at any worker count."""

    # 7 rows in blocks of 3 (a ragged last block of one row) and 11 lookbacks;
    # or one-row blocks and 2 lookbacks, fewer than 3 or 5 workers.  Both
    # include one payoff (m = 1) at N = 300 and a zero row and a constant row.
    @pytest.mark.parametrize("block_elements, ns", [
        (3 * 301, [1, 2, 3, 5, 8, 13, 21, 34, 50, 299, 300]),
        (32, [2, 300]),
    ], ids=["ragged-last-block", "fewer-lookbacks-than-workers"])
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    @pytest.mark.filterwarnings("ignore:Degrees of freedom")
    def test_bit_identical_to_one_worker_and_numpy(self, monkeypatch, pool_entries,
                                                   block_elements, ns, workers):
        monkeypatch.setattr(strategy, "IR_BLOCK_ELEMENTS", block_elements)
        x = np.random.default_rng(71).standard_normal((7, 301)) + 0.03
        x[2] = 0.0
        x[3] = 0.5
        ns = np.array(ns)
        monkeypatch.setattr(strategy, "WORKERS", 1)
        one = _ir_stats(x, ns)
        assert not pool_entries
        monkeypatch.setattr(strategy, "WORKERS", workers)
        # switch threads as often as the interpreter allows, so that two
        # workers writing the same cell or buffer would show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = _ir_stats(x, ns)
        finally:
            sys.setswitchinterval(interval)
        assert bool(pool_entries) == (workers > 1)
        for have, ref, want in zip(got, one, numpy_stats(x, ns)):
            np.testing.assert_array_equal(have, ref)
            np.testing.assert_array_equal(have, want)
        assert np.isnan(got[2][2:4]).all() and np.isnan(got[1][:, -1]).all()

    def test_monte_carlo_curve_and_square_wave_fits_match_one_worker(self, monkeypatch,
                                                                     pool_entries):
        spec = SquareWaveDrift(0.075, 0.15, 180, IidGaussian(0.0, 1.5))

        def run():
            mc = mc_ir_curve(spec, (1, 43), paths=25, length=2000, seed=3)
            curve = IrCurve(n=mc.n, mean=np.zeros(43), sd=np.ones(43), ir=mc.ir_mean,
                            stderr=np.full(43, 0.1), samples=2000 - mc.n)
            fits = [fit_square_wave(curve, mu_fixed=0.075, sigma_fixed=1.5, noise_kind=kind,
                                    t_range=(180, 180, 10), paths=20, length=2000, seed=5)
                    for kind in ("iid", "ma_targets")]
            return mc, fits

        monkeypatch.setattr(strategy, "WORKERS", 1)
        mc_one, fits_one = run()
        assert not pool_entries
        monkeypatch.setattr(strategy, "WORKERS", 2)
        mc_two, fits_two = run()
        assert pool_entries
        np.testing.assert_array_equal(mc_two.ir_mean, mc_one.ir_mean)
        np.testing.assert_array_equal(mc_two.ir_se, mc_one.ir_se)
        for two, one in zip(fits_two, fits_one):
            assert (two.parameters, two.rss, two.iterations) == (one.parameters, one.rss,
                                                                 one.iterations)
            np.testing.assert_array_equal(two.fitted_ir, one.fitted_ir)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_scores_on_its_own_pool(self, monkeypatch, pool_entries):
        # the child inherits the parent's pool object but none of its threads
        monkeypatch.setattr(strategy, "WORKERS", 2)
        x = np.random.default_rng(73).standard_normal((20, 2000))
        ns = np.arange(1, 44)
        want = ir_matrix(x, ns)
        assert pool_entries
        pid = os.fork()
        if pid == 0:
            os._exit(0 if np.array_equal(ir_matrix(x, ns), want, equal_nan=True) else 3)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.01)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish scoring within 60 s")
        assert os.waitstatus_to_exitcode(status) == 0

    def test_one_worker_and_regime_curves_start_no_thread(self, monkeypatch, pool_entries):
        rng = np.random.default_rng(72)
        threads = threading.active_count()
        monkeypatch.setattr(strategy, "WORKERS", 1)
        ir_matrix(rng.standard_normal((20, 2000)), np.arange(1, 44))
        # ten years of weekly returns at the regimes command's default N 1..43
        monkeypatch.setattr(strategy, "WORKERS", 2)
        ir_curve(rng.standard_normal(520), (1, 43))
        assert not pool_entries and strategy._POOL is None
        assert threading.active_count() == threads


class TestAnnualize:
    def test_worked_value(self):
        assert annualize(0.0422) == pytest.approx(0.304, abs=1e-3)

    def test_zero(self):
        assert annualize(0.0) == 0.0

    def test_direct(self):
        assert annualize(0.1) == pytest.approx(0.1 * math.sqrt(52), abs=1e-15)

    def test_standard_error_rule(self):
        assert ir_standard_error(117) == pytest.approx(1.3067, abs=5e-4)


class TestIrStandardErrorCoverage:
    def test_iid_band_undercovers_long_lookbacks_under_drift(self):
        # stderr assumes iid payoffs; overlapping windows under drift correlate
        # them, so the cross-path IR spread outgrows the iid rule at long N.
        mu, sigma, length = 0.075, 1.5, 6068
        ns = np.array([1, 4, 13, 52, 200, 400])
        x = mu + sigma * np.random.default_rng(7).standard_normal((400, length))
        got = ir_matrix(x, ns)
        want = theory_curve(MomentProfile(mu, sigma**2), ns)[2]
        iid_sd = 1.0 / np.sqrt(length - ns)
        ratio = dict(zip(ns, got.std(axis=0, ddof=1) / iid_sd))
        coverage = dict(zip(ns, (np.abs(got - want) <= 1.96 * iid_sd).mean(axis=0)))
        assert 0.9 <= ratio[1] <= 1.1
        assert ratio[200] > 1.05 and ratio[400] > 1.05
        assert coverage[200] < 0.94


class TestIrCurveCsv:
    def test_round_trip_with_undefined_entries(self, tmp_path):
        curve = IrCurve(
            n=[1, 2],
            mean=[0.1, 0.0],
            sd=[0.5, math.nan],
            ir=[0.2, math.nan],
            stderr=[1.0, 1.1],
            samples=[99, 98],
        )
        path = tmp_path / "curve.csv"
        write_ir_curve_csv(str(path), curve)
        text = path.read_text()
        assert text.splitlines()[0] == "n,mean,sd,ir,ir_annualized,stderr,samples"
        assert ",,," in text.splitlines()[2]  # undefined ir columns stay empty
        back = read_ir_curve_csv(str(path))
        assert np.array_equal(back.n, curve.n)
        assert back.ir[0] == pytest.approx(0.2, abs=1e-12)
        assert math.isnan(back.ir[1])
