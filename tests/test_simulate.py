import json
import math

import numpy as np
import pytest

from momir.simulate import (
    IidGaussian,
    InfeasibleTargets,
    MovingAverage,
    SquareWaveDrift,
    dump_process_spec,
    generate,
    innovations,
    load_process_spec,
    ma_from_target_acf,
    mc_ir_curve,
    series,
    spec_from_dict,
    square_wave,
    theoretical_acf_of_ma,
    write_mc_ir_curve_csv,
)
from momir.strategy import ir_curve
from momir.theory import ir_case1

from oracles import sample_acf


class TestSpecs:
    def test_sigma_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="sigma"):
            IidGaussian(0.0, -1.0)

    def test_square_wave_needs_zero_mean_noise(self):
        with pytest.raises(ValueError, match="zero mean"):
            SquareWaveDrift(0.1, 0.2, 100, IidGaussian(0.05, 1.0))

    def test_square_wave_minimum_period(self):
        with pytest.raises(ValueError, match="t_wave"):
            SquareWaveDrift(0.1, 0.2, 1, IidGaussian(0.0, 1.0))

    def test_ma_needs_coefficients(self):
        with pytest.raises(ValueError, match="coefficient"):
            MovingAverage(0.0, (), 1.0)

    def test_json_round_trip(self, tmp_path):
        spec = SquareWaveDrift(
            0.075, 0.15, 180, MovingAverage(0.0, (1.0, 0.05, 0.08), 1.5)
        )
        path = tmp_path / "spec.json"
        dump_process_spec(str(path), spec)
        assert load_process_spec(str(path)) == spec
        payload = json.loads(path.read_text())
        assert payload["variant"] == "square_wave_drift"
        assert payload["noise"]["variant"] == "moving_average"

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown process variant"):
            spec_from_dict({"variant": "levy_flight"})

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing field"):
            spec_from_dict({"variant": "iid_gaussian", "mu": 0.0})


class TestGenerate:
    def test_deterministic_given_seed(self):
        spec = IidGaussian(0.1, 2.0)
        a = generate(spec, 500, 42)
        b = generate(spec, 500, 42)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, generate(spec, 500, 43))

    def test_flat_wave_equals_iid_path_exactly(self):
        flat = SquareWaveDrift(0.1, 0.0, 50, IidGaussian(0.0, 1.5))
        iid = IidGaussian(0.1, 1.5)
        assert np.array_equal(generate(flat, 400, 7), generate(iid, 400, 7))

    def test_noiseless_wave_integrates_to_triangle(self):
        spec = SquareWaveDrift(0.0, 1.0, 20, IidGaussian(0.0, 0.0))
        series = generate(spec, 200, 0)
        cum = np.cumsum(series)
        # rises for half a period, falls for the other half
        assert cum[9] == pytest.approx(10.0)
        assert cum[19] == pytest.approx(2.0)  # sgn(0) = +1 at t = 10 and t = 20
        assert np.max(np.abs(series)) == 1.0

    def test_square_wave_sign_convention(self):
        t = np.arange(1, 41, dtype=float)
        w = square_wave(t, 20.0)
        assert w[9] == 1.0  # t = 10 = T/2 maps to +1
        assert w[19] == 1.0  # t = 20 = T maps to +1
        assert w[10] == -1.0
        assert np.all(np.abs(w) == 1.0)

    def test_square_wave_sample_mean_near_mu(self):
        spec = SquareWaveDrift(0.075, 0.15, 20, IidGaussian(0.0, 1.5))
        series = generate(spec, 6000, 3)  # 300 whole periods
        # sgn(0) = +1 tilts each period's wave sum to +2, hence the 2A/T term
        assert abs(series.mean() - 0.075) < 3 * 1.5 / math.sqrt(6000) + 2 * 0.15 / 20

    def test_single_coefficient_ma_is_scaled_iid(self):
        ma = MovingAverage(0.0, (0.5,), 2.0)
        series = generate(ma, 100_000, 11)
        assert abs(series.var() - 0.25 * 4.0) < 0.02

    def test_ma_sample_acf_matches_theory(self):
        coeffs = (1.0, 0.4, 0.0, 0.2)
        spec = MovingAverage(0.0, coeffs, 1.0)
        series = generate(spec, 1_000_000, 21)
        for lag in range(1, 6):
            want = theoretical_acf_of_ma(coeffs, lag)
            assert abs(sample_acf(series, lag) - want) < 0.005


class TestMaAcf:
    def test_lag_zero_is_one(self):
        assert theoretical_acf_of_ma((3.0, -1.0, 0.5), 0) == 1.0

    def test_two_equal_coefficients(self):
        assert theoretical_acf_of_ma((1.0, 1.0), 1) == pytest.approx(0.5)

    def test_cutoff_beyond_order(self):
        assert theoretical_acf_of_ma((1.0, 0.4), 2) == 0.0
        assert theoretical_acf_of_ma((1.0, 0.4), 7) == 0.0


class TestMaFromTargets:
    def test_single_lag_half_gives_equal_coefficients(self):
        coeffs = ma_from_target_acf({1: 0.5}, 2)
        assert coeffs[1] / coeffs[0] == pytest.approx(1.0, abs=1e-9)

    def test_zero_targets_give_single_coefficient(self):
        coeffs = ma_from_target_acf({1: 0.0, 3: 0.0}, 5, variance=2.25)
        assert coeffs[0] == pytest.approx(1.5, rel=1e-12)
        assert np.allclose(coeffs[1:], 0.0, atol=1e-12)

    def test_sparse_long_lag_targets_round_trip(self):
        targets = {1: 0.05, 20: 0.08}
        coeffs = ma_from_target_acf(targets, 21, variance=1.0)
        for lag, want in targets.items():
            assert theoretical_acf_of_ma(coeffs, lag) == pytest.approx(want, abs=1e-6)
        assert float(coeffs @ coeffs) == pytest.approx(1.0, rel=1e-12)

    def test_interacting_lags_round_trip(self):
        targets = {1: 0.12, 2: 0.07}
        coeffs = ma_from_target_acf(targets, 3)
        for lag, want in targets.items():
            assert theoretical_acf_of_ma(coeffs, lag) == pytest.approx(want, abs=1e-6)

    def test_unrealizable_target_reported(self):
        with pytest.raises(InfeasibleTargets, match="lag 1"):
            ma_from_target_acf({1: 0.6}, 2)


class TestMcIrCurve:
    def test_zero_drift_ir_statistically_zero(self):
        curve = mc_ir_curve(IidGaussian(0.0, 1.0), (1, 10), paths=50, length=3000, seed=5)
        # the per-path IR estimator carries a small -sqrt(N)/length bias
        # (its numerator is a sample-autocovariance average), hence the cushion
        assert np.all(np.abs(curve.ir_mean) < 3 * curve.ir_se + 2e-3)

    def test_drift_curve_matches_closed_form(self):
        curve = mc_ir_curve(
            IidGaussian(0.075, 1.5), (1, 200), paths=120, length=4000, seed=6
        )
        for n in (10, 50, 200):
            want = ir_case1(0.075, 1.5**2, n)
            idx = n - 1
            assert abs(curve.ir_mean[idx] - want) < 3 * curve.ir_se[idx] + 2e-3

    def test_reproducible_and_path_derived(self):
        spec = IidGaussian(0.0, 1.0)
        a = mc_ir_curve(spec, (1, 5), paths=8, length=300, seed=9)
        b = mc_ir_curve(spec, (1, 5), paths=8, length=300, seed=9)
        assert np.array_equal(a.ir_mean, b.ir_mean)
        # first path of the run equals a standalone single-path generation
        assert np.array_equal(
            generate(spec, 300, 9), np.asarray([row for row in [generate(spec, 300, 9)]])[0]
        )

    def test_per_path_engine_agrees_with_single_series_curve(self):
        spec = SquareWaveDrift(0.05, 0.1, 40, IidGaussian(0.0, 1.0))
        curve = mc_ir_curve(spec, (1, 30), paths=4, length=500, seed=12)
        # recompute path 2 individually through the public strategy API
        single = ir_curve(series(spec, innovations(spec, 3, 500, 12)[2]), (1, 30))
        per_path = np.vstack(
            [ir_curve(row, (1, 30)).ir for row in series(spec, innovations(spec, 4, 500, 12))]
        )
        assert np.allclose(per_path.mean(axis=0), curve.ir_mean, rtol=0, atol=1e-8)
        assert np.allclose(single.ir, per_path[2], rtol=0, atol=0)

    def test_length_validation(self):
        with pytest.raises(ValueError, match="too short"):
            mc_ir_curve(IidGaussian(0.0, 1.0), (1, 50), paths=2, length=50, seed=0)


def test_mc_curve_csv_records_rng_metadata(tmp_path):
    curve = mc_ir_curve(IidGaussian(0.0, 1.0), (1, 3), paths=4, length=100, seed=1)
    write_mc_ir_curve_csv(str(tmp_path / "mc.csv"), curve)
    lines = (tmp_path / "mc.csv").read_text().splitlines()
    assert lines[0].startswith("# rng=Philox")
    assert lines[1] == "n,ir_mean,ir_mc_se,paths,length,seed"
    assert lines[2].endswith("4,100,1")
