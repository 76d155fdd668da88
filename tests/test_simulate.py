import contextlib
import math
import os
import tracemalloc

import numpy as np
import pytest

from momir import simulate as simulate_mod
from momir import strategy
from momir.simulate import (
    IidGaussian,
    InfeasibleTargets,
    MovingAverage,
    SquareWaveDrift,
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
from momir.strategy import block_rows, ir_curve, ir_matrix
from momir.theory import MomentProfile, theory_curve

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
        path.write_text(
            '{"variant": "square_wave_drift", "mu": 0.075, "amplitude": 0.15, "t_wave": 180,\n'
            ' "noise": {"variant": "moving_average", "mu": 0.0,\n'
            '           "coefficients": [1.0, 0.05, 0.08], "sigma": 1.5}}\n'
        )
        assert load_process_spec(str(path)) == spec

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown process variant"):
            spec_from_dict({"variant": "levy_flight"})

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing field"):
            spec_from_dict({"variant": "iid_gaussian", "mu": 0.0})


def one_path(spec, length, seed):
    """Path 0 of a seeded run, built as every series is: ``innovations`` then ``series``."""
    return series(spec, innovations(spec, 1, length, seed)[0])


class TestGenerate:
    def test_deterministic_given_seed(self):
        spec = IidGaussian(0.1, 2.0)
        a = one_path(spec, 500, 42)
        b = one_path(spec, 500, 42)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, one_path(spec, 500, 43))

    def test_flat_wave_equals_iid_path_exactly(self):
        flat = SquareWaveDrift(0.1, 0.0, 50, IidGaussian(0.0, 1.5))
        iid = IidGaussian(0.1, 1.5)
        assert np.array_equal(one_path(flat, 400, 7), one_path(iid, 400, 7))

    def test_noiseless_wave_integrates_to_triangle(self):
        spec = SquareWaveDrift(0.0, 1.0, 20, IidGaussian(0.0, 0.0))
        series = one_path(spec, 200, 0)
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
        series = one_path(spec, 6000, 3)  # 300 whole periods
        # sgn(0) = +1 tilts each period's wave sum to +2, hence the 2A/T term
        assert abs(series.mean() - 0.075) < 3 * 1.5 / math.sqrt(6000) + 2 * 0.15 / 20

    def test_oversized_draw_fails_before_any_stream_opens(self, monkeypatch):
        def stream(*args):
            raise AssertionError("a random stream was opened before the draw size was checked")

        monkeypatch.setattr(simulate_mod, "path_rng", stream)
        # 21 MA coefficients draw 20 normals more than the series length
        spec = MovingAverage(0.0, (1.0,) * 21, 1.0)
        with pytest.raises(ValueError, match=r"1 x 16777226 standard normals .*--length$"):
            one_path(spec, simulate_mod.MAX_DRAW_ELEMENTS - 10, 1)

    def test_single_coefficient_ma_is_scaled_iid(self):
        ma = MovingAverage(0.0, (0.5,), 2.0)
        series = one_path(ma, 100_000, 11)
        assert abs(series.var() - 0.25 * 4.0) < 0.02

    def test_ma_sample_acf_matches_theory(self):
        coeffs = (1.0, 0.4, 0.0, 0.2)
        spec = MovingAverage(0.0, coeffs, 1.0)
        series = one_path(spec, 1_000_000, 21)
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
        coeffs = ma_from_target_acf({1: 0.0, 3: 0.0}, 5)
        assert coeffs[0] == 1.0
        assert np.allclose(coeffs[1:], 0.0, atol=1e-12)

    def test_sparse_long_lag_targets_round_trip(self):
        targets = {1: 0.05, 20: 0.08}
        coeffs = ma_from_target_acf(targets, 21)
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

    @pytest.fixture()
    def polishes(self, monkeypatch):
        """The argument tuples of every simplex polish; each polish still runs."""
        from scipy import optimize

        calls = []
        minimize = optimize.minimize

        def counted(*args, **kwargs):
            calls.append(args)
            return minimize(*args, **kwargs)

        monkeypatch.setattr(optimize, "minimize", counted)
        return calls

    def test_non_interacting_lags_return_the_warm_start_unpolished(self, monkeypatch):
        from scipy import optimize

        def refuse(*args, **kwargs):
            raise AssertionError("an exact warm start was polished")

        monkeypatch.setattr(optimize, "minimize", refuse)
        targets = {1: 0.05, 20: 0.08}
        coeffs = ma_from_target_acf(targets, 21)
        for lag, want in targets.items():
            assert theoretical_acf_of_ma(coeffs, lag) == pytest.approx(want, abs=1e-12)
        nonzero = np.flatnonzero(coeffs)
        assert nonzero.tolist() == [0, 1, 20]

    def test_interacting_lags_are_polished_to_tol(self, polishes):
        targets = {1: 0.12, 2: 0.07}
        coeffs = ma_from_target_acf(targets, 3)
        assert len(polishes) == 1
        for lag, want in targets.items():
            assert abs(theoretical_acf_of_ma(coeffs, lag) - want) <= 1e-6

    def test_feasible_targets_beyond_a_quarter_are_polished_to_tol(self, polishes):
        targets = {1: 0.4, 3: 0.4}
        assert sum(v * v for v in targets.values()) > 0.25
        coeffs = ma_from_target_acf(targets, 8)
        assert len(polishes) == 1
        for lag, want in targets.items():
            assert abs(theoretical_acf_of_ma(coeffs, lag) - want) <= 1e-6

    def test_infeasible_targets_beyond_a_quarter_are_polished_then_reported(self, polishes):
        with pytest.raises(InfeasibleTargets, match="lag 1"):
            ma_from_target_acf({1: 0.6}, 2)
        assert len(polishes) == 1


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
        case1 = theory_curve(MomentProfile(0.075, 1.5**2), [10, 50, 200])[2]
        for n, want in zip((10, 50, 200), case1):
            idx = n - 1
            assert abs(curve.ir_mean[idx] - want) < 3 * curve.ir_se[idx] + 2e-3

    def test_overflow_names_the_path(self):
        # Only path 239 overflows (each path checked alone); it is row 108 of
        # the block that starts at path 131 in one process, and row 89 of the
        # block that starts at path 150 on two.
        with pytest.raises(ValueError, match="payoff sd of row 239 at lookback 1 is inf"):
            mc_ir_curve(IidGaussian(0.0, 2.2e76), (1, 5), paths=300, length=500, seed=1)

    def test_reproducible_and_path_derived(self):
        spec = IidGaussian(0.0, 1.0)
        a = mc_ir_curve(spec, (1, 5), paths=8, length=300, seed=9)
        b = mc_ir_curve(spec, (1, 5), paths=8, length=300, seed=9)
        assert np.array_equal(a.ir_mean, b.ir_mean)
        # row k of the run's draw is path k's own stream, whichever block draws it
        eta = innovations(spec, 8, 300, 9)
        for k in range(8):
            np.testing.assert_array_equal(eta[k], innovations(spec, 1, 300, 9, first=k)[0])

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

    def test_path_blocks_give_the_one_shot_curve_bit_for_bit(self):
        spec = SquareWaveDrift(0.05, 0.1, 40, IidGaussian(0.0, 1.0))
        length = 2000
        paths = 3 * block_rows(length) + 5
        curve = mc_ir_curve(spec, (1, 20), paths=paths, length=length, seed=13)
        per_path = ir_matrix(series(spec, innovations(spec, paths, length, 13)), range(1, 21))
        np.testing.assert_array_equal(curve.ir_mean, per_path.mean(axis=0))
        np.testing.assert_array_equal(curve.ir_se, per_path.std(axis=0, ddof=1) / math.sqrt(paths))

    def test_paths_are_cut_between_the_shards(self, monkeypatch):
        # 200 paths of 2000 make 7 blocks of at most 32; the shards split the
        # paths, not the blocks, so each of 2 scores 100
        rows, parts = [], []
        sharded, fork_shard = simulate_mod.sharded, strategy._fork_shard

        def counting_sharded(work, n, width):
            rows.append(n)
            return sharded(work, n, width)

        def counting_fork(work, part, out, cpu):
            parts.append(part)
            return fork_shard(work, part, out, cpu)

        monkeypatch.setattr(strategy, "WORKERS", 2)
        monkeypatch.setattr(simulate_mod, "sharded", counting_sharded)
        monkeypatch.setattr(strategy, "_fork_shard", counting_fork)
        mc_ir_curve(IidGaussian(0.0, 1.0), (1, 3), paths=200, length=2000, seed=1)
        assert rows == [200]
        if hasattr(os, "fork"):
            assert parts == [slice(0, 100), slice(100, 200)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_caller_holds_the_per_path_table_once(self, monkeypatch, workers):
        # 20000 paths x 100 lookbacks make a 16 MB table, about 5 times what
        # one block of 546 paths of length 120 needs while it is scored
        paths, lookbacks = 20000, 100
        table = paths * lookbacks * 8
        monkeypatch.setattr(strategy, "WORKERS", workers)
        tables = []
        scored_paths = simulate_mod.scored_paths

        @contextlib.contextmanager
        def recording(*args):
            with scored_paths(*args) as score:
                def keep(spec):
                    tables.append(score(spec))
                    return tables[-1]

                yield keep

        monkeypatch.setattr(simulate_mod, "scored_paths", recording)
        tracemalloc.start()
        try:
            mc_ir_curve(IidGaussian(0.03, 1.0), (1, lookbacks), paths=paths, length=120, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [t.nbytes for t in tables] == [table]
        # tracemalloc does not see the children's shared table, so the caller
        # traces only what it adds; on one process it also scores, one block
        # at a time, into a table on its own heap
        assert peak <= (0.1 if workers > 1 and hasattr(os, "fork") else 1.3) * table

    def test_length_validation(self):
        with pytest.raises(ValueError, match="too short"):
            mc_ir_curve(IidGaussian(0.0, 1.0), (1, 50), paths=2, length=50, seed=0)

    @pytest.mark.parametrize("run", [
        lambda: mc_ir_curve(IidGaussian(0.0, 1.0), (1, 5_000_000), paths=2, length=100, seed=1),
        lambda: ir_curve(np.ones(100), (1, 5_000_000)),
    ], ids=["mc_ir_curve", "ir_curve"])
    def test_oversized_lookback_range_fails_before_it_is_built(self, run):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="too short for max lookback 5000000"):
                run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_mc_curve_csv_records_rng_metadata(tmp_path):
    curve = mc_ir_curve(IidGaussian(0.0, 1.0), (1, 3), paths=4, length=100, seed=1)
    write_mc_ir_curve_csv(str(tmp_path / "mc.csv"), curve)
    lines = (tmp_path / "mc.csv").read_text().splitlines()
    assert lines[0].startswith("# rng=Philox")
    assert lines[1] == "n,ir_mean,ir_mc_se,paths,length,seed"
    assert lines[2].endswith("4,100,1")
