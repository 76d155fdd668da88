import contextlib
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from momir import fit as fit_mod
from momir.fit import (
    FitResult,
    fit_moment_profile,
    fit_square_wave,
    write_fit_result_json,
)
from momir.simulate import (
    IidGaussian, MovingAverage, SquareWaveDrift, ma_from_target_acf, mc_ir_curve,
)
from momir.strategy import IrCurve, ir_matrix
from momir.theory import MomentProfile, theoretical_ir


def curve_from_profile(profile: MomentProfile, n_max: int = 43) -> IrCurve:
    ns = np.arange(1, n_max + 1)
    irs = np.array([theoretical_ir(profile, int(n)).ir for n in ns])
    return IrCurve(
        n=ns, mean=np.zeros_like(irs), sd=np.ones_like(irs), ir=irs,
        stderr=np.full(len(ns), 0.1), samples=2000 - ns,
    )


def curve_from_mc(mc, stride: slice = slice(None)) -> IrCurve:
    ns = mc.n[stride]
    irs = mc.ir_mean[stride]
    return IrCurve(
        n=ns, mean=np.zeros_like(irs), sd=np.ones_like(irs), ir=irs,
        stderr=np.full(len(ns), 0.1), samples=np.full(len(ns), mc.length) - ns,
    )


# The regime-averaged IR curve (N = 1..43, 41 regimes) of a seeded 115-year
# daily price history, as `momir regimes` writes it, and the smallest rss that
# a restarted Nelder-Mead search found on it, after 6613 evaluations.
HISTORY_AVG_IR = (
    0.0688784679286225, 0.0435678224353584, 0.0383942738947378, 0.027895552050977,
    0.0240346121181276, 0.0150135951186628, 0.0149902571768932, 0.0100921711224563,
    0.0123426138936512, 0.0158157487259023, 0.0198847863212309, 0.0218102049212419,
    0.0141214225314677, 0.0235223645242158, 0.0180800520986297, 0.0126703343177818,
    0.0163844355799877, 0.0128320709181729, 0.0098963360314575, 0.00922134519039437,
    0.0146455328016855, 0.0195912817543655, 0.0138453379091676, 0.0140519084636988,
    0.0159764932157336, 0.0172670215517731, 0.0271791676227705, 0.0271381095080773,
    0.0281233340805099, 0.0352168830801771, 0.0437850564192113, 0.0514538640919439,
    0.0548577909005942, 0.0537519177604489, 0.058840624479257, 0.0539414434725651,
    0.0386800123901846, 0.0472670159443167, 0.0549764246141174, 0.0576669997495277,
    0.0600208698297449, 0.0561150413476433, 0.0688053059261362,
)
HISTORY_SIMPLEX_RSS = 0.004322656774753762


class TestFitMomentProfile:
    def test_reaches_the_simplex_minimum_on_a_history_curve(self):
        ns = np.arange(1, 44)
        irs = np.array(HISTORY_AVG_IR)
        curve = IrCurve(
            n=ns, mean=np.zeros(43), sd=np.ones(43), ir=irs,
            stderr=np.full(43, 0.1), samples=np.full(43, 41),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = fit_moment_profile(curve, k_lags=10, fixed_sd=1.5)
        assert result.converged
        assert result.rss <= HISTORY_SIMPLEX_RSS * (1 + 1e-12)
        assert result.rss == pytest.approx(float(np.sum((result.fitted_ir - irs) ** 2)), rel=1e-9)
        assert result.iterations < 1000


    def test_noiseless_round_trip_recovers_parameters(self):
        truth = MomentProfile(0.1, 2.25, (0.05,) + (0.0,) * 9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = fit_moment_profile(curve_from_profile(truth), k_lags=10, fixed_sd=1.5)
        assert result.converged
        assert result.parameters["mu"] == pytest.approx(0.1, abs=1e-4)
        assert result.parameters["rho_1"] == pytest.approx(0.05, abs=1e-4)
        for k in range(2, 11):
            assert abs(result.parameters[f"rho_{k}"]) < 1e-4
        assert result.rss < 1e-12

    def test_drift_only_curve_fits_near_zero_autocorrelation(self):
        truth = MomentProfile(0.12, 2.25)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = fit_moment_profile(curve_from_profile(truth), k_lags=5, fixed_sd=1.5)
        assert result.parameters["mu"] == pytest.approx(0.12, abs=1e-3)
        for k in range(1, 6):
            assert abs(result.parameters[f"rho_{k}"]) < 0.01

    def test_noisy_curve_residual_scale(self):
        rng = np.random.default_rng(0)
        truth = MomentProfile(0.1, 2.25, (0.06, 0.03))
        curve = curve_from_profile(truth)
        noise = 0.005 * rng.standard_normal(len(curve.n))
        noisy = IrCurve(
            n=curve.n, mean=curve.mean, sd=curve.sd, ir=curve.ir + noise,
            stderr=curve.stderr, samples=curve.samples,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = fit_moment_profile(noisy, k_lags=4, fixed_sd=1.5)
        # residual comparable to the injected noise level, not collapsed to 0
        assert result.rss <= float(noise @ noise)
        assert result.rss > 0.05 * float(noise @ noise)

    def test_overfit_warning_emitted(self):
        truth = MomentProfile(0.1, 2.25, (0.05,))
        with pytest.warns(UserWarning, match="qualitative"):
            fit_moment_profile(curve_from_profile(truth, n_max=43), k_lags=10, fixed_sd=1.5)

    def test_point_order_does_not_matter(self):
        truth = MomentProfile(0.08, 2.25, (0.04, 0.02))
        curve = curve_from_profile(truth, n_max=30)
        perm = np.random.default_rng(1).permutation(len(curve.n))
        shuffled = IrCurve(
            n=curve.n[perm], mean=curve.mean[perm], sd=curve.sd[perm],
            ir=curve.ir[perm], stderr=curve.stderr[perm], samples=curve.samples[perm],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = fit_moment_profile(curve, k_lags=3, fixed_sd=1.5)
            b = fit_moment_profile(shuffled, k_lags=3, fixed_sd=1.5)
        assert a.parameters == b.parameters

    def test_needs_enough_points(self):
        truth = MomentProfile(0.1, 2.25)
        with pytest.raises(ValueError, match="usable points"):
            fit_moment_profile(curve_from_profile(truth, n_max=8), k_lags=10)

    def test_result_no_worse_than_documented_start(self):
        truth = MomentProfile(0.1, 2.25, (0.05, 0.02))
        curve = curve_from_profile(truth, n_max=25)
        tail = float(np.mean(curve.ir[-5:]))
        start = MomentProfile(tail * 1.5, 2.25, (0.0, 0.0))
        start_rss = float(
            sum(
                (theoretical_ir(start, int(n)).ir - ir) ** 2
                for n, ir in zip(curve.n, curve.ir)
            )
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = fit_moment_profile(curve, k_lags=2, fixed_sd=1.5)
        assert result.rss <= start_rss
        assert result.rss <= 1e-10


@pytest.fixture(scope="module")
def empirical():
    spec = SquareWaveDrift(0.075, 0.15, 180, IidGaussian(0.0, 1.5))
    mc = mc_ir_curve(spec, (1, 400), paths=150, length=6068, seed=2024)
    return curve_from_mc(mc, stride=slice(3, 400, 8))


class TestFitSquareWave:
    def test_round_trip_recovers_period_and_amplitude(self, empirical):
        result = fit_square_wave(
            empirical, mu_fixed=0.075, sigma_fixed=1.5, noise_kind="iid",
            t_range=(140, 220, 10), paths=60, seed=99,
        )
        assert abs(result.parameters["t_wave"] - 180) <= 10
        assert abs(result.parameters["amplitude"] - 0.15) <= 0.2 * 0.15
        assert result.converged

    # The ma_targets search scores about 200 candidates, so it fits every
    # tenth lookback of the curve to stay fast.
    @pytest.mark.parametrize(
        "noise_kind, rows", [("iid", 1), ("ma_targets", 10)], ids=["iid", "ma_targets"]
    )
    def test_fitted_curve_is_the_monte_carlo_curve_of_the_fit(
        self, empirical, tmp_path, noise_kind, rows
    ):
        # The fit scores candidates on the same series builder that mc_ir_curve
        # uses, so its fitted curve is that curve, bit for bit.  For MA noise
        # this also pins the draw width: length plus the 20 extra innovations
        # of a 21-coefficient filter.
        columns = ("n", "mean", "sd", "ir", "stderr", "samples")
        curve = IrCurve(**{c: getattr(empirical, c)[::rows] for c in columns})

        def fit():
            return fit_square_wave(
                curve, mu_fixed=0.075, sigma_fixed=1.5, noise_kind=noise_kind,
                t_range=(180, 180, 10), paths=20, length=2000, seed=5,
            )

        result = fit()
        params = result.parameters
        if noise_kind == "iid":
            noise = IidGaussian(0.0, 1.5)
        else:
            targets = {lag: params[f"rho_{lag}"] for lag in (1, 20)}
            noise = MovingAverage(0.0, tuple(ma_from_target_acf(targets, 21)), 1.5)
        spec = SquareWaveDrift(0.075, params["amplitude"], params["t_wave"], noise)
        ns = result.fitted_n
        mc = mc_ir_curve(spec, (int(ns[0]), int(ns[-1])), paths=20, length=2000, seed=5)
        assert np.array_equal(result.fitted_ir, mc.ir_mean[ns - ns[0]])
        write_fit_result_json(str(tmp_path / "a.json"), result)
        write_fit_result_json(str(tmp_path / "b.json"), fit())
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_flat_truth_fits_amplitude_near_zero(self):
        spec = SquareWaveDrift(0.075, 0.0, 180, IidGaussian(0.0, 1.5))
        mc = mc_ir_curve(spec, (1, 300), paths=120, length=4000, seed=31)
        emp = curve_from_mc(mc, stride=slice(0, 300, 6))
        result = fit_square_wave(
            emp, mu_fixed=0.075, sigma_fixed=1.5, noise_kind="iid",
            t_range=(120, 240, 40), paths=60, seed=32,
        )
        assert abs(result.parameters["amplitude"]) < 0.02

    def test_ma_noise_kind_fits_targets(self):
        # light-budget smoke test of the correlated-noise branch
        from momir.simulate import MovingAverage, ma_from_target_acf

        coeffs = tuple(ma_from_target_acf({1: 0.05, 20: 0.08}, 21))
        spec = SquareWaveDrift(0.075, 0.15, 180, MovingAverage(0.0, coeffs, 1.5))
        mc = mc_ir_curve(spec, (1, 250), paths=80, length=3000, seed=41)
        emp = curve_from_mc(mc, stride=slice(0, 250, 10))
        result = fit_square_wave(
            emp, mu_fixed=0.075, sigma_fixed=1.5, noise_kind="ma_targets",
            t_range=(180, 180, 10), paths=40, seed=42,
        )
        assert "rho_1" in result.parameters and "rho_20" in result.parameters
        assert result.parameters["rho_1"] == pytest.approx(0.05, abs=0.05)

    def test_empty_grid_rejected(self, empirical):
        with pytest.raises(ValueError, match="period grid"):
            fit_square_wave(empirical, 0.075, 1.5, t_range=(200, 100, 10), seed=0)

    def test_budget_exhaustion_raises(self, empirical, monkeypatch):
        # The budget caps scored candidates inside a period cell, not whole cells;
        # each scored candidate is one call of the scorer, made in this process.
        scored = []
        scored_paths = fit_mod.scored_paths

        @contextlib.contextmanager
        def counting_scored_paths(*args, **kwargs):
            with scored_paths(*args, **kwargs) as run:
                def counting_run(candidate):
                    scored.append(candidate)
                    return run(candidate)

                yield counting_run

        monkeypatch.setattr(fit_mod, "MAX_EVALUATIONS", 3)
        monkeypatch.setattr(fit_mod, "scored_paths", counting_scored_paths)
        # three periods, as many as the budget admits
        with pytest.raises(RuntimeError, match="budget"):
            fit_square_wave(
                empirical, mu_fixed=0.075, sigma_fixed=1.5, t_range=(140, 160, 10),
                paths=20, seed=1,
            )
        assert len(scored) == 3

    @pytest.mark.parametrize("t_max", [20_100, 10**9, 10**30])
    def test_grid_over_the_budget_fails_before_it_is_built(self, empirical, t_max):
        # Each period scores at least one candidate, so 20000 periods from
        # t = 100 are the most a fit can finish; 10^30 is past len()'s range.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="--t-min 100, --t-max .* and --t-step 1 give"):
                fit_square_wave(empirical, 0.075, 1.5, t_range=(100, t_max, 1), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


    def test_overflow_names_the_path(self):
        # The second candidate scored overflows on path 239 alone (each path
        # checked alone); with two or more shards that is row 89 of the second.
        curve = curve_from_profile(MomentProfile(0.0, 1.0, (0.05,)), n_max=5)
        with pytest.raises(ValueError, match="payoff sd of row 239 at lookback 1 is inf"):
            fit_square_wave(curve, mu_fixed=0.0, sigma_fixed=2.1e76, t_range=(100, 100, 10),
                            paths=300, length=500, seed=1)


class TestSquareWaveLength:
    def test_inferred_from_consistent_sample_counts(self):
        curve = curve_from_profile(MomentProfile(0.075, 2.25), n_max=20)
        result = fit_square_wave(
            curve, mu_fixed=0.075, sigma_fixed=1.5, t_range=(100, 100, 10), paths=4, seed=0,
        )
        assert result.settings["length"] == 2000

    def test_regime_counts_do_not_give_a_length(self):
        curve = curve_from_profile(MomentProfile(0.075, 2.25), n_max=43)
        averaged = IrCurve(
            n=curve.n, mean=curve.mean, sd=curve.sd, ir=curve.ir,
            stderr=curve.stderr, samples=np.full(len(curve.n), 43),
        )
        with pytest.raises(ValueError, match="--length"):
            fit_square_wave(averaged, mu_fixed=0.075, sigma_fixed=1.5, seed=0)

    def test_needs_two_payoffs_at_the_longest_lookback(self):
        curve = curve_from_profile(MomentProfile(0.075, 2.25), n_max=43)
        with pytest.raises(ValueError, match="fewer than two payoffs"):
            fit_square_wave(curve, mu_fixed=0.075, sigma_fixed=1.5, seed=0, length=44)


def test_fit_result_json_rejects_nan(tmp_path):
    result = FitResult(
        parameters={"t_wave": 180.0, "amplitude": 0.1}, rss=float("nan"), iterations=1,
        converged=True, fitted_n=[43], fitted_ir=[float("nan")],
    )
    path = tmp_path / "fit.json"
    with pytest.raises(ValueError):
        write_fit_result_json(str(path), result)
    assert not path.exists()


def test_fit_result_json_round_trip(tmp_path):
    result = FitResult(
        parameters={"mu": 0.1, "rho_1": 0.05},
        rss=1.5e-9,
        iterations=321,
        converged=True,
        fitted_n=[1, 2, 3],
        fitted_ir=[0.01, 0.02, 0.03],
        settings={"model": "stationary"},
    )
    path = tmp_path / "fit.json"
    write_fit_result_json(str(path), result)
    payload = json.loads(path.read_text())
    assert payload["parameters"]["mu"] == 0.1
    assert payload["converged"] is True
    assert payload["fitted"]["n"] == [1, 2, 3]
    assert payload["settings"]["model"] == "stationary"
