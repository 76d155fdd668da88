"""Acceptance suite: every release gate in one module, one line per gate.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-gate
PASS/FAIL lines with their measured values.  Gates that involve sampling use
fixed seeds, so the whole suite is deterministic.
"""

import math
import time
import warnings

import numpy as np

from momir.fit import fit_moment_profile, fit_square_wave
from momir.regimes import best_segmentation, detect_breakpoints
from momir.simulate import (
    IidGaussian,
    MovingAverage,
    SquareWaveDrift,
    ma_from_target_acf,
    mc_ir_curve,
)
from momir.strategy import IrCurve, annualize, backtest, ir_standard_error
from momir.theory import (
    MomentProfile,
    ir_case1,
    ir_case2,
    theoretical_ir,
)

from oracles import (
    brute_force_breaks,
    double_loop_backtest,
    ir_with_batch_se,
    mean_with_se,
    payoffs_from_correlated_normals,
    toeplitz_covariance,
    variance_with_se,
)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. Closed-form mean/variance vs the exact-sampling oracle over a fixed
#    battery of stationary profiles, 1e6 draws, within 3 MC standard errors.
# ---------------------------------------------------------------------------

BATTERY_RHO = [
    (),
    (0.05, 0.02),
    (0.1, 0.05, 0.02, 0.01, 0.005),
    (-0.08, 0.04, -0.02, 0.01, -0.005),
]
BATTERY_MU = (0.0, 0.05, 0.2)
BATTERY_V = (0.5, 1.0, 2.25)
BATTERY_N = (1, 2, 3, 5, 10)
ORACLE_SAMPLES = 1_000_000


def test_closed_form_moments_match_sampling_oracle():
    t0 = time.time()
    worst_z = 0.0
    worst_at = ""
    checks = 0
    for r_i, rho in enumerate(BATTERY_RHO):
        for n in BATTERY_N:
            corr = toeplitz_covariance(1.0, rho, n + 1)
            chol = np.linalg.cholesky(corr)
            rng = np.random.default_rng(510_000 + 97 * r_i + n)
            z = rng.standard_normal((ORACLE_SAMPLES, n + 1)) @ chol.T
            for mu in BATTERY_MU:
                for variance in BATTERY_V:
                    pays = payoffs_from_correlated_normals(z, mu, variance)
                    mc_mean, se_mean = mean_with_se(pays)
                    mc_var, se_var = variance_with_se(pays)
                    profile = MomentProfile(mu, variance, rho)
                    z_mean = abs(theoretical_ir(profile, n).mean - mc_mean) / se_mean
                    z_var = abs(theoretical_ir(profile, n).variance - mc_var) / se_var
                    checks += 2
                    for z_score, kind in ((z_mean, "mean"), (z_var, "var")):
                        if z_score > worst_z:
                            worst_z = z_score
                            worst_at = f"{kind} rho={rho} mu={mu} V={variance} N={n}"
    elapsed = time.time() - t0
    report(
        "closed-form moments vs sampling oracle",
        worst_z < 3.0 and elapsed < 300.0,
        f"{checks} checks, worst |z| = {worst_z:.2f} ({worst_at}), {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 2. Drift-only IR rises strictly with the lookback and reaches its
#    |mu|/sqrt(V) limit: within 0.01 of 0.1 by N = 1000 for mu=0.1, V=1.
# ---------------------------------------------------------------------------


def test_drift_only_ir_asymptote():
    values = np.array([ir_case1(0.1, 1.0, n) for n in range(1, 1001)])
    increasing = bool(np.all(np.diff(values) > 0.0))
    limit_gap = abs(values[-1] - 0.1)
    report(
        "drift-only IR asymptote",
        increasing and limit_gap <= 0.01,
        f"IR(1000) = {values[-1]:.5f}, |gap to 0.1| = {limit_gap:.5f} "
        f"({limit_gap / 0.1:.1%} relative), strictly increasing = {increasing}",
    )


# ---------------------------------------------------------------------------
# 3. The zero-drift IR does not depend on the process variance.
# ---------------------------------------------------------------------------


def test_zero_drift_ir_variance_independence():
    rho = (0.05, 0.02)
    worst = 0.0
    for n in range(1, 51):
        irs = [theoretical_ir(MomentProfile(0.0, v, rho), n).ir for v in (0.1, 1.0, 100.0)]
        worst = max(worst, max(irs) - min(irs), *(abs(x - ir_case2(rho, n)) for x in irs))
    report(
        "zero-drift IR variance independence",
        worst <= 1e-12,
        f"max spread across V in {{0.1, 1, 100}} and vs closed form = {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 4. Worked zero-drift example rho(1)=0.05, rho(2)=0.02, N=2: the closed form
#    and the sampling oracle agree; the sometimes-quoted 0.0422 does not match
#    either (the delta is recorded here and in the README); annualization maps
#    0.0422 to 0.304.
# ---------------------------------------------------------------------------


def test_zero_drift_worked_example_against_oracle():
    rho = (0.05, 0.02)
    formula = ir_case2(rho, 2)
    corr = toeplitz_covariance(1.0, rho, 3)
    z = np.random.default_rng(424242).standard_normal((ORACLE_SAMPLES, 3)) @ np.linalg.cholesky(corr).T
    pays = payoffs_from_correlated_normals(z, 0.0, 1.0)
    mc_ir, mc_se = ir_with_batch_se(pays)
    agree = abs(formula - mc_ir) < 3.0 * mc_se
    delta_quoted = formula - 0.0422
    ann = annualize(0.0422, 52)
    ann_ok = abs(ann - 0.304) <= 1e-3
    report(
        "zero-drift worked example vs oracle",
        agree and ann_ok,
        f"closed form {formula:.6f}, oracle {mc_ir:.6f} +- {mc_se:.6f}; "
        f"delta vs quoted 0.0422 = {delta_quoted:+.6f}; "
        f"annualize(0.0422, 52) = {ann:.4f}",
    )


# ---------------------------------------------------------------------------
# 5. The vectorized backtest equals a naive double-loop reference to 1e-12
#    payoff by payoff on a 10^4-point series.
# ---------------------------------------------------------------------------


def test_backtest_equals_double_loop():
    rng = np.random.default_rng(55)
    x = 0.05 + rng.standard_normal(10_000)
    worst = 0.0
    for n in (1, 5, 26, 52):
        got = backtest(x, n)
        want = double_loop_backtest(x, n)
        worst = max(worst, float(np.max(np.abs(got - want))))
    report(
        "backtest equals double-loop reference",
        worst <= 1e-12,
        f"max |payoff difference| over N in {{1, 5, 26, 52}} = {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 6. Breakpoint recovery: 100 seeded monthly series (length 360, 3 true
#    breaks, noise at half the slope step) recovered within +-8 samples in at
#    least 90 runs; noiseless two-piece data recovered exactly.  Under 60 s.
# ---------------------------------------------------------------------------


def _three_break_series(rng, n=360, min_gap=30, step=1.0, noise=0.5):
    while True:
        breaks = np.sort(rng.integers(min_gap, n - min_gap, size=3))
        if np.all(np.diff(breaks) >= min_gap):
            break
    slopes = np.empty(4)
    slopes[0] = rng.choice([-0.5, 0.5])
    for i in range(1, 4):
        slopes[i] = slopes[i - 1] + step * rng.choice([-1.0, 1.0])
    bounds = [0, *breaks.tolist(), n]
    trend = np.empty(n)
    level = 0.0
    for s in range(4):
        seg = np.arange(bounds[s + 1] - bounds[s], dtype=float)
        trend[bounds[s] : bounds[s + 1]] = level + slopes[s] * seg
        level = trend[bounds[s + 1] - 1] + slopes[s]
    return trend + noise * step * rng.standard_normal(n), breaks


def test_breakpoint_recovery_battery():
    t0 = time.time()
    hits = 0
    for trial in range(100):
        rng = np.random.default_rng(7000 + trial)
        y, true_breaks = _three_break_series(rng)
        seg = detect_breakpoints(y, min_segment=12, max_breaks=6)
        got = np.asarray(seg.breakpoints)
        if len(got) == 3 and np.all(np.abs(got - true_breaks) <= 8):
            hits += 1
    # noiseless kink: the apex sample fits either adjoining line, so the
    # break lands on the kink or one sample after it, with zero residual
    y2 = np.r_[np.arange(40.0), 39.0 - np.arange(1.0, 41.0)]
    seg2 = detect_breakpoints(y2, min_segment=5, max_breaks=4)
    exact = seg2.breakpoints in ((39,), (40,)) and seg2.rss < 1e-16
    elapsed = time.time() - t0
    report(
        "breakpoint recovery battery",
        hits >= 90 and exact and elapsed < 60.0,
        f"{hits}/100 trials within +-8; noiseless kink at {seg2.breakpoints} "
        f"(rss {seg2.rss:.1e}); {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. The segmentation dynamic program equals exhaustive search on a fixed
#    battery of 50 short series with up to 2 breaks.
# ---------------------------------------------------------------------------


def test_dp_matches_exhaustive_search():
    mismatches = []
    for case in range(50):
        rng = np.random.default_rng(31_000 + case)
        n = int(rng.integers(32, 61))
        n_breaks = 1 + case % 2
        y = np.cumsum(rng.standard_normal(n)) + 0.3 * np.arange(n)
        seg = best_segmentation(y, n_breaks, min_segment=8)
        breaks, sse = brute_force_breaks(y, n_breaks, min_segment=8)
        same = seg.breakpoints == breaks and math.isclose(seg.rss, sse, rel_tol=1e-9, abs_tol=1e-9)
        if not same:
            mismatches.append((case, seg.breakpoints, breaks))
    report(
        "dynamic program equals exhaustive search",
        not mismatches,
        f"50 cases, mismatches: {mismatches or 'none'}",
    )


# ---------------------------------------------------------------------------
# 8. The square-wave growth model produces a statistically significant
#    interior oscillation of the Monte Carlo IR curve over N in [1, 400];
#    the flat-growth control does not.  Under 10 minutes.
# ---------------------------------------------------------------------------


def _best_max_then_min(ir: np.ndarray, se: np.ndarray):
    """Largest (max - later min) margin over the 3-sigma threshold, interior only."""
    extrema = []
    for i in range(1, len(ir) - 1):
        if ir[i] > ir[i - 1] and ir[i] > ir[i + 1]:
            extrema.append(("max", i))
        elif ir[i] < ir[i - 1] and ir[i] < ir[i + 1]:
            extrema.append(("min", i))
    best = None
    for a, (kind_a, i) in enumerate(extrema):
        if kind_a != "max":
            continue
        for kind_b, j in extrema[a + 1 :]:
            if kind_b != "min":
                continue
            diff = ir[i] - ir[j]
            threshold = 3.0 * math.hypot(se[i], se[j])
            margin = diff - threshold
            if best is None or margin > best[0]:
                best = (margin, i + 1, j + 1, diff, threshold)
    return best


def test_square_wave_ir_oscillation():
    t0 = time.time()
    seed = 20260810
    wave = SquareWaveDrift(0.075, 0.15, 180, IidGaussian(0.0, 1.5))
    curve = mc_ir_curve(wave, (1, 400), paths=500, length=6068, seed=seed)
    found = _best_max_then_min(curve.ir_mean, curve.ir_se)
    flat = SquareWaveDrift(0.075, 0.0, 180, IidGaussian(0.0, 1.5))
    control = mc_ir_curve(flat, (1, 400), paths=500, length=6068, seed=seed)
    found_control = _best_max_then_min(control.ir_mean, control.ir_se)
    elapsed = time.time() - t0
    ok = (
        found is not None
        and found[0] > 0.0
        and (found_control is None or found_control[0] <= 0.0)
        and elapsed < 600.0
    )
    detail = (
        f"oscillating model: max at N={found[1]} minus min at N={found[2]} = "
        f"{found[3]:.4f} vs threshold {found[4]:.4f}; "
        f"control margin = {'none' if found_control is None else f'{found_control[0]:.4f}'}; "
        f"{elapsed:.0f}s"
    )
    report("square-wave IR oscillation", ok, detail)


# ---------------------------------------------------------------------------
# 9. Correlated (MA) noise targeting rho(1)=0.05 and rho(20)=0.08 lifts the
#    short-lookback IR of the square-wave model above the iid-noise variant.
# ---------------------------------------------------------------------------


def test_ma_noise_lifts_short_lookback_ir():
    seed = 314159
    coeffs = tuple(ma_from_target_acf({1: 0.05, 20: 0.08}, 21, variance=1.0))
    ma_spec = SquareWaveDrift(0.075, 0.15, 180, MovingAverage(0.0, coeffs, 1.5))
    iid_spec = SquareWaveDrift(0.075, 0.15, 180, IidGaussian(0.0, 1.5))
    ma_curve = mc_ir_curve(ma_spec, (1, 2), paths=500, length=6068, seed=seed)
    iid_curve = mc_ir_curve(iid_spec, (1, 2), paths=500, length=6068, seed=seed)
    diffs = ma_curve.ir_mean - iid_curve.ir_mean
    thresholds = 3.0 * np.hypot(ma_curve.ir_se, iid_curve.ir_se)
    ok = bool(np.all(diffs > thresholds))
    report(
        "correlated noise lifts short-lookback IR",
        ok,
        f"uplift at N=1: {diffs[0]:.4f} (> {thresholds[0]:.4f}), "
        f"N=2: {diffs[1]:.4f} (> {thresholds[1]:.4f})",
    )


# ---------------------------------------------------------------------------
# 10. Fit round trips: the stationary fitter recovers a noiseless profile to
#     1e-4; the square-wave fitter recovers the period within +-10 and the
#     amplitude within +-20% from a simulator-generated curve, fresh seeds.
# ---------------------------------------------------------------------------


def test_fit_round_trips():
    truth = MomentProfile(0.1, 2.25, (0.05,) + (0.0,) * 9)
    ns = np.arange(1, 44)
    irs = np.array([theoretical_ir(truth, int(n)).ir for n in ns])
    curve = IrCurve(
        n=ns, mean=np.zeros_like(irs), sd=np.ones_like(irs), ir=irs,
        stderr=np.full(len(ns), 0.1), samples=2000 - ns,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stationary = fit_moment_profile(curve, k_lags=10, fixed_sd=1.5)
    recovered = np.array(
        [stationary.parameters["mu"]]
        + [stationary.parameters[f"rho_{k}"] for k in range(1, 11)]
    )
    target = np.array([0.1, 0.05] + [0.0] * 9)
    stationary_err = float(np.max(np.abs(recovered - target)))

    wave = SquareWaveDrift(0.075, 0.15, 180, IidGaussian(0.0, 1.5))
    mc = mc_ir_curve(wave, (1, 400), paths=150, length=6068, seed=91)
    stride = slice(3, 400, 8)
    empirical = IrCurve(
        n=mc.n[stride], mean=np.zeros_like(mc.ir_mean[stride]),
        sd=np.ones_like(mc.ir_mean[stride]), ir=mc.ir_mean[stride],
        stderr=np.full(len(mc.n[stride]), 0.1),
        samples=np.full(len(mc.n[stride]), mc.length) - mc.n[stride],
    )
    sq = fit_square_wave(
        empirical, mu_fixed=0.075, sigma_fixed=1.5, noise_kind="iid",
        t_range=(140, 220, 10), paths=60, seed=17,
    )
    t_err = abs(sq.parameters["t_wave"] - 180.0)
    a_err = abs(sq.parameters["amplitude"] - 0.15)
    ok = stationary_err <= 1e-4 and t_err <= 10.0 and a_err <= 0.2 * 0.15
    report(
        "fit round trips",
        ok,
        f"stationary max parameter error = {stationary_err:.2e}; square wave "
        f"T = {sq.parameters['t_wave']:.0f} (err {t_err:.0f}), "
        f"A = {sq.parameters['amplitude']:.4f} (err {a_err:.4f})",
    )


# ---------------------------------------------------------------------------
# 11. The annualized IR standard-error rule 1.96*sqrt(52/weeks) reproduces a
#     47-row reference calibration within 0.05 on at least 40 rows.
# ---------------------------------------------------------------------------

SE_CALIBRATION = [
    (117, 1.33), (79, 1.62), (135, 1.24), (113, 1.36), (78, 1.63), (113, 1.36),
    (87, 1.55), (151, 1.17), (92, 1.50), (83, 1.58), (118, 1.33), (78, 1.63),
    (136, 1.24), (110, 1.38), (79, 1.62), (83, 1.58), (100, 1.44), (118, 1.33),
    (79, 1.62), (92, 1.50), (78, 1.63), (126, 1.28), (152, 1.17), (162, 1.13),
    (127, 1.28), (88, 1.54), (109, 1.38), (88, 1.54), (204, 1.01), (105, 1.41),
    (86, 1.56), (109, 1.38), (83, 1.58), (88, 1.54), (87, 1.55), (83, 1.58),
    (109, 1.38), (148, 1.19), (92, 1.50), (140, 1.22), (136, 1.24), (131, 1.26),
    (83, 1.58), (162, 1.13), (261, 0.89), (79, 1.62), (193, 1.04),
]


def test_ir_standard_error_calibration():
    inside = sum(
        1 for weeks, se in SE_CALIBRATION
        if abs(ir_standard_error(weeks, 52.0) - se) <= 0.05
    )
    example = ir_standard_error(117, 52.0)
    report(
        "IR standard-error calibration",
        inside >= 40 and abs(example - 1.33) <= 0.05,
        f"{inside}/47 rows within 0.05; weeks=117 -> {example:.3f} (reference 1.33)",
    )
