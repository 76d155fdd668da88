import math
import tracemalloc

import numpy as np
import pytest

from momir import theory
from momir.theory import (
    MAX_THEORY_N,
    MomentProfile,
    realizability_violation,
    theoretical_ir,
    theory_curve,
    write_theory_curve_csv,
)

from oracles import (
    eq_mean_literal,
    eq_variance_literal,
    mean_with_se,
    sample_strategy_payoffs,
    variance_with_se,
    zero_drift_ir_literal,
)

PROFILES = [
    (0.0, 1.0, ()),
    (0.3, 0.7, ()),
    (0.0, 1.0, (0.05, 0.02)),
    (0.2, 2.25, (0.1, 0.05, 0.02)),
    (0.05, 0.5, (-0.08, 0.04, -0.02, 0.01, -0.005)),
]


class TestMomentProfile:
    def test_rejects_non_positive_variance(self):
        with pytest.raises(ValueError, match="variance"):
            MomentProfile(0.0, 0.0)

    def test_rejects_autocorrelation_out_of_range(self):
        with pytest.raises(ValueError, match="lag 2"):
            MomentProfile(0.0, 1.0, (0.1, 1.2))

    def test_rejects_unrealizable_sequence(self):
        # rho(1)=0.9 with rho(2)=-0.9 cannot come from any process
        with pytest.raises(ValueError, match="not realizable"):
            MomentProfile(0.0, 1.0, (0.9, -0.9))

    def test_boundary_sequence_allowed(self):
        MomentProfile(0.0, 1.0, (1.0,))  # perfectly persistent is still valid

    # Sequences scaled so the smallest eigenvalue of their Toeplitz matrix
    # lies within 2.3e-15 of -PSD_TOLERANCE.  An eigenvalue gate and a
    # Cholesky factorization of R + tol*I judged each of them differently,
    # so a fit candidate could pass its gate and then fail construction.
    EDGE_SEQUENCES = [
        (0.3573242350443403, 0.06567454092582005, 0.0263180032195689, -0.3090099955097716,
         -0.26416395990534586, 0.021904891443060077, 0.17526034246165217,
         0.39068246743657337, -0.18519022495265364, -0.06001159379096654),
        (-0.3012757768044186, 0.001533563130210503, -0.001870581253489711,
         -0.31348900755792763, 0.03657955584163542, -0.0629898552259393,
         -0.0556372351493843, -0.012182567417053862, 0.09898722467687776,
         0.22990565382279873),
    ]

    @pytest.mark.parametrize("rho", EDGE_SEQUENCES)
    def test_edge_sequence_judged_by_the_fit_predicate(self, rho):
        accepted = realizability_violation(rho) == 0.0
        try:
            MomentProfile(0.0, 1.0, rho)
        except ValueError as exc:
            assert "not realizable" in str(exc)
            assert not accepted
        else:
            assert accepted


class TestExpectedReturn:
    def test_reduces_to_squared_drift(self):
        p = MomentProfile(0.5, 1.0)
        for n in (1, 3, 17):
            assert theoretical_ir(p, n).mean == 0.25

    def test_single_lag(self):
        p = MomentProfile(0.0, 2.0, (0.1,))
        assert theoretical_ir(p, 1).mean == pytest.approx(0.2, abs=1e-15)

    def test_zero_everything(self):
        p = MomentProfile(0.0, 1.0)
        assert all(theoretical_ir(p, n).mean == 0.0 for n in range(1, 10))

    @pytest.mark.parametrize("mu,variance,rho", PROFILES)
    def test_matches_literal_formula(self, mu, variance, rho):
        p = MomentProfile(mu, variance, rho)
        for n in (1, 2, 3, 7, 12):
            assert theoretical_ir(p, n).mean == pytest.approx(
                eq_mean_literal(mu, variance, rho, n), rel=1e-14, abs=1e-16
            )


class TestStrategyVariance:
    def test_iid_zero_drift(self):
        p = MomentProfile(0.0, 1.5)
        for n in (1, 2, 5):
            assert theoretical_ir(p, n).variance == pytest.approx(1.5**2 / n, rel=1e-15)

    def test_iid_with_drift_closed_form(self):
        mu, v = 0.3, 0.7
        p = MomentProfile(mu, v)
        for n in (1, 4, 9):
            want = (v * v + mu * mu * v) / n + mu * mu * v
            assert theoretical_ir(p, n).variance == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("mu,variance,rho", PROFILES)
    def test_matches_literal_double_sums(self, mu, variance, rho):
        p = MomentProfile(mu, variance, rho)
        for n in (1, 2, 3, 7, 12, 43, 400):
            assert theoretical_ir(p, n).variance == pytest.approx(
                eq_variance_literal(mu, variance, rho, n), rel=1e-13
            )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_sampling_oracle(self, n):
        mu, variance, rho = 0.2, 2.25, (0.1, 0.05, 0.02)
        pays = sample_strategy_payoffs(mu, variance, rho, n, samples=400_000, seed=100 + n)
        mc_mean, se_mean = mean_with_se(pays)
        mc_var, se_var = variance_with_se(pays)
        p = MomentProfile(mu, variance, rho)
        assert abs(theoretical_ir(p, n).mean - mc_mean) < 3 * se_mean
        assert abs(theoretical_ir(p, n).variance - mc_var) < 3 * se_var


class TestTheoreticalIr:
    def test_zero_profile_gives_zero_ir(self):
        p = MomentProfile(0.0, 1.0)
        assert all(theoretical_ir(p, n).ir == 0.0 for n in range(1, 20))

    def test_case1_consistency_is_exact(self):
        p = MomentProfile(0.17, 1.3)
        case1 = theory_curve(MomentProfile(0.17, 1.3), range(1, 51))[2]
        for n in range(1, 51):
            assert theoretical_ir(p, n).ir == case1[n - 1]

    def test_case2_consistency(self):
        rho = (0.05, 0.02, -0.01)
        p = MomentProfile(0.0, 3.0, rho)
        for n in range(1, 51):
            want = zero_drift_ir_literal(rho, n)
            assert theoretical_ir(p, n).ir == pytest.approx(want, rel=1e-13)

    def test_scale_invariance_of_ir(self):
        rho = (0.1, 0.05)
        base = MomentProfile(0.1, 1.0, rho)
        for k in (0.5, 2.0, 7.0):
            scaled = MomentProfile(k * 0.1, k * k * 1.0, rho)
            for n in (1, 3, 10):
                assert theoretical_ir(scaled, n).mean == pytest.approx(
                    k * k * theoretical_ir(base, n).mean, rel=1e-10
                )
                assert theoretical_ir(scaled, n).variance == pytest.approx(
                    k**4 * theoretical_ir(base, n).variance, rel=1e-10
                )
                assert theoretical_ir(scaled, n).ir == pytest.approx(
                    theoretical_ir(base, n).ir, rel=1e-10
                )


class TestCase1:
    # The drift-only limit: the closed form at zero autocorrelation.
    def test_zero_drift(self):
        assert theory_curve(MomentProfile(0.0, 1.0), [5])[2][0] == 0.0

    def test_unit_point(self):
        ir = theory_curve(MomentProfile(1.0, 1.0), [1])[2][0]
        assert ir == pytest.approx(1 / math.sqrt(3), abs=1e-15)

    def test_large_n_limit(self):
        ir = theory_curve(MomentProfile(0.4, 2.0), [10_000_000])[2][0]
        assert ir == pytest.approx(0.4 / math.sqrt(2.0), rel=1e-5)

    def test_strictly_increasing_in_n(self):
        values = theory_curve(MomentProfile(0.1, 1.0), range(1, 1001))[2]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestCase2:
    # The zero-drift limit: the closed form at mu = 0 against literal sums.
    def test_zero_correlation(self):
        irs = theory_curve(MomentProfile(0.0, 1.0), range(1, 10))[2]
        assert all(ir == zero_drift_ir_literal((), n) == 0.0 for n, ir in enumerate(irs, 1))

    def test_worked_example_value(self):
        # frozen from the sampling oracle (see acceptance suite)
        rho = (0.05, 0.02)
        library = theory_curve(MomentProfile(0.0, 1.0, rho), [2])[2][0]
        for ir in (library, zero_drift_ir_literal(rho, 2)):
            assert ir == pytest.approx(0.0482483322304473, abs=1e-15)

    def test_variance_plays_no_role(self):
        rho = (0.05, 0.02)
        irs = [theoretical_ir(MomentProfile(0.0, v, rho), 4).ir for v in (0.1, 1.0, 100.0)]
        assert max(irs) - min(irs) < 1e-12
        assert irs[0] == pytest.approx(zero_drift_ir_literal(rho, 4), rel=1e-13)


def test_theory_csv_shape(tmp_path):
    write_theory_curve_csv(str(tmp_path / "theory.csv"), MomentProfile(0.1, 1.0, (0.05,)), (1, 3))
    lines = (tmp_path / "theory.csv").read_text().strip().splitlines()
    assert lines[0] == "n,mean,variance,ir"
    assert len(lines) == 4
    assert lines[1].startswith("1,")


@pytest.mark.parametrize("n_range", [(1, MAX_THEORY_N + 1), (MAX_THEORY_N + 1, 10**12)])
def test_oversized_theory_range_fails_before_it_is_built(tmp_path, n_range):
    # A 10^12-row curve would take terabytes; the check must read only the ends.
    out = tmp_path / "theory.csv"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="--n-max"):
            write_theory_curve_csv(str(out), MomentProfile(0.1, 1.0, (0.05,)), n_range)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert not out.exists()


def padded_rho_sums(autocorr, ns):
    """S1 and S2 from cumulative sums zero-padded to the largest lookback, as once computed."""
    rho = np.zeros(int(ns.max()))
    k = min(len(autocorr), len(rho))
    rho[:k] = autocorr[:k]
    c0 = np.concatenate([[0.0], np.cumsum(rho)])
    c1 = np.concatenate([[0.0], np.cumsum(np.arange(1, len(rho) + 1) * rho)])
    return c0[ns], 2.0 * (ns * c0[ns - 1] - c1[ns - 1])


@pytest.mark.parametrize("autocorr", [(), (-0.0,), (-0.0, -0.0, -0.0), (0.3, -0.0, 0.1),
                                      (0.1, -0.1), (0.2, -0.15, 0.05, 0.0, -0.0)])
@pytest.mark.parametrize("mu", [0.4, -0.0, 0.0])
def test_sums_clipped_at_the_stored_horizon_keep_the_padded_bits(monkeypatch, mu, autocorr):
    # Lookbacks below, at and past K = len(autocorr); adding the padded
    # zeros may flip the sign of a zero sum, but no output may change.
    k = len(autocorr)
    ns = np.array(sorted({1, 2, max(k - 1, 1), max(k, 1), k + 1, k + 2, 40}))
    profile = MomentProfile(mu, 2.0, autocorr)
    got = theory_curve(profile, ns)
    monkeypatch.setattr(theory, "_rho_sums", padded_rho_sums)
    for have, want in zip(got, theory_curve(profile, ns)):
        assert have.tobytes() == want.tobytes()


def test_closed_form_at_a_huge_lookback_allocates_nothing_of_its_size():
    # zero-padded sums took 305 MiB at N = 10^7, with no autocorrelation stored
    tracemalloc.start()
    try:
        mean, variance, ir = theory_curve(MomentProfile(0.4, 2.0), [10_000_000])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert ir[0] == pytest.approx(0.4 / math.sqrt(2.0), rel=1e-5)  # the drift-only limit


def test_theory_range_up_to_the_cap_is_written(tmp_path):
    out = tmp_path / "theory.csv"
    n_range = (MAX_THEORY_N - 2, MAX_THEORY_N)
    write_theory_curve_csv(str(out), MomentProfile(0.1, 1.0, (0.05,)), n_range)
    lines = out.read_text().strip().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["65534", "65535", "65536"]
