import math

import numpy as np
import pytest

from bellcal import (
    ClickKind,
    SourceParams,
    expected_doubles_count,
    expected_rate,
    p_double,
    p_ent,
    p_single,
    poisson_pmf,
    xi,
)


def r_single_closed(eta, lam):
    # closed forms from summing the Poisson series exactly
    return 4.0 * (
        math.exp(-lam * eta * (3.0 - eta) / 2.0) - math.exp(-lam * eta * (2.0 - eta))
    )


def r_double_closed(eta, lam):
    return 1.0 - 2.0 * math.exp(-lam * eta) + math.exp(-lam * eta * (2.0 - eta))


def r_ent_closed(eta, lam):
    return lam * eta * eta * math.exp(-lam * eta * (2.0 - eta))


class TestPoissonPmf:
    def test_explicit_value(self):
        assert poisson_pmf(2, 1.5) == pytest.approx(1.5**2 * math.exp(-1.5) / 2.0, rel=1e-14)

    def test_zero_lambda(self):
        assert poisson_pmf(0, 0.0) == 1.0
        assert poisson_pmf(3, 0.0) == 0.0

    def test_normalization(self):
        lam = 0.7
        total = sum(poisson_pmf(k, lam) for k in range(60))
        assert total == pytest.approx(1.0, abs=1e-14)

    def test_large_k_no_overflow(self):
        value = poisson_pmf(2000, 5.0)
        assert 0.0 <= value < 1e-300 or value == 0.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            poisson_pmf(2, -0.1)
        with pytest.raises(ValueError):
            poisson_pmf(-1, 1.0)


class TestClickProbabilities:
    def test_single_pair_values(self):
        eta = 0.1134
        assert p_single(eta, 1) == pytest.approx(2.0 * eta * (1.0 - eta), rel=1e-14)
        assert p_double(eta, 1) == pytest.approx(eta * eta, abs=1e-15)
        assert p_ent(eta, 1) == pytest.approx(eta * eta, abs=1e-15)

    def test_two_pair_values(self):
        # independently computed from the defining sums
        assert p_single(0.1134, 2) == pytest.approx(0.326231476189819, rel=1e-12)
        assert p_double(0.1134, 2) == pytest.approx(0.04577051186739356, rel=1e-12)
        assert p_ent(0.1134, 2) == pytest.approx(
            2 * 0.1134**2 * (1 - 0.1134) ** 2, rel=1e-14
        )

    @pytest.mark.parametrize("k", [1, 2, 5, 17])
    def test_perfect_efficiency(self, k):
        assert p_single(1.0, k) == 0.0
        assert p_double(1.0, k) == 1.0

    @pytest.mark.parametrize("func", [p_single, p_double, p_ent])
    def test_zero_efficiency(self, func):
        assert func(0.0, 3) == 0.0

    @pytest.mark.parametrize("func", [p_single, p_double, p_ent])
    def test_zero_pairs_rejected(self, func):
        with pytest.raises(ValueError):
            func(0.5, 0)

    @pytest.mark.parametrize("func", [p_single, p_double, p_ent])
    def test_eta_out_of_range_rejected(self, func):
        with pytest.raises(ValueError):
            func(-0.1, 2)
        with pytest.raises(ValueError):
            func(1.1, 2)

    def test_single_sum_matches_binomial_identity(self):
        # the explicit j-sum and the two-power form must agree
        for eta in (0.02, 0.1134, 0.5, 0.93):
            for k in (1, 2, 3, 8, 40):
                q = 1.0 - eta
                closed = 4.0 * q**k * ((1.0 - eta / 2.0) ** k - q**k)
                assert p_single(eta, k) == pytest.approx(closed, rel=1e-12, abs=1e-300)

    def test_probabilities_bounded(self):
        rng = np.random.default_rng(81)
        for eta in rng.uniform(0.01, 1.0, 25):
            for k in (1, 2, 7, 30):
                for func in (p_single, p_double, p_ent):
                    assert 0.0 <= func(float(eta), k) <= 1.0

    def test_large_k_single_stable(self):
        # float overflow in the intermediate binomials must not occur
        value = p_single(0.3, 5000)
        assert 0.0 <= value <= 1.0


class TestExpectedRate:
    @pytest.mark.parametrize("kind", list(ClickKind))
    def test_zero_power(self, kind):
        assert expected_rate(SourceParams(0.4, 0.0), kind) == 0.0

    @pytest.mark.parametrize("eta", [0.05, 0.1134, 0.5, 1.0])
    @pytest.mark.parametrize("lam", [0.01, 0.0849, 0.3, 2.0])
    def test_matches_closed_forms(self, eta, lam):
        params = SourceParams(eta, lam)
        assert expected_rate(params, ClickKind.SINGLE) == pytest.approx(
            r_single_closed(eta, lam), rel=1e-9, abs=1e-12
        )
        assert expected_rate(params, ClickKind.DOUBLE) == pytest.approx(
            r_double_closed(eta, lam), rel=1e-9, abs=1e-12
        )
        assert expected_rate(params, ClickKind.ENTANGLED) == pytest.approx(
            r_ent_closed(eta, lam), rel=1e-9, abs=1e-12
        )

    def test_double_rate_monotone(self):
        lams = np.linspace(0.0, 2.0, 40)
        for eta in (0.05, 0.3, 0.9):
            rates = [expected_rate(SourceParams(eta, float(l)), ClickKind.DOUBLE) for l in lams]
            assert all(b >= a for a, b in zip(rates, rates[1:]))
        etas = np.linspace(0.02, 1.0, 40)
        for lam in (0.01, 0.3):
            rates = [expected_rate(SourceParams(float(e), lam), ClickKind.DOUBLE) for e in etas]
            assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_counts_scale_with_duration_and_frequency(self):
        params = SourceParams(0.1134, 0.0849, pulse_freq_hz=8.0e7)
        rate = expected_rate(params, ClickKind.DOUBLE)
        assert expected_doubles_count(params, 100.0) == pytest.approx(
            8.0e7 * 100.0 * rate, rel=1e-12
        )
        slower = SourceParams(0.1134, 0.0849, pulse_freq_hz=4.0e7)
        assert expected_doubles_count(slower, 10.0) == pytest.approx(
            0.05 * expected_doubles_count(params, 100.0), rel=1e-12
        )

    def test_counts_at_lowest_power_run(self):
        # independently computed model values at the run-7 operating point
        params = SourceParams(0.1134, 0.0036)
        singles = 8.0e7 * 1e4 * expected_rate(params, ClickKind.SINGLE)
        doubles = expected_doubles_count(params, 1e4)
        assert singles == pytest.approx(578719446.3, rel=1e-6)
        assert doubles == pytest.approx(37139436.4, rel=1e-6)
        # the model lands within 1% of the recorded doubles; the first-order
        # eta estimate leaves a ~2% singles mismatch at this lowest power
        assert abs(doubles - 36888729) / 36888729 < 0.01
        assert abs(singles - 590756887) / 590756887 < 0.025

    def test_duration_must_be_positive(self):
        with pytest.raises(ValueError):
            expected_doubles_count(SourceParams(0.5, 0.1), 0.0)
        with pytest.raises(ValueError, match="duration_s"):
            expected_doubles_count(SourceParams(0.5, 0.1), 10**400)


class TestClosedFormsMatchPerK:
    """expected_rate's closed forms against the paper's per-k formulas."""

    @staticmethod
    def k_sum(func, eta, lam):
        k_max = int(lam + 20.0 * math.sqrt(lam)) + 40
        return math.fsum(poisson_pmf(k, lam) * func(eta, k) for k in range(1, k_max + 1))

    @pytest.mark.parametrize("eta", [0.011, 0.05, 0.1134, 0.5, 0.93, 1.0])
    @pytest.mark.parametrize("lam", [1e-8, 1e-4, 0.0036, 0.0849, 0.3, 2.0, 9.0])
    def test_rates_match_pmf_weighted_sums(self, eta, lam):
        params = SourceParams(eta, lam)
        for kind, func in (
            (ClickKind.SINGLE, p_single),
            (ClickKind.DOUBLE, p_double),
            (ClickKind.ENTANGLED, p_ent),
        ):
            want = self.k_sum(func, eta, lam)
            got = expected_rate(params, kind)
            assert abs(got - want) <= 1e-10 * abs(want), (kind, got, want)

    @pytest.mark.parametrize("eta", [0.011, 0.1134, 1.0])
    def test_finite_at_the_bracket_ceiling(self, eta):
        params = SourceParams(eta, float(2**20))
        rates = {kind: expected_rate(params, kind) for kind in ClickKind}
        assert all(math.isfinite(rate) and 0.0 <= rate <= 1.0 for rate in rates.values())
        assert rates[ClickKind.DOUBLE] == pytest.approx(1.0)


class TestXi:
    def test_reference_value(self):
        assert xi(0.1134) == pytest.approx(2.0 - 0.1134**2, abs=1e-12)

    def test_limits(self):
        assert xi(1.0) == pytest.approx(1.0, abs=1e-12)
        assert xi(1e-3) == pytest.approx(2.0, abs=1e-5)

    def test_matches_quadratic_form_on_grid(self):
        for eta in np.linspace(0.01, 1.0, 100):
            assert abs(xi(float(eta)) - (2.0 - eta * eta)) <= 1e-12

    def test_two_pair_identity(self):
        for eta in np.linspace(0.01, 1.0, 100):
            eta = float(eta)
            excess = (p_double(eta, 2) - p_ent(eta, 2)) / (eta * eta)
            assert abs(xi(eta) - excess) <= 1e-12

    def test_small_eta_does_not_cancel(self):
        assert xi(1e-4) == 2.0 - 1e-4 * 1e-4
        assert xi(1e-200) == 2.0

    def test_zero_eta_rejected(self):
        with pytest.raises(ValueError):
            xi(0.0)


class TestSourceParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SourceParams(-0.1, 0.1)
        with pytest.raises(ValueError):
            SourceParams(1.2, 0.1)
        with pytest.raises(ValueError):
            SourceParams(0.5, -0.1)
        with pytest.raises(ValueError):
            SourceParams(0.5, 0.1, pulse_freq_hz=0.0)
        # ints beyond float range used to construct, and visibility() then
        # raised OverflowError
        with pytest.raises(ValueError, match="lambda_mean"):
            SourceParams(0.1, 10**400)
        with pytest.raises(ValueError, match="pulse_freq_hz"):
            SourceParams(0.1, 0.1, pulse_freq_hz=10**400)
        assert SourceParams(np.float64(0.1), np.float64(0.1), np.float64(8e7)).lambda_mean == 0.1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            SourceParams(bad, 0.1)
        with pytest.raises(ValueError):
            SourceParams(0.5, bad)
        with pytest.raises(ValueError):
            SourceParams(0.5, 0.1, pulse_freq_hz=bad)

    def test_frozen(self):
        params = SourceParams(0.5, 0.1)
        with pytest.raises(AttributeError):
            params.eta = 0.6
