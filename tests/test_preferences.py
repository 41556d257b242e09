import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpttree import ValidationError, check_conditions, tk_distortion, tk_pathology_threshold
from cpttree.preferences import (
    Distortion,
    DistortionPair,
    PreferenceSpec,
    UtilityPair,
    coin_model_preferences,
    parse_preferences,
    tversky_kahneman_preferences,
)

# frozen from direct formula evaluation
TK_061_AT_08 = 0.6074392743239481
TK_069_AT_02_SCALED = 0.5783073002156126


class TestTkDistortion:
    def test_endpoints_exact(self):
        assert tk_distortion(0.61, 0.0) == 0.0
        assert tk_distortion(0.61, 1.0) == 1.0

    def test_identity_at_gamma_one_exact_on_grid(self):
        p = np.linspace(0.0, 1.0, 1001)
        assert np.array_equal(tk_distortion(1.0, p), p)

    def test_direct_evaluation_and_pathology_inequality(self):
        w = tk_distortion(0.61, 0.8)
        assert w == pytest.approx(TK_061_AT_08, abs=1e-15)
        assert w > 2.25 * tk_distortion(0.69, 0.2)
        assert 2.25 * tk_distortion(0.69, 0.2) == pytest.approx(TK_069_AT_02_SCALED, abs=1e-15)

    @pytest.mark.parametrize("gamma", [0.3, 0.61, 0.69, 1.0])
    def test_monotone_on_grid(self, gamma):
        p = np.linspace(0.0, 1.0, 1001)
        w = tk_distortion(gamma, p)
        assert np.all(np.diff(w) >= 0.0)
        assert np.all((w >= 0.0) & (w <= 1.0))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            tk_distortion(0.61, 1.5)
        with pytest.raises(ValidationError):
            tk_distortion(1.5, 0.5)


class TestCheckConditions:
    def test_simple_valid_gate(self):
        pref = PreferenceSpec(
            utility=UtilityPair.power(0.5, 1.0),
            distortion=DistortionPair(Distortion.identity(), Distortion.identity()),
        )
        report = check_conditions(pref)
        assert report.condition_a
        assert report.feasible_lambda_interval == (1.0, 2.0)
        assert report.chosen_lambda == 1.5

    def test_tk_calibration_fails_the_gate(self):
        report = check_conditions(tversky_kahneman_preferences())
        assert not report.condition_a  # 0.88 / 0.61 > 0.88
        assert report.feasible_lambda_interval is None
        assert report.tk_pathology_p is not None

    def test_strong_gain_side_fails_both_gates(self):
        pref = PreferenceSpec(
            utility=UtilityPair.power(0.9, 1.0),
            distortion=DistortionPair(Distortion.power(0.5), Distortion.identity()),
        )
        report = check_conditions(pref)
        assert not report.condition_a  # 0.9 / 0.5 = 1.8 > 1
        assert not report.condition_bulb

    @settings(max_examples=200, deadline=None)
    @given(
        ap=st.floats(0.05, 1.0),
        am=st.floats(0.05, 1.0),
        gp=st.floats(0.05, 1.0),
        gm=st.floats(0.05, 1.0),
    )
    # 1/gp and am/ap are adjacent doubles: no lambda lies strictly between them
    @example(ap=0.05, am=1.0, gp=0.05000000000000001, gm=1.0)
    def test_gate_iff_lambda_interval_nonempty(self, ap, am, gp, gm):
        pref = PreferenceSpec(
            utility=UtilityPair.power(ap, am),
            distortion=DistortionPair(Distortion.power(gp), Distortion.power(gm)),
        )
        report = check_conditions(pref)
        if report.condition_a:
            lo, hi = report.feasible_lambda_interval
            assert lo == 1.0 / gp and hi == am / ap and lo < hi
            assert lo < report.chosen_lambda < hi
        else:
            assert report.feasible_lambda_interval is None

    def test_explicit_lambda_validated(self):
        util = UtilityPair.power(0.25, 1.0)
        dist = DistortionPair(Distortion.power(0.5), Distortion.identity())
        PreferenceSpec(utility=util, distortion=dist, lam=3.0)  # interval (2, 4)
        with pytest.raises(ValidationError, match="lambda"):
            PreferenceSpec(utility=util, distortion=dist, lam=5.0)


class TestPathologyThreshold:
    def test_calibrated_parameters(self):
        p = tk_pathology_threshold(2.25, 0.61, 0.69)
        assert 0.783 <= p <= 0.793
        assert p == pytest.approx(0.78846142, abs=1e-6)

    def test_identity_symmetric(self):
        assert tk_pathology_threshold(1.0, 1.0, 1.0) == pytest.approx(0.5, abs=1e-9)

    def test_identity_k_two(self):
        # p = 2 (1 - p)  =>  p = 2/3
        assert tk_pathology_threshold(2.0, 1.0, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-9)


class TestEnvelopes:
    def test_power_family_envelopes_hold_with_equality_scale(self):
        util = UtilityPair.power(0.7, 0.9, k=2.25)
        x = np.logspace(-6, 6, 200)
        assert np.all(util.u_plus(x) <= util.k_plus * (x**util.alpha_plus + 1.0) + 1e-12)
        assert np.all(util.u_minus(x) >= util.k_minus * (x**util.alpha_minus - 1.0) - 1e-12)
        # the power family attains its envelope scale exactly
        assert np.allclose(util.u_plus(x), x**0.7)
        assert np.allclose(util.u_minus(x), 2.25 * x**0.9)

    @pytest.mark.parametrize("gamma", [0.3, 0.61, 0.69, 1.0])
    def test_tk_envelopes(self, gamma):
        d = Distortion.tk(gamma)
        p = np.linspace(0.0, 1.0, 2001)
        w = tk_distortion(gamma, p)
        assert np.all(w <= d.g_upper * p**d.gamma + 1e-12)
        assert np.all(w >= d.g_lower * p - 1e-12)

    def test_bad_custom_utility_refused(self):
        with pytest.raises(ValidationError, match="envelope"):
            UtilityPair(
                u_plus=lambda x: 3.0 * np.asarray(x) ** 0.5,  # exceeds k_plus = 1
                u_minus=lambda x: np.asarray(x),
                k_plus=1.0,
                alpha_plus=0.5,
                k_minus=1.0,
                alpha_minus=1.0,
            )

    def test_bad_custom_distortion_refused(self):
        wavy = lambda p: np.asarray(p) + 0.3 * np.sin(2.0 * np.pi * np.asarray(p))
        with pytest.raises(ValidationError, match="monotone"):
            DistortionPair(
                Distortion.custom(wavy, 1.0, g_upper=2.0),
                Distortion.identity(),
            )

    def test_distortion_endpoints_enforced(self):
        with pytest.raises(ValidationError, match="w\\(0\\)=0"):
            DistortionPair(
                Distortion.custom(lambda p: 0.5 + 0.5 * np.asarray(p), 1.0, g_upper=2.0),
                Distortion.identity(),
            )


class TestPreferenceFiles:
    TK_TEXT = (
        "alpha_plus=0.88\nalpha_minus=0.88\nk_minus=2.25\n"
        "family_wplus=tk\ngamma_plus=0.61\nfamily_wminus=tk\ngamma_minus=0.69\n"
    )

    def test_parse_tk(self):
        pref = parse_preferences(self.TK_TEXT)
        assert pref.utility.alpha_plus == 0.88
        assert pref.utility.k_minus == 2.25
        assert pref.distortion.plus.family == "tk"
        assert not check_conditions(pref).condition_a

    def test_overrides_win(self):
        pref = parse_preferences(self.TK_TEXT, overrides={"gamma_plus": "0.95"})
        assert pref.distortion.gamma_plus == 0.95

    def test_missing_alpha_rejected(self):
        with pytest.raises(ValidationError, match="alpha"):
            parse_preferences("family_wplus=identity\n")

    def test_bad_family_rejected(self):
        with pytest.raises(ValidationError, match="famil"):
            parse_preferences("alpha_plus=0.5\nalpha_minus=1.0\nfamily_wplus=prelec\n")

    def test_coin_model_spec(self):
        pref = coin_model_preferences()
        assert pref.utility.alpha_plus == 0.25
        assert pref.distortion.plus.gamma == 0.5
        assert pref.condition_a and pref.lam == 3.0
