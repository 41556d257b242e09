"""Input rules that several entry points share, with their exact messages:
finite-law masses (the coin model's position weights among them), blank and comment lines, distortion exponents and the
two-step position's tail exponent; the envelope and aux-objective constants, positive and finite; custom
distortions and utilities, finite on their check grids."""

import math

import numpy as np
import pytest

from cpttree.builders import build_iid_market, emit_pmf, parse_pmf
from cpttree.choquet import AuxParams, DiscreteRV
from cpttree.errors import ValidationError
from cpttree.optimize import coin_cpt_value
from cpttree.preferences import (
    Distortion,
    DistortionPair,
    UtilityPair,
    coin_model_preferences,
    parse_preferences,
    tk_distortion,
    tversky_kahneman_preferences,
)
from cpttree.randtools import FiniteJoint
from cpttree.tree import PureStrategy, RandomizedStrategy, emit_market, parse_market
from cpttree.wellposed import (
    heavy_tail_strategy,
    truncation_scan,
    two_step_example,
    two_step_uniform_market,
)

NAN = float("nan")
STAY = PureStrategy({0: (0.0,)})

# law name, mass name, masses name, constructor from a mass list
LAWS = [
    ("discrete law", "probability", "probabilities",
     lambda ms: DiscreteRV(tuple((float(i), p) for i, p in enumerate(ms)))),
    ("randomized strategy", "weight", "weights",
     lambda ms: RandomizedStrategy(tuple((p, STAY) for p in ms))),
    ("joint law", "probability", "probabilities",
     lambda ms: FiniteJoint(tuple(((float(i),), (0.0,), p) for i, p in enumerate(ms)))),
]


def refusal(make, *args) -> str:
    with pytest.raises(ValidationError) as exc:
        make(*args)
    return str(exc.value)


@pytest.mark.parametrize("law, mass, masses, make", LAWS, ids=[law[0] for law in LAWS])
class TestMasses:
    def test_no_atoms(self, law, mass, masses, make):
        assert refusal(make, []) == f"{law} needs at least one atom"

    @pytest.mark.parametrize("bad", [NAN, 0.0, 1.5])
    def test_mass_outside_unit_interval(self, law, mass, masses, make, bad):
        assert refusal(make, [0.5, bad]) == f"atom {mass} {bad} outside (0, 1]"

    def test_sum_off_by_2e_12(self, law, mass, masses, make):
        ms = [0.5, 0.5 + 2e-12]
        assert refusal(make, ms) == f"atom {masses} sum to {0.0 + ms[0] + ms[1]!r}, not 1"

    def test_sum_off_by_5e_13_accepted(self, law, mass, masses, make):
        make([0.5, 0.5 + 5e-13])


@pytest.mark.parametrize("bad", [NAN, 0.0, 1.5])
def test_position_weights_follow_the_same_rule(bad):
    # the mixed position of the coin model refuses its weights as every finite law does
    thetas = [1.0, 2.0]
    assert refusal(coin_cpt_value, thetas, [0.5, bad]) == f"atom weight {bad} outside (0, 1]"
    ms = [0.5, 0.5 + 2e-12]
    assert refusal(coin_cpt_value, thetas, ms) == f"atom weights sum to {0.0 + ms[0] + ms[1]!r}, not 1"
    coin_cpt_value(thetas, [0.5, 0.5 + 5e-13])


def test_equal_weights_needs_a_strategy():
    assert refusal(RandomizedStrategy.equal_weights, []) == (
        "randomized strategy needs at least one atom"
    )


def test_discrete_law_checks_every_value_before_any_mass():
    # a bad mass in the first atom, a non-finite value in the second
    assert refusal(DiscreteRV, ((0.0, 1.5), (NAN, 0.5))) == "atom values must be finite"


def with_noise_lines(text: str) -> str:
    """``text`` with a blank line and indented comment lines after its first line."""
    first, rest = text.split("\n", 1)
    return f"{first}\n\n   \n  # a comment\n\t# another\n{rest}"


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_market, emit_market(build_iid_market([(0.5, 1.0), (0.5, -1.0)], 2))),
        (parse_pmf, emit_pmf([(0.25, (1.0, 2.0)), (0.75, (-1.0, 0.5))])),
        (parse_preferences, "alpha_plus=0.25\nalpha_minus=1.0\nfamily_wplus=power\ngamma_plus=0.5\n"),
    ],
    ids=["market", "pmf", "preferences"],
)
def test_blank_and_comment_lines_are_skipped(parse, text):
    assert parse(with_noise_lines(text)) == parse(text)


@pytest.mark.parametrize(
    "make",
    [
        Distortion.power,
        Distortion.tk,
        lambda g: tk_distortion(g, 0.5),
        lambda g: Distortion.custom(lambda p: p, g, g_upper=1.0, g_lower=1.0),
    ],
    ids=["power", "tk", "tk_distortion", "custom"],
)
@pytest.mark.parametrize("gamma", [0.0, -1.0, 1.5, NAN])
def test_gamma_outside_unit_interval(make, gamma):
    assert refusal(make, gamma) == "gamma must lie in (0, 1]"


@pytest.mark.parametrize("bad", [None, 0.0, -1.0, NAN, math.inf])
def test_envelope_constants_positive_and_finite(bad):
    gain = Distortion.custom(lambda p: p**0.3, 0.3, g_upper=bad)
    assert refusal(DistortionPair, gain, Distortion.identity()) == (
        "gain distortion needs a positive finite upper envelope constant"
    )
    loss = Distortion.custom(lambda p: p, 1.0, g_lower=bad)
    assert refusal(DistortionPair, Distortion.identity(), loss) == (
        "loss distortion needs a positive finite lower envelope constant"
    )


@pytest.mark.parametrize("bad", [0.0, -1.0, NAN, math.inf])
def test_aux_constants_positive_and_finite(bad):
    # (k_plus_tilde, k_minus_tilde, lam, subhedge, floor)
    for args in [(bad, 2.0, 2.0, STAY, 0.0), (2.0, bad, 2.0, STAY, 0.0)]:
        assert refusal(AuxParams, *args) == "aux constants must be positive and finite"


@pytest.mark.parametrize(
    "make",
    [
        lambda pref, ell: two_step_example(pref, ell),
        lambda pref, ell: truncation_scan(pref, ell, [10.0]),
        lambda pref, ell: heavy_tail_strategy(two_step_uniform_market(3), ell, 1.0),
    ],
    ids=["two_step_example", "truncation_scan", "heavy_tail_strategy"],
)
@pytest.mark.parametrize("ell", [0.0, NAN, math.inf])
def test_ell_positive_and_finite(make, ell):
    assert refusal(make, coin_model_preferences(), ell) == "ell must be positive and finite"
    # the exponent is checked before the preference families
    assert refusal(make, tversky_kahneman_preferences(), ell) == "ell must be positive and finite"


def nan_between(lo, hi, fn):
    """``fn`` with NaN where its argument lies strictly between lo and hi."""
    return lambda x: np.where((np.asarray(x) > lo) & (np.asarray(x) < hi), NAN, fn(np.asarray(x)))


def test_distortion_not_finite_on_the_check_grid():
    nan_inside = Distortion.custom(nan_between(0.3, 0.5, lambda p: p), 1.0, g_upper=1.0, g_lower=1.0)
    assert refusal(DistortionPair, nan_inside, Distortion.identity()) == (
        "gain distortion is not finite on the check grid"
    )
    assert refusal(DistortionPair, Distortion.identity(), nan_inside) == (
        "loss distortion is not finite on the check grid"
    )


@pytest.mark.parametrize("side", ["u_plus", "u_minus"])
def test_utility_not_finite_on_the_check_grid(side):
    funcs = {"u_plus": lambda x: np.asarray(x) ** 0.5, "u_minus": lambda x: np.asarray(x)}
    funcs[side] = nan_between(1.0, 10.0, funcs[side])
    make = lambda: UtilityPair(k_plus=1.0, alpha_plus=0.5, k_minus=1.0, alpha_minus=1.0, **funcs)
    assert refusal(make) == f"{side} is not finite on the check grid"
