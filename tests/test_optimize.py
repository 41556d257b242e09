import numpy as np
import pytest

from conftest import random_tree
from cpttree import (
    PureStrategy,
    RandomizedStrategy,
    ReferenceSpec,
    SearchConfig,
    ValidationError,
    build_iid_market,
    coin_cpt_value,
    coin_model_preferences,
    cpt_value,
    ladder,
    optimize_pure,
    optimize_randomized,
    perturbation_check,
    terminal_wealth,
)
from cpttree import optimize
from cpttree.preferences import Distortion, DistortionPair, PreferenceSpec, UtilityPair

M0 = 0.375
M1 = 0.38953872227748554  # frozen 2-D grid oracle value
DERIV0 = 0.20710678118654757  # (sqrt2 - 1) / 2


def calculus_ladder_value(k: int) -> tuple[float, np.ndarray]:
    """Independent per-coordinate calculus oracle for the coin-model ladder.

    Sorting the atom magnitudes makes the objective separable:
    coordinate i earns c_i x^(1/4) - x/(2m), maximized at x = (c_i m / 2)^(4/3)
    with value (3/4)(m/2)^(1/3) c_i^(4/3).
    """
    m = 2**k
    i = np.arange(1, m + 1)
    c = np.sqrt(0.5) * (np.sqrt(m - i + 1) - np.sqrt(m - i)) / np.sqrt(m)
    best = 0.75 * (m / 2.0) ** (1.0 / 3.0) * np.sum(c ** (4.0 / 3.0))
    return float(best), (c * m / 2.0) ** (4.0 / 3.0)


class TestLadder:
    def test_base_level_matches_calculus(self):
        res = ladder(0, SearchConfig(seed=0))
        assert res.values[0] == pytest.approx(M0, abs=1e-9)
        assert res.argmax[0][0] == pytest.approx(0.25, abs=1e-6)

    def test_one_coin_strictly_improves(self):
        res = ladder(1, SearchConfig(seed=0))
        assert res.values[1] == pytest.approx(M1, abs=1e-7)
        assert res.values[1] >= res.values[0] + 1e-4
        a, b = res.argmax[1]
        assert abs(a - b) > 1e-3  # genuinely randomized
        assert a == pytest.approx(0.12253469, abs=1e-4)
        assert b == pytest.approx(0.39685027, abs=1e-4)

    def test_levels_match_calculus_oracle(self):
        res = ladder(3, SearchConfig(seed=1))
        for k in range(4):
            expect, argmax = calculus_ladder_value(k)
            assert res.values[k] == pytest.approx(expect, abs=1e-6)
            assert np.allclose(res.argmax[k], argmax, atol=1e-3)

    def test_monotone_within_tolerance(self):
        res = ladder(3, SearchConfig(seed=2))
        for a, b in zip(res.values, res.values[1:]):
            assert b >= a - 1e-9

    def test_every_argmax_has_a_nonzero_atom(self):
        res = ladder(2, SearchConfig(seed=3))
        for k, atoms in enumerate(res.argmax):
            assert max(atoms) > 0.0
            assert res.values[k] > 0.0

    def test_reported_value_is_exact_reevaluation(self):
        res = ladder(2, SearchConfig(seed=4))
        for k, atoms in enumerate(res.argmax):
            assert coin_cpt_value(atoms).v == res.values[k]

    def test_identity_distortion_collapses_the_ladder(self):
        res = ladder(3, SearchConfig(seed=5), w_plus=Distortion.identity())
        for v in res.values[1:]:
            assert abs(v - res.values[0]) < 1e-8

    def test_deterministic_given_seed(self):
        assert ladder(2, SearchConfig(seed=6)) == ladder(2, SearchConfig(seed=6))

    def test_depth_cap(self):
        with pytest.raises(ValidationError, match="refused"):
            ladder(13)

    def test_negative_level_rejected(self):
        with pytest.raises(ValidationError):
            ladder(-1)


class TestCoinModelValue:
    def test_quarter_position(self):
        assert coin_cpt_value([0.25]).v == pytest.approx(M0, abs=1e-15)

    def test_matches_tree_evaluation_with_mixture(self, coin_tree):
        pref = coin_model_preferences()
        ref = ReferenceSpec.zero(coin_tree)
        atoms = [0.1, 0.7, 0.3, 0.3]
        mixture = RandomizedStrategy.equal_weights(
            [PureStrategy.constant(coin_tree, a) for a in atoms]
        )
        tree_val = cpt_value(coin_tree, mixture, 0.0, ref, pref)
        fast_val = coin_cpt_value(atoms)
        assert tree_val.v == pytest.approx(fast_val.v, abs=1e-14)

    def test_position_sign_is_irrelevant(self, coin_tree):
        pref = coin_model_preferences()
        ref = ReferenceSpec.zero(coin_tree)
        rng = np.random.default_rng(21)
        for _ in range(10):
            theta = float(rng.uniform(0.0, 2.0))
            vp = cpt_value(coin_tree, PureStrategy.constant(coin_tree, theta), 0.0, ref, pref)
            vm = cpt_value(coin_tree, PureStrategy.constant(coin_tree, -theta), 0.0, ref, pref)
            assert vp == vm

    @pytest.mark.parametrize(
        "thetas, weights, match",
        [
            ([1.0], [np.nan], "positive"),
            ([np.nan], None, "finite"),
            ([np.inf, 0.5], None, "finite"),
            ([0.5, 0.5], [0.5, np.nan], "positive"),
            (0.5, None, "flat"),
            ([[0.5, 0.5]], None, "flat"),
            ([], None, "at least one"),
        ],
    )
    def test_malformed_input_is_rejected(self, thetas, weights, match):
        with pytest.raises(ValidationError, match=match):
            coin_cpt_value(thetas, weights)


class TestOptimizePure:
    def test_negative_seed_is_a_validation_error(self, coin_tree):
        with pytest.raises(ValidationError, match="seed"):
            optimize_pure(
                coin_tree, coin_model_preferences(), 0.0, ReferenceSpec.zero(coin_tree),
                SearchConfig(seed=-1),
            )
        with pytest.raises(ValidationError, match="seed"):
            ladder(1, SearchConfig(seed=-1))

    @pytest.mark.parametrize("field", ["box_radius", "tol"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_box_or_tol_is_a_validation_error(self, coin_tree, field, bad):
        # NaN slipped past ``<= 0``: tol=nan never polled and box_radius=nan overflowed
        with pytest.raises(ValidationError, match=field):
            optimize_pure(
                coin_tree, coin_model_preferences(), 0.0, ReferenceSpec.zero(coin_tree),
                SearchConfig(**{field: bad}),
            )
        with pytest.raises(ValidationError, match=field):
            ladder(1, SearchConfig(**{field: bad}))

    def test_overflowing_box_is_a_validation_error(self, coin_tree):
        # the box width 2r overflowed inside numpy's uniform
        with pytest.raises(ValidationError, match="box"):
            optimize_pure(
                coin_tree, coin_model_preferences(), 0.0, ReferenceSpec.zero(coin_tree),
                SearchConfig(box_radius=1e308),
            )

    @pytest.mark.parametrize("radius", [5e307, 1e307])
    def test_box_doubled_past_the_doubles_is_a_validation_error(self, coin_tree, radius):
        # linear gains beat square-root losses, so the winner keeps touching
        # the box; the doubled box's width overflowed inside the poll
        pref = PreferenceSpec(
            utility=UtilityPair.power(1.0, 0.5),
            distortion=DistortionPair(Distortion.identity(), Distortion.identity()),
        )
        with pytest.warns(UserWarning, match="gate"), pytest.raises(ValidationError, match="box"):
            optimize_pure(
                coin_tree, pref, 0.0, ReferenceSpec.zero(coin_tree),
                SearchConfig(seed=1, box_radius=radius, multistart=1),
            )

    @pytest.mark.filterwarnings("error")
    def test_box_whose_outcomes_overflow_is_a_validation_error(self, coin_tree):
        # 2r is finite, but x0 + r passes the double range: the shifted
        # outcomes overflowed inside the poll, a RuntimeError after numpy's warning
        with pytest.raises(ValidationError, match="outcomes can overflow"):
            optimize_pure(
                coin_tree, coin_model_preferences(), 1.7e308, ReferenceSpec.zero(coin_tree),
                SearchConfig(box_radius=1e307),
            )

    def test_box_doubled_until_its_outcomes_overflow_is_a_validation_error(self, coin_tree):
        # the box of radius 4e307 around x0 = 2e307 fits the doubles; the
        # winner touches it, and the doubled box's outcomes would not fit
        pref = PreferenceSpec(
            utility=UtilityPair.power(1.0, 0.5),
            distortion=DistortionPair(Distortion.identity(), Distortion.identity()),
        )
        with pytest.warns(UserWarning, match="gate"), pytest.raises(
            ValidationError, match="8e\\+307 is too large: its leaf outcomes can overflow"
        ):
            optimize_pure(
                coin_tree, pref, 2e307, ReferenceSpec.zero(coin_tree),
                SearchConfig(seed=1, box_radius=4e307, multistart=1),
            )

    def test_coin_model_finds_quarter(self, coin_tree):
        strat, val = optimize_pure(
            coin_tree, coin_model_preferences(), 0.0, ReferenceSpec.zero(coin_tree),
            SearchConfig(seed=1),
        )
        assert val.v == pytest.approx(M0, abs=1e-6)
        assert abs(strat.allocations[0][0]) == pytest.approx(0.25, abs=1e-4)

    def test_reported_value_is_cpt_reevaluation(self, coin_tree):
        pref = coin_model_preferences()
        ref = ReferenceSpec.zero(coin_tree)
        strat, val = optimize_pure(coin_tree, pref, 0.0, ref, SearchConfig(seed=2))
        assert cpt_value(coin_tree, strat, 0.0, ref, pref) == val

    def test_beats_zero_strategy_without_distortion(self):
        rng = np.random.default_rng(22)
        pref = PreferenceSpec(
            utility=UtilityPair.power(0.5, 1.0, k=1.5),
            distortion=DistortionPair(Distortion.identity(), Distortion.identity()),
        )
        for _ in range(5):
            tree = random_tree(rng)
            ref = ReferenceSpec.zero(tree)
            _, val = optimize_pure(tree, pref, 0.0, ref, SearchConfig(seed=7, multistart=2))
            assert val.v >= -1e-12

    def test_zero_subhedge_runs_the_zero_start_once(self, coin_tree, monkeypatch):
        calls = []
        real = optimize._poll

        def counting(*args, **kwargs):
            calls.append(args[0].copy())
            return real(*args, **kwargs)

        monkeypatch.setattr(optimize, "_poll", counting)
        cfg = SearchConfig(seed=1, multistart=2, max_box_doublings=0)
        optimize_pure(coin_tree, coin_model_preferences(), 0.0, ReferenceSpec.zero(coin_tree), cfg)
        assert len(calls) == 1 + cfg.multistart
        assert not np.any(calls[0]) and all(np.any(z) for z in calls[1:])

    def test_gate_violation_warns(self, coin_tree):
        bad = PreferenceSpec(
            utility=UtilityPair.power(0.9, 1.0),
            distortion=DistortionPair(Distortion.power(0.5), Distortion.identity()),
        )
        with pytest.warns(UserWarning, match="gate"):
            optimize_pure(
                coin_tree, bad, 0.0, ReferenceSpec.zero(coin_tree),
                SearchConfig(seed=1, box_radius=1.0, max_box_doublings=0, multistart=1),
            )

    def test_stable_across_box_doublings_when_gate_holds(self):
        tree = build_iid_market([(0.25, 1.5), (0.25, -1.5), (0.25, 0.5), (0.25, -0.5)], 2)
        pref = coin_model_preferences()
        ref = ReferenceSpec.zero(tree)
        vals = []
        for radius in (2.0, 4.0, 8.0):
            _, val = optimize_pure(
                tree, pref, 0.0, ref,
                SearchConfig(seed=3, box_radius=radius, max_box_doublings=0),
            )
            vals.append(val.v)
        assert max(vals) - min(vals) < 1e-6


class TestOptimizeRandomized:
    def test_single_atom_coincides_with_pure(self, coin_tree):
        pref = coin_model_preferences()
        ref = ReferenceSpec.zero(coin_tree)
        cfg = SearchConfig(seed=4)
        ps, pv = optimize_pure(coin_tree, pref, 0.0, ref, cfg)
        rs, rv = optimize_randomized(coin_tree, pref, 0.0, ref, 1, cfg)
        assert rv == pv
        assert rs.atoms[0][1] == ps

    def test_two_atoms_strictly_improve_coin_model(self, coin_tree):
        _, rv = optimize_randomized(
            coin_tree, coin_model_preferences(), 0.0, ReferenceSpec.zero(coin_tree),
            2, SearchConfig(seed=5),
        )
        assert rv.v >= M0 + 1e-4
        assert rv.v == pytest.approx(M1, abs=1e-6)

    @pytest.mark.parametrize("n_atoms", [2, 4])
    def test_mixture_never_below_pure(self, coin_tree, n_atoms):
        pref = coin_model_preferences()
        ref = ReferenceSpec.zero(coin_tree)
        cfg = SearchConfig(seed=6, multistart=2)
        _, pv = optimize_randomized(coin_tree, pref, 0.0, ref, 1, cfg)
        _, rv = optimize_randomized(coin_tree, pref, 0.0, ref, n_atoms, cfg)
        assert rv.v >= pv.v - 1e-9

    def test_mixture_searches_the_box_the_pure_search_ended_in(self, coin_tree):
        # the pure optimum 0.25 lies outside the box 0.1, so the pure search doubles it
        pref = coin_model_preferences()
        ref = ReferenceSpec.zero(coin_tree)
        cfg = SearchConfig(box_radius=0.1)
        ps, pv = optimize_pure(coin_tree, pref, 0.0, ref, cfg)
        assert ps.allocations[0][0] == pytest.approx(0.25, abs=1e-6)
        rs, rv = optimize_randomized(coin_tree, pref, 0.0, ref, 2, cfg)
        assert rv.v >= pv.v - 1e-9
        assert rv.v == pytest.approx(M1, abs=1e-6)

    def test_identity_distortions_make_mixing_pointless(self):
        pref = PreferenceSpec(
            utility=UtilityPair.power(0.5, 1.0, k=1.5),
            distortion=DistortionPair(Distortion.identity(), Distortion.identity()),
        )
        rng = np.random.default_rng(23)
        gaps = []
        for seed in range(20):
            tree = random_tree(rng)
            ref = ReferenceSpec.zero(tree)
            cfg = SearchConfig(seed=seed, multistart=2)
            _, pv = optimize_pure(tree, pref, 0.0, ref, cfg)
            _, rv = optimize_randomized(tree, pref, 0.0, ref, 2, cfg)
            gaps.append(abs(rv.v - pv.v))
        assert max(gaps) <= 1e-6


class TestPerturbation:
    def test_base_level_derivative(self):
        res = perturbation_check([0.25], deltas=[0.0, 1e-6, 1e-4, 0.01])
        assert res.derivative == pytest.approx(DERIV0, abs=1e-12)
        assert res.smallest_atom == 0.25
        assert res.rows[0][1] == res.base_value

    def test_forward_difference_matches_derivative(self):
        delta = 1e-5
        res = perturbation_check([0.25], deltas=[0.0, delta])
        fd = (res.rows[1][1] - res.rows[0][1]) / delta
        assert fd > 0.0
        assert fd == pytest.approx(res.derivative, rel=0.05)

    def test_loss_side_invariant_along_delta(self):
        res = perturbation_check([0.25], deltas=[0.0, 0.05, 0.1, 0.25])
        minus = {row[2] for row in res.rows}
        assert len(minus) == 1

    def test_two_level_argmax_case(self):
        _, argmax = calculus_ladder_value(1)
        res = perturbation_check(list(argmax), deltas=[0.0, 1e-6])
        # P(A) = 1/2 at the smaller atom, P1 = 1/2 above it
        a = argmax[0]
        expected = (
            (np.sqrt(2) / 8.0) * a**-0.75
            * (-np.sqrt(1.0) + np.sqrt(2.0) * np.sqrt(1.5) - np.sqrt(0.5))
        )
        assert res.derivative == pytest.approx(float(expected), abs=1e-12)
        assert res.derivative > 0.0
        fd = (res.rows[1][1] - res.rows[0][1]) / 1e-6
        assert fd == pytest.approx(res.derivative, rel=0.05)

    def test_rejects_all_zero_atoms(self):
        with pytest.raises(ValidationError, match="nonzero"):
            perturbation_check([0.0, 0.0], deltas=[0.0])

    @pytest.mark.parametrize(
        "weights, match",
        [([0.5], "match"), ([np.nan, 1.0], "positive"), ([0.7, 0.7], "sum to 1")],
    )
    def test_rejects_bad_weights(self, weights, match):
        with pytest.raises(ValidationError, match=match):
            perturbation_check([0.5, 1.0], deltas=[0.1], weights=weights)

    def test_rejects_delta_beyond_smallest_atom(self):
        with pytest.raises(ValidationError, match="delta"):
            perturbation_check([0.25], deltas=[0.3])


class TestEntryPointValidation:
    """Non-finite and non-integer inputs are refused where they enter, with
    ``ValidationError``, instead of yielding v = inf / nan or a bare error."""

    @pytest.mark.parametrize(
        "x0, theta, level, match",
        [
            (np.inf, 0.25, 0.0, "x0"),
            (0.0, np.nan, 0.0, "allocation"),
            (0.0, 0.25, np.nan, "benchmark"),
        ],
    )
    def test_cpt_value_refuses_non_finite_inputs(self, coin_tree, x0, theta, level, match):
        strategy = PureStrategy.constant(coin_tree, theta)
        ref = ReferenceSpec.constant(coin_tree, level)
        with pytest.raises(ValidationError, match=match):
            cpt_value(coin_tree, strategy, x0, ref, coin_model_preferences())

    @pytest.mark.parametrize("x0", [1e308, -1e308])
    def test_cpt_value_refuses_an_overflowing_side(self, coin_tree, x0):
        # the leaf outcome 2e308 became a float inf, flagged admissible
        strategy = PureStrategy.constant(coin_tree, 1e308)
        with pytest.raises(ValidationError, match="overflow"):
            cpt_value(coin_tree, strategy, x0, ReferenceSpec.zero(coin_tree), coin_model_preferences())

    @pytest.mark.filterwarnings("error")
    def test_overflowing_outcome_is_refused_without_a_warning(self, coin_tree):
        # X_T - B overflowed after the wealth check: numpy warned, then
        # cpt_value named v_plus and the search raised a RuntimeError
        pref = coin_model_preferences()
        ref = ReferenceSpec.constant(coin_tree, -1e308)
        with pytest.raises(ValidationError, match="leaf outcome X_T - B overflows"):
            cpt_value(coin_tree, PureStrategy.zeros(coin_tree), 1e308, ref, pref)
        with pytest.raises(ValidationError, match="leaf outcome X_T - B overflows"):
            optimize_pure(coin_tree, pref, 1e308, ref, SearchConfig(box_radius=1.0))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_coin_value_refuses_an_overflowing_side(self):
        # weights within the 1e-12 sum tolerance push w . |theta| past the double range
        top = float(np.finfo(float).max)
        with pytest.raises(ValidationError, match="overflow"):
            coin_cpt_value([top, top], [0.5 + 4e-13, 0.5 + 4e-13])

    def test_terminal_wealth_refuses_infinite_capital(self, coin_tree):
        with pytest.raises(ValidationError, match="x0"):
            terminal_wealth(coin_tree, PureStrategy.zeros(coin_tree), -np.inf)

    @pytest.mark.parametrize("search", [optimize_pure, optimize_randomized])
    def test_searches_refuse_nan_capital(self, coin_tree, search):
        args = (coin_tree, coin_model_preferences(), np.nan, ReferenceSpec.zero(coin_tree))
        if search is optimize_randomized:
            args += (2,)
        with pytest.raises(ValidationError, match="x0"):
            search(*args, SearchConfig(multistart=1))

    @pytest.mark.parametrize(
        "field, value",
        [("multistart", 1.5), ("seed", 1.5), ("max_box_doublings", 2.0),
         ("max_box_doublings", -1)],
    )
    def test_search_config_counts(self, field, value):
        with pytest.raises(ValidationError, match=field):
            SearchConfig(**{field: value})

    def test_atom_counts_must_be_integers(self, coin_tree):
        with pytest.raises(ValidationError, match="n_max"):
            ladder(1.5)
        with pytest.raises(ValidationError, match="n_atoms"):
            optimize_randomized(
                coin_tree, coin_model_preferences(), 0.0, ReferenceSpec.zero(coin_tree), 1.5
            )
