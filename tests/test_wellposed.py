from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import random_ref, tame_valid_pref, random_tree
from cpttree import (
    POS_INF,
    IllposednessReport,
    PureStrategy,
    ReferenceSpec,
    ScenarioTree,
    SearchConfig,
    ValidationError,
    boundedness_probe,
    build_iid_market,
    check_NA,
    coin_model_preferences,
    cpt_value,
    heavy_tail_strategy,
    illposed_demo,
    is_inf,
    one_step_scaling,
    truncation_scan,
    two_step_example,
    two_step_uniform_market,
    tversky_kahneman_preferences,
)
from cpttree import optimize
from cpttree.optimize import optimize_pure
from cpttree.preferences import Distortion, DistortionPair, PreferenceSpec, UtilityPair


def power_pref(ap, am, gp, gm, k=1.0, lam=None):
    return PreferenceSpec(
        utility=UtilityPair.power(ap, am, k=k),
        distortion=DistortionPair(Distortion.power(gp), Distortion.power(gm)),
        lam=lam,
    )


ILL = power_pref(0.9, 1.0, 0.5, 1.0)  # alpha+/gamma+ = 1.8 > alpha-/gamma- = 1
FLAT = power_pref(1.0, 1.0, 1.0, 1.0)


class TestTwoStepExample:
    def test_divergent_gain_finite_loss(self):
        report = two_step_example(ILL, ell=1.5)
        assert is_inf(report.v_plus)
        assert report.v_minus == pytest.approx(1.0, abs=1e-12)
        assert report.verdict == "ill-posed"

    def test_all_unit_parameters(self):
        report = two_step_example(FLAT, ell=2.0)
        assert report.v_plus == pytest.approx(0.5, abs=1e-12)
        assert report.v_minus == pytest.approx(0.5, abs=1e-12)
        assert report.verdict == "well-posed-instance"

    def test_both_exponents_above_one(self):
        report = two_step_example(power_pref(0.5, 1.0, 0.8, 0.9), ell=1.5)
        # e+ = 1.5*0.8/0.5 = 2.4 > 1 and e- = 1.35 > 1
        assert report.verdict == "well-posed-instance"

    def test_inadmissible_position_is_inconclusive(self):
        report = two_step_example(FLAT, ell=0.5)  # e- = 0.5 <= 1: loss diverges
        assert is_inf(report.v_minus) and report.verdict == "inconclusive"

    def test_rejects_nonpositive_ell(self):
        with pytest.raises(ValidationError):
            two_step_example(FLAT, ell=0.0)

    @pytest.mark.parametrize("ell", [float("nan"), float("inf")])
    def test_rejects_non_finite_ell(self, ell):
        # NaN used to give an inconclusive report with both sides +inf
        with pytest.raises(ValidationError, match="finite"):
            two_step_example(FLAT, ell)
        with pytest.raises(ValidationError, match="finite"):
            truncation_scan(FLAT, ell, [10.0])

    def test_rejects_tk_distortions(self):
        with pytest.raises(ValidationError, match="power"):
            two_step_example(tversky_kahneman_preferences(), ell=1.5)

    @pytest.mark.parametrize("scan", [(), ((10.0, -0.5),)], ids=["no rows", "one row"])
    def test_an_ill_posed_verdict_needs_two_scan_rows(self, scan):
        # a finite gain side with a scan of no adjacent pairs used to count
        # as strictly growing, and serialised v = -0.5 under the verdict
        with pytest.raises(ValidationError, match="at least two rows"):
            IllposednessReport(v_plus=0.5, v_minus=1.0, verdict="ill-posed", scan=scan)
        report = IllposednessReport(v_plus=0.5, v_minus=1.0, verdict="ill-posed",
                                    scan=((1.0, -0.6), (10.0, -0.5)))
        assert report.v == -0.5

    def test_v_is_derived_in_every_copy(self):
        inconclusive = IllposednessReport(v_plus=POS_INF, v_minus=POS_INF, verdict="inconclusive")
        assert inconclusive.v is None and replace(inconclusive, scan=((1.0, 0.0),)).v is None
        finite = IllposednessReport(v_plus=2.0, v_minus=0.5, verdict="well-posed-instance")
        assert replace(finite, scan=((10.0, 1.0),)).v == 1.5
        with pytest.raises(TypeError):
            IllposednessReport(v_plus=2.0, v_minus=0.5, verdict="well-posed-instance", v=0.0)

    def test_constructible_iff_gain_ratio_dominates(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            ap, am, gp, gm = rng.uniform(0.2, 1.0, 4)
            pref = power_pref(float(ap), float(am), float(gp), float(gm))
            lo, hi = am / gm, ap / gp
            if lo < hi:  # the divergence window is exactly (am/gm, ap/gp]
                ell = 0.5 * (lo + hi)
                assert two_step_example(pref, ell).verdict == "ill-posed"
            else:
                for ell in np.linspace(0.1, 5.0, 23):
                    assert two_step_example(pref, float(ell)).verdict != "ill-posed"


class TestTruncationScan:
    def test_degenerate_cap_is_single_atom(self):
        rows = truncation_scan(ILL, 1.5, [1.0])
        assert rows[0].v_plus == pytest.approx(2.0**-0.5, abs=1e-15)
        assert rows[0].v_minus == pytest.approx(2.0**-1.0, abs=1e-15)

    def test_divergent_instance_grows_without_bound(self):
        rows = truncation_scan(ILL, 1.5, [10.0, 1e3, 1e6])
        vals = [r.v for r in rows]
        assert vals[0] < vals[1] < vals[2]
        # frozen closed-form oracle values
        assert vals[0] == pytest.approx(1.2735831189841713, abs=1e-12)
        assert vals[1] == pytest.approx(6.953474966734038, abs=1e-12)
        assert vals[2] == pytest.approx(28.665958969756037, abs=1e-9)

    def test_convergence_to_untruncated_value(self):
        rows = truncation_scan(FLAT, 2.0, [1e6])
        report = two_step_example(FLAT, 2.0)
        assert abs(rows[0].v - (report.v_plus - report.v_minus)) < 1e-3

    def test_loss_side_converges_monotonically(self):
        rows = truncation_scan(ILL, 1.5, [10.0, 1e2, 1e4, 1e6])
        minus = [r.v_minus for r in rows]
        assert all(a < b for a, b in zip(minus, minus[1:]))
        assert minus[-1] < 1.5  # k * 2^-gm * (1 + 1/(e- - 1)) = 1.5 in the limit

    def test_discretized_tree_cross_check(self):
        # same capped position evaluated exactly on a fine tree
        tree = two_step_uniform_market(4001)
        theta = heavy_tail_strategy(tree, 1.5, cap=2.0)
        val = cpt_value(tree, theta, 0.0, ReferenceSpec.zero(tree), ILL)
        row = truncation_scan(ILL, 1.5, [2.0])[0]
        assert abs(val.v - row.v) < 1e-4

    def test_rejects_caps_below_one(self):
        with pytest.raises(ValidationError):
            truncation_scan(FLAT, 2.0, [0.5])

    @pytest.mark.parametrize("n", [float("nan"), float("inf")])
    def test_rejects_non_finite_caps(self, n):
        with pytest.raises(ValidationError, match="finite"):
            truncation_scan(ILL, 1.5, [10.0, n])

    @pytest.mark.parametrize(
        "ell,cap", [(float("nan"), 2.0), (float("inf"), 2.0), (1.0, float("nan"))]
    )
    def test_heavy_tail_strategy_rejects_non_finite(self, ell, cap):
        # a NaN exponent or cap used to come back as NaN allocations
        with pytest.raises(ValidationError):
            heavy_tail_strategy(two_step_uniform_market(3), ell, cap)

    def test_illposed_demo_report_carries_scan(self):
        report, rows = illposed_demo(ILL, 1.5, [10.0, 100.0])
        assert report.scan == tuple((r.n, r.v) for r in rows)
        assert is_inf(report.v_plus) and is_inf(report.v)


class TestOneStepScaling:
    def test_zero_position(self):
        assert one_step_scaling(FLAT, 0.5, 0.0) == 0.0

    def test_symmetric_cancellation(self):
        for n in (1.0, 10.0, 100.0):
            assert one_step_scaling(FLAT, 0.5, n) == 0.0

    def test_tk_calibration_above_threshold_grows(self):
        pref = tversky_kahneman_preferences()
        vals = [one_step_scaling(pref, 0.8, n) for n in (1.0, 10.0, 100.0, 1000.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[0] > 0.0

    def test_large_n_sign_classification(self):
        # the dominant power decides the sign once the exponent gap is real
        rng = np.random.default_rng(56)
        for _ in range(50):
            k = float(rng.uniform(0.5, 3.0))
            p = float(rng.uniform(0.1, 0.9))
            am = float(rng.uniform(0.2, 0.8))
            case = rng.integers(0, 3)
            if case == 0:
                ap = min(1.0, am + float(rng.uniform(0.15, 0.5)))
            elif case == 1:
                ap = max(0.05, am - float(rng.uniform(0.15, 0.5)))
            else:
                ap = am
            pref = power_pref(ap, am, 1.0, 1.0, k=k)
            big = one_step_scaling(pref, p, 1e8)
            if ap > am:
                assert big > 0.0
            elif ap < am:
                assert big < 0.0
            else:
                expected = (p - k * (1.0 - p)) * 1e8**am
                if abs(p - k * (1.0 - p)) > 1e-6:
                    assert np.sign(big) == np.sign(expected)

    def test_rejects_degenerate_probability(self):
        with pytest.raises(ValidationError):
            one_step_scaling(FLAT, 1.0, 1.0)

    @pytest.mark.parametrize("n", [float("nan"), float("inf")])
    def test_rejects_non_finite_position(self, n):
        # NaN used to come back as the value
        with pytest.raises(ValidationError, match="finite"):
            one_step_scaling(FLAT, 0.5, n)


class TestBoundednessProbe:
    def test_coin_model_plateaus_at_closed_form(self, coin_tree):
        res = boundedness_probe(
            coin_tree, coin_model_preferences(), 0.0, ReferenceSpec.zero(coin_tree),
            [0.5, 1.0, 2.0, 4.0, 8.0, 16.0], SearchConfig(seed=0, multistart=2),
        )
        assert res.plateau
        for radius, v in res.points:
            if radius >= 1.0:
                assert v == pytest.approx(0.375, abs=1e-7)

    def test_zero_radius_evaluates_subhedge_point(self, coin_tree):
        pref = coin_model_preferences()
        ref = ReferenceSpec.zero(coin_tree)
        res = boundedness_probe(
            coin_tree, pref, 0.0, ref, [0.0, 1.0], SearchConfig(seed=0, multistart=1)
        )
        expected = cpt_value(coin_tree, ref.subhedge, 0.0, ref, pref)
        assert res.points[0] == (0.0, expected.v)

    def test_refuses_gate_violation_by_default(self, coin_tree):
        with pytest.raises(ValidationError, match="gate"):
            boundedness_probe(
                coin_tree, ILL, 0.0, ReferenceSpec.zero(coin_tree), [1.0, 2.0, 4.0, 8.0]
            )

    def test_gate_respecting_random_instances_plateau(self):
        for seed in range(3):
            rng = np.random.default_rng(1000 + seed)
            tree = random_tree(rng)
            pref = tame_valid_pref(rng)
            ref = random_ref(rng, tree)
            x0 = float(rng.uniform(-1.0, 1.0))
            assert check_NA(tree).ok
            res = boundedness_probe(
                tree, pref, x0, ref, [0.5, 1, 2, 4, 8, 16], SearchConfig(seed=seed, multistart=3)
            )
            assert res.plateau, res.points
            vals = [v for _, v in res.points]
            assert all(b >= a - 1e-12 * max(1.0, abs(a)) for a, b in zip(vals, vals[1:])), vals

    def test_gate_violating_discretized_market_grows(self):
        tree = two_step_uniform_market(21)
        res = boundedness_probe(
            tree, ILL, 0.0, ReferenceSpec.zero(tree), [1, 2, 4, 8, 16],
            SearchConfig(seed=3, multistart=2), allow_condition_a_violation=True,
        )
        vals = [v for _, v in res.points]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert not res.plateau

    def test_refuses_a_box_radius_in_the_config(self, coin_tree):
        # the probe's radii set its boxes; a cfg.box_radius used to be ignored
        with pytest.raises(ValidationError, match="box_radii"):
            boundedness_probe(
                coin_tree, coin_model_preferences(), 0.0, ReferenceSpec.zero(coin_tree),
                [0.5, 1.0], SearchConfig(seed=0, multistart=1, box_radius=0.01),
            )

    def test_max_box_doublings_does_not_apply(self, coin_tree):
        args = (coin_tree, coin_model_preferences(), 0.0, ReferenceSpec.zero(coin_tree), [0.5, 1.0])
        res = boundedness_probe(*args, SearchConfig(seed=0, multistart=1))
        for doublings in (0, 3):
            cfg = SearchConfig(seed=0, multistart=1, max_box_doublings=doublings)
            assert boundedness_probe(*args, cfg) == res

    def test_radii_must_increase(self, coin_tree):
        with pytest.raises(ValidationError, match="increasing"):
            boundedness_probe(
                coin_tree, coin_model_preferences(), 0.0,
                ReferenceSpec.zero(coin_tree), [2.0, 1.0],
            )

    @pytest.mark.parametrize("radii", [[float("nan")], [1.0, float("inf")]])
    def test_radii_must_be_finite(self, coin_tree, radii):
        with pytest.raises(ValidationError, match="finite"):
            boundedness_probe(
                coin_tree, coin_model_preferences(), 0.0, ReferenceSpec.zero(coin_tree), radii
            )

    @pytest.mark.parametrize(
        "radii",
        ["12", b"12", 2.0, None, np.array([[1.0, 2.0], [4.0, 8.0]]), [[1.0], [2.0]],
         [1.0, "a"], [1.0, "2"], [1.0, None], iter([1.0, object()])],
        ids=["str", "bytes", "scalar", "None", "2-D array", "nested list", "letter entry",
             "digit entry", "None entry", "object entry"],
    )
    def test_radii_must_be_a_flat_sequence_of_numbers(self, coin_tree, radii):
        # a string was probed digit by digit, at radii 1 and 2
        with pytest.raises(ValidationError, match="flat sequence of numbers"):
            boundedness_probe(
                coin_tree, coin_model_preferences(), 0.0, ReferenceSpec.zero(coin_tree), radii
            )

    @pytest.mark.parametrize(
        "radii", [np.array([1.0, 2.0]), (1, 2), iter([1.0, 2.0])], ids=["array", "ints", "iterator"]
    )
    def test_radii_as_any_flat_iterable_of_numbers(self, coin_tree, radii):
        ref = ReferenceSpec.zero(coin_tree)
        cfg = SearchConfig(seed=0, multistart=1)
        res = boundedness_probe(coin_tree, coin_model_preferences(), 0.0, ref, radii, cfg)
        assert [r for r, _ in res.points] == [1.0, 2.0]


# --- the probe as a running max of one search per radius ---------------------


def running_max_by_radius(tree, pref, x0, ref, radii, cfg):
    """The probe as one ``optimize_pure`` per radius, without extra starts,
    and a strict running max of their values: the per-radius strategies and
    the probe's points."""
    strategies, points = [], []
    for r in radii:
        if r == 0.0:
            strategy = ref.subhedge
        else:
            cfg_r = replace(cfg, box_radius=r, max_box_doublings=0)
            strategy, _ = optimize_pure(tree, pref, x0, ref, cfg_r)
        v = float(cpt_value(tree, strategy, x0, ref, pref).v)
        if points and not v > points[-1][1]:
            v = points[-1][1]
        strategies.append(strategy)
        points.append((r, v))
    return strategies, tuple(points)


def assert_probe_as_running_max(tree, pref, x0, ref, radii, cfg):
    strategies, points = running_max_by_radius(tree, pref, x0, ref, radii, cfg)
    assert_probe_gives(strategies, points, tree, pref, x0, ref, radii, cfg)


def assert_probe_gives(strategies, points, tree, pref, x0, ref, radii, cfg, **probe_kwargs):
    found = optimize._probe_search(tree, pref, x0, ref, radii, cfg)
    # bitwise, the sign of zero included
    assert [s.as_flat(tree).tobytes() for s in found] == [
        s.as_flat(tree).tobytes() for s in strategies
    ]
    res = boundedness_probe(tree, pref, x0, ref, radii, cfg, **probe_kwargs)
    assert np.array(res.points).tobytes() == np.array(points).tobytes()


def trinomial_probe_instance():
    """A one-step trinomial market straddling zero, strongly loss-averse
    gate-respecting preferences and a sub-hedged reference."""
    tree = build_iid_market([(0.3, 1.2), (0.45, -0.8), (0.25, 0.3)], 1)
    pref = power_pref(0.3, 0.95, 0.8, 0.7, k=2.5)
    phi = PureStrategy({0: (0.2,)})
    floor = -0.5
    bench = {leaf: floor + 0.2 * tree.increments[leaf][0] + 0.1 for leaf in tree.leaf_ids.tolist()}
    return tree, pref, 0.3, ReferenceSpec(benchmark=bench, subhedge=phi, floor=floor)


def drawn_trinomial_probe_instance():
    """A one-step trinomial instance from a random draw, whose zero and -phi
    starts at radius 1 end elsewhere than their polls at radius 64."""
    incs = [0.0, 1.3673928612793134, -0.8695689512344535, -1.3018441449449507]
    tree = ScenarioTree(
        horizon=1,
        asset_dim=1,
        parent=(-1, 0, 0, 0),
        prob=(1.0, 0.18368904440526349, 0.27928746716627595, 0.5370234884284606),
        increments=tuple((x,) for x in incs),
    )
    pref = power_pref(0.25746586546022654, 0.9093632466246441, 0.9119546230826467,
                      0.611948590960926, k=2.767852172697565)
    bench = {1: 0.11954188972509583, 2: -1.1435530402111018, 3: -1.066811046619954}
    ref = ReferenceSpec(benchmark=bench, subhedge=PureStrategy({0: (0.43913973824905406,)}),
                        floor=-0.9118079827767975)
    return tree, pref, 0.7161232606441028, ref


def poison_polls(monkeypatch, poisoned):
    """Makes every objective value of a block NaN for the polls started at
    z0 in the box [lo, hi]^m where ``poisoned(z0, hi)``."""
    poll = optimize._poll

    def poll_with_nans(z0, state, best, lo, hi, *args):
        inner = poll(z0, state, best, lo, hi, *args)
        reply = None
        while True:
            try:
                request = inner.send(reply)
            except StopIteration as done:
                return done.value
            block, values, finite = yield request
            if poisoned(z0, hi):
                values, finite = np.full_like(values, np.nan), False
            reply = block, values, finite

    monkeypatch.setattr(optimize, "_poll", poll_with_nans)


def violating_probe_instance():
    """The two-period uniform-then-coin market of two first-period atoms,
    gate-violating preferences, zero capital and a zero reference."""
    tree = two_step_uniform_market(2)
    return tree, ILL, 0.0, ReferenceSpec.zero(tree)


SEVEN_RADII = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]


class TestProbeSchedule:
    """``boundedness_probe`` polls the independent starts of every radius
    in one lockstep; every strategy is bitwise that of one ``optimize_pure``
    per radius, and every point the running max of their values."""

    @pytest.mark.parametrize("multistart", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_trees_with_radius_zero_first(self, seed, multistart):
        rng = np.random.default_rng(2000 + seed)
        tree = random_tree(rng, asset_dim=1 + seed % 2)
        pref = tame_valid_pref(rng)
        ref = random_ref(rng, tree)
        x0 = float(rng.uniform(-1.0, 1.0))
        cfg = SearchConfig(seed=seed, multistart=multistart)
        assert_probe_as_running_max(tree, pref, x0, ref, [0.0, 0.25, 1.0, 4.0, 16.0], cfg)

    @pytest.mark.parametrize("radii", [[0.0, 0.5, 1.0, 2.0], [0.5, 1.0, 2.0, 4.0]])
    @pytest.mark.parametrize("multistart", [1, 3])
    def test_zero_subhedge_duplicates_fixed_starts(self, coin_tree, radii, multistart):
        # phi = 0: -phi is the zero start
        tree = build_iid_market([(0.5, 1.0), (0.5, -1.0)], 2)
        for t in (coin_tree, tree):
            ref = ReferenceSpec.zero(t)
            cfg = SearchConfig(seed=4, multistart=multistart)
            assert_probe_as_running_max(t, coin_model_preferences(), 0.0, ref, radii, cfg)

    def test_only_radius_zero(self, coin_tree):
        cfg = SearchConfig(seed=0, multistart=1)
        ref = ReferenceSpec.zero(coin_tree)
        assert_probe_as_running_max(coin_tree, coin_model_preferences(), 0.0, ref, [0.0], cfg)

    def test_blocks_stay_within_the_block_cap(self, monkeypatch, lockstep_rounds):
        # 512 leaves: a start's smallest block is two rows of 512 floats, so
        # eight starts fill the cap, whichever radius each belongs to
        blocks = []
        rows = optimize._cpt_rows

        def recorded_rows(block, *args):
            blocks.append(block.size)
            return rows(block, *args)

        monkeypatch.setattr(optimize, "_EVAL_BUDGET", 100)
        monkeypatch.setattr(optimize, "_cpt_rows", recorded_rows)
        tree = build_iid_market([(0.5, 1.0), (0.5, -1.0)], 9)
        ref = ReferenceSpec.zero(tree)
        cfg = SearchConfig(seed=1, multistart=4)
        boundedness_probe(tree, coin_model_preferences(), 0.0, ref, [0.5, 1.0, 2.0], cfg)
        # the zero start and four random ones at each radius
        starts, rounds = lockstep_rounds
        assert starts == [15] and max(rounds) == 8
        assert max(blocks) <= optimize._BLOCK_FLOATS
        assert max(blocks) >= 8 * 2 * 512  # every live start polled a coordinate in one call

    def test_fewer_kernel_calls_than_radius_by_radius(self, monkeypatch):
        calls = []
        rows = optimize._cpt_rows

        def counted(*args):
            calls[-1] += 1
            return rows(*args)

        monkeypatch.setattr(optimize, "_cpt_rows", counted)
        tree, pref, x0, ref = trinomial_probe_instance()
        cfg = SearchConfig(seed=7, multistart=1)
        for probe in (running_max_by_radius, optimize._probe_search):
            calls.append(0)
            probe(tree, pref, x0, ref, SEVEN_RADII, cfg)
        separate, together = calls
        assert together < separate

    @pytest.mark.parametrize(
        "instance, radii, seed, multistart, lockstep_starts",
        [
            # the zero and -phi starts and a random start at each of seven radii
            (trinomial_probe_instance, SEVEN_RADII, 1, 1, [21]),
            (drawn_trinomial_probe_instance, SEVEN_RADII, 310, 1, [21]),
            # no two radii a power of two apart; two random starts a radius
            (trinomial_probe_instance, [0.0, 1.0, 3.0, 10.0], 1, 2, [12]),
            # phi = 0: the zero start is the one fixed start at each radius
            (violating_probe_instance, [1.0, 2.0, 4.0], 3, 1, [6]),
            (violating_probe_instance, [1.0, 2.0, 4.0], 3, 2, [9]),
        ],
        ids=["trinomial", "drawn-trinomial", "radii-0-1-3-10", "violating-1", "violating-2"],
    )
    # the reference's optimize_pure warns of the violating preferences
    @pytest.mark.filterwarnings("ignore:preferences fail the decisive")
    def test_one_lockstep(self, lockstep_rounds, instance, radii, seed, multistart, lockstep_starts):
        tree, pref, x0, ref = instance()
        cfg = SearchConfig(seed=seed, multistart=multistart)
        strategies, points = running_max_by_radius(tree, pref, x0, ref, radii, cfg)
        starts, _ = lockstep_rounds
        starts.clear()
        # once from _probe_search and once from boundedness_probe
        assert_probe_gives(strategies, points, tree, pref, x0, ref, radii, cfg,
                           allow_condition_a_violation=True)
        assert starts == 2 * lockstep_starts

    @pytest.mark.parametrize("radius", SEVEN_RADII)
    def test_a_non_finite_objective_at_one_radius_raises(self, monkeypatch, radius):
        tree, pref, x0, ref = drawn_trinomial_probe_instance()
        poison_polls(monkeypatch, lambda z0, hi: hi == radius)
        with pytest.raises(RuntimeError, match="non-finite"):
            boundedness_probe(tree, pref, x0, ref, SEVEN_RADII, SearchConfig(seed=310, multistart=1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans(), st.integers(1, 3))
# two variables: the search at radius 0.5 ends an ulp below the one at 0.25;
# three: those at radii 1 to 4 end ulps below the one at 0.5
@example(0, 2, False, 1)
@example(0, 3, False, 1)
def test_probe_points_are_the_running_max_of_the_radius_values(seed, dim, from_zero, multistart):
    # one- and two-step trees of 1 to 3 variables
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, max_horizon=2 if dim == 1 else 1, asset_dim=dim)
    assume(len(tree.nonterminal_ids) * dim <= 3)
    pref = tame_valid_pref(rng)
    ref = random_ref(rng, tree)
    x0 = float(rng.uniform(-1.0, 1.0))
    radii = [0.0] * from_zero + [0.25, 0.5, 1.0, 2.0, 4.0]
    cfg = SearchConfig(seed=seed % 1000, multistart=multistart)
    strategies, _ = running_max_by_radius(tree, pref, x0, ref, radii, cfg)
    values = [float(cpt_value(tree, s, x0, ref, pref).v) for s in strategies]
    points = [v for _, v in boundedness_probe(tree, pref, x0, ref, radii, cfg).points]
    assert all(a <= b for a, b in zip(points, points[1:])), points
    assert points == [max(values[: k + 1]) for k in range(len(values))]
