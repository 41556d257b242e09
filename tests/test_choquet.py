import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_pure, random_ref, random_tree, random_valid_pref
from cpttree import (
    POS_INF,
    CPTValue,
    DiscreteRV,
    PureStrategy,
    RandomizedStrategy,
    ReferenceSpec,
    ValidationError,
    aux_value,
    build_iid_market,
    choquet_nonneg,
    coin_model_preferences,
    cpt_value,
    derive_aux_params,
    is_inf,
    moment_tail_certificate,
    tail_power_integral,
    terminal_wealth,
)
from cpttree.choquet import _choquet_rows, _cpt_rows, _Law, cpt_value_from_outcomes
from cpttree.extreal import ext_sub
from cpttree.optimize import _coin_cpt_rows, _coin_law, coin_cpt_value
from cpttree.preferences import Distortion, DistortionPair, PreferenceSpec, UtilityPair

SQRT_HALF = 0.7071067811865476


def identity(p):
    return p


def random_rv(rng, max_atoms=50, nonneg=True):
    n = int(rng.integers(1, max_atoms + 1))
    vals = rng.uniform(0.0 if nonneg else -5.0, 5.0, n)
    probs = rng.uniform(0.1, 1.0, n)
    probs /= probs.sum()
    probs[-1] = 1.0 - probs[:-1].sum()
    return DiscreteRV.from_arrays(vals, probs)


class TestChoquetNonneg:
    def test_identity_distortion_is_expectation(self):
        rv = DiscreteRV(((2.0, 0.5), (0.0, 0.5)))
        assert choquet_nonneg(rv, identity) == 1.0

    def test_sqrt_distortion_single_step(self):
        rv = DiscreteRV(((1.0, 0.5), (0.0, 0.5)))
        assert choquet_nonneg(rv, np.sqrt) == pytest.approx(SQRT_HALF, abs=1e-15)

    def test_two_positive_atoms_piecewise_form(self):
        a, b = 0.3, 0.8
        rv = DiscreteRV(((a**0.25, 0.5), (b**0.25, 0.5)))
        expected = a**0.25 + (b**0.25 - a**0.25) * SQRT_HALF
        assert choquet_nonneg(rv, np.sqrt) == pytest.approx(expected, abs=1e-15)

    def test_negative_atom_rejected(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            choquet_nonneg(DiscreteRV(((-1.0, 1.0),)), identity)

    def test_distortion_must_vanish_at_zero(self):
        with pytest.raises(ValidationError, match="w\\(0\\)"):
            choquet_nonneg(DiscreteRV(((1.0, 1.0),)), lambda p: p + 0.5)

    def test_identity_equals_expectation_on_100_seeded_laws(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            rv = random_rv(rng)
            vals, probs = rv.arrays()
            assert abs(choquet_nonneg(rv, identity) - float(vals @ probs)) <= 1e-12

    def test_monotone_in_the_distortion(self):
        rng = np.random.default_rng(43)
        sqrt_pow = Distortion.power(0.5)
        for _ in range(50):
            rv = random_rv(rng)
            v_id = choquet_nonneg(rv, identity)
            v_sqrt = choquet_nonneg(rv, sqrt_pow)  # p^0.5 >= p pointwise
            assert v_sqrt >= v_id - 1e-12
            g1, g2 = sorted(rng.uniform(0.2, 1.0, 2))
            assert (
                choquet_nonneg(rv, Distortion.power(g2))
                <= choquet_nonneg(rv, Distortion.power(g1)) + 1e-12
            )
            # the inverse-S weight is dominated by its power envelope
            gamma = float(rng.uniform(0.3, 1.0))
            assert (
                choquet_nonneg(rv, Distortion.tk(gamma))
                <= choquet_nonneg(rv, Distortion.power(gamma)) + 1e-12
            )

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            rv = random_rv(rng)
            vals, probs = rv.arrays()
            base = choquet_nonneg(rv, np.sqrt)
            for c in (0.5, 2.0, 4.0):  # dyadic scaling is exact in floats
                scaled = DiscreteRV.from_arrays(c * vals, probs)
                assert choquet_nonneg(scaled, np.sqrt) == c * base
            c = float(rng.uniform(0.1, 3.0))
            scaled = DiscreteRV.from_arrays(c * vals, probs)
            assert choquet_nonneg(scaled, np.sqrt) == pytest.approx(c * base, rel=1e-13)

    def test_riemann_sum_oracle(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            rv = random_rv(rng, max_atoms=30)
            vals, probs = rv.arrays()
            top = vals.max()
            if top == 0.0:
                continue
            # midpoint rule over [0, max]; survival via searchsorted on sorted atoms
            y = (np.arange(1_000_000) + 0.5) * (top / 1_000_000)
            order = np.argsort(vals)
            sv = vals[order]
            sp = np.cumsum(probs[order][::-1])[::-1]  # P(X >= sv[k])
            idx = np.searchsorted(sv, y, side="left")
            survival = np.where(idx < len(sv), np.concatenate((sp, [0.0]))[idx], 0.0)
            riemann = float(np.sqrt(survival).sum() * (top / 1_000_000))
            assert abs(riemann - choquet_nonneg(rv, np.sqrt)) < 1e-5


DISTORTIONS = {
    "identity": Distortion.identity(),
    "power": Distortion.power(0.61),
    "tk": Distortion.tk(0.69),
    "custom": Distortion.custom(lambda p: np.sin(0.5 * np.pi * np.asarray(p)), 1.0),
}

# seed, atoms per law, distortion family, tie pattern
LAWS = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(1, 512),
    st.sampled_from(sorted(DISTORTIONS)),
    st.sampled_from(["distinct", "rounded", "few values", "zeros"]),
)


def law_block(seed, n, ties, rows):
    """``rows`` nonnegative laws on n atoms with the tie pattern asked for,
    and n probabilities, equal about a third of the time."""
    rng = np.random.default_rng(seed)
    values = tied_values(rng, n, ties, rows)
    if rng.random() < 0.3:
        probs = np.full(n, 1.0 / n)
    else:
        probs = rng.uniform(0.1, 1.0, n)
        if rng.random() < 0.5:
            probs = np.round(probs, 1)
        probs /= probs.sum()
    return values, probs


def dyadic_law_block(seed, n, ties, rows):
    """As ``law_block``, with weights k / 2^15 of total below 1, so that every
    survival sum is exact. Rounded survivals near 1 would otherwise move an
    inverse-S weight, whose slope at 1 is infinite, by far more than an ulp."""
    rng = np.random.default_rng(seed)
    return tied_values(rng, n, ties, rows), rng.integers(1, 64, n) / 2.0**15


def tied_values(rng, n, ties, rows):
    values = rng.uniform(0.0, 3.0, (rows, n))
    if ties == "rounded":
        values = np.round(values, 1)
    elif ties == "few values":
        values = rng.choice(rng.uniform(0.0, 3.0, 3), (rows, n))
    elif ties == "zeros":
        values[rng.random((rows, n)) < 0.5] = 0.0
    return values


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def reference_choquet(values, probs, w):
    """The scalar Choquet kernel the row kernel replaced, kept as the oracle
    of the bitwise tests: one lexsort into the canonical atom order, tie
    masses merged, survival as a reversed cumulative sum, one ``np.sum``."""
    if values.size == 0:
        return 0.0
    if np.any(values < 0.0):
        raise ValidationError("choquet_nonneg requires nonnegative atom values")
    order = np.lexsort((probs, values))
    v = values[order]
    p = probs[order]
    distinct, start = np.unique(v, return_index=True)
    mass = np.add.reduceat(p, start)
    # rounding in the cumulative sum may push the total an ulp past 1
    survival = np.minimum(np.cumsum(mass[::-1])[::-1], 1.0)
    prev = np.concatenate(([0.0], distinct[:-1]))
    return float(np.sum((distinct - prev) * np.asarray(w(survival), dtype=float)))


class TestKernelProperties:
    @settings(max_examples=80, deadline=None)
    @given(LAWS)
    def test_row_kernel_matches_the_scalar_kernel_bitwise(self, case):
        seed, n, family, ties = case
        w, other = DISTORTIONS[family], DISTORTIONS["tk"]
        # blocks of three rows per distortion, and of one row, the shape of
        # choquet_nonneg and cpt_value_from_outcomes; each with the drawn
        # probabilities and with equal ones
        for rows in (3, 1):
            values, drawn = law_block(seed, n, ties, rows=2 * rows)
            for probs in (drawn, np.full(n, 1.0 / n)):
                expected = [reference_choquet(row, probs, w) for row in values]
                assert bits(_choquet_rows(values, probs, w)) == bits(expected)
                assert bits(_choquet_rows(values[:rows], probs, w)) == bits(expected[:rows])
                # two distortions: the first half of the rows takes the first one
                expected[rows:] = [reference_choquet(row, probs, other) for row in values[rows:]]
                assert bits(_choquet_rows(values, probs, w, other)) == bits(expected)

    def test_rows_do_not_depend_on_block_layout(self):
        # numpy's power and sums take other loops on non-contiguous memory,
        # which can move last bits: a row's value must not depend on its
        # neighbours, the block's order in memory or its strides
        rng = np.random.default_rng(2024)
        families = sorted(DISTORTIONS)
        for i in range(300):
            n = int(rng.integers(1, 40)) if i % 10 else int(rng.integers(40, 300))
            values, probs = law_block(int(rng.integers(2**32)), n,
                                      ["distinct", "rounded", "few values", "zeros"][i % 4],
                                      rows=int(rng.integers(1, 9)))
            w = DISTORTIONS[families[i % len(families)]]
            alone = bits([_choquet_rows(row[None], probs, w)[0] for row in values])
            assert bits(_choquet_rows(values, probs, w)) == alone
            assert bits(_choquet_rows(np.asfortranarray(values), probs, w)) == alone
            assert bits(_choquet_rows(values[::-1], probs, w)[::-1]) == alone
            wide = np.zeros((2 * len(values), 2 * n))
            wide[::2, 1::2] = values
            assert bits(_choquet_rows(wide[::2, 1::2], probs, w)) == alone

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 64))
    def test_row_objectives_match_the_scalar_values_bitwise(self, seed, n):
        rng = np.random.default_rng(seed)
        pref = random_valid_pref(rng)
        outcomes = rng.uniform(-2.0, 2.0, (5, n))
        outcomes[:, : n // 3] = np.round(outcomes[:, : n // 3], 1)
        probs = rng.uniform(0.1, 1.0, n)
        probs /= probs.sum()
        u, d = pref.utility, pref.distortion
        expected = [
            reference_choquet(np.asarray(u.u_plus(np.maximum(row, 0.0))), probs, d.plus)
            - reference_choquet(np.asarray(u.u_minus(np.maximum(-row, 0.0))), probs, d.minus)
            for row in outcomes
        ]
        assert bits(_cpt_rows(outcomes, probs, pref)) == bits(expected)
        assert bits([cpt_value_from_outcomes(row, probs, pref).v for row in outcomes]) == bits(
            expected
        )
        thetas = rng.uniform(-1.0, 1.0, (5, n))
        sqrt, w = Distortion.power(0.5), np.full(n, 1.0 / n)
        gprobs = np.append(w / 2.0, 0.5)  # the coin's losing half gains 0
        expected = [
            reference_choquet(np.append(np.abs(row) ** 0.25, 0.0), gprobs, sqrt)
            - 0.5 * float(w @ np.abs(row))
            for row in thetas
        ]
        assert bits(_coin_cpt_rows(thetas, _coin_law(w), sqrt)) == bits(expected)
        assert bits([coin_cpt_value(row).v for row in thetas]) == bits(expected)

    @settings(max_examples=60, deadline=None)
    @given(LAWS)
    def test_monotone_in_the_outcome(self, case):
        seed, n, family, ties = case
        (x, bump), probs = dyadic_law_block(seed, n, ties, rows=2)
        w = DISTORTIONS[family]
        y = x + bump * (bump > 1.5)  # y >= x atom by atom, equal on about half
        low, high = _choquet_rows(np.stack((x, y)), probs, w)
        assert low <= high + 1e-12 * max(1.0, abs(high))

    @settings(max_examples=60, deadline=None)
    @given(LAWS)
    def test_comonotonic_additivity(self, case):
        seed, n, family, ties = case
        (x, y), probs = dyadic_law_block(seed, n, ties, rows=2)
        w = DISTORTIONS[family]
        # sorting both by one atom order makes them comonotone
        order = np.random.default_rng(seed).permutation(n)
        x[order], y[order] = np.sort(x), np.sort(y)
        total, x_part, y_part = _choquet_rows(np.stack((x + y, x, y)), probs, w)
        parts = x_part + y_part
        assert total == pytest.approx(parts, rel=1e-12, abs=1e-12)


class TestCptValue:
    def test_coin_quarter_position(self, coin_tree):
        val = cpt_value(
            coin_tree, PureStrategy.constant(coin_tree, 0.25), 0.0,
            ReferenceSpec.zero(coin_tree), coin_model_preferences(),
        )
        assert val.v == pytest.approx(0.375, abs=1e-15)
        assert val.v_plus == pytest.approx(0.5, abs=1e-15)
        assert val.v_minus == pytest.approx(0.125, abs=1e-15)
        assert val.admissible

    def test_hedged_benchmark_gives_zero(self):
        # dyadic data keeps both wealth computations bit-exact
        tree = build_iid_market([(0.5, 1.0), (0.25, -0.5), (0.25, -2.0)], 2)
        rng = np.random.default_rng(46)
        dyadic = np.array([-1.0, -0.5, 0.5, 1.0])
        phi = PureStrategy({int(n): (float(rng.choice(dyadic)),) for n in tree.nonterminal_ids})
        b = -0.25
        bench = terminal_wealth(tree, phi, b)
        ref = ReferenceSpec(benchmark=bench, subhedge=phi, floor=b)
        val = cpt_value(tree, phi, b, ref, coin_model_preferences())
        assert val.v == 0.0 and val.v_plus == 0.0 and val.v_minus == 0.0

    def test_hedged_benchmark_near_zero_generic(self):
        # non-dyadic data leaves ulp-level wealth residue; with linear
        # utilities the value stays at float-noise scale
        rng = np.random.default_rng(46)
        tree = random_tree(rng)
        phi = random_pure(rng, tree, bound=1.0)
        b = -0.25
        bench = terminal_wealth(tree, phi, b)
        ref = ReferenceSpec(benchmark=bench, subhedge=phi, floor=b)
        pref = PreferenceSpec(
            utility=UtilityPair.power(1.0, 1.0),
            distortion=DistortionPair(Distortion.identity(), Distortion.identity()),
        )
        val = cpt_value(tree, phi, b, ref, pref)
        assert abs(val.v) <= 1e-12

    def test_degenerate_mixture_equals_pure(self, coin_tree):
        pref = coin_model_preferences()
        ref = ReferenceSpec.zero(coin_tree)
        pure = PureStrategy.constant(coin_tree, 0.3)
        mixed = RandomizedStrategy(((0.5, pure), (0.5, pure)))
        assert cpt_value(coin_tree, mixed, 0.0, ref, pref) == cpt_value(
            coin_tree, pure, 0.0, ref, pref
        )

    def test_law_invariance_under_relabeling(self):
        # same leaf law, children listed in opposite order: bit-identical value
        pmf_a = [(0.5, 1.0), (0.5, -1.0)]
        pmf_b = [(0.5, -1.0), (0.5, 1.0)]
        ta = build_iid_market(pmf_a, 2)
        tb = build_iid_market(pmf_b, 2)
        pref = coin_model_preferences()
        va = cpt_value(ta, PureStrategy.constant(ta, 0.7), 0.0, ReferenceSpec.zero(ta), pref)
        vb = cpt_value(tb, PureStrategy.constant(tb, 0.7), 0.0, ReferenceSpec.zero(tb), pref)
        assert va == vb

    def test_structural_mismatch_rejected(self, coin_tree):
        with pytest.raises(ValidationError, match="node"):
            cpt_value(
                coin_tree, PureStrategy({}), 0.0,
                ReferenceSpec.zero(coin_tree), coin_model_preferences(),
            )


class TestAuxValue:
    @staticmethod
    def pref_half_exponent():
        # lambda * alpha_plus = 0.5 and alpha_minus = 1
        return PreferenceSpec(
            utility=UtilityPair.power(0.25, 1.0),
            distortion=DistortionPair(Distortion.power(0.75), Distortion.identity()),
            lam=2.0,
        )

    def test_subhedge_itself_gives_constants(self, coin_tree):
        pref = self.pref_half_exponent()
        ref = ReferenceSpec.zero(coin_tree)
        aux = derive_aux_params(pref, ref)
        plus, minus, total = aux_value(coin_tree, ref.subhedge, 0.0, aux, pref)
        assert plus == aux.k_plus_tilde
        assert minus == -aux.k_minus_tilde
        assert total == plus - minus

    def test_coin_offset_one(self, coin_tree):
        pref = self.pref_half_exponent()
        ref = ReferenceSpec.zero(coin_tree)
        aux = derive_aux_params(pref, ref)
        plus, minus, _ = aux_value(
            coin_tree, PureStrategy.constant(coin_tree, 1.0), 0.0, aux, pref
        )
        # E(1 + |+-1|^{1/2}) = 2 and E[+-1]_- = 1/2
        assert plus == pytest.approx(2.0 * aux.k_plus_tilde, abs=1e-15)
        assert minus == pytest.approx(aux.k_minus_tilde * (0.5 - 1.0), abs=1e-15)

    def test_domination_on_seeded_instances(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            tree = random_tree(rng, max_horizon=3, asset_dim=int(rng.integers(1, 3)))
            pref = random_valid_pref(rng)
            ref = random_ref(rng, tree)
            x0 = float(rng.uniform(-2.0, 2.0))
            theta = random_pure(rng, tree)
            aux = derive_aux_params(pref, ref)
            val = cpt_value(tree, theta, x0, ref, pref)
            plus, minus, _ = aux_value(tree, theta, x0, aux, pref)
            assert val.v_plus <= plus + 1e-9
            assert val.v_minus >= minus - 1e-9

    def test_randomized_strategy_mixes_expectations(self, coin_tree):
        pref = self.pref_half_exponent()
        ref = ReferenceSpec.zero(coin_tree)
        aux = derive_aux_params(pref, ref)
        s1 = PureStrategy.constant(coin_tree, 1.0)
        s2 = PureStrategy.constant(coin_tree, 0.0)
        mixed = RandomizedStrategy(((0.5, s1), (0.5, s2)))
        p1, m1, _ = aux_value(coin_tree, s1, 0.0, aux, pref)
        p2, m2, _ = aux_value(coin_tree, s2, 0.0, aux, pref)
        pm, mm, _ = aux_value(coin_tree, mixed, 0.0, aux, pref)
        assert pm == pytest.approx(0.5 * (p1 + p2), abs=1e-12)
        # the minus side subtracts 1 inside the constant, so recombine carefully
        km = aux.k_minus_tilde
        assert mm / km + 1.0 == pytest.approx(0.5 * (m1 / km + 1.0) + 0.5 * (m2 / km + 1.0), abs=1e-12)


class TestTailIntegrals:
    def test_closed_form(self):
        assert tail_power_integral(0.5, 1.5) == 1.0

    def test_harmonic_divergence(self):
        assert is_inf(tail_power_integral(1.0, 1.0))

    def test_subcritical_exponent_diverges(self):
        assert is_inf(tail_power_integral(2.0**-0.5, 5.0 / 6.0))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            tail_power_integral(0.0, 2.0)
        with pytest.raises(ValidationError):
            tail_power_integral(1.0, -1.0)

    @pytest.mark.parametrize("c,e", [(1.0, float("nan")), (float("nan"), 2.0),
                                     (float("inf"), 2.0), (1.0, float("inf"))])
    def test_rejects_non_finite(self, c, e):
        # a NaN exponent used to come back as +inf
        with pytest.raises(ValidationError, match="finite"):
            tail_power_integral(c, e)

    @pytest.mark.parametrize("moment", [float("nan"), float("inf")])
    def test_moment_certificate_rejects_non_finite(self, moment):
        # a NaN moment used to come back as a NaN bound
        with pytest.raises(ValidationError, match="finite"):
            moment_tail_certificate({2: moment}, 0.75)


class TestMomentTail:
    def test_direct_bound(self):
        assert moment_tail_certificate({2: 4.0}, 1.0) == 5.0

    def test_boundary_excluded_picks_next(self):
        # N = 2 gives N*delta = 1 exactly, inadmissible; N = 3 works
        assert moment_tail_certificate({2: 4.0, 3: 8.0}, 0.5) == pytest.approx(
            1.0 + 8.0**0.5 / 0.5
        )

    def test_degenerate_law(self):
        assert moment_tail_certificate({5: 0.0}, 1.0) == 1.0

    def test_insufficient_moments(self):
        with pytest.raises(ValidationError, match="insufficient"):
            moment_tail_certificate({1: 2.0}, 0.5)


class TestExtendedReals:
    def test_tagged_infinity_rejects_arithmetic(self):
        with pytest.raises(TypeError):
            POS_INF + 1.0
        with pytest.raises(TypeError):
            1.0 - POS_INF

    def test_ext_sub_rules(self):
        assert ext_sub(3.0, 1.0) == 2.0
        assert is_inf(ext_sub(POS_INF, 1.0))
        with pytest.raises(TypeError):
            ext_sub(1.0, POS_INF)

    def test_cpt_value_json_shape(self):
        val = CPTValue.from_parts(POS_INF, 1.0)
        d = val.to_json_dict()
        assert d == {
            "v_plus": None,
            "v_minus": 1.0,
            "v": None,
            "admissible": True,
            "v_plus_infinite": True,
        }
        finite = CPTValue.from_parts(2.0, 0.5)
        assert finite.to_json_dict()["v"] == 1.5
        assert not finite.to_json_dict()["v_plus_infinite"]


class TestDiscreteRV:
    def test_probability_sum_enforced(self):
        with pytest.raises(ValidationError, match="sum"):
            DiscreteRV(((1.0, 0.5), (2.0, 0.4)))

    def test_values_must_be_finite(self):
        with pytest.raises(ValidationError, match="finite"):
            DiscreteRV(((math.inf, 1.0),))


class TestRankSurvival:
    """Equal laws of power-of-two probability read survivals from a rank table."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 12),
        st.sampled_from(sorted(DISTORTIONS)),
        st.sampled_from(["distinct", "rounded", "few values", "zeros"]),
    )
    def test_power_of_two_laws_match_the_scalar_kernel_bitwise(self, seed, k, family, ties):
        n, rows = 2**k, 3
        probs = np.full(n, 2.0**-k)
        values = tied_values(np.random.default_rng(seed), n, ties, 2 * rows)
        w, other = DISTORTIONS[family], DISTORTIONS["tk"]
        one = [reference_choquet(row, probs, w) for row in values]
        two = one[:rows] + [reference_choquet(row, probs, other) for row in values[rows:]]
        # a plain array, and the law a search builds once
        for law in (probs, _Law(probs)):
            assert bits(_choquet_rows(values.copy(), law, w)) == bits(one)
            assert bits(_choquet_rows(values[:1].copy(), law, w)) == bits(one[:1])
            assert bits(_choquet_rows(values.copy(), law, w, other)) == bits(two)

    @pytest.mark.parametrize("k", range(13))
    def test_rank_table_for_power_of_two_probabilities(self, k):
        n = 2**k
        law = _Law(np.full(n, 2.0**-k))
        assert law.by_rank is not None
        assert bits(law.by_rank) == bits((n - np.arange(n)) / n)

    @pytest.mark.parametrize(
        "probs",
        [np.full(3, 1.0 / 3.0), np.full(6, 1.0 / 6.0), np.array([0.25, 0.75]),
         np.array([0.5, 0.25, 0.25]), np.zeros(4), np.zeros(0)],
        ids=["third", "sixth", "unequal", "unequal-dyadic", "zero", "empty"],
    )
    def test_no_rank_table_for_other_laws(self, probs):
        assert _Law(probs).by_rank is None

    @pytest.mark.parametrize("p", [1.0 / 8.0, 0.5], ids=["sub-unit", "over-unit"])
    @pytest.mark.parametrize("family", sorted(DISTORTIONS))
    def test_laws_of_other_mass_match_the_scalar_kernel(self, p, family):
        # four atoms of mass 1/2 or 2: the over-unit survivals are capped at 1
        probs, w = np.full(4, p), DISTORTIONS[family]
        rng = np.random.default_rng(21)
        for ties in ("distinct", "rounded", "few values", "zeros"):
            values = tied_values(rng, 4, ties, 5)
            expected = [reference_choquet(row, probs, w) for row in values]
            assert bits(_choquet_rows(values.copy(), probs, w)) == bits(expected)

    @pytest.mark.parametrize(
        "blocks,held",
        [((1, 3, 40, 2, 300), [1, 3, 40, 40, 300]), ((2, 3, 5), [2, 4, 8])],
        ids=["grow-then-shrink", "doubling"],
    )
    @pytest.mark.parametrize("k", [0, 3, 9])
    def test_one_law_serves_blocks_of_every_size(self, k, blocks, held):
        # the tiled table grows, at least doubling, and then serves smaller blocks
        n = 2**k
        probs = np.full(n, 2.0**-k)
        law, w = _Law(probs), DISTORTIONS["power"]
        rng = np.random.default_rng(k)
        ties, rows_held = ("distinct", "rounded", "few values", "zeros"), []
        for i, rows in enumerate(blocks):
            values = tied_values(rng, n, ties[i % 4], rows)
            expected = bits([reference_choquet(row, probs, w) for row in values])
            assert bits(_choquet_rows(values.copy(), law, w)) == expected
            assert bits(_choquet_rows(values.copy(), _Law(probs), w)) == expected
            assert bits(_choquet_rows(values.copy(), probs, w)) == expected
            rows_held.append(law.tiled.size // n)
        assert rows_held == held
        assert bits(law.tiled[:n]) == bits(law.by_rank)


class TestSignCheck:
    """The kernel refuses a negative atom value after sorting, from each
    row's first cell: NaN sorts last, so it cannot hide a negative value."""

    LAWS = {
        "equal": np.full(3, 1.0 / 3.0),
        "unequal": np.array([0.5, 0.3, 0.2]),
        "dyadic": np.full(4, 0.25),
    }

    @pytest.mark.parametrize("negative", [-1.0, -math.inf, -5e-324])
    @pytest.mark.parametrize("nan_first", [True, False], ids=["nan-row-first", "nan-row-last"])
    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_nan_row_does_not_hide_a_negative_row(self, name, nan_first, negative):
        probs = self.LAWS[name]
        nan_row = np.full(probs.size, math.nan)
        bad_row = np.linspace(2.0, 0.5, probs.size)
        bad_row[1] = negative
        block = np.stack([nan_row, bad_row] if nan_first else [bad_row, nan_row])
        for law in (probs, _Law(probs)):
            for ws in ((identity,), (identity, identity)):
                with pytest.raises(ValidationError, match="nonnegative"):
                    _choquet_rows(block.copy(), law, *ws)

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_nan_block_is_not_refused(self, name):
        probs = self.LAWS[name]
        block = np.full((2, probs.size), math.nan)
        block[1, 0] = 1.0
        for law in (probs, _Law(probs)):
            out = _choquet_rows(block.copy(), law, identity)
            assert np.isnan(out).all()

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_negative_zero_is_not_refused(self, name):
        probs = self.LAWS[name]
        block = np.full((1, probs.size), -0.0)
        assert bits(_choquet_rows(block, probs, identity)) == bits([0.0])
