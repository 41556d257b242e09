import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpttree import (
    DiffusionSpec,
    ValidationError,
    build_discretized_diffusion,
    build_iid_market,
    emit_pmf,
    exponentiate_prices,
    parse_pmf,
    uniform_quantile_pmf,
)


class TestIidMarket:
    def test_balanced_coin_product(self):
        tree = build_iid_market([(0.5, 1.0), (0.5, -1.0)], 2)
        assert len(tree.leaf_ids) == 4
        assert np.all(tree.leaf_prob == 0.25)

    def test_one_step_coin(self):
        tree = build_iid_market([(0.5, 1.0), (0.5, -1.0)], 1)
        assert tree.horizon == 1 and len(tree.leaf_ids) == 2
        assert sorted(tree.increments[i][0] for i in tree.leaf_ids) == [-1.0, 1.0]

    def test_three_atom_three_period_leaf_probs(self):
        # dyadic pmf: leaf probabilities are exact products; enumerate paths
        pmf = [(0.25, 2.0), (0.25, -1.0), (0.5, 0.5)]
        tree = build_iid_market(pmf, 3)
        assert len(tree.leaf_ids) == 27
        probs = {2.0: 0.25, -1.0: 0.25, 0.5: 0.5}
        for row, leaf in enumerate(tree.leaf_ids):
            node = int(leaf)
            expected = 1.0
            while node != 0:
                expected *= probs[tree.increments[node][0]]
                node = tree.parent[node]
            assert tree.leaf_prob[row] == expected

    def test_empty_pmf_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            build_iid_market([], 1)

    def test_bad_probability_sum_rejected(self):
        with pytest.raises(ValidationError, match="sum"):
            build_iid_market([(0.5, 1.0), (0.5 + 1e-6, -1.0)], 1)

    def test_small_probability_drift_normalized(self):
        tree = build_iid_market([(0.5, 1.0), (0.5 + 1e-12, -1.0)], 2)
        assert abs(tree.leaf_prob.sum() - 1.0) < 1e-12


class TestDiscretizedDiffusion:
    @staticmethod
    def coin_noise():
        return [(0.5, (1.0,)), (0.5, (-1.0,))]

    def test_zero_drift_identity_vol_is_random_walk(self):
        spec = DiffusionSpec(
            state_dim=1,
            noise_dim=1,
            drift=lambda y: np.zeros(1),
            volatility=lambda y: np.eye(1),
            ellipticity_floor=0.5,
            noise_pmf=self.coin_noise(),
            initial_state=(0.0,),
        )
        tree = build_discretized_diffusion(spec, 2, traded=[0])
        walk = build_iid_market([(0.5, 1.0), (0.5, -1.0)], 2)
        assert tree.increments == walk.increments
        assert tree.prob == walk.prob
        assert tree.warnings == ()

    def test_states_follow_hand_recursion(self):
        spec = DiffusionSpec(
            state_dim=1,
            noise_dim=1,
            drift=lambda y: np.array([0.1]),
            volatility=lambda y: np.eye(1),
            ellipticity_floor=0.5,
            noise_pmf=self.coin_noise(),
            initial_state=(0.0,),
        )
        tree = build_discretized_diffusion(spec, 2, traded=[0])
        states = sorted(s[0] for s in tree.states)
        assert states == pytest.approx(sorted([0.0, 1.1, -0.9, 2.2, 0.2, 0.2, -1.8]), abs=1e-12)

    def test_ellipticity_failure_sets_warning(self):
        spec = DiffusionSpec(
            state_dim=2,
            noise_dim=1,
            drift=lambda y: np.zeros(2),
            volatility=lambda y: np.array([[1.0], [0.0]]),  # rank deficient
            ellipticity_floor=0.1,
            noise_pmf=self.coin_noise(),
            initial_state=(0.0, 0.0),
        )
        tree = build_discretized_diffusion(spec, 1, traded=[0])
        assert tree.warnings and "ellipticity" in tree.warnings[0]

    def test_traded_subset_projects_increments(self):
        spec = DiffusionSpec(
            state_dim=2,
            noise_dim=2,
            drift=lambda y: np.zeros(2),
            volatility=lambda y: np.eye(2),
            ellipticity_floor=0.5,
            noise_pmf=[(0.25, (1.0, 1.0)), (0.25, (1.0, -1.0)), (0.25, (-1.0, 1.0)), (0.25, (-1.0, -1.0))],
            initial_state=(0.0, 0.0),
        )
        tree = build_discretized_diffusion(spec, 1, traded=[1])
        assert tree.asset_dim == 1
        assert sorted(tree.increments[i][0] for i in tree.leaf_ids) == [-1.0, -1.0, 1.0, 1.0]

    @pytest.mark.parametrize("floor", [0.0, -1.0, math.nan, math.inf])
    def test_ellipticity_floor_positive_and_finite(self, floor):
        # a NaN floor would flag no direction, an infinite one every direction
        with pytest.raises(ValidationError, match="^ellipticity floor must be positive and finite"):
            DiffusionSpec(
                state_dim=1,
                noise_dim=1,
                drift=lambda y: np.zeros(1),
                volatility=lambda y: 1e-9 * np.eye(1),
                ellipticity_floor=floor,
                noise_pmf=self.coin_noise(),
                initial_state=(0.0,),
            )

    def test_bad_traded_index_rejected(self):
        spec = DiffusionSpec(
            state_dim=1,
            noise_dim=1,
            drift=lambda y: np.zeros(1),
            volatility=lambda y: np.eye(1),
            ellipticity_floor=0.5,
            noise_pmf=self.coin_noise(),
            initial_state=(0.0,),
        )
        with pytest.raises(ValidationError, match="traded"):
            build_discretized_diffusion(spec, 1, traded=[1])


class TestExponentiatePrices:
    @staticmethod
    def walk(horizon):
        spec = DiffusionSpec(
            state_dim=1,
            noise_dim=1,
            drift=lambda y: np.zeros(1),
            volatility=lambda y: np.eye(1),
            ellipticity_floor=0.5,
            noise_pmf=[(0.5, (1.0,)), (0.5, (-1.0,))],
            initial_state=(0.0,),
        )
        return build_discretized_diffusion(spec, horizon, traded=[0])

    def test_single_up_step(self):
        tree = exponentiate_prices(self.walk(1))
        ups = {tree.increments[i][0] for i in tree.leaf_ids}
        assert math.e - 1.0 in ups
        assert math.exp(-1.0) - 1.0 in ups

    def test_two_step_walk_matches_hand_exponentials(self):
        tree = exponentiate_prices(self.walk(2))
        expected = set()
        for a in (1.0, -1.0):
            for b in (a + 1.0, a - 1.0):
                expected.add(round(math.exp(b) - math.exp(a), 12))
        got = {round(tree.increments[int(i)][0], 12) for i in tree.leaf_ids}
        assert got == expected

    def test_requires_scalar_state(self):
        tree = build_iid_market([(0.5, 1.0), (0.5, -1.0)], 1)  # no states
        with pytest.raises(ValidationError, match="scalar state"):
            exponentiate_prices(tree)


class TestPmfFiles:
    def test_round_trip(self):
        pmf = uniform_quantile_pmf(-1.0, 1.0, 8)
        assert parse_pmf(emit_pmf(pmf)) == pmf

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 2).flatmap(
            lambda d: st.lists(
                st.tuples(
                    st.integers(1, 64),
                    st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * d),
                ),
                min_size=1,
                max_size=6,
            )
        )
    )
    def test_random_pmfs_round_trip(self, atoms):
        # dyadic weights sum to 1 exactly, so normalizing leaves them as they are
        scale = 2.0 ** int(np.ceil(np.log2(sum(w for w, _ in atoms))))
        pmf = [(w / scale, v) for w, v in atoms]
        pmf[-1] = (1.0 - sum(w for w, _ in pmf[:-1]), pmf[-1][1])
        text = emit_pmf(pmf)
        parsed = parse_pmf(text)
        assert parsed == pmf
        assert emit_pmf(parsed) == text

    def test_quantile_grid_matches_cdf_at_atoms(self):
        pmf = uniform_quantile_pmf(-1.0, 1.0, 1000)
        atoms = np.array([v[0] for _, v in pmf])
        # P(X <= atom_i) = i/n exactly matches the uniform cdf at the atom
        assert np.allclose((atoms + 1.0) / 2.0, np.arange(1, 1001) / 1000.0, atol=1e-12)

    @pytest.mark.parametrize(
        "lo, hi",
        [(0.0, math.inf), (-math.inf, 1.0), (-math.inf, math.inf), (-1e308, 1e308),
         (np.float64(-1e308), np.float64(1e308))],
    )
    def test_quantile_grid_refuses_non_finite_bounds(self, lo, hi):
        # (0, inf) used to give inf atoms, and (-inf, 1) NaN atoms with a warning
        with pytest.raises(ValidationError, match="finite"):
            uniform_quantile_pmf(lo, hi, 3)

    @pytest.mark.parametrize("n_atoms", [2.5, 2.0, "3"])
    def test_quantile_grid_refuses_a_non_integer_count(self, n_atoms):
        # 2.5 gave three atoms of mass 0.4, one at 1.2 above hi
        with pytest.raises(ValidationError, match="n_atoms must be an integer"):
            uniform_quantile_pmf(0.0, 1.0, n_atoms)

    def test_quantile_grid_takes_a_numpy_integer(self):
        assert uniform_quantile_pmf(0.0, 1.0, np.int64(4)) == uniform_quantile_pmf(0.0, 1.0, 4)

    def test_bad_line_rejected(self):
        with pytest.raises(ValidationError, match="pmf line"):
            parse_pmf("atom x 1\n")
