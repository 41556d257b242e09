"""Shared seeded generators for random markets, preferences and references,
and a recorder of the multistart lockstep."""

import numpy as np
import pytest

from cpttree import ScenarioTree, terminal_wealth
from cpttree.preferences import Distortion, DistortionPair, PreferenceSpec, UtilityPair
from cpttree.tree import PureStrategy, ReferenceSpec


def random_tree(rng: np.random.Generator, max_horizon: int = 2, asset_dim: int = 1) -> ScenarioTree:
    """Small random tree whose every node supports a gain and a loss (so NA holds)."""
    horizon = int(rng.integers(1, max_horizon + 1))
    parent, prob, incs = [-1], [1.0], [(0.0,) * asset_dim]
    frontier = [0]
    for _ in range(horizon):
        nxt = []
        for node in frontier:
            if asset_dim == 1:
                k = int(rng.integers(2, 4))
                vecs = rng.uniform(-1.5, 1.5, (k, asset_dim))
                vecs[0, 0] = abs(vecs[0, 0]) + 0.5
                vecs[1, 0] = -abs(vecs[1, 0]) - 0.5
            else:
                # mirrored pairs keep zero in the interior of the support hull
                half = int(rng.integers(1, 3)) * asset_dim
                raw = rng.uniform(-1.5, 1.5, (half, asset_dim))
                raw += 0.2 * np.sign(raw)
                vecs = np.vstack([raw, -raw])
                k = len(vecs)
            w = rng.uniform(0.2, 1.0, k)
            w = w / w.sum()
            w[-1] = 1.0 - w[:-1].sum()
            for i in range(k):
                parent.append(node)
                prob.append(float(w[i]))
                incs.append(tuple(vecs[i]))
                nxt.append(len(parent) - 1)
        frontier = nxt
    return ScenarioTree(
        horizon=horizon,
        asset_dim=asset_dim,
        parent=tuple(parent),
        prob=tuple(prob),
        increments=tuple(incs),
    )


def random_valid_pref(rng: np.random.Generator) -> PreferenceSpec:
    """Power preferences satisfying the decisive gate alpha+/gamma+ < alpha-."""
    alpha_minus = float(rng.uniform(0.7, 1.0))
    gamma_plus = float(rng.uniform(0.6, 1.0))
    alpha_plus = float(rng.uniform(0.3, 0.9) * gamma_plus * alpha_minus)
    gamma_minus = float(rng.uniform(0.5, 1.0))
    k = float(rng.uniform(1.0, 2.5))
    return PreferenceSpec(
        utility=UtilityPair.power(alpha_plus, alpha_minus, k=k),
        distortion=DistortionPair(Distortion.power(gamma_plus), Distortion.power(gamma_minus)),
    )


def tame_valid_pref(rng: np.random.Generator) -> PreferenceSpec:
    """Gate-respecting preferences with strong loss aversion: optima stay small."""
    alpha_minus = float(rng.uniform(0.8, 1.0))
    gamma_plus = float(rng.uniform(0.6, 1.0))
    alpha_plus = float(rng.uniform(0.2, 0.7) * gamma_plus * alpha_minus)
    gamma_minus = float(rng.uniform(0.5, 1.0))
    k = float(rng.uniform(1.5, 3.0))
    return PreferenceSpec(
        utility=UtilityPair.power(alpha_plus, alpha_minus, k=k),
        distortion=DistortionPair(Distortion.power(gamma_plus), Distortion.power(gamma_minus)),
    )


def random_ref(rng: np.random.Generator, tree: ScenarioTree, scale: float = 0.5) -> ReferenceSpec:
    """Reference point sub-hedged by construction: benchmark = hedge wealth + slack."""
    d = tree.asset_dim
    phi = PureStrategy(
        {int(n): tuple(float(v) for v in rng.uniform(-scale, scale, d)) for n in tree.nonterminal_ids}
    )
    floor = float(rng.uniform(-1.0, 0.0))
    wealth = terminal_wealth(tree, phi, floor)
    bench = {leaf: w + float(rng.uniform(0.0, 0.5)) for leaf, w in wealth.items()}
    return ReferenceSpec(benchmark=bench, subhedge=phi, floor=floor)


def random_pure(rng: np.random.Generator, tree: ScenarioTree, bound: float = 5.0) -> PureStrategy:
    return PureStrategy(
        {
            int(n): tuple(float(v) for v in rng.uniform(-bound, bound, tree.asset_dim))
            for n in tree.nonterminal_ids
        }
    )


@pytest.fixture
def coin_tree() -> ScenarioTree:
    from cpttree import build_iid_market

    return build_iid_market([(0.5, 1.0), (0.5, -1.0)], 1)


@pytest.fixture
def lockstep_rounds(monkeypatch):
    """Records, for every ``optimize._lockstep`` call, its number of starts,
    and for every lockstep round, the number of polls live in it (read at
    the round's ``shift`` call); returns the two lists."""
    from cpttree import optimize

    starts, rounds, live = [], [], [0]
    run, poll = optimize._lockstep, optimize._poll

    def counted_poll(*args):
        live[0] += 1
        try:
            return (yield from poll(*args))
        finally:
            live[0] -= 1

    def recorded_run(values_of, shift, state_of, z0s, *args):
        starts.append(len(z0s))

        def recorded_shift(*request):
            rounds.append(live[0])
            return shift(*request)

        return run(values_of, recorded_shift, state_of, z0s, *args)

    monkeypatch.setattr(optimize, "_poll", counted_poll)
    monkeypatch.setattr(optimize, "_lockstep", recorded_run)
    return starts, rounds
