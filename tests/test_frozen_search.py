"""Frozen search outputs: exact floats, compared with ``==``.

The compass search is deterministic given its seed, so any change to the
search loop, the objective or the outcome engine that keeps the trajectory
keeps every float below. A change that moves one of them changes results
and has to say so.
"""

import numpy as np
import pytest

from conftest import random_ref, random_tree, tame_valid_pref
from cpttree import (
    ReferenceSpec,
    SearchConfig,
    boundedness_probe,
    build_iid_market,
    coin_model_preferences,
    ladder,
    optimize_pure,
    optimize_randomized,
)
from cpttree.preferences import Distortion, DistortionPair, PreferenceSpec, UtilityPair

COIN = [(0.5, 1.0), (0.5, -1.0)]
INVERSE_S = PreferenceSpec(
    utility=UtilityPair.power(0.3, 0.9, k=2.25),
    distortion=DistortionPair(Distortion.tk(0.7), Distortion.tk(0.7)),
)


def flat(strategy):
    return tuple(x for _, vec in sorted(strategy.allocations.items()) for x in vec)


def random_instance():
    rng = np.random.default_rng(1000)
    tree = random_tree(rng)
    pref = tame_valid_pref(rng)
    ref = random_ref(rng, tree)
    return tree, pref, ref, float(rng.uniform(-1.0, 1.0))


def test_pure_coin_two_periods():
    tree = build_iid_market(COIN, 2)
    strat, val = optimize_pure(
        tree, coin_model_preferences(), 0.0, ReferenceSpec.zero(tree),
        SearchConfig(seed=0, multistart=2),
    )
    assert val.v == 0.4540983453847053
    assert flat(strat) == (-0.10430710017681122, 0.5011573731899261, 0.018227603286504745)


def test_pure_coin_box_doublings():
    tree = build_iid_market(COIN, 1)
    strat, val = optimize_pure(
        tree, coin_model_preferences(), 0.0, ReferenceSpec.zero(tree),
        SearchConfig(seed=0, multistart=1, box_radius=0.1),
    )
    assert val.v == 0.3750000000000001
    assert flat(strat) == (0.25000000000000006,)


@pytest.mark.parametrize(
    "x0,v,theta",
    [
        (0.0, -0.28008452627549774, (0.28125, 0.029715150594711304, 0.3125, 0.0)),
        (0.7, 0.8178984834053605,
         (0.103350051581406, 0.21818344280428775, 0.11483338895620168, -3.086085400270078e-10)),
    ],
)
def test_pure_trinomial_inverse_s(x0, v, theta):
    tree = build_iid_market([(0.3, 1.0), (0.4, 0.1), (0.3, -0.9)], 2)
    strat, val = optimize_pure(
        tree, INVERSE_S, x0, ReferenceSpec.constant(tree, 0.2), SearchConfig(seed=2, multistart=1)
    )
    assert val.v == v
    assert flat(strat) == theta


def test_two_atom_mixture_coin():
    tree = build_iid_market(COIN, 1)
    strat, val = optimize_randomized(
        tree, coin_model_preferences(), 0.0, ReferenceSpec.zero(tree), 2,
        SearchConfig(seed=5, multistart=2),
    )
    assert val.v == 0.3895387222774854
    assert [(w, flat(a)) for w, a in strat.atoms] == [
        (0.5, (0.3968502692115443,)), (0.5, (-0.12253470242796993,))
    ]


def test_two_atom_mixture_with_subhedge():
    tree, pref, ref, x0 = random_instance()
    strat, val = optimize_randomized(tree, pref, x0, ref, 2, SearchConfig(seed=1, multistart=1))
    assert val.v == 0.21676789586625092
    assert [flat(a) for _, a in strat.atoms] == [(-0.19985275601350072,), (-0.18494085000153718,)]


def test_ladder_two_coins():
    res = ladder(2, SearchConfig(seed=3))
    assert res.values == (0.3750000000000001, 0.3895387222774855, 0.4012263364466108)
    assert res.argmax == (
        (0.25,),
        (0.12253469602190858, 0.3968502719263084),
        (0.1088219721178062, 0.13664269820773012, 0.19451171533190614, 0.6299605209688194),
    )


def test_boundedness_probe_with_subhedge():
    tree, pref, ref, x0 = random_instance()
    res = boundedness_probe(tree, pref, x0, ref, [0.5, 1, 2, 4], SearchConfig(seed=0, multistart=1))
    # the last point sits one ulp below the others: the sequence is
    # nondecreasing only up to re-evaluation rounding
    assert res.points == (
        (0.5, 0.2162370636554018),
        (1.0, 0.2162370636554018),
        (2.0, 0.2162370636554018),
        (4.0, 0.21623706365540177),
    )
    assert res.plateau
