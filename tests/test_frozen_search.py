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
    cpt_value,
    PureStrategy,
    ladder,
    optimize_pure,
    optimize_randomized,
)
from cpttree.optimize import coin_cpt_value
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


def test_pure_with_an_extra_start():
    # the extra start duplicates no fixed start, and its poll wins
    tree = build_iid_market([(0.3, 1.0), (0.4, 0.1), (0.3, -0.9)], 2)
    extra = PureStrategy({0: (0.3,), 1: (0.03,), 2: (0.3,), 3: (0.01,)})
    strat, val = optimize_pure(
        tree, INVERSE_S, 0.0, ReferenceSpec.constant(tree, 0.2), SearchConfig(seed=2, multistart=1),
        extra_starts=[extra],
    )
    assert val.v == -0.27928141850746113
    assert flat(strat) == (
        0.2681855347007513, 0.02493715167045593, 0.29798392690718173, 2.2351741811588166e-10
    )


def test_pure_coin_single_step_schedule():
    # tol between step0 / 2 and step0: every cycle polls one step size only
    tree = build_iid_market(COIN, 3)
    strat, val = optimize_pure(
        tree, coin_model_preferences(), 0.0, ReferenceSpec.zero(tree),
        SearchConfig(box_radius=1.0, tol=0.3, multistart=2, seed=1, max_box_doublings=0),
    )
    assert val.v == 0.44376398608744216
    assert flat(strat) == (
        0.023643249400513433, 0.5, -0.21168077456073253, 0.3972988942744877,
        -0.8763370959790291, 0.3466528979451513, 0.1554051876408835,
    )


def test_coarse_search_on_the_512_leaf_coin_tree():
    # loss averse with linear weighting: the zero start is a local optimum at
    # the single step size and beats the random start; every poll values
    # blocks of 512-leaf laws of common probability 2^-9
    tree = build_iid_market(COIN, 9)
    pref = PreferenceSpec(
        utility=UtilityPair.power(0.5, 1.0, k=2.25),
        distortion=DistortionPair(Distortion.identity(), Distortion.identity()),
    )
    strat, val = optimize_pure(
        tree, pref, 0.0, ReferenceSpec.zero(tree),
        SearchConfig(box_radius=0.5, tol=0.15, multistart=1, seed=0, max_box_doublings=0),
    )
    assert (val.v_plus, val.v_minus, val.v) == (0.0, 0.0, 0.0)
    assert flat(strat) == (0.0,) * 511


def test_constant_position_on_the_4096_leaf_coin_tree():
    tree = build_iid_market(COIN, 12)
    val = cpt_value(
        tree, PureStrategy.constant(tree, 0.3), 0.0, ReferenceSpec.zero(tree),
        coin_model_preferences(),
    )
    assert (val.v_plus, val.v_minus) == (0.668124380980681, 0.40605468749999996)
    assert val.v == 0.2620696934806811


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


def test_two_atom_mixture_after_box_doublings():
    # the pure search doubles its box of 0.1, and the mixture runs in the doubled box
    tree = build_iid_market(COIN, 1)
    strat, val = optimize_randomized(
        tree, coin_model_preferences(), 0.0, ReferenceSpec.zero(tree), 2,
        SearchConfig(seed=1, multistart=1, box_radius=0.1),
    )
    assert val.v == 0.38953872227748554
    assert [(w, flat(a)) for w, a in strat.atoms] == [
        (0.5, (0.3968502640724182,)), (0.5, (-0.12253470420837398,))
    ]


def test_two_atom_mixture_with_subhedge():
    tree, pref, ref, x0 = random_instance()
    strat, val = optimize_randomized(tree, pref, x0, ref, 2, SearchConfig(seed=1, multistart=1))
    assert val.v == 0.21676789586625092
    assert [flat(a) for _, a in strat.atoms] == [(-0.19985275601350072,), (-0.18494085000153718,)]


def test_ladder_two_coins():
    res = ladder(2, SearchConfig(seed=3))
    assert res.values == (0.3750000000000001, 0.38953872227748554, 0.4012263364466108)
    assert res.argmax == (
        (0.25000000000000006,),
        (0.12253470004459745, 0.3968502629920499),
        (0.10882197564336238, 0.13664268484676154, 0.19451171175340165, 0.6299605249474366),
    )


def test_ladder_three_coins():
    # level 3 values 8-atom laws, beyond the 4 atoms of ``ladder(2)``
    res = ladder(3, SearchConfig(seed=3))
    assert res.values == (
        0.3750000000000001, 0.38953872227748554, 0.4012263364466108, 0.4105433705601618
    )
    assert res.argmax[3] == (
        0.10365129535926369, 0.11405483130424114, 0.12754152643318473, 0.14589803375031557,
        0.17274411861353106, 0.21690674166950838, 0.3087680958574851, 1.0,
    )


@pytest.mark.parametrize(
    "m,v_plus,v_minus",
    [
        (3, 0.7816069327524843, 0.7002864612209304),
        (8, 0.7149798931427069, 0.42543375740602857),
        (33, 0.738708940467378, 0.5072064635884328),
    ],
)
def test_coin_value_unequal_weights(m, v_plus, v_minus):
    # the loss side is a weighted sum of m atoms: these pin its summation order
    rng = np.random.default_rng(m)
    theta = np.round(rng.uniform(-2, 2, m), 3)
    w = rng.uniform(0.1, 1, m)
    val = coin_cpt_value(theta, w / w.sum())
    assert (val.v_plus, val.v_minus) == (v_plus, v_minus)
    assert val.v == v_plus - v_minus


def test_boundedness_probe_with_subhedge():
    tree, pref, ref, x0 = random_instance()
    res = boundedness_probe(tree, pref, x0, ref, [0.5, 1, 2, 4], SearchConfig(seed=0, multistart=1))
    # the search at radius 4 ends one ulp below the others, 0.21623706365540177:
    # the running max holds the value found at radius 0.5
    assert res.points == (
        (0.5, 0.2162370636554018),
        (1.0, 0.2162370636554018),
        (2.0, 0.2162370636554018),
        (4.0, 0.2162370636554018),
    )
    assert res.plateau


def test_boundedness_probe_from_radius_zero():
    # radius 0 is the sub-hedge, the first value of the running max
    tree = build_iid_market([(0.3, 1.0), (0.4, 0.1), (0.3, -0.9)], 2)
    res = boundedness_probe(
        tree, INVERSE_S, 0.7, ReferenceSpec.constant(tree, 0.2), [0.0, 0.05, 0.1, 0.2],
        SearchConfig(seed=3, multistart=2),
    )
    assert res.points == (
        (0.0, 0.8122523963562355),
        (0.05, 0.813142249896616),
        (0.1, 0.8134026989883436),
        (0.2, 0.813418135104033),
    )
    assert not res.plateau


def test_boundedness_probe_with_subhedge_from_radius_zero():
    tree, pref, ref, x0 = random_instance()
    cfg = SearchConfig(seed=0, multistart=2)
    res = boundedness_probe(tree, pref, x0, ref, [0.0, 0.5, 1, 2], cfg)
    assert res.points == (
        (0.0, 0.17031051720406043),
        (0.5, 0.2162370636554018),
        (1.0, 0.2162370636554018),
        (2.0, 0.2162370636554018),
    )
