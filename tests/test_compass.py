"""The speculative compass poll against the sequential poll it replaced.

``sequential_compass`` is the one-move-at-a-time poll, kept here as the
reference: on the same objective, the speculative poll must return the same
``(z, best)`` exactly, and raise where the sequential poll raises. Several
starts polled in lockstep must return what the sequential poll from each
start in turn returns, the first best in start order winning.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpttree import (
    Distortion,
    DistortionPair,
    PreferenceSpec,
    ReferenceSpec,
    UtilityPair,
    build_iid_market,
    coin_model_preferences,
    optimize,
)
from cpttree.optimize import SearchConfig, optimize_pure


def sequential_compass(value_of, shift, z0, state0, lo, hi, tol):
    z = z0.copy()
    state = state0
    best = value_of(state)
    m = z.size
    step0 = (hi - lo) / 4.0
    evals = 0
    for _ in range(50):
        cycle_start = best
        step = step0
        while step > tol and evals < optimize._EVAL_BUDGET:
            fails = 0
            j = 0
            while fails < m and evals < optimize._EVAL_BUDGET:
                improved = False
                for sgn in (1.0, -1.0):
                    nc = min(hi, max(lo, z[j] + sgn * step))
                    delta = nc - z[j]
                    if delta == 0.0:
                        continue
                    cand = shift(state, j, delta)
                    v = value_of(cand)
                    evals += 1
                    if v > best:
                        z[j] = nc
                        state = cand
                        best = v
                        improved = True
                        break
                fails = 0 if improved else fails + 1
                j = (j + 1) % m
            step *= optimize._SHRINK
        if best <= cycle_start or evals >= optimize._EVAL_BUDGET:
            break
    return z, best


def kinked_objective(rng, m):
    """A seeded non-concave objective with kinks, coupled across coordinates.
    Coordinate 0 is pulled hard towards 3, so in [-1, 1]^m its moves get
    clipped at the upper bound, where the optimum sits."""
    centre = rng.uniform(-2.0, 2.0, m)
    scale = rng.uniform(0.5, 2.0, m)
    power = rng.uniform(0.6, 1.8, m)
    mix = rng.normal(size=m)
    centre[0], scale[0], power[0] = 3.0, 3.0, 1.0

    def f(z):
        return float(
            -np.sum(scale * np.abs(z - centre) ** power)
            + 0.3 * np.sin(3.0 * z).sum()
            + 0.2 * np.sin(z @ mix)
        )

    return f


def scalar_shift(z, j, delta):
    new = z.copy()
    new[j] += delta
    return new


def row_shift(base, js, deltas):
    rows = np.broadcast_to(base, (len(js), base.shape[-1])).copy()
    rows[np.arange(len(js)), js] += deltas
    return rows


def reference(f, z0, lo=-1.0, hi=1.0, tol=1e-9):
    def value_of(z):
        return optimize._finite(f(z))

    return sequential_compass(value_of, scalar_shift, z0, z0.copy(), lo, hi, tol)


def speculative(f, z0, **box):
    """The speculative result and the sizes of the blocks it evaluated."""
    return lockstep(f, [z0], **box)


def both(f, z0, **box):
    return (reference(f, z0, **box), *speculative(f, z0, **box))


def assert_same(ref, got):
    assert np.array_equal(ref[0], got[0]) and ref[1] == got[1]


@pytest.mark.parametrize("m", [1, 40])
@pytest.mark.parametrize("seed", range(4))
def test_same_trajectory_as_the_sequential_poll(m, seed):
    rng = np.random.default_rng(seed)
    f = kinked_objective(rng, m)
    z0 = rng.uniform(-1.0, 1.0, m)
    ref, got, sizes = both(f, z0)
    assert_same(ref, got)
    assert max(sizes) > 2  # blocks grew past one coordinate
    assert got[0][0] == 1.0


def test_no_polls_when_the_first_step_is_below_tol():
    f = kinked_objective(np.random.default_rng(7), 3)
    z0 = np.array([0.1, -0.2, 0.3])
    ref, got, sizes = both(f, z0, lo=-1e-10, hi=1e-10, tol=1e-9)
    assert_same(ref, got)
    assert np.array_equal(got[0], z0) and sizes == [1]


@pytest.mark.parametrize("budget", [1, 37, 250])
def test_budget_cut_mid_path_stops_at_the_same_point(monkeypatch, budget):
    rng = np.random.default_rng(11)
    f = kinked_objective(rng, 40)
    z0 = rng.uniform(-1.0, 1.0, 40)
    _, full = both(f, z0)[:2]
    monkeypatch.setattr(optimize, "_EVAL_BUDGET", budget)
    ref, got, _ = both(f, z0)
    assert_same(ref, got)
    assert got[1] < full[1]  # the budget did cut the search short


def point_objective(good, bad):
    """One coordinate from 0 in [-1, 1], where the poll tries +0.5, -0.5,
    +0.25, -0.25, +0.125, -0.125, ... until a move improves. The value is 1
    at ``good``, NaN at ``bad``, 0 at the start and -1 elsewhere."""

    def f(z):
        x = float(z[0])
        return 1.0 if x == good else float("nan") if x == bad else 0.0 if x == 0.0 else -1.0

    return f


def test_non_finite_value_after_the_first_improver_is_never_looked_at():
    # the first block holds +0.5, -0.5, +0.25, -0.25, +0.125, ...; the
    # sequential poll stops at -0.25 and never reaches +0.125 from there
    f = point_objective(good=-0.25, bad=0.125)
    seen = []

    def recorded(z):
        seen.append(float(z[0]))
        return f(z)

    got, _ = speculative(recorded, np.zeros(1))
    assert_same(reference(f, np.zeros(1)), got)
    assert got[0][0] == -0.25 and 0.125 in seen


def test_non_finite_value_before_the_first_improver_raises():
    f = point_objective(good=-0.125, bad=0.125)
    with pytest.raises(RuntimeError, match="non-finite"):
        reference(f, np.zeros(1))
    with pytest.raises(RuntimeError, match="non-finite"):
        speculative(f, np.zeros(1))


# --- several starts in lockstep ----------------------------------------------


def reference_multistart(f, z0s, lo=-1.0, hi=1.0, tol=1e-9):
    best_z, best_v = None, -np.inf
    for z0 in z0s:
        z, v = reference(f, z0, lo, hi, tol)
        if v > best_v:
            best_z, best_v = z, v
    return best_z, best_v


def lockstep(f, z0s, lo=-1.0, hi=1.0, tol=1e-9):
    """The lockstep result and the sizes of the blocks it evaluated."""
    sizes = []

    def values_of(block):
        sizes.append(len(block))
        return np.array([f(row) for row in block])

    boxes = [(lo, hi)] * len(z0s)
    return optimize._first_best(
        optimize._lockstep(values_of, row_shift, np.copy, z0s, boxes, tol)
    ), sizes


@pytest.fixture
def requests_per_start(monkeypatch):
    """Counts the block requests of each start's poll, in start order."""
    counts = []
    real = optimize._poll

    def counted(*args, **kwargs):
        k = len(counts)
        counts.append(0)
        poll = real(*args, **kwargs)
        reply = None
        while True:
            try:
                request = poll.send(reply)
            except StopIteration as done:
                return done.value
            counts[k] += 1
            reply = yield request

    monkeypatch.setattr(optimize, "_poll", counted)
    return counts


@pytest.mark.parametrize("m", [1, 12])
@pytest.mark.parametrize("seed", range(3))
def test_lockstep_returns_the_first_best_sequential_start(m, seed, requests_per_start):
    rng = np.random.default_rng(100 + seed)
    f = kinked_objective(rng, m)
    z0s = [rng.uniform(-1.0, 1.0, m) for _ in range(5)]
    got, sizes = lockstep(f, z0s)
    assert_same(reference_multistart(f, z0s), got)
    assert sizes[0] == len(z0s)  # one call values every start
    assert len(set(requests_per_start)) > 1  # the starts finished in different rounds
    assert max(sizes) > max(speculative(f, z0s[0])[1])  # blocks were stacked


def test_duplicate_starts_and_ties_go_to_the_first_start():
    # a mirror-symmetric objective: starts at -a and +a end at mirrored points
    # with bitwise equal values
    def f(z):
        return float(-np.sum((np.abs(z) - 0.5) ** 2))

    a = np.array([0.3, -0.7])
    for z0s in ([a, -a, a], [-a, a, -a, -a]):
        ref = reference_multistart(f, z0s)
        got, _ = lockstep(f, z0s)
        assert_same(ref, got)
        assert np.array_equal(np.sign(got[0]), np.sign(z0s[0]))


def test_ties_between_different_points_go_to_the_first_start():
    # the first and the last start end at mirrored points with equal values
    def f(z):
        return float(-np.sum((np.abs(z) - 0.5) ** 2))

    a = np.array([0.3, -0.7])
    for z0s in ([a, -a], [-a, a]):
        got, _ = lockstep(f, z0s)
        assert_same(reference_multistart(f, z0s), got)
        assert np.array_equal(np.sign(got[0]), np.sign(z0s[0]))


def test_starts_whose_first_step_is_below_tol():
    f = kinked_objective(np.random.default_rng(7), 3)
    z0s = [np.array([0.1, -0.2, 0.3]), np.array([-0.1, 0.0, 0.05]), np.zeros(3)]
    box = dict(lo=-1e-10, hi=1e-10, tol=1e-9)
    got, sizes = lockstep(f, z0s, **box)
    assert_same(reference_multistart(f, z0s, **box), got)
    assert sizes == [3]


@pytest.mark.parametrize("budget", [1, 37, 250])
def test_lockstep_budget_cut(monkeypatch, budget):
    rng = np.random.default_rng(12)
    f = kinked_objective(rng, 12)
    z0s = [rng.uniform(-1.0, 1.0, 12) for _ in range(4)]
    monkeypatch.setattr(optimize, "_EVAL_BUDGET", budget)
    assert_same(reference_multistart(f, z0s), lockstep(f, z0s)[0])


def test_a_start_that_meets_a_nan_raises_among_live_starts():
    rng = np.random.default_rng(5)
    kinked = kinked_objective(rng, 2)
    point = point_objective(good=-0.125, bad=0.125)

    def f(z):
        return point(z) if z[1] == 0.0 else kinked(z)

    z0s = [rng.uniform(-1.0, 1.0, 2), np.zeros(2), rng.uniform(-1.0, 1.0, 2)]
    with pytest.raises(RuntimeError, match="non-finite"):
        reference_multistart(f, z0s)
    with pytest.raises(RuntimeError, match="non-finite"):
        lockstep(f, z0s)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.lists(st.tuples(st.floats(-2.0, 1.0), st.floats(1e-10, 3.0)), min_size=1, max_size=5),
)
def test_lockstep_polls_each_start_in_its_own_box(seed, m, corners):
    # boxes of any widths, the first step of some below tol, polled in one lockstep
    rng = np.random.default_rng(seed)
    f = kinked_objective(rng, m)
    boxes = [(lo, lo + width) for lo, width in corners]
    z0s = [np.clip(rng.uniform(lo, hi, m), lo, hi) for lo, hi in boxes]

    def values_of(block):
        return np.array([f(row) for row in block])

    got = optimize._lockstep(values_of, row_shift, np.copy, z0s, boxes, 1e-9)
    for z0, (lo, hi), result in zip(z0s, boxes, got):
        assert_same(reference(f, z0, lo, hi), result)


def coin_search(monkeypatch, horizon, multistart, budget, pref=None, seed=3, **box):
    """A pure search on the +-1 coin tree with ``budget`` moves per start
    (coin-model preferences unless given); returns its strategy and value,
    and the size in floats of every row-kernel block."""
    blocks = []
    rows = optimize._cpt_rows

    def recorded_rows(block, *args):
        blocks.append(block.size)
        return rows(block, *args)

    monkeypatch.setattr(optimize, "_EVAL_BUDGET", budget)
    monkeypatch.setattr(optimize, "_cpt_rows", recorded_rows)
    tree = build_iid_market([(0.5, 1.0), (0.5, -1.0)], horizon)
    cfg = SearchConfig(seed=seed, multistart=multistart, max_box_doublings=0, **box)
    found = optimize_pure(tree, pref or coin_model_preferences(), 0.0, ReferenceSpec.zero(tree), cfg)
    return found, blocks


def test_stacked_blocks_stay_within_the_block_cap(monkeypatch, lockstep_rounds):
    _, blocks = coin_search(monkeypatch, 9, 16, 200)
    starts, rounds = lockstep_rounds
    assert starts == [17]  # the zero start and 16 random ones
    assert max(rounds) == 8  # 512 leaves: eight starts fill the cap
    assert max(blocks) <= optimize._BLOCK_FLOATS
    assert max(blocks) >= 8 * 2 * 512  # every live start polled a coordinate in one call


def test_starts_are_taken_up_when_their_blocks_do_not_fit(monkeypatch, lockstep_rounds):
    # 1024 leaves: a start's smallest block is two rows of 1024 floats, so
    # four starts fill the cap, and each later start waits for a place
    (strategy, _), blocks = coin_search(monkeypatch, 10, 10, 30)
    starts, rounds = lockstep_rounds
    assert starts == [11] and max(rounds) == 4
    assert max(blocks) <= optimize._BLOCK_FLOATS
    # the take-up changes no result: all starts live at once find the same strategy
    monkeypatch.setattr(optimize, "_BLOCK_FLOATS", 1 << 20)
    rounds.clear()
    (alone, _), _ = coin_search(monkeypatch, 10, 10, 30)
    assert starts == [11, 11] and max(rounds) == 11 and alone == strategy


@pytest.mark.parametrize("fit", [1, 2])
def test_starts_are_taken_up_as_places_free(monkeypatch, lockstep_rounds, fit):
    # m = 3: a start's smallest block is two rows spanning 16 // 3 = 5
    # coordinates, 30 floats, so a cap of 30 * fit floats leaves ``fit``
    # places. The tiny boxes end their polls at the first request, so the
    # take-up must go on without waiting for a round; the first start is one
    monkeypatch.setattr(optimize, "_BLOCK_FLOATS", 30 * fit)
    rng = np.random.default_rng(31)
    f = kinked_objective(rng, 3)
    tiny, wide = (-1e-10, 1e-10), (-1.0, 1.0)
    boxes = [tiny, tiny, wide, tiny, wide, wide, tiny, tiny, wide]
    z0s = [np.clip(rng.uniform(-1.0, 1.0, 3), lo, hi) for lo, hi in boxes]

    def values_of(block):
        return np.array([f(row) for row in block])

    got = optimize._lockstep(values_of, row_shift, np.copy, z0s, boxes, 1e-9)
    for z0, (lo, hi), result in zip(z0s, boxes, got):
        assert_same(reference(f, z0, lo, hi), result)
    starts, rounds = lockstep_rounds
    assert starts == [len(z0s)] and max(rounds) == fit


def test_block_cap_changes_no_result_on_a_wide_law(monkeypatch):
    # the coarse search of the benchmark's deep workload: 511 coordinates of
    # a 512-leaf law, where a cap of 2**11 floats binds at two rows a start
    pref = PreferenceSpec(
        utility=UtilityPair.power(0.5, 1.0, k=2.25),
        distortion=DistortionPair(Distortion.identity(), Distortion.identity()),
    )
    found = []
    for cap in (1 << 11, 1 << 13, 1 << 15):
        monkeypatch.setattr(optimize, "_BLOCK_FLOATS", cap)
        (strategy, value), blocks = coin_search(
            monkeypatch, 9, 1, optimize._EVAL_BUDGET, pref, seed=0, box_radius=0.5, tol=0.15
        )
        found.append((strategy, value))
        assert max(blocks) <= cap
    assert max(blocks) > 1 << 13  # the largest cap was used
    assert all(f == found[0] for f in found)


# --- restarted cycles stop where the last cycle's refutations begin -----------


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 5, 40]),
    st.integers(1, 5),
    st.integers(1, 4),
    st.floats(0.0, 1.0, exclude_max=True),
)
def test_schedules_of_few_step_sizes(seed, m, n_starts, n_steps, u):
    # step0 is 0.5 in [-1, 1]^m, and a tol in [step0 / 2**n, step0 / 2**(n-1))
    # leaves n step sizes: there the restarted cycles skip the most
    rng = np.random.default_rng(seed)
    f = kinked_objective(rng, m)
    z0s = [rng.uniform(-1.0, 1.0, m) for _ in range(n_starts)]
    tol = 0.5 * 0.5**n_steps * (1.0 + u)
    assert_same(reference_multistart(f, z0s, tol=tol), lockstep(f, z0s, tol=tol)[0])


def one_sweep(z, lo, hi, step):
    """The moves of one sweep of every coordinate of z at ``step`` in [lo, hi]."""
    return sum(min(hi, max(lo, x + d)) != x for x in z for d in (step, -step))


@pytest.fixture
def polls_after_last_improvement(monkeypatch):
    """For each start's poll, in start order: the rows it requests after its
    last improving block, whether any of its blocks improved, and the moves
    of one sweep of its final z at the first step. A poll's best is read from
    its arguments and then from its replies."""
    polls = []
    real = optimize._poll

    def counted(*args, **kwargs):
        record = {"after": 0, "improved": False}
        polls.append(record)
        best, lo, hi = args[2], args[3], args[4]
        poll = real(*args, **kwargs)
        reply = None
        while True:
            try:
                request = poll.send(reply)
            except StopIteration as done:
                record["sweep"] = one_sweep(done.value[0].tolist(), lo, hi, (hi - lo) / 4.0)
                return done.value
            reply = yield request
            values = reply[1]
            hit = (values > best).nonzero()[0]
            if hit.size:  # the first improver is accepted
                best = values[hit[0]]
                record["after"], record["improved"] = 0, True
            else:
                record["after"] += len(request[1])

    monkeypatch.setattr(optimize, "_poll", counted)
    return polls


@pytest.mark.parametrize("m", [1, 5, 12])
@pytest.mark.parametrize("seed", range(3))
def test_single_step_schedule_polls_the_final_point_once(m, seed, polls_after_last_improvement):
    # with tol in (step0 / 2, step0) each cycle is one sweep at step0: after
    # the last acceptance the poll ends one sweep of the final z later, where
    # the restarted cycle used to sweep it a second time
    rng = np.random.default_rng(200 + seed)
    f = kinked_objective(rng, m)
    z0s = [rng.uniform(-1.0, 1.0, m) for _ in range(4)]
    tol = 0.5 * rng.uniform(0.51, 0.99)
    got, _ = lockstep(f, z0s, tol=tol)
    assert_same(reference_multistart(f, z0s, tol=tol), got)
    polls = polls_after_last_improvement
    assert len(polls) == 4 and any(p["improved"] for p in polls)
    for p in polls:
        assert p["after"] == p["sweep"] <= 2 * m


def test_single_step_coin_search_rows(monkeypatch, polls_after_last_improvement):
    # the frozen T=3 case of tests/test_frozen_search.py: seven coordinates,
    # three starts, each ending one sweep (at most 14 rows) after its last
    # improvement; a second sweep of each final z took it to 142 rows
    _, blocks = coin_search(
        monkeypatch, 3, 2, optimize._EVAL_BUDGET, seed=1, box_radius=1.0, tol=0.3
    )
    polls = polls_after_last_improvement
    assert len(polls) == 3 and all(p["improved"] for p in polls)
    for p in polls:
        assert p["after"] == p["sweep"] <= 2 * 7
    assert sum(blocks) <= 100 * 8  # rows of eight leaf outcomes
