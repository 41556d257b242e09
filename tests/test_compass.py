"""The speculative compass poll against the sequential poll it replaced.

``sequential_compass`` is the one-move-at-a-time poll, kept here as the
reference: on the same objective, the speculative poll must return the same
``(z, best)`` exactly, and raise where the sequential poll raises.
"""

import numpy as np
import pytest

from cpttree import optimize


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


def row_shift(z, js, deltas):
    rows = np.tile(z, (len(js), 1))
    rows[np.arange(len(js)), js] += deltas
    return rows


def reference(f, z0, lo=-1.0, hi=1.0, tol=1e-9):
    def value_of(z):
        return optimize._finite(f(z))

    return sequential_compass(value_of, scalar_shift, z0, z0.copy(), lo, hi, tol)


def speculative(f, z0, lo=-1.0, hi=1.0, tol=1e-9):
    """The speculative result and the sizes of the blocks it evaluated."""
    sizes = []

    def values_of(block):
        sizes.append(len(block))
        return np.array([f(row) for row in block])

    return optimize._compass(values_of, row_shift, z0, z0.copy(), lo, hi, tol), sizes


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
    # blocks of one and two coordinates: the second is (+0.25, -0.25, +0.125,
    # -0.125); the sequential poll stops at -0.25 and never reaches +0.125 from there
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
