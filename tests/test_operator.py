"""The tree wealth operator against a node-by-node reference, on trees whose
ids are topological but not level by level."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_pure, random_valid_pref
from cpttree import ReferenceSpec, ScenarioTree, build_iid_market, cpt_value, terminal_wealth
from cpttree.choquet import OutcomeEngine, cpt_value_from_outcomes
from cpttree.tree import PureStrategy


def shuffled_tree(rng: np.random.Generator, asset_dim: int) -> ScenarioTree:
    """Random tree; node ids follow a random topological order, so a node's
    children and the leaves below it are usually not consecutive ids."""
    horizon = int(rng.integers(1, 4))
    kids = {(): int(rng.integers(1, 4))}
    frontier = [()]
    for _ in range(horizon - 1):
        frontier = [p + (c,) for p in frontier for c in range(kids[p])]
        kids.update({p: int(rng.integers(1, 4)) for p in frontier})
    ids = {(): 0}
    parent, prob, incs = [-1], [1.0], [(0.0,) * asset_dim]
    ready = [(c,) for c in range(kids[()])]
    weights = {}
    while ready:
        path = ready.pop(int(rng.integers(len(ready))))
        up = path[:-1]
        if up not in weights:
            w = rng.uniform(0.2, 1.0, kids[up])
            weights[up] = w / w.sum()
        ids[path] = len(parent)
        parent.append(ids[up])
        prob.append(float(weights[up][path[-1]]))
        incs.append(tuple(float(v) for v in rng.uniform(-2.0, 2.0, asset_dim)))
        if len(path) < horizon:
            ready += [path + (c,) for c in range(kids[path])]
    return ScenarioTree(horizon, asset_dim, tuple(parent), tuple(prob), tuple(incs))


def reference_wealth(tree: ScenarioTree, theta: np.ndarray, x0: float) -> list[float]:
    """Wealth of every node, node by node in id order (parents precede children)."""
    row = {int(n): k for k, n in enumerate(tree.nonterminal_ids)}
    wealth = [float(x0)]
    for i in range(1, tree.n_nodes):
        p = tree.parent[i]
        wealth.append(wealth[p] + float(theta[row[p]] @ tree.increment_matrix[i]))
    return wealth


def dense_column(tree: ScenarioTree, j: int) -> np.ndarray:
    """Column j of the leaves x variables map, by walking every leaf's path."""
    node_k, c = divmod(j, tree.asset_dim)
    owner = int(tree.nonterminal_ids[node_k])
    col = np.zeros(len(tree.leaf_ids))
    for r, leaf in enumerate(tree.leaf_ids):
        node = int(leaf)
        while node != 0:
            if tree.parent[node] == owner:
                col[r] += tree.increment_matrix[node, c]
            node = tree.parent[node]
    return col


def leaves_below(tree: ScenarioTree, node: int) -> set[int]:
    out = set()
    for leaf in tree.leaf_ids:
        up = int(leaf)
        while up not in (node, -1):
            up = tree.parent[up]
        if up == node:
            out.add(int(leaf))
    return out


CASES = st.tuples(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]))


@settings(max_examples=60, deadline=None)
@given(CASES)
def test_wealth_and_value_match_the_reference_bitwise(case):
    seed, d = case
    rng = np.random.default_rng(seed)
    tree = shuffled_tree(rng, d)
    strategy = random_pure(rng, tree)
    x0 = float(rng.uniform(-2.0, 2.0))
    wealth = reference_wealth(tree, strategy.as_matrix(tree), x0)
    first = tree.child_layout[1]
    leaves = [i for i in range(tree.n_nodes) if first[i] == first[i + 1]]  # id order
    assert terminal_wealth(tree, strategy, x0) == {i: wealth[i] for i in leaves}

    bench = {i: float(rng.uniform(-1.0, 1.0)) for i in leaves}
    ref = ReferenceSpec(bench, PureStrategy.zeros(tree), -2.0)
    pref = random_valid_pref(rng)
    outs = np.array([wealth[i] - bench[i] for i in leaves])
    expected = cpt_value_from_outcomes(outs, tree.path_prob[leaves], pref)
    got = cpt_value(tree, strategy, x0, ref, pref)
    assert (got.v_plus, got.v_minus, got.v) == (expected.v_plus, expected.v_minus, expected.v)


@settings(max_examples=40, deadline=None)
@given(CASES)
def test_leaves_below_each_node_are_contiguous(case):
    seed, d = case
    tree = shuffled_tree(np.random.default_rng(seed), d)
    position = {int(leaf): r for r, leaf in enumerate(tree.leaf_ids)}
    first = tree.child_layout[1]
    assert sorted(position) == [i for i in range(tree.n_nodes) if first[i] == first[i + 1]]
    for node in tree.nonterminal_ids:
        rows = sorted(position[leaf] for leaf in leaves_below(tree, int(node)))
        assert rows == list(range(rows[0], rows[-1] + 1))


@settings(max_examples=40, deadline=None)
@given(CASES)
def test_engine_shift_matches_the_dense_column(case):
    seed, d = case
    rng = np.random.default_rng(seed)
    tree = shuffled_tree(rng, d)
    engine = OutcomeEngine(tree)
    n_atoms = 2
    flat = rng.uniform(-3.0, 3.0, engine.n_vars * n_atoms)
    x0 = float(rng.uniform(-2.0, 2.0))
    outs = engine.outcomes(flat, x0)
    n_leaf = len(tree.leaf_ids)
    for b in range(n_atoms):
        theta = flat[b * engine.n_vars : (b + 1) * engine.n_vars].reshape(-1, d)
        wealth = reference_wealth(tree, theta, x0)
        assert outs[b * n_leaf : (b + 1) * n_leaf].tolist() == [wealth[i] for i in tree.leaf_ids]
    js = np.arange(engine.n_vars * n_atoms)
    deltas = rng.uniform(-1.0, 1.0, js.size)
    rows = engine.shift(outs, js, deltas)
    assert rows.shape == (js.size, outs.size)
    for j, delta, row in zip(js, deltas, rows):
        b, local = divmod(int(j), engine.n_vars)
        expected = outs.copy()
        expected[b * n_leaf : (b + 1) * n_leaf] += delta * dense_column(tree, local)
        np.testing.assert_allclose(row, expected, rtol=0, atol=1e-12)
    # one base row per move shifts each row as its own one-move block would
    moved = engine.shift(rows, js[::-1], deltas)
    for k, base in enumerate(rows):
        assert np.array_equal(moved[k], engine.shift(base, js[::-1][k : k + 1], deltas[k : k + 1])[0])


def test_deep_coin_engine_is_small():
    tree = build_iid_market([(0.5, 1.0), (0.5, -1.0)], 14)
    engine = OutcomeEngine(tree)
    total = engine.matrix.nbytes + engine.leaf_prob.nbytes + engine.benchmark.nbytes
    assert engine.n_vars == 2**14 - 1
    assert total < 100 * 2**20
