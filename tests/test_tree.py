import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpttree import (
    PureStrategy,
    RandomizedStrategy,
    ReferenceSpec,
    ScenarioTree,
    ValidationError,
    build_iid_market,
    coin_model_preferences,
    cpt_value,
    emit_market,
    parse_market,
    terminal_wealth,
    validate_subhedge,
)


def one_step_coin():
    return build_iid_market([(0.5, 1.0), (0.5, -1.0)], 1)


def two_step_coin():
    return build_iid_market([(0.5, 1.0), (0.5, -1.0)], 2)


class TestTerminalWealth:
    def test_zero_strategy_returns_capital(self):
        tree = one_step_coin()
        wealth = terminal_wealth(tree, PureStrategy.zeros(tree), 5.0)
        assert wealth == {1: 5.0, 2: 5.0}

    def test_linear_in_allocation(self):
        tree = one_step_coin()
        wealth = terminal_wealth(tree, PureStrategy.constant(tree, 0.25), 0.0)
        assert sorted(wealth.values()) == [-0.25, 0.25]

    def test_second_period_allocation_depends_on_first_increment(self):
        # theta_1 = 0, theta_2 a function of the first increment: leaf wealth
        # is +-theta_2(parent), the multiperiod information effect.
        tree = two_step_coin()
        g = {1: 3.0, 2: 7.0}
        alloc = {0: (0.0,)}
        for node in (1, 2):
            alloc[node] = (g[node],)
        wealth = terminal_wealth(tree, PureStrategy(alloc), 0.0)
        for leaf in tree.leaf_ids:
            leaf = int(leaf)
            par = tree.parent[leaf]
            expected = g[par] * tree.increments[leaf][0]
            assert wealth[leaf] == expected

    def test_missing_node_named_in_error(self):
        tree = two_step_coin()
        with pytest.raises(ValidationError, match="node 2"):
            terminal_wealth(tree, PureStrategy({0: (0.0,), 1: (1.0,)}), 0.0)

    def test_extra_node_rejected(self):
        tree = one_step_coin()
        with pytest.raises(ValidationError, match="non-strategy node"):
            terminal_wealth(tree, PureStrategy({0: (0.0,), 1: (1.0,)}), 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [terminal_wealth, cpt_value])
    @pytest.mark.parametrize("x0", [1e308, -1e308])
    def test_overflowing_wealth_is_refused_without_a_warning(self, value, x0):
        # x0 + 1e308 * (+-1) passes the double range on one leaf; numpy's
        # overflow warning used to come first, and cpt_value blamed the CPT value
        tree = one_step_coin()
        args = (tree, PureStrategy.constant(tree, 1e308), x0)
        if value is cpt_value:
            args += (ReferenceSpec.zero(tree), coin_model_preferences())
        with pytest.raises(ValidationError, match="terminal wealth overflows"):
            value(*args)

    def test_linearity_exact_on_dyadic_data(self):
        # dyadic increments, allocations and coefficients make float
        # arithmetic exact, so linearity holds with equality
        rng = np.random.default_rng(7)
        dyadic = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
        for _ in range(20):
            incs = rng.choice(dyadic, size=2)
            tree = build_iid_market([(0.5, float(incs[0])), (0.5, float(incs[1]))], 2)
            t1 = PureStrategy(
                {int(n): (float(rng.choice(dyadic)),) for n in tree.nonterminal_ids}
            )
            t2 = PureStrategy(
                {int(n): (float(rng.choice(dyadic)),) for n in tree.nonterminal_ids}
            )
            a, b = float(rng.choice(dyadic)), float(rng.choice(dyadic))
            combo = PureStrategy(
                {
                    n: (a * t1.allocations[n][0] + b * t2.allocations[n][0],)
                    for n in t1.allocations
                }
            )
            x0 = float(rng.choice(dyadic))
            w_combo = terminal_wealth(tree, combo, x0)
            w1 = terminal_wealth(tree, t1, 0.0)
            w2 = terminal_wealth(tree, t2, 0.0)
            for leaf in w_combo:
                assert w_combo[leaf] == a * w1[leaf] + b * w2[leaf] + x0
            w_shift = terminal_wealth(tree, t1, x0 + 0.5)
            w_base = terminal_wealth(tree, t1, x0)
            for leaf in w_shift:
                assert w_shift[leaf] == w_base[leaf] + 0.5


def ref_layout(parent, prob):
    """Children, nonterminal ids and depths, node by node."""
    n = len(parent)
    kids = [[] for _ in range(n)]
    depth = [0] * n
    for i in range(1, n):
        kids[parent[i]].append(i)
        depth[i] = depth[parent[i]] + 1
    return tuple(map(tuple, kids)), [i for i in range(n) if kids[i]], depth


def ref_family_error(horizon, parent, prob):
    """The message of the per-node family check, or None."""
    kids, _, depth = ref_layout(parent, prob)
    for i in range(len(parent)):
        if depth[i] == horizon:
            if kids[i]:
                return f"node {i}: children below depth T"
        else:
            if not kids[i]:
                return f"node {i}: leaf at depth {depth[i]} != T"
            s = float(sum(prob[c] for c in kids[i]))
            if abs(s - 1.0) > 1e-12:
                return f"node {i}: children probabilities sum to {s!r}, not 1"
    return None


def ref_node_error(asset_dim, parent, prob, increments):
    """The message of the per-node parent, probability and increment checks, or None."""
    for i in range(1, len(parent)):
        if not 0 <= parent[i] < i:
            return f"node {i}: parent must precede the node"
    for i, p in enumerate(prob):
        if i == 0:
            if p != 1.0:
                return "root probability must be 1"
        elif not 0.0 < p <= 1.0:
            return f"node {i}: probability {p} outside (0, 1]"
    for i, ds in enumerate(increments):
        if len(ds) != asset_dim:
            return f"node {i}: increment dimension != {asset_dim}"
        if not all(np.isfinite(ds)):
            return f"node {i}: non-finite increment"
    return None


def malformed(rng, parent, prob, incs):
    """Copies of a tree's columns with a few random nodes broken."""
    parent, prob, incs = list(parent), list(prob), list(incs)
    n, d = len(parent), len(incs[0])
    for _ in range(int(rng.integers(1, 4))):
        i = int(rng.integers(0, n))
        kind = int(rng.integers(0, 3))
        if kind == 0 and i > 0:
            parent[i] = int(rng.choice([-2, -1, i, i + 1, n + 3]))
        elif kind == 1:
            prob[i] = float(rng.choice([0.0, -0.25, 1.5, np.nan, np.inf, 0.5]))
        elif rng.random() < 0.5:
            incs[i] = tuple(rng.uniform(-1.0, 1.0, int(rng.choice([0, d - 1, d + 1]))))
        elif incs[i]:
            vec = list(incs[i])
            vec[int(rng.integers(0, len(vec)))] = float(rng.choice([np.nan, np.inf, -np.inf]))
            incs[i] = tuple(vec)
    return parent, prob, incs


class TestTreeValidation:
    def test_children_probabilities_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="children probabilities"):
            ScenarioTree(
                horizon=1,
                asset_dim=1,
                parent=(-1, 0, 0),
                prob=(1.0, 0.5, 0.4),
                increments=((0.0,), (1.0,), (-1.0,)),
            )

    def test_leaves_must_sit_at_horizon(self):
        with pytest.raises(ValidationError, match="leaf at depth"):
            ScenarioTree(
                horizon=2,
                asset_dim=1,
                parent=(-1, 0, 0),
                prob=(1.0, 0.5, 0.5),
                increments=((0.0,), (1.0,), (-1.0,)),
            )

    def test_probabilities_strictly_positive(self):
        with pytest.raises(ValidationError, match="probability"):
            ScenarioTree(
                horizon=1,
                asset_dim=1,
                parent=(-1, 0, 0),
                prob=(1.0, 1.0, 0.0),
                increments=((0.0,), (1.0,), (-1.0,)),
            )

    def test_shape_errors_match_the_node_by_node_check(self):
        # random parents, horizons and probabilities: the first bad node and
        # its message are those of the per-node loop the layout replaced
        rng = np.random.default_rng(21)
        seen = set()
        for _ in range(400):
            n = int(rng.integers(2, 30))
            parent = [-1] + [int(rng.integers(0, i)) for i in range(1, n)]
            prob = [1.0] + rng.uniform(0.01, 1.0, n - 1).tolist()
            if rng.random() < 0.7:
                for node in set(parent[1:]):
                    kids = [c for c in range(1, n) if parent[c] == node]
                    w = rng.uniform(0.05, 1.0, len(kids))
                    w = w / w.sum()
                    for c, p in zip(kids, w):
                        prob[c] = float(p)
            ref = ref_layout(parent, prob)
            horizon = int(rng.integers(1, 5)) if rng.random() < 0.3 else max(ref[2])
            expected = ref_family_error(horizon, parent, prob)
            seen.add(expected.split(":")[-1][:12] if expected else None)
            kwargs = dict(
                horizon=horizon, asset_dim=1, parent=tuple(parent), prob=tuple(prob),
                increments=((0.0,),) * n,
            )
            if expected is None:
                tree = ScenarioTree(**kwargs)
                kids, first = (a.tolist() for a in tree.child_layout)
                assert tuple(tuple(kids[a:b]) for a, b in zip(first, first[1:])) == ref[0]
                assert tree.nonterminal_ids.tolist() == ref[1]
                assert tree.depth.tolist() == ref[2]
                reach = [1.0]
                for i in range(1, n):
                    reach.append(reach[parent[i]] * prob[i])
                assert tree.path_prob.tolist() == reach
            else:
                with pytest.raises(ValidationError) as err:
                    ScenarioTree(**kwargs)
                assert str(err.value) == expected
        assert len(seen) == 4  # valid trees and each kind of error
        # broken parents, probabilities and increments: the first bad node
        # and its message are those of the per-node checks, which run before
        # the family check
        seen = set()
        for _ in range(400):
            n = int(rng.integers(2, 30))
            d = int(rng.integers(1, 4))
            parent = [-1] + [int(rng.integers(0, i)) for i in range(1, n)]
            prob = [1.0] + rng.uniform(0.01, 1.0, n - 1).tolist()
            incs = [(0.0,) * d] + [tuple(v) for v in rng.uniform(-1.0, 1.0, (n - 1, d))]
            parent, prob, incs = malformed(rng, parent, prob, incs)
            expected = ref_node_error(d, parent, prob, incs)
            if expected is None:
                continue
            seen.add(expected.split(":")[-1][:12])
            with pytest.raises(ValidationError) as err:
                ScenarioTree(
                    horizon=3, asset_dim=d, parent=tuple(parent), prob=tuple(prob),
                    increments=tuple(incs),
                )
            assert str(err.value) == expected
        assert len(seen) == 5  # each kind of per-node error

    def test_families_come_in_equal_size_blocks(self, monkeypatch):
        from cpttree import tree as tree_module

        monkeypatch.setattr(tree_module, "_FAMILY_FLOATS", 8)
        tree = build_iid_market([(0.25, 1.0), (0.25, -1.0), (0.5, 0.125)], 2)
        blocks = list(tree.families(2))
        assert [b[1].shape for b in blocks] == [(1, 3), (1, 3), (1, 3), (1, 3)]
        rows = np.concatenate([b[0] for b in blocks])
        assert sorted(rows.tolist()) == list(range(len(tree.nonterminal_ids)))
        children, first = tree.child_layout
        for r, kids in blocks:
            nodes = tree.nonterminal_ids[r]
            assert kids.tolist() == [children[first[n] : first[n + 1]].tolist() for n in nodes]

    def test_leaf_probabilities_multiply_along_paths(self):
        tree = two_step_coin()
        assert np.allclose(tree.leaf_prob, 0.25)
        assert tree.leaf_prob.sum() == 1.0


class TestRandomizedStrategy:
    def test_weights_must_sum_to_one(self):
        tree = one_step_coin()
        s = PureStrategy.zeros(tree)
        with pytest.raises(ValidationError, match="sum"):
            RandomizedStrategy(((0.5, s), (0.4, s)))

    def test_needs_an_atom(self):
        with pytest.raises(ValidationError, match="atom"):
            RandomizedStrategy(())

    def test_equal_weights(self):
        tree = one_step_coin()
        s = PureStrategy.zeros(tree)
        rs = RandomizedStrategy.equal_weights([s, s, s, s])
        assert sum(w for w, _ in rs.atoms) == 1.0


def interleaved_tree(d):
    """Ids topological but not level by level, with d assets."""
    incs = [(0.0,), (1.0,), (-1.0,), (0.5,), (1.5,), (-2.0,), (-0.5,)]
    return ScenarioTree(
        horizon=2,
        asset_dim=d,
        parent=(-1, 0, 0, 2, 1, 2, 1),
        prob=(1.0, 0.5, 0.5, 0.25, 0.5, 0.75, 0.5),
        increments=tuple(tuple(x * (c + 1) for c in range(d) for x in inc) for inc in incs),
    )


class TestStrategyConversions:
    """``from_flat`` and ``constant`` build the dicts the per-node
    comprehensions built, in the same key order, which artifacts keep."""

    TREES = {
        "coin12": lambda: build_iid_market([(0.5, 1.0), (0.5, -1.0)], 12),
        "interleaved-d1": lambda: interleaved_tree(1),
        "interleaved-d3": lambda: interleaved_tree(3),
    }

    @pytest.mark.parametrize("name", sorted(TREES))
    def test_from_flat_and_constant_match_the_comprehensions(self, name):
        tree = self.TREES[name]()
        ids, d = tree.nonterminal_ids, tree.asset_dim
        flat = np.random.default_rng(3).normal(size=len(ids) * d)
        flat[::7] = -0.0
        mat = flat.reshape(len(ids), d)
        old_flat = {int(n): tuple(float(x) for x in mat[k]) for k, n in enumerate(ids)}
        vec = tuple(float(v) for v in flat[:d])
        cases = [
            (PureStrategy.from_flat(tree, flat), old_flat),
            (PureStrategy.constant(tree, vec), {int(i): vec for i in ids}),
            (PureStrategy.constant(tree, -0.0), {int(i): (-0.0,) * d for i in ids}),
            (PureStrategy.zeros(tree), {int(i): (0.0,) * d for i in ids}),
        ]
        for new, old in cases:
            # repr tells the key order, -0.0 from 0.0 and Python from numpy scalars
            assert repr(list(new.allocations.items())) == repr(list(old.items()))
        assert PureStrategy.from_flat(tree, flat).as_flat(tree).tobytes() == flat.tobytes()


class TestReference:
    def test_zero_reference_is_subhedged(self):
        tree = two_step_coin()
        ok, witness = validate_subhedge(tree, ReferenceSpec.zero(tree))
        assert ok and witness is None

    def test_floor_below_min_benchmark_is_subhedged(self):
        tree = one_step_coin()
        ref = ReferenceSpec(
            benchmark={1: 2.0, 2: 3.0}, subhedge=PureStrategy.zeros(tree), floor=1.5
        )
        assert validate_subhedge(tree, ref) == (True, None)

    @pytest.mark.parametrize("floor", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_floor_refused(self, floor):
        # a NaN floor passed the sub-hedge test and made the auxiliary value NaN
        tree = one_step_coin()
        with pytest.raises(ValidationError, match="floor"):
            ReferenceSpec(
                benchmark={1: 0.0, 2: 0.0}, subhedge=PureStrategy.zeros(tree), floor=floor
            )

    def test_violation_reports_witness_leaf(self):
        tree = one_step_coin()
        ref = ReferenceSpec(
            benchmark={1: 0.0, 2: -1.0}, subhedge=PureStrategy.zeros(tree), floor=0.0
        )
        ok, witness = validate_subhedge(tree, ref)
        assert not ok and witness == 2


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def markets(draw):
    """Trees of horizon 1-3 and dimension 1-2 with any finite increments;
    each family's last probability closes the sum to 1."""
    horizon = draw(st.integers(1, 3))
    d = draw(st.integers(1, 2))
    parent, prob, incs = [-1], [1.0], [(0.0,) * d]
    frontier = [0]
    for _ in range(horizon):
        nxt = []
        for k, node in enumerate(frontier):
            # past a level's fourth node, one certain child keeps the tree small
            w = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3)) if k < 4 else [1]
            ps = [x / sum(w) for x in w]
            ps[-1] = 1.0 - sum(ps[:-1])
            for p in ps:
                parent.append(node)
                prob.append(p)
                incs.append(tuple(draw(finite) for _ in range(d)))
                nxt.append(len(parent) - 1)
        frontier = nxt
    return ScenarioTree(horizon, d, tuple(parent), tuple(prob), tuple(incs))


class TestMarketFormat:
    def test_round_trip_is_byte_stable(self):
        tree = build_iid_market([(0.25, 1.0), (0.25, -1.0), (0.5, 0.125)], 2)
        text = emit_market(tree)
        again = emit_market(parse_market(text))
        assert text == again

    def test_parse_recovers_structure(self):
        tree = two_step_coin()
        parsed = parse_market(emit_market(tree))
        assert parsed == tree

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_markets_round_trip(self, data):
        tree = data.draw(markets())
        text = emit_market(tree)
        parsed = parse_market(text)
        assert parsed == tree
        assert emit_market(parsed) == text

    def test_header_required(self):
        with pytest.raises(ValidationError, match="header"):
            parse_market("nonsense\n")

    @pytest.mark.parametrize("header", ["2 1", "T=2 d=1 junk", "2 d=1", "T=2 1"])
    def test_header_is_exactly_t_and_d(self, header):
        body = emit_market(one_step_coin()).split("\n", 1)[1]
        with pytest.raises(ValidationError, match="bad market header"):
            parse_market(f"{header}\n{body}")

    def test_ids_must_be_contiguous(self):
        text = "T=1 d=1\nnode 1 parent 0 p 0.5 dS 1\nnode 3 parent 0 p 0.5 dS -1\n"
        with pytest.raises(ValidationError, match="ids"):
            parse_market(text)

    def test_comments_and_blank_lines_ignored(self):
        tree = one_step_coin()
        text = "# a market\n\n" + emit_market(tree)
        assert parse_market(text) == tree

    def test_indented_comment_ignored(self):
        tree = one_step_coin()
        header, body = emit_market(tree).split("\n", 1)
        assert parse_market(f"{header}\n  # one-step coin\n\t# tab\n{body}") == tree
