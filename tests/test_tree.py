import numpy as np
import pytest

from cpttree import (
    PureStrategy,
    RandomizedStrategy,
    ReferenceSpec,
    ScenarioTree,
    ValidationError,
    build_iid_market,
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

    def test_violation_reports_witness_leaf(self):
        tree = one_step_coin()
        ref = ReferenceSpec(
            benchmark={1: 0.0, 2: -1.0}, subhedge=PureStrategy.zeros(tree), floor=0.0
        )
        ok, witness = validate_subhedge(tree, ref)
        assert not ok and witness == 2


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

    def test_header_required(self):
        with pytest.raises(ValidationError, match="header"):
            parse_market("nonsense\n")

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
