"""No-arbitrage checks and certificates.

The ``ref_*`` functions at the end are the node-by-node checks the array
passes replaced, kept here as the reference: on every test tree the array
passes must return bitwise-equal entries and witnesses, and raise the same
error type and message at the same node.
"""

import math

import numpy as np
import pytest

from conftest import random_tree
from cpttree import (
    CertificateError,
    ScenarioTree,
    ValidationError,
    arbitrage,
    build_iid_market,
    canonical_onedim_pairs,
    check_NA,
    check_R,
    marche_certificate,
    unit_directions,
    validate_certificate,
    validate_entries,
)
from cpttree.wellposed import two_step_uniform_market


class TestCheckNA:
    def test_two_step_uniform_coin_market(self):
        assert check_NA(two_step_uniform_market(100)).ok

    def test_all_positive_support_is_arbitrage(self):
        tree = build_iid_market([(0.5, 1.0), (0.5, 2.0)], 1)
        res = check_NA(tree)
        assert not res.ok and res.node == 0 and res.direction == (1.0,)

    def test_all_negative_support_is_arbitrage(self):
        tree = build_iid_market([(0.5, -1.0), (0.5, -2.0)], 1)
        res = check_NA(tree)
        assert not res.ok and res.direction == (-1.0,)

    def test_two_asset_free_lottery_detected(self):
        tree = build_iid_market(
            [(1 / 3, (1.0, 0.0)), (1 / 3, (-1.0, 0.0)), (1 / 3, (0.0, 1.0))], 1
        )
        res = check_NA(tree)
        assert not res.ok and res.node == 0
        xi = np.array(res.direction)
        incs = np.array([tree.increments[int(i)] for i in tree.leaf_ids])
        dots = incs @ xi
        assert np.all(dots >= -1e-9) and dots.max() > 1e-9

    def test_two_asset_balanced_market_passes(self):
        tree = build_iid_market(
            [(0.25, (1.0, 0.0)), (0.25, (-1.0, 0.0)), (0.25, (0.0, 1.0)), (0.25, (0.0, -1.0))],
            1,
        )
        assert check_NA(tree).ok

    def test_random_straddling_trees_pass(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            assert check_NA(random_tree(rng, asset_dim=int(rng.integers(1, 3)))).ok


class TestCheckR:
    def test_degenerate_single_atom(self):
        tree = build_iid_market([(1.0, 1.0)], 1)
        ok, node = check_R(tree)
        assert not ok and node == 0

    def test_collinear_two_asset_atoms(self):
        tree = build_iid_market([(0.5, (1.0, 1.0)), (0.5, (-1.0, -1.0))], 1)
        ok, node = check_R(tree)
        assert not ok

    def test_full_span_passes(self):
        tree = build_iid_market(
            [(0.25, (1.0, 0.0)), (0.25, (-1.0, 0.0)), (0.25, (0.0, 1.0)), (0.25, (0.0, -1.0))],
            1,
        )
        assert check_R(tree) == (True, None)


class TestCertificate:
    def test_coin_pairs(self, coin_tree):
        assert validate_certificate(coin_tree, 1.0, 0.5) == (True, None)
        ok, node = validate_certificate(coin_tree, 1.01, 1e-9)
        assert not ok and node == 0

    def test_two_step_market_validates_both_calibrated_pairs(self):
        tree = two_step_uniform_market(1000)
        ok, node = validate_certificate(tree, [0.5, 0.5], [0.25, 0.5])
        assert ok, f"witness {node}"

    def test_thousand_atom_root_kappa_in_range(self):
        tree = two_step_uniform_market(1000)
        cert = marche_certificate(tree, pi=[0.25, 0.5])
        kappa0, pi0 = cert.entries[0]
        assert 0.49 <= kappa0 <= 0.5 and pi0 == 0.25
        assert not cert.sampled
        # every depth-1 node is the fair unit coin
        for node, (k, p) in cert.entries.items():
            if node != 0:
                assert k == 1.0 and p == 0.5

    def test_certificate_entries_self_validate(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            tree = random_tree(rng)
            cert = marche_certificate(tree, pi=0.1)
            assert validate_entries(tree, cert.entries) == (True, None)

    def test_canonical_pairs_validate_on_random_trees(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            tree = random_tree(rng)
            assert validate_entries(tree, canonical_onedim_pairs(tree)) == (True, None)

    def test_failure_on_arbitrage_names_node(self):
        tree = build_iid_market([(0.5, 1.0), (0.5, 2.0)], 1)
        with pytest.raises(CertificateError) as err:
            marche_certificate(tree, pi=0.25)
        assert err.value.node == 0

    def test_unreachable_tail_mass_fails(self, coin_tree):
        with pytest.raises(CertificateError, match="tail mass"):
            marche_certificate(coin_tree, pi=0.75)

    def test_sampled_flag_for_two_assets(self):
        tree = build_iid_market(
            [(0.25, (1.0, 0.0)), (0.25, (-1.0, 0.0)), (0.25, (0.0, 1.0)), (0.25, (0.0, -1.0))],
            1,
        )
        cert = marche_certificate(tree, pi=0.2, direction_samples=64)
        assert cert.sampled and cert.direction_samples == 64
        assert validate_entries(tree, cert.entries, direction_samples=64) == (True, None)

    def test_per_level_validation_shapes(self, coin_tree):
        with pytest.raises(ValidationError, match="per period"):
            validate_certificate(coin_tree, [0.5, 0.5], 0.25)


class TestUnitDirections:
    @pytest.mark.parametrize("d,m", [(1, 10), (2, 32), (3, 64), (5, 40)])
    def test_unit_norm(self, d, m):
        dirs = unit_directions(d, m)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)

    def test_one_dimension_is_exact_scan(self):
        assert unit_directions(1, 99).tolist() == [[1.0], [-1.0]]


def ref_support(tree, node):
    kids = [c for c in range(1, tree.n_nodes) if tree.parent[c] == node]
    incs = np.array([tree.increments[c] for c in kids], dtype=float)
    probs = np.array([tree.prob[c] for c in kids], dtype=float)
    return incs, probs


def ref_nonterminals(tree):
    return [i for i in range(tree.n_nodes) if i in set(tree.parent)]


def ref_one_step_arbitrage(incs):
    d = incs.shape[1]
    if d == 1:
        v = incs[:, 0]
        if np.all(v >= 0.0) and np.any(v > 0.0):
            return np.array([1.0])
        if np.all(v <= 0.0) and np.any(v < 0.0):
            return np.array([-1.0])
        return None
    return arbitrage._one_step_arbitrage(incs)


def ref_check_NA(tree):
    for node in ref_nonterminals(tree):
        direction = ref_one_step_arbitrage(ref_support(tree, node)[0])
        if direction is not None:
            return arbitrage.NAResult(False, node, tuple(map(float, direction)))
    return arbitrage.NAResult(True)


def ref_check_R(tree):
    for node in ref_nonterminals(tree):
        incs, _ = ref_support(tree, node)
        if tree.asset_dim == 1:
            if len(np.unique(incs[:, 0])) < 2:
                return False, node
        elif np.linalg.matrix_rank(incs - incs[0]) < tree.asset_dim:
            return False, node
    return True, None


def ref_tail_prob(dots, probs, kappa):
    return float(probs[dots <= -kappa].sum())


def ref_direction_max_kappa(dots, probs, pi):
    neg = dots < 0.0
    if not np.any(neg):
        return None
    for kappa in np.unique(-dots[neg])[::-1]:
        if ref_tail_prob(dots, probs, float(kappa)) >= pi - arbitrage.PROB_TOL:
            return float(kappa)
    return None


def ref_marche_certificate(tree, pi, direction_samples=128):
    na = ref_check_NA(tree)
    if not na.ok:
        raise CertificateError(f"no-arbitrage violated at node {na.node}", node=na.node)
    pis = arbitrage._per_level(pi, tree.horizon, "pi")
    if any(not 0.0 < p <= 1.0 for p in pis):
        raise ValidationError("pi must lie in (0, 1]")
    dirs = unit_directions(tree.asset_dim, direction_samples)
    entries = {}
    for node in ref_nonterminals(tree):
        level_pi = pis[tree.depth[node]]
        incs, probs = ref_support(tree, node)
        kappa = None
        for xi in dirs:
            k = ref_direction_max_kappa(incs @ xi, probs, level_pi)
            if k is None:
                kappa = None
                break
            kappa = k if kappa is None else min(kappa, k)
        if kappa is None or kappa <= 0.0:
            raise CertificateError(
                f"node {node}: no kappa > 0 achieves tail mass {level_pi} in every direction",
                node=node,
            )
        entries[node] = (kappa, level_pi)
    return entries


def ref_validate_entries(tree, entries, direction_samples=128):
    dirs = unit_directions(tree.asset_dim, direction_samples)
    for node in ref_nonterminals(tree):
        if node not in entries:
            raise ValidationError(f"certificate entries missing node {node}")
        k, p = entries[node]
        if k <= 0 or not 0.0 < p <= 1.0:
            raise ValidationError(f"node {node}: need kappa > 0 and pi in (0, 1]")
        incs, probs = ref_support(tree, node)
        for xi in dirs:
            if ref_tail_prob(incs @ xi, probs, k) < p - arbitrage.PROB_TOL:
                return False, node
    return True, None


def ref_canonical_onedim_pairs(tree):
    out = {}
    for node in ref_nonterminals(tree):
        incs, probs = ref_support(tree, node)
        v = incs[:, 0]
        if v.min() >= 0.0 or v.max() <= 0.0:
            raise CertificateError(f"node {node}: support does not straddle zero", node=node)
        kappa = min(abs(float(v.min())), float(v.max()))
        pi = min(float(probs[v <= -kappa].sum()), float(probs[v >= kappa].sum()))
        out[node] = (kappa, pi)
    return out


def bits(x):
    """A comparable, bitwise form of a result or of the error it raised."""
    if isinstance(x, dict):
        return [(type(n), n, float(k).hex(), float(p).hex()) for n, (k, p) in x.items()]
    if isinstance(x, Exception):
        return type(x), str(x), getattr(x, "node", None)
    if isinstance(x, arbitrage.NAResult):
        return x.ok, x.node, x.direction
    return x


def outcome(fn, *args):
    try:
        out = fn(*args)
    except (CertificateError, ValidationError) as exc:
        return bits(exc)
    return bits(out.entries if isinstance(out, arbitrage.MarcheCertificate) else out)


def assert_same_everywhere(tree, pis, samples=16):
    """Every check of the module against its reference copy on one tree."""
    assert outcome(check_NA, tree) == outcome(ref_check_NA, tree)
    assert outcome(check_R, tree) == outcome(ref_check_R, tree)
    for pi in pis:
        got = outcome(marche_certificate, tree, pi, samples)
        assert got == outcome(ref_marche_certificate, tree, pi, samples)
        if isinstance(got, list):
            entries = {n: (float.fromhex(k), float.fromhex(p)) for _, n, k, p in got}
            assert outcome(validate_entries, tree, entries, samples) == (True, None)
    if tree.asset_dim == 1:
        got = outcome(canonical_onedim_pairs, tree)
        assert got == outcome(ref_canonical_onedim_pairs, tree)
        if isinstance(got, list):
            entries = {n: (float.fromhex(k), float.fromhex(p)) for _, n, k, p in got}
            assert outcome(validate_entries, tree, entries) == (True, None)
    # probes that hit, miss and straddle the attained tails and magnitudes
    rng = np.random.default_rng(tree.n_nodes)
    for _ in range(4):
        entries = {
            n: (float(rng.choice([0.25, 0.5, 1.0, rng.uniform(0.01, 2.0)])),
                float(rng.choice([0.25, 0.5, rng.uniform(0.01, 1.0)])))
            for n in ref_nonterminals(tree)
        }
        assert outcome(validate_entries, tree, entries, samples) == outcome(
            ref_validate_entries, tree, entries, samples
        )


def exact_threshold(tail):
    """A pi in (0, 1] with pi - PROB_TOL == tail exactly, or None."""
    pi = tail + arbitrage.PROB_TOL
    for _ in range(64):
        if pi - arbitrage.PROB_TOL == tail:
            return float(pi) if pi <= 1.0 else None
        pi = np.nextafter(pi, np.inf if pi - arbitrage.PROB_TOL < tail else -np.inf)
    return None


def wild_tree(rng, asset_dim=1, horizon=2, max_kids=12, grid=True):
    """Random families of 1..max_kids children; increments on a coarse grid
    (so tails tie) or continuous, with an occasional one-signed family."""
    parent, prob, incs = [-1], [1.0], [(0.0,) * asset_dim]
    frontier = [0]
    for _ in range(horizon):
        nxt = []
        for node in frontier:
            k = int(rng.integers(1, max_kids + 1))
            if grid:
                vecs = rng.integers(-3, 4, (k, asset_dim)) * 0.5
            else:
                vecs = rng.normal(size=(k, asset_dim))
            if k >= 2 and rng.random() < 0.9:
                vecs[0] = np.abs(vecs[0]) + 0.5
                vecs[1] = -np.abs(vecs[1]) - 0.5
            w = rng.integers(1, 9, k) / 1.0 if grid else rng.uniform(0.05, 1.0, k)
            w = w / w.sum()
            w[-1] = 1.0 - w[:-1].sum()
            for i in range(k):
                parent.append(node)
                prob.append(float(w[i]))
                incs.append(tuple(map(float, vecs[i])))
                nxt.append(len(parent) - 1)
        frontier = nxt
    return ScenarioTree(horizon, asset_dim, tuple(parent), tuple(prob), tuple(incs))


class TestAgainstReference:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_seeded_random_trees(self, d):
        rng = np.random.default_rng(40 + d)
        for _ in range(12 if d == 1 else 4):
            tree = random_tree(rng, max_horizon=3 if d == 1 else 2, asset_dim=d)
            assert_same_everywhere(tree, [0.1, 0.3, 0.5])

    @pytest.mark.parametrize("grid", [True, False])
    def test_wide_families_and_ties(self, grid):
        rng = np.random.default_rng(50 + grid)
        for _ in range(25):
            tree = wild_tree(rng, horizon=int(rng.integers(1, 3)), max_kids=14, grid=grid)
            assert_same_everywhere(tree, [0.05, 0.2, 0.35, 0.5, 0.8, 1.0])

    def test_wide_two_asset_families(self):
        rng = np.random.default_rng(52)
        for _ in range(4):
            grid = bool(rng.random() < 0.5)
            tree = wild_tree(rng, asset_dim=2, horizon=1, max_kids=12, grid=grid)
            assert_same_everywhere(tree, [0.1, 0.3])

    @pytest.mark.parametrize("n", [2, 7, 8, 100])
    def test_two_step_uniform_market(self, n):
        tree = two_step_uniform_market(n)
        assert_same_everywhere(tree, [[0.25, 0.5], 0.5, 1.0 / n, [0.75, 0.25]])
        for kappa in (0.5, 1.0 - 1.0 / n, 1.0):
            assert outcome(validate_certificate, tree, kappa, [0.25, 0.5]) == outcome(
                ref_validate_entries,
                tree,
                {i: (kappa, [0.25, 0.5][tree.depth[i]]) for i in ref_nonterminals(tree)},
            )

    def test_pi_at_an_attained_tail_mass(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            tree = wild_tree(rng, horizon=2, max_kids=10, grid=bool(rng.random() < 0.5))
            pis = []
            for t in range(tree.horizon):
                node = int(np.flatnonzero(tree.depth == t)[0])
                incs, probs = ref_support(tree, node)
                v = incs[:, 0]
                cut = float(rng.choice(v))
                pis.append(float(probs[v <= cut].sum()))
            assert_same_everywhere(tree, [pis])

    def test_threshold_at_an_exact_tail_sum(self):
        # pi - PROB_TOL lands exactly on a tail sum, so one ulp of that sum
        # decides; long tails (>= 8 children) are pairwise sums
        rng = np.random.default_rng(55)
        long_sums = 0
        for _ in range(40):
            k = int(rng.integers(10, 25))
            signs = np.where(rng.random(k) < 0.5, 1.0, -1.0)
            signs[:2] = (1.0, -1.0)
            v = signs * rng.choice([0.5, 1.0], k, p=[0.2, 0.8])
            w = rng.uniform(0.05, 1.0, k)
            w = w / w.sum()
            w[-1] = 1.0 - w[:-1].sum()
            tree = ScenarioTree(
                1, 1, (-1,) + (0,) * k, (1.0, *map(float, w)), ((0.0,), *((float(x),) for x in v))
            )
            tails = [float(w[v <= -1.0].sum()), float(w[v >= 1.0].sum())]
            long_sums += max((v <= -1.0).sum(), (v >= 1.0).sum()) >= 8
            pi = exact_threshold(min(tails))
            if pi is None:
                continue
            assert_same_everywhere(tree, [pi, np.nextafter(pi, 2.0)])
            entries = {0: (1.0, pi)}
            assert outcome(validate_entries, tree, entries) == (True, None)
            assert outcome(ref_validate_entries, tree, entries) == (True, None)
            entries = {0: (1.0, float(np.nextafter(pi, 2.0)))}
            assert outcome(validate_entries, tree, entries) == (False, 0)
        assert long_sums >= 10

    def test_chunked_blocks_and_tails(self, monkeypatch):
        from cpttree import tree as tree_module

        monkeypatch.setattr(tree_module, "_FAMILY_FLOATS", 24)
        monkeypatch.setattr(arbitrage, "_TAIL_FLOATS", 20)
        rng = np.random.default_rng(54)
        for _ in range(6):
            tree = wild_tree(rng, horizon=2, max_kids=12, grid=bool(rng.random() < 0.5))
            assert_same_everywhere(tree, [0.2, 0.5])
        tree = two_step_uniform_market(30)
        assert_same_everywhere(tree, [[0.25, 0.5]])


def coin_and_bad_family(bad, tail_fail_first=True):
    """Root with a fair +-1 coin below each of two children: node 1's coin
    is lopsided (tail mass 0.1 on the loss side), node 2's family is ``bad``.
    ``tail_fail_first`` puts the lopsided coin before the bad family."""
    families = [[(0.9, 1.0), (0.1, -1.0)], bad]
    if not tail_fail_first:
        families.reverse()
    parent, prob, incs = [-1, 0, 0], [1.0, 0.5, 0.5], [(0.0,), (1.0,), (-1.0,)]
    for node, fam in zip((1, 2), families):
        for p, v in fam:
            parent.append(node)
            prob.append(p)
            incs.append((v,))
    return ScenarioTree(2, 1, tuple(parent), tuple(prob), tuple(incs))


class TestFirstEventOrder:
    def test_arbitrage_after_a_failing_tail_still_wins(self):
        tree = coin_and_bad_family([(0.5, 1.0), (0.5, 2.0)])
        for fn in (marche_certificate, ref_marche_certificate):
            with pytest.raises(CertificateError, match="no-arbitrage violated at node 2"):
                fn(tree, 0.5)
        assert outcome(marche_certificate, tree, 0.5) == outcome(ref_marche_certificate, tree, 0.5)

    @pytest.mark.parametrize("first", [True, False])
    def test_first_tail_failure_names_the_node(self, first):
        tree = coin_and_bad_family([(0.5, 0.0), (0.5, 0.0)], tail_fail_first=first)
        assert_same_everywhere(tree, [0.5, 0.05])

    def test_non_straddling_family_after_a_failing_tail(self):
        tree = coin_and_bad_family([(0.5, 0.0), (0.5, 1.0)])
        assert outcome(canonical_onedim_pairs, tree) == outcome(ref_canonical_onedim_pairs, tree)
        assert outcome(canonical_onedim_pairs, tree)[2] == 2
        assert_same_everywhere(tree, [0.5])

    @pytest.mark.parametrize("drop", [1, 2])
    def test_missing_entry_before_or_after_a_failing_tail(self, drop):
        tree = coin_and_bad_family([(0.5, 1.0), (0.5, -1.0)])
        entries = {0: (1.0, 0.5), 1: (1.0, 0.5), 2: (1.0, 0.5)}
        del entries[drop]
        got = outcome(validate_entries, tree, entries)
        assert got == outcome(ref_validate_entries, tree, entries)
        # node 1 fails its tail test, so a missing node 2 is never looked at
        missing_1 = (ValidationError, "certificate entries missing node 1", None)
        assert got == ((False, 1) if drop == 2 else missing_1)

    def test_invalid_pair_after_a_failing_tail(self):
        tree = coin_and_bad_family([(0.5, 1.0), (0.5, -1.0)])
        entries = {0: (1.0, 0.5), 1: (1.0, 0.5), 2: (-1.0, 0.5)}
        assert outcome(validate_entries, tree, entries) == (False, 1)
        assert outcome(ref_validate_entries, tree, entries) == (False, 1)


class TestNonFiniteKappa:
    @pytest.mark.parametrize("kappa", [math.nan, math.inf])
    def test_validate_certificate_rejects_it(self, kappa):
        with pytest.raises(ValidationError, match="finite"):
            validate_certificate(build_iid_market([(0.5, 1.0), (0.5, -1.0)], 2), kappa, 0.5)

    @pytest.mark.parametrize("kappa", [math.nan, math.inf])
    def test_validate_entries_rejects_it(self, kappa):
        tree = build_iid_market([(0.5, 1.0), (0.5, -1.0)], 2)
        entries = {int(n): (1.0, 0.5) for n in tree.nonterminal_ids}
        entries[2] = (kappa, 0.5)
        with pytest.raises(ValidationError, match="node 2: kappa .* is not finite"):
            validate_entries(tree, entries)

    def test_a_failing_node_before_it_is_the_witness(self):
        tree = build_iid_market([(0.5, 1.0), (0.5, -1.0)], 2)
        entries = {int(n): (1.0, 0.5) for n in tree.nonterminal_ids}
        entries[1] = (1.5, 0.5)
        entries[2] = (math.nan, 0.5)
        assert validate_entries(tree, entries) == (False, 1)
