import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cpttree
from cpttree import randtools
from cpttree import (
    FiniteJoint,
    ValidationError,
    chi2_independence_pass,
    conditional_uniformize,
    ks_uniform_pass,
    recombine_uniform,
    reconstruct_joint,
    split_bitstring,
    split_uniform,
    toolkit_self_test,
    transport,
    transport_breakpoints,
    tv_distance,
    uniformize,
)


# Float digit-by-digit reference copies of split_uniform and recombine_uniform
# (without their argument checks). The library builds the same values from
# integer mantissas; the tests below hold it to these bytes.


def ref_binary_digits(u, count):
    digits = []
    frac = float(u)
    for _ in range(count):
        frac *= 2.0
        bit = int(frac)
        digits.append(bit)
        frac -= bit
    return digits


def ref_split_uniform(u, l, bits):
    digits = ref_binary_digits(u, bits * l)
    outs = []
    for i in range(l):
        val = 0.0
        for r in range(bits):
            val += digits[i + r * l] * 2.0 ** (-(r + 1))
        outs.append(val)
    return tuple(outs)


def ref_recombine_uniform(parts, bits):
    l = len(parts)
    streams = [ref_binary_digits(p, bits) for p in parts]
    val = 0.0
    k = 0
    for r in range(bits):
        for i in range(l):
            k += 1
            val += streams[i][r] * 2.0 ** (-k)
    return val


def as_bytes(values):
    return b"".join(struct.pack("<d", float(v)) for v in values)


SPECIAL_UNIFORMS = [0.0, 0.5, 0.75, 1.0 - 2.0**-53, 2.0**-60, 0.1, 1.0 / 3.0, 5e-324]


@st.composite
def deal_shapes(draw):
    l = draw(st.integers(1, 52))
    return l, draw(st.integers(1, 52 // l))


def dyadics(max_bits=52):
    return st.integers(1, max_bits).flatmap(
        lambda k: st.integers(0, 2**k - 1).map(lambda i: i / 2.0**k)
    )


uniforms = st.one_of(
    st.sampled_from(SPECIAL_UNIFORMS),
    dyadics(),
    st.floats(0.0, 1.0, exclude_max=True),
)


def split_array(us, l, bits):
    """``_split_uniform_array`` of the entries of us, drawn in order in the
    block sizes it asks for."""
    u = np.asarray(us, dtype=float)
    sizes = []

    def draw(k):
        sizes.append(k)
        return u[sum(sizes) - k:sum(sizes)]

    cols = randtools._split_uniform_array(draw, u.size, l, bits)
    assert sum(sizes) == u.size and all(0 < k <= randtools._DEAL_FLOATS for k in sizes)
    return cols


def check_recombine(parts, bits):
    got = recombine_uniform(parts, bits)
    assert type(got) is float
    assert as_bytes([got]) == as_bytes([ref_recombine_uniform(parts, bits)])


class TestSplitUniformReference:
    @settings(max_examples=300, deadline=None)
    @given(deal_shapes(), uniforms)
    @example((1, 52), 1.0 - 2.0**-53)
    @example((52, 1), 1.0 - 2.0**-53)
    def test_scalar_split_matches_reference(self, shape, u):
        l, bits = shape
        got = split_uniform(u, l, bits)
        assert type(got) is tuple and all(type(v) is float for v in got)
        assert as_bytes(got) == as_bytes(ref_split_uniform(u, l, bits))

    @settings(max_examples=150, deadline=None)
    @given(deal_shapes(), st.lists(uniforms, min_size=1, max_size=16))
    @example((1, 52), [])
    @example((52, 1), [])
    def test_array_split_matches_reference(self, shape, us):
        l, bits = shape
        us = [*us, *SPECIAL_UNIFORMS]
        cols = split_array(us, l, bits)
        assert len(cols) == l
        for j, u in enumerate(us):
            row = [col[j] for col in cols]
            assert as_bytes(row) == as_bytes(ref_split_uniform(u, l, bits))

    @pytest.mark.parametrize("n", [1, 2**13 - 1, 2**13, 2**13 + 1, 100_000])
    def test_blockwise_split_matches_split_uniform(self, n):
        u = np.random.default_rng(n).random(n)
        # the special values at each block's first and last entries
        edges = sorted({*range(0, n, 2**13), *range(2**13 - 1, n, 2**13), n - 1})
        u[edges] = np.resize(SPECIAL_UNIFORMS, len(edges))
        first, second = split_array(u, 2, 26)
        assert first.size == second.size == n
        got = np.stack([first, second], axis=1).tobytes()
        assert got == as_bytes(v for x in u.tolist() for v in split_uniform(x, 2, 26))

    def test_block_draws_are_one_generator_call(self):
        # the self-test's uniforms are the bytes, and leave the state, of random(100_000)
        rng, whole = np.random.default_rng(112), np.random.default_rng(112)
        drawn = []
        randtools._split_uniform_array(lambda k: drawn.append(rng.random(k)) or drawn[-1], 100_000, 2, 26)
        assert [d.size for d in drawn] == 12 * [2**13] + [100_000 - 12 * 2**13]
        assert np.concatenate(drawn).tobytes() == whole.random(100_000).tobytes()
        assert rng.bit_generator.state == whole.bit_generator.state

    @settings(max_examples=150, deadline=None)
    @given(deal_shapes(), st.data())
    def test_recombine_matches_reference(self, shape, data):
        l, bits = shape
        parts = data.draw(st.lists(uniforms, min_size=l, max_size=l))
        check_recombine(parts, bits)

    @pytest.mark.parametrize("l,bits", [(1, 52), (52, 1), (2, 26)])
    def test_recombine_matches_reference_at_full_budget(self, l, bits):
        check_recombine([1.0 - 2.0**-53] * l, bits)
        check_recombine([1.0 / 3.0] * l, bits)

    @settings(max_examples=300, deadline=None)
    @given(deal_shapes(), st.data())
    def test_round_trip_on_dyadics(self, shape, data):
        l, bits = shape
        u = data.draw(dyadics(bits * l))
        assert as_bytes([recombine_uniform(split_uniform(u, l, bits), bits)]) == as_bytes([u])


class TestSplitUniform:
    def test_half_splits_to_half_and_zero(self):
        assert split_uniform(0.5, 2, 8) == (0.5, 0.0)

    def test_three_quarters_splits_evenly(self):
        assert split_uniform(0.75, 2, 8) == (0.5, 0.5)

    def test_hand_checked_non_trivial_pattern(self):
        # 0.8125 = 0.1101_2: stream 1 gets digits 1,3 -> 0.10_2, stream 2 gets 1,1 -> 0.11_2
        assert split_uniform(0.8125, 2, 2) == (0.5, 0.75)

    def test_budget_enforced(self):
        with pytest.raises(ValidationError, match="budget"):
            split_uniform(0.5, 4, 14)

    def test_domain_enforced(self):
        with pytest.raises(ValidationError):
            split_uniform(1.0, 2, 4)

    @pytest.mark.parametrize("l,bits", [(2, 8), (3, 6), (4, 4)])
    def test_recombine_inverts_on_dyadics(self, l, bits):
        for i in range(64):
            u = i / 64.0
            assert recombine_uniform(split_uniform(u, l, bits), bits) == u

    @pytest.mark.parametrize("parts", [[0.5, 1.0], [-0.25, 0.5], [float("nan")], [0.5, float("inf")]])
    def test_recombine_rejects_parts_outside_unit_interval(self, parts):
        with pytest.raises(ValidationError, match=r"\[0, 1\)"):
            recombine_uniform(parts, 4)

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: split_uniform(0.5, 2.0, 8), "l"),
            (lambda: split_uniform(0.5, 2, 8.0), "bits"),
            (lambda: recombine_uniform((0.5, 0.25), 8.0), "bits"),
            (lambda: split_bitstring("0101", 2.0), "l"),
        ],
        ids=["split-l", "split-bits", "recombine-bits", "bitstring-l"],
    )
    def test_non_integer_counts_are_validation_errors(self, call, name):
        # each raised TypeError from range
        with pytest.raises(ValidationError, match=f"^{name} must be an integer"):
            call()

    def test_numpy_integer_counts(self):
        assert split_uniform(0.8125, np.int64(2), np.int64(2)) == (0.5, 0.75)
        assert recombine_uniform((0.5, 0.75), np.int64(2)) == 0.8125
        assert split_bitstring("110100", np.int64(2)) == ("100", "110")

    def test_bitstring_deal(self):
        assert split_bitstring("110100", 2) == ("100", "110")
        assert split_bitstring("abc".replace("a", "0").replace("b", "1").replace("c", "0"), 3) == (
            "0",
            "1",
            "0",
        )

    def test_independence_chi_square(self):
        rng = np.random.default_rng(99)
        u = rng.random(20_000)
        parts = np.array([split_uniform(float(v), 2, 26) for v in u])
        ok, stat, crit = chi2_independence_pass(parts[:, 0], parts[:, 1])
        assert ok, (stat, crit)

    @staticmethod
    def run_fresh(code, *argv):
        src = os.path.dirname(os.path.dirname(cpttree.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code, *map(str, argv)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        return out.stdout.strip()

    def test_import_leaves_scipy_stats_unloaded(self, tmp_path):
        # No scipy module at all: neither the import nor single-asset calls need it.
        code = (
            "import sys, pathlib\n"
            "import cpttree\n"
            "assert not [m for m in sys.modules if m.startswith('cpttree.')]\n"
            "import cpttree.cli as cli\n"
            "from cpttree import build_iid_market, emit_market\n"
            "tmp = pathlib.Path(sys.argv[1])\n"
            "mkt = tmp / 'coin.mkt'\n"
            "mkt.write_text(emit_market(build_iid_market([(0.5, 1.0), (0.5, -1.0)], 2)))\n"
            "assert cli.main(['value', '--market', str(mkt), '--theta', '0.25',\n"
            "                 '--out', str(tmp / 'v')]) == 0\n"
            "assert cli.main(['marche-check', '--market', str(mkt), '--validate-kappa', '1',\n"
            "                 '--validate-pi', '0.25', '--out', str(tmp / 'm')]) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        assert self.run_fresh(code, tmp_path) == "[]"
        # a run imports only the modules its subcommand calls
        pref = tmp_path / "coin.cfg"
        pref.write_text("alpha_plus=0.25\nalpha_minus=1.0\nfamily_wplus=power\ngamma_plus=0.5\n")
        code = (
            "import sys\n"
            "from cpttree import cli\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "print(*sorted(m.split('.')[1] for m in sys.modules if m.startswith('cpttree.')))\n"
        )
        for argv, modules in [
            (["toolkit", "self-test"], "cli errors randtools tree"),
            (["marche-check", "--market", tmp_path / "coin.mkt"], "arbitrage cli errors tree"),
            (["check-wellposed", "--pref", pref], "cli errors preferences tree"),
        ]:
            assert self.run_fresh(code, *argv, "--out", tmp_path / argv[0]) == modules

    def test_two_asset_arbitrage_lp_runs_from_cold_start(self):
        atoms = [(1 / 3, (1.0, 0.0)), (1 / 3, (-1.0, 0.0)), (1 / 3, (0.0, 1.0))]
        code = (
            "import json, sys\n"
            "from cpttree import build_iid_market, check_NA\n"
            "assert 'scipy.optimize' not in sys.modules\n"
            f"res = check_NA(build_iid_market({atoms!r}, 1))\n"
            "print(json.dumps([res.ok, res.node, res.direction, 'scipy.optimize' in sys.modules]))\n"
        )
        ok, node, direction, loaded = json.loads(self.run_fresh(code))
        assert not ok and node == 0 and loaded
        dots = np.array([inc for _, inc in atoms]) @ np.array(direction)
        assert np.all(dots >= -1e-9) and dots.max() > 1e-9


class TestTransport:
    def test_product_joint_quantile(self):
        joint = FiniteJoint.from_list(
            [(0.0, 0.0, 0.25), (0.0, 1.0, 0.25), (1.0, 0.0, 0.25), (1.0, 1.0, 0.25)]
        )
        assert transport(joint, 0.0, 0.7) == (1.0,)
        assert transport(joint, 0.0, 0.2) == (0.0,)

    def test_perfect_correlation_copies_y(self):
        joint = FiniteJoint.from_list([(0.0, 0.0, 0.5), (1.0, 1.0, 0.5)])
        for e in np.linspace(0.0, 0.99, 12):
            assert transport(joint, 1.0, float(e)) == (1.0,)
            assert transport(joint, 0.0, float(e)) == (0.0,)

    def test_outside_support_names_nearest_point(self):
        joint = FiniteJoint.from_list([(0.0, 0.0, 0.5), (1.0, 1.0, 0.5)])
        with pytest.raises(ValidationError, match="nearest support"):
            transport(joint, 0.9, 0.5)

    def test_breakpoints_partition_unit_interval(self):
        joint = FiniteJoint.from_list([(0.0, -1.0, 0.25), (0.0, 2.0, 0.5), (0.0, 5.0, 0.25)])
        cuts = transport_breakpoints(joint, 0.0)
        assert cuts[0] == 0.0 and cuts[-1] == 1.0
        assert list(cuts) == sorted(cuts)

    def test_reconstruction_is_exact_on_seeded_joints(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            n = int(rng.integers(2, 21))
            ys = rng.integers(0, 3, n).astype(float)
            zs = np.round(rng.normal(size=(n, 2)), 3)
            w = rng.uniform(0.1, 1.0, n)
            w /= w.sum()
            w[-1] = 1.0 - w[:-1].sum()
            joint = FiniteJoint.from_list(list(zip(ys, map(tuple, zs), w)))
            assert tv_distance(joint, reconstruct_joint(joint)) <= 1e-12


class TestUniformize:
    def test_exponential_median_maps_to_half(self):
        F = lambda x: 1.0 - np.exp(-x) if x > 0 else 0.0
        assert uniformize(F, float(np.log(2.0))) == pytest.approx(0.5, abs=1e-12)

    def test_non_monotone_rejected(self):
        with pytest.raises(ValidationError, match="monotone"):
            uniformize(lambda x: 0.5 + 0.4 * np.sin(x), 0.0)

    def test_atom_triggers_warning(self):
        F = lambda x: 0.0 if x < 0 else min(1.0, 0.5 + 0.25 * x)
        with pytest.warns(UserWarning, match="atomless"):
            uniformize(F, 1.0)

    @pytest.mark.parametrize(
        "F,x",
        [
            (lambda t: math.nan, 0.0),
            (lambda t: math.nan if t > 10.0 else 1.0 / (1.0 + math.exp(-t)), 0.0),
            # finite on the grid, which steps through 0 by 0.2
            (lambda t: math.nan if t == 0.3 else 1.0 / (1.0 + math.exp(-t)), 0.3),
            # finite on the grid, NaN where the bisection of the step at 0 looks
            (lambda t: math.nan if 0.0 < t < 0.2 else float(t >= 0.2), 1.0),
        ],
        ids=["everywhere", "above-10", "off-grid-x", "in-bisection"],
    )
    def test_nan_cdf_rejected(self, F, x):
        with pytest.raises(ValidationError, match="not finite"):
            uniformize(F, x)

    def test_seeded_exponential_sample_passes_ks(self):
        rng = np.random.default_rng(102)
        x = rng.exponential(size=10_000)
        u = 1.0 - np.exp(-x)
        ok, stat, crit = ks_uniform_pass(u)
        assert ok and crit == pytest.approx(0.0163, abs=1e-4)

    def test_monotone_output_in_x(self):
        F = lambda x: 1.0 - np.exp(-max(x, 0.0))
        grid = np.linspace(0.0, 5.0, 50)
        vals = [uniformize(F, float(x)) for x in grid]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestConditionalUniformize:
    @staticmethod
    def shifted_exponential_samples(n=10_000, seed=103):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.0, 2.0, n)
        x = w + rng.exponential(size=n)
        return list(zip(x, w)), w

    def test_output_uniform_and_independent(self):
        samples, w = self.shifted_exponential_samples()
        u, flagged = conditional_uniformize(samples, lambda x, w_: 1.0 - np.exp(-(x - w_)))
        assert not flagged
        ok_ks, *_ = ks_uniform_pass(u)
        ok_chi, *_ = chi2_independence_pass(u, w)
        assert ok_ks and ok_chi

    def test_independent_case_reduces_to_marginal(self):
        rng = np.random.default_rng(104)
        x = rng.exponential(size=500)
        w = rng.normal(size=500)
        samples = list(zip(x, w))
        u, _ = conditional_uniformize(samples, lambda x_, w_: 1.0 - np.exp(-x_))
        assert np.allclose(u, 1.0 - np.exp(-x))

    def test_degenerate_conditioning_is_plain_uniformize(self):
        rng = np.random.default_rng(105)
        x = rng.exponential(size=500)
        samples = [(float(v), 0.0) for v in x]
        u, _ = conditional_uniformize(samples, lambda x_, w_: 1.0 - np.exp(-x_))
        assert np.allclose(u, 1.0 - np.exp(-x))

    def test_randomized_rank_extension_flagged(self):
        # fair-coin conditional law: atoms at 0 and 1
        rng = np.random.default_rng(106)
        xs = rng.integers(0, 2, 2_000).astype(float)
        samples = [(x, 0.0) for x in xs]
        H = lambda x, w_: 0.5 if x < 1.0 else 1.0
        H_left = lambda x, w_: 0.0 if x < 1.0 else 0.5
        u, flagged = conditional_uniformize(samples, H, H_left=H_left, rng=rng)
        assert flagged
        ok, stat, crit = ks_uniform_pass(u)
        assert ok, (stat, crit)

    def test_extension_requires_generator(self):
        with pytest.raises(ValidationError, match="generator"):
            conditional_uniformize([(0.0, 0.0)], lambda x, w: 1.0, H_left=lambda x, w: 0.5)

    def test_atoms_detected_without_explicit_left_limit(self):
        rng = np.random.default_rng(107)
        xs = rng.integers(0, 2, 2_000).astype(float)
        samples = [(x, 0.0) for x in xs]
        H = lambda x, w_: 0.0 if x < 0.0 else (0.5 if x < 1.0 else 1.0)
        with pytest.warns(UserWarning, match="atoms"):
            u, flagged = conditional_uniformize(samples, H, rng=rng)
        assert flagged
        ok, stat, crit = ks_uniform_pass(u)
        assert ok, (stat, crit)

    def test_unflagged_output_is_clipped_as_each_sample_was(self):
        values = [0.25, -1e-13, -0.0, 0.0, 1.0 + 1e-13, 1.0, 0.5 - 2.0**-54]
        samples = [(float(i), 0.0) for i in range(len(values))]
        # the atom probe just below each x reads the same value
        u, flagged = conditional_uniformize(samples, lambda x, w_: values[round(x)])
        assert not flagged
        expected = [min(1.0, max(0.0, v)) for v in values]
        assert u.tobytes() == np.array(expected).tobytes()
        assert not np.signbit(u).any()

    @pytest.mark.parametrize("bad", [-1e-11, 1.0 + 1e-11, math.nan, -math.inf, math.inf])
    def test_unflagged_output_out_of_range_is_refused(self, bad):
        # an infinite value reached the atom probe, whose inf - inf warned
        samples = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        H = lambda x, w_: bad if round(x) == 1 else 0.5
        with pytest.raises(ValidationError, match=r"must lie in \[0, 1\]"):
            conditional_uniformize(samples, H)

    def test_cdf_is_evaluated_once_per_sample_and_probe(self):
        samples, _ = self.shifted_exponential_samples(n=300)
        calls = []

        def H(x, w_):
            calls.append(x)
            return 1.0 - np.exp(-(x - w_))

        u, flagged = conditional_uniformize(samples, H)
        # H(x | w) once per sample, and once just below x for the atom probe
        assert not flagged and len(calls) == 2 * len(samples)
        assert u.tobytes() == np.array([1.0 - np.exp(-(x - w_)) for x, w_ in samples]).tobytes()
        calls.clear()
        conditional_uniformize(samples, H, H_left=lambda x, w_: 0.0, rng=np.random.default_rng(0))
        assert len(calls) == len(samples)


def test_chi2_table_matches_the_scattered_float_counts():
    rng = np.random.default_rng(108)
    for n in (16, 1_000, 100_000):
        a, b = rng.random(n), rng.normal(size=n)
        # the table the scattered add built, reference for the integer counts
        qx = np.quantile(a, np.linspace(0, 1, 5)[1:-1])
        qy = np.quantile(b, np.linspace(0, 1, 5)[1:-1])
        table = np.zeros((4, 4))
        np.add.at(table, (np.searchsorted(qx, a, "right"), np.searchsorted(qy, b, "right")), 1.0)
        expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / n
        stat = float(np.sum((table - expected) ** 2 / expected))
        assert chi2_independence_pass(a, b)[1:] == (stat, randtools.CHI2_CRITICAL_001_DF9)


# sample values for the quantile bins: signed zeros, ties, negative and large
# values, kept below 1e307 so that no difference of two overflows
bin_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, -1.1, 2.0**-1074, 1e307, -1e307]),
    st.floats(-1e307, 1e307, allow_nan=False),
)


@st.composite
def binned_samples(draw):
    """1 to 64 samples in shuffled runs of equal values, so that runs straddle
    the order statistics an edge interpolates."""
    runs = draw(st.lists(st.tuples(bin_values, st.integers(1, 24)), min_size=1, max_size=24))
    x = [v for v, k in runs for _ in range(k)][: draw(st.integers(1, 64))]
    return np.array(draw(st.permutations(x)))


def check_bins(x):
    edges = randtools._quantile_edges(x)
    assert edges.tobytes() == np.quantile(x, [0.25, 0.5, 0.75]).tobytes()
    cells = randtools._bin(x)
    assert cells.dtype == np.uint8
    assert np.array_equal(cells, np.searchsorted(edges, x, side="right"))


class TestQuantileBins:
    @settings(max_examples=400, deadline=None)
    @given(binned_samples())
    # numpy's lerp takes b - d (1 - t) here, one ulp from the one-sided a + d t
    @example(np.array([0.1, -1.1]))
    @example(np.array([-0.0]))
    @example(np.array([0.0, -0.0, 0.0, -0.0, 0.0]))
    def test_edges_are_numpys_quantiles_and_cells_its_searchsorted(self, x):
        check_bins(x)

    @pytest.mark.parametrize("n", range(1, 65))
    def test_every_size_up_to_64(self, n):
        rng = np.random.default_rng(110 + n)
        check_bins(rng.normal(size=n) * 1e3)
        # ties: few distinct values, signed zeros among them
        check_bins(rng.choice([-2.5, -0.0, 0.0, 0.75, 1e300], size=n))

    def test_self_test_imports_no_numpy_ma(self):
        # np.quantile's np.unique imported numpy.ma, about 10 ms a fresh process
        code = (
            "import sys\n"
            "from cpttree import toolkit_self_test\n"
            "print(toolkit_self_test()['all_passed'], 'numpy.ma' in sys.modules)\n"
        )
        assert TestSplitUniform.run_fresh(code) == "True False"


class TestNonFiniteSamples:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_ks_refuses_non_finite_samples(self, bad):
        # NaN gave the statistic NaN, inf the statistic inf
        with pytest.raises(ValidationError, match="finite"):
            randtools.ks_uniform_statistic([0.2, bad])
        with pytest.raises(ValidationError, match="finite"):
            ks_uniform_pass([0.2, bad])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_chi2_refuses_non_finite_samples(self, bad, side):
        # one NaN was reported as a degenerate binning
        rng = np.random.default_rng(109)
        samples = [rng.random(400), rng.random(400)]
        samples[side][7] = bad
        with pytest.raises(ValidationError, match="finite"):
            chi2_independence_pass(*samples)


class TestSelfTest:
    def test_negative_seed_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="seed"):
            toolkit_self_test(-2)

    def test_non_integer_seed_is_a_validation_error(self):
        # numpy's TypeError escaped
        with pytest.raises(ValidationError, match="seed must be an integer"):
            toolkit_self_test(2.5)

    def test_seed_is_reported_as_the_integer_it_ran(self):
        # True ran and reported "seed": true
        report = toolkit_self_test(True)
        assert type(report["seed"]) is int and report == toolkit_self_test(1)

    def test_traced_peak_stays_under_3_mib(self):
        # 4.6 MiB when all 10**5 uniforms, their mantissas and each column's
        # temporaries were live at once
        toolkit_self_test()
        tracemalloc.start()
        try:
            toolkit_self_test()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    def test_documented_seed_passes_everything(self):
        report = toolkit_self_test()
        assert report["all_passed"], report
        names = {c["name"] for c in report["checks"]}
        assert {
            "split_uniform_chi2_independence",
            "transport_reconstruction_tv",
            "uniformize_ks",
            "conditional_uniformize_chi2",
        } <= names
