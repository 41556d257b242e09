"""Frozen toolkit self-test: exact statistics, compared with ``==``.

The self-test is seeded, so any change to the splitting, transport or
uniformization code that keeps its results keeps every float below and the
bytes of the ``selftest.json`` the CLI writes. A change that moves one of
them changes results and has to say so.
"""

import hashlib

import pytest

from cpttree.cli import main
from cpttree.randtools import SELF_TEST_SEED, toolkit_self_test

CHI2 = 21.665994333461924
KS = 0.0163

FROZEN = {
    SELF_TEST_SEED: [
        ("split_uniform_dyadic_exact", 0.0, 0.5, True),
        ("split_uniform_chi2_independence", 18.24864, CHI2, True),
        ("split_recombine_dyadic", 0.0, 0.5, True),
        ("transport_reconstruction_tv", 1.1796119636642288e-16, 1e-12, True),
        ("uniformize_ks", 0.006864087583287715, KS, True),
        ("conditional_uniformize_ks", 0.010959947556386296, KS, True),
        ("conditional_uniformize_chi2", 11.910400000000001, CHI2, True),
    ],
    7: [
        ("split_uniform_dyadic_exact", 0.0, 0.5, True),
        ("split_uniform_chi2_independence", 6.22688, CHI2, True),
        ("split_recombine_dyadic", 0.0, 0.5, True),
        ("transport_reconstruction_tv", 1.1102230246251565e-16, 1e-12, True),
        ("uniformize_ks", 0.009815556423100391, KS, True),
        ("conditional_uniformize_ks", 0.0055378111663179075, KS, True),
        ("conditional_uniformize_chi2", 4.7616000000000005, CHI2, True),
    ],
}

SELFTEST_SHA256 = {
    SELF_TEST_SEED: "bde23008eb31e2a5924efe648096d85d01dd6f5f2ea0b07b71afe29b0f01bc7c",
    7: "2f3aae36145254346a20cdad45672be3ca9f90ab28df0d79925b123a4f9c947c",
}


@pytest.mark.parametrize("seed", sorted(FROZEN))
def test_self_test_statistics(seed):
    report = toolkit_self_test(seed)
    got = [(c["name"], c["statistic"], c["threshold"], c["passed"]) for c in report["checks"]]
    assert got == FROZEN[seed]
    assert report["seed"] == seed and report["all_passed"] is True


@pytest.mark.parametrize("seed", sorted(SELFTEST_SHA256))
def test_self_test_artifact_bytes(tmp_path, seed):
    assert main(["toolkit", "self-test", "--seed", str(seed), "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "selftest.json").read_bytes()).hexdigest()
    assert digest == SELFTEST_SHA256[seed]
