"""Frozen CLI artifacts: the sha256 of every artifact a subcommand writes.

Each case runs ``cli.main`` in process on a fixed market or preference file.
The manifests are left out, since they name the input paths. A change to the tree, wealth,
outcome or search code that keeps results keeps these bytes; a change that
moves one of them changes results and has to say so.
"""

import hashlib

import pytest

from cpttree import ScenarioTree, build_iid_market, emit_market
from cpttree.cli import main

MARKETS = {
    "coin2": build_iid_market([(0.5, 1.0), (0.5, -1.0)], 2),
    "trinomial3": build_iid_market([(0.25, 1.0), (0.5, 0.0), (0.25, -1.0)], 3),
    "plane2": build_iid_market(
        [(0.25, (1.0, 0.0)), (0.25, (-1.0, 0.0)), (0.25, (0.0, 1.0)), (0.25, (0.0, -1.0))], 2
    ),
    # ids are topological but not level by level: the depth-first leaf order is 4, 6, 3, 5
    "interleaved": ScenarioTree(
        horizon=2,
        asset_dim=1,
        parent=(-1, 0, 0, 2, 1, 2, 1),
        prob=(1.0, 0.5, 0.5, 0.25, 0.5, 0.75, 0.5),
        increments=((0.0,), (1.0,), (-1.0,), (0.5,), (1.5,), (-2.0,), (-0.5,)),
    ),
    "tri1": build_iid_market([(0.3, 1.2), (0.45, -0.8), (0.25, 0.3)], 1),
}

PREFS = {
    # equal curvatures: no feasible lambda, and the TK pathology threshold is set
    "tk": "alpha_plus=0.88\nalpha_minus=0.88\nk_minus=2.25\n"
    "family_wplus=tk\ngamma_plus=0.61\nfamily_wminus=tk\ngamma_minus=0.69\n",
    "coin": "alpha_plus=0.25\nalpha_minus=1.0\nfamily_wplus=power\ngamma_plus=0.5\n",
}

# illposed-demo flags: alpha+ 0.9 and gamma+ 0.5 give infinite gains for ell <= 1.8
_ILL = ["illposed-demo", "--alpha-plus", "0.9", "--gamma-plus", "0.5", "--alpha-minus", "1.0"]

CASES = {
    "value": (
        ["value", "--market", "trinomial3", "--theta", "0.3", "--x0", "0.5", "--benchmark", "0.1"],
        {"value.json": "4d9db3f7818ac49c9311efc5b9cb6d921e16e66b9f68990fe3e083130a30a999"},
    ),
    "optimize_pure": (
        ["optimize", "--market", "trinomial3", "--x0", "0.7", "--benchmark", "0.2", "--seed", "3"],
        {"optimize.json": "fcbd1803d968cf351acbcfbae9000f528082bd2bce298b4dd01d5fbd1eda191d"},
    ),
    "optimize_atoms": (
        ["optimize", "--market", "coin2", "--atoms", "2", "--seed", "1"],
        {"optimize.json": "869b8b2e48ffbae7e50005a83731465b00bc4882497bbd71e40cde26919ddb98"},
    ),
    "optimize_plane": (
        ["optimize", "--market", "plane2", "--seed", "2"],
        {"optimize.json": "826173c73225b314c28334d95f775ae5cafcdd7b8418de7dab19f2d889dbcc02"},
    ),
    "value_interleaved": (
        ["value", "--market", "interleaved", "--theta", "0.4", "--x0", "0.25"],
        {"value.json": "6b5d05921d088ffc67debb612479317fb100d62949b2f9af935d7b3a2e12bfa0"},
    ),
    "optimize_interleaved": (
        ["optimize", "--market", "interleaved", "--benchmark", "0.1", "--seed", "5"],
        {"optimize.json": "244e306660a0fc4475947698ed4e830c805617369a4a422238cc52e59dd64ccf"},
    ),
    "marche_trinomial": (
        ["marche-check", "--market", "trinomial3", "--pi", "0.25",
         "--validate-kappa", "0.5", "--validate-pi", "0.25"],
        {"certificate.json": "7d67823e6795ee488d51243147b1b93921b6c73f7b998274b35a909725ea7959"},
    ),
    "marche_plane": (
        ["marche-check", "--market", "plane2", "--pi", "0.25",
         "--validate-kappa", "0.5", "--validate-pi", "0.25"],
        {"certificate.json": "8a06696fcd910f558f22e1c1f62fedfbafeb6921c96a1ccee670e3409daf8405"},
    ),
    "ladder": (
        ["randomization-ladder", "--n", "2", "--seed", "1"],
        {
            "ladder.csv": "9132bacd472363f475b99833c417e2724326f0672ba5215e04f6cbddf5ee3480",
            "ladder.json": "4d71b2b61fde0930f8a0da2cf2031e26960570de02916d0180184b7b51cdba5c",
        },
    ),
    "probe_trinomial": (
        ["probe", "--market", "tri1", "--x0", "0.3", "--benchmark", "0.1",
         "--radii", "0,1,2,4,8,16,32,64", "--seed", "1"],
        {"probe.json": "419fcb3a790d5309654c1083c01609d30d32ee55294c43368619eab405880c51"},
    ),
    "wellposed_tk": (
        ["check-wellposed", "--pref", "tk"],
        {"report.json": "7bd5e4fb3576f7468c6752b4ac03ad3ba60f21bdd81951a803484d0058affaa4"},
    ),
    "wellposed_coin": (
        ["check-wellposed", "--pref", "coin"],
        {"report.json": "33635b6c959b88525e678e45fa7f93f73d9f5210aea8606e3519be7d5f4a2e21"},
    ),
    # finite losses, infinite gains: "v_plus": "inf"
    "illposed_ill": (
        [*_ILL, "--gamma-minus", "1.0", "--ell", "1.5"],
        {
            "report.json": "bcdb0503e49983862d290a34a439b1ae0038131ba3eb1110097ed402189b32ab",
            "scan.csv": "7fa9d49d1c15c2a91becaadf9fb415dafa4c36b5af1b7a4ce5d01180a0fe826d",
        },
    ),
    # infinite losses: "v": null
    "illposed_inconclusive": (
        [*_ILL, "--gamma-minus", "0.5", "--ell", "1.5"],
        {
            "report.json": "92f659aa2ad1216409cefdb998d01859c31fa515bf28d291f7f6781db0467bef",
            "scan.csv": "4ca7bf88470abff865727305f568262e2c0af40671cfe25f806e7f4b46eb20d0",
        },
    ),
    # both sides finite
    "illposed_well": (
        [*_ILL, "--gamma-minus", "1.0", "--ell", "2.5"],
        {
            "report.json": "fef6a6d014da68d8dd6926d254236b7c2b12aab4cbd49a63b4c1119736bd9c25",
            "scan.csv": "790c5454a85b35daca7e5298d6cfd89740fe001ba022529c817d21dbab601f6d",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifact_bytes(tmp_path, case):
    args, frozen = CASES[case]
    for option, suffix, texts in (("--market", "mkt", MARKETS), ("--pref", "cfg", PREFS)):
        if option in args:
            k = args.index(option) + 1
            path = tmp_path / f"{args[k]}.{suffix}"
            text = texts[args[k]]
            path.write_text(text if isinstance(text, str) else emit_market(text))
            args = [*args[:k], str(path), *args[k + 1 :]]
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == 0
    written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert written == sorted(frozen)
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in written}
    assert got == frozen
