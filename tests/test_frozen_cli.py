"""Frozen CLI artifacts: the sha256 of every artifact a subcommand writes.

Each case runs ``cli.main`` in process on a fixed market. The manifests are
left out, since they name the input paths. A change to the tree, wealth,
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
}

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
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifact_bytes(tmp_path, case):
    args, frozen = CASES[case]
    if "--market" in args:
        k = args.index("--market") + 1
        path = tmp_path / f"{args[k]}.mkt"
        path.write_text(emit_market(MARKETS[args[k]]))
        args = [*args[:k], str(path), *args[k + 1 :]]
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == 0
    written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert written == sorted(frozen)
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in written}
    assert got == frozen
