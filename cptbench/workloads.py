"""Seeded inputs and the timed operations of the four workloads.

Inputs are made twice from the same seed: as plain data (no cpttree import)
for the independent checks, and as cpttree objects (``prepare``) for the
timed operations. Every operation is one call into the public API; its raw
result is turned into plain data outside the timed window.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

COIN = [(0.5, 1.0), (0.5, -1.0)]

# coin model: x^(1/4) gains, linear losses, square-root gain weighting
COIN_PREF = {"ap": 0.25, "am": 1.0, "k": 1.0, "wp": ("power", 0.5), "wm": ("identity", 1.0)}
# fails the decisive gate alpha+/gamma+ < alpha- (0.9 / 0.5 > 1)
VIOLATING_PREF = {"ap": 0.9, "am": 1.0, "k": 1.0, "wp": ("power", 0.5), "wm": ("identity", 1.0)}

# A run repeats whole rounds; wall_s sums each operation's median time at the
# reference core speed (speed.py; README: the machine's speed alternates
# between two states 1.6-1.8x apart). The seed moves the work of a round, so
# the seeded parts are sums of several instances, whose total moves less.

# search: the T=3 coin-tree search with one random start (~4.4k evaluations
# of 8-atom laws; start seed fixed, since with it the count moves over
# 4.3k-5.1k), six gate-respecting probes on one-step trinomial trees
# (~3.5k each) and one fixed gate-violating probe (~3.9k). Seven radii up to
# 64, so the plateau test (last three doublings, from 8) starts beyond the
# optima of these tame preferences: with radii 0.5-32 one instance in 120
# (seed 8, probe 5) still gained from 4 to 8 and reported no plateau.
SEARCH_T = 3
SEARCH_MULTISTART = 1
SEARCH_SEED = 0
PROBE_INSTANCES = 6
PROBE_RADII = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
PROBE_MULTISTART = 1
VIOLATING_ATOMS = 2
VIOLATING_RADII = (1.0, 2.0, 4.0)
VIOLATING_SEED = 3

# mixture: the coin-model ladder up to 2^2 external atoms (~5.2k evaluations
# of <=5-atom laws), the pure seed and 2- and 3-atom mixtures on the one-step
# coin tree (~2.8k and ~3.8k evaluations of 4- and 6-atom concatenated laws)
LADDER_N = 2
MIX_T = 1
MIX_ATOMS = (2, 3)

# deep: the T=12 coin tree (8191 nodes, 4096 leaves, a 128 MiB dense engine)
# and a coarse search on the T=9 coin tree (511 coordinates, 512-leaf law).
# The coarse search is loss averse with linear weighting, so the zero start
# is a local optimum at its single step size and each zero start costs one
# sweep; its start seed is fixed because the random start's evaluation count
# moves by ~15% with it.
DEEP_T = 12
DEEP_MID_T = 9
DEEP_STARTS_TOL = 16.0  # above the first compass step (default radius 8 -> step 4)
COARSE = {"box_radius": 0.5, "tol": 0.15, "multistart": 1, "seed": 0, "max_box_doublings": 0}
COARSE_PREF = {"ap": 0.5, "am": 1.0, "k": 2.25, "wp": ("identity", 1.0), "wm": ("identity", 1.0)}
CONST_T = (1, 4, 9)

CLI_CALLS = (
    "value",
    "check-wellposed",
    "illposed-demo",
    "marche-check",
    "optimize",
    "randomization-ladder",
    "toolkit-self-test",
    "value-indented-comment",
)
# fails at the time of writing: parse_market tests "#" on the unstripped line,
# so an indented comment is rejected as a bad market line (exit 2)
EXPECTED_FAILURE = "value-indented-comment"


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def dyadic_thetas(seed: int, stream: int, n: int) -> list[float]:
    """Positions k/64: every partial wealth sum on a +-1 tree is then exact."""
    return [int(k) / 64.0 for k in _rng(seed, stream).integers(1, 65, n)]


def coin_tree_data(horizon: int) -> dict:
    """Breadth-first binary tree with fair +-1 steps, in builder node order."""
    parent, prob, incs = [-1], [1.0], [0.0]
    frontier = [0]
    for _ in range(horizon):
        nxt = []
        for node in frontier:
            for v in (1.0, -1.0):
                parent.append(node)
                prob.append(0.5)
                incs.append(v)
                nxt.append(len(parent) - 1)
        frontier = nxt
    return {"horizon": horizon, "parent": parent, "prob": prob, "incs": incs}


def probe_instance(seed: int, i: int) -> dict:
    """One-step trinomial market whose support straddles zero, gate-respecting
    power preferences with strong loss aversion and a sub-hedged reference."""
    rng = _rng(seed, 1, i)
    v = rng.uniform(-1.5, 1.5, 3)
    v[0] = abs(v[0]) + 0.5
    v[1] = -abs(v[1]) - 0.5
    w = rng.uniform(0.2, 1.0, 3)
    w = w / w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    am = float(rng.uniform(0.9, 1.0))
    gp = float(rng.uniform(0.7, 1.0))
    ap = float(rng.uniform(0.3, 0.6) * gp * am)
    gm = float(rng.uniform(0.6, 1.0))
    k = float(rng.uniform(2.0, 3.0))
    phi = float(rng.uniform(-0.5, 0.5))
    floor = float(rng.uniform(-1.0, 0.0))
    slack = rng.uniform(0.0, 0.5, 3)
    x0 = float(rng.uniform(-1.0, 1.0))
    incs = [0.0] + [float(x) for x in v]
    return {
        "tree": {"horizon": 1, "parent": [-1, 0, 0, 0], "prob": [1.0] + [float(p) for p in w],
                 "incs": incs},
        "pref": {"ap": ap, "am": am, "k": k, "wp": ("power", gp), "wm": ("power", gm)},
        "phi": phi,
        "floor": floor,
        # leaf j ends at floor + phi * dS_j under the sub-hedge; the benchmark adds slack
        "benchmark": {j: floor + phi * incs[j] + float(slack[j - 1]) for j in (1, 2, 3)},
        "x0": x0,
        "search_seed": seed * 10 + i,
    }


def cli_inputs(seed: int) -> dict:
    """Parameters of the cli workload's calls; all inputs are small."""
    rng = _rng(seed, 4)
    ap_ill = float(rng.uniform(0.8, 0.95))
    gp_ill = float(rng.uniform(0.4, 0.6))
    # ell * gamma+ / alpha+ <= 1 < ell * gamma- / alpha-: finite losses, infinite gains
    ell = 1.0 + float(rng.uniform(0.3, 0.9)) * (ap_ill / gp_ill - 1.0)
    return {
        "theta": dyadic_thetas(seed, 5, 1)[0],
        "tk": {
            "alpha_plus": float(rng.uniform(0.6, 0.9)),
            "alpha_minus": float(rng.uniform(0.8, 1.0)),
            "k_minus": float(rng.uniform(1.5, 3.0)),
            "gamma_plus": float(rng.uniform(0.55, 0.75)),
            "gamma_minus": float(rng.uniform(0.6, 0.8)),
        },
        "ill": {"alpha_plus": ap_ill, "gamma_plus": gp_ill, "alpha_minus": 1.0,
                "gamma_minus": 1.0, "k_minus": 1.0, "ell": ell},
        "scan": [10.0, 1000.0, 1e6],
        "magnitude": int(rng.integers(4, 17)) / 8.0,
        "search_seed": seed % 100_000,
    }


def cli_argv(inp: dict) -> dict[str, list[str]]:
    """Arguments of each call; paths are relative to the inputs directory."""
    ill = inp["ill"]
    return {
        "value": ["value", "--market", "coin1.mkt", "--theta", repr(inp["theta"])],
        "check-wellposed": ["check-wellposed", "--pref", "tk.cfg"],
        "illposed-demo": [
            "illposed-demo", "--alpha-plus", repr(ill["alpha_plus"]),
            "--gamma-plus", repr(ill["gamma_plus"]), "--alpha-minus", repr(ill["alpha_minus"]),
            "--gamma-minus", repr(ill["gamma_minus"]), "--k-minus", repr(ill["k_minus"]),
            "--ell", repr(ill["ell"]), "--scan", ",".join(repr(s) for s in inp["scan"]),
        ],
        "marche-check": [
            "marche-check", "--market", "coin2.mkt", "--pi", "0.25",
            "--validate-kappa", repr(inp["magnitude"] / 2.0), "--validate-pi", "0.25",
        ],
        "optimize": ["optimize", "--market", "coin1.mkt", "--seed", str(inp["search_seed"])],
        "randomization-ladder": ["randomization-ladder", "--n", "2", "--seed",
                                 str(inp["search_seed"])],
        "toolkit-self-test": ["toolkit", "self-test"],
        "value-indented-comment": ["value", "--market", "indented.mkt", "--theta", "0.25"],
    }


# --- the cpttree side ---------------------------------------------------------


def _tree(ct, data: dict):
    return ct.ScenarioTree(
        horizon=data["horizon"],
        asset_dim=1,
        parent=tuple(data["parent"]),
        prob=tuple(data["prob"]),
        increments=tuple((x,) for x in data["incs"]),
    )


def _pref(ct, p: dict):
    def dist(spec):
        family, gamma = spec
        return ct.Distortion.identity() if family == "identity" else ct.Distortion.power(gamma)

    return ct.PreferenceSpec(
        utility=ct.UtilityPair.power(p["ap"], p["am"], k=p["k"]),
        distortion=ct.DistortionPair(dist(p["wp"]), dist(p["wm"])),
    )


def plain_strategy(strategy) -> list:
    return [[int(n), *map(float, vec)] for n, vec in sorted(strategy.allocations.items())]


def plain_value(value) -> list:
    return [float(value.v_plus), float(value.v_minus), float(value.v)]


def _searched(r) -> dict:
    return {"strategy": plain_strategy(r[0]), "value": plain_value(r[1])}


def _probed(r) -> dict:
    return {"points": [list(p) for p in r.points], "plateau": bool(r.plateau)}


class Op:
    """One timed call; ``plain`` turns its result into JSON data afterwards."""

    def __init__(self, name, call, plain):
        self.name = name
        self.call = call
        self.plain = plain


def prepare(workload: str, seed: int):
    """Build the workload's markets, preferences and references.

    Returns the operations of one round and a function that gathers, after
    the timed rounds, the data the checks need beyond the operations' results.
    """
    import cpttree as ct

    return {"search": _prepare_search, "mixture": _prepare_mixture, "deep": _prepare_deep}[
        workload
    ](ct, seed)


def _prepare_search(ct, seed):
    tree = ct.build_iid_market(COIN, SEARCH_T)
    pref = ct.coin_model_preferences()
    ref = ct.ReferenceSpec.zero(tree)
    cfg = ct.SearchConfig(seed=SEARCH_SEED, multistart=SEARCH_MULTISTART)
    ops = [Op("coin_search", lambda: ct.optimize_pure(tree, pref, 0.0, ref, cfg), _searched)]
    for i in range(PROBE_INSTANCES):
        inst = probe_instance(seed, i)
        args = (
            _tree(ct, inst["tree"]),
            _pref(ct, inst["pref"]),
            inst["x0"],
            ct.ReferenceSpec(
                benchmark=dict(inst["benchmark"]),
                subhedge=ct.PureStrategy({0: (inst["phi"],)}),
                floor=inst["floor"],
            ),
            PROBE_RADII,
            ct.SearchConfig(seed=inst["search_seed"], multistart=PROBE_MULTISTART),
        )
        ops.append(Op(f"probe_{i}", lambda a=args: ct.boundedness_probe(*a), _probed))
    vtree = ct.two_step_uniform_market(VIOLATING_ATOMS)
    vargs = (
        vtree,
        _pref(ct, VIOLATING_PREF),
        0.0,
        ct.ReferenceSpec.zero(vtree),
        VIOLATING_RADII,
        ct.SearchConfig(seed=VIOLATING_SEED, multistart=1),
    )
    ops.append(Op(
        "probe_violating",
        lambda: ct.boundedness_probe(*vargs, allow_condition_a_violation=True),
        _probed,
    ))
    return ops, dict


def _prepare_mixture(ct, seed):
    tree = ct.build_iid_market(COIN, MIX_T)
    pref = ct.coin_model_preferences()
    ref = ct.ReferenceSpec.zero(tree)
    cfg = ct.SearchConfig(seed=seed)
    ops = [
        Op("ladder", lambda: ct.ladder(LADDER_N, cfg),
           lambda r: {"values": list(r.values), "argmax": [list(a) for a in r.argmax]}),
        Op("pure_seed", lambda: ct.optimize_pure(tree, pref, 0.0, ref, cfg), _searched),
    ]
    for n in MIX_ATOMS:
        ops.append(Op(
            f"mixture_{n}",
            lambda n=n: ct.optimize_randomized(tree, pref, 0.0, ref, n, cfg),
            lambda r: {"atoms": [[float(w), plain_strategy(s)] for w, s in r[0].atoms],
                       "value": plain_value(r[1])},
        ))
    return ops, dict


def _prepare_deep(ct, seed):
    text = ct.emit_market(ct.build_iid_market(COIN, DEEP_T))
    big = ct.parse_market(text)
    mid = ct.build_iid_market(COIN, DEEP_MID_T)
    small = {t: ct.build_iid_market(COIN, t) for t in CONST_T}
    pref = ct.coin_model_preferences()
    coarse_pref = _pref(ct, COARSE_PREF)
    big_ref = ct.ReferenceSpec.zero(big)
    mid_ref = ct.ReferenceSpec.zero(mid)
    state: dict = {}

    def engine_starts():
        cfg = ct.SearchConfig(seed=seed, multistart=1, tol=DEEP_STARTS_TOL, max_box_doublings=0)
        state["strategy"], value = ct.optimize_pure(big, pref, 0.0, big_ref, cfg)
        return state["strategy"], value

    def certificate():
        state["certificate"] = ct.marche_certificate(big, 0.25)
        return state["certificate"]

    def constant(j, t, tree, ref, theta):
        return Op(
            f"constant_{j}_T{t}",
            lambda: ct.cpt_value(tree, ct.PureStrategy.constant(tree, theta), 0.0, ref, pref),
            lambda r: {"T": t, "theta": theta, "value": plain_value(r)},
        )

    ops = [Op("engine_starts", engine_starts, _searched)]
    consts = [(1, 0.25)] + list(zip(CONST_T, dyadic_thetas(seed, 3, len(CONST_T))))
    refs = {t: ct.ReferenceSpec.zero(tr) for t, tr in small.items()}
    ops += [constant(j, DEEP_T, big, big_ref, th) for j, th in enumerate(dyadic_thetas(seed, 2, 2))]
    ops += [constant(j + 2, t, small[t], refs[t], th) for j, (t, th) in enumerate(consts)]
    ops += [
        Op("terminal_wealth", lambda: ct.terminal_wealth(big, state["strategy"], 0.0),
           lambda r: {"wealth": [[int(k), float(v)] for k, v in sorted(r.items())]}),
        Op("certificate", certificate,
           lambda r: {"sampled": bool(r.sampled),
                      "entries": [[int(n), float(k), float(p)]
                                  for n, (k, p) in sorted(r.entries.items())]}),
        Op("validate", lambda: ct.validate_entries(big, state["certificate"].entries),
           lambda r: {"ok": bool(r[0]), "witness": r[1]}),
        Op("coarse_search",
           lambda: ct.optimize_pure(mid, coarse_pref, 0.0, mid_ref, ct.SearchConfig(**COARSE)),
           _searched),
    ]
    return ops, lambda: {"emitted": text, "re_emitted": ct.emit_market(ct.parse_market(text))}


def write_cli_inputs(seed: int, out: Path) -> None:
    """Write the market and preference files of the cli workload."""
    import cpttree as ct

    inp = cli_inputs(seed)
    out.mkdir(parents=True, exist_ok=True)
    coin1 = ct.emit_market(ct.build_iid_market(COIN, 1))
    m = inp["magnitude"]
    header, body = coin1.split("\n", 1)
    (out / "coin1.mkt").write_text(coin1)
    (out / "coin2.mkt").write_text(ct.emit_market(ct.build_iid_market([(0.5, m), (0.5, -m)], 2)))
    (out / "indented.mkt").write_text(f"{header}\n  # one-step fair coin\n{body}")
    (out / "tk.cfg").write_text(
        "".join(f"{k}={v!r}\n" for k, v in inp["tk"].items())
        + "family_wplus=tk\nfamily_wminus=tk\n"
    )
