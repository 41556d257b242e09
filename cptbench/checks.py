"""Independent checks of the workloads' outputs.

Nothing here imports cpttree. Values are recomputed from the seeded plain
inputs with an own wealth recursion over ``parent``, an own Choquet sum and
closed forms. Per-atom utilities go through numpy array powers, whose
vectorised ``pow`` can differ from libm's by one ulp; everything after that
is plain Python arithmetic.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import workloads as wl

REL_TOL = 1e-9  # recomputed value vs reported value, different summation order


class Report:
    """Collects failed checks; a run is correct when none failed."""

    def __init__(self):
        self.failures: list[str] = []
        self.checked = 0

    def expect(self, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok:
            self.failures.append(what)

    def close(self, a: float, b: float, what: str, rel: float = REL_TOL) -> None:
        self.expect(abs(a - b) <= rel * max(1.0, abs(a), abs(b)), f"{what}: {a!r} vs {b!r}")


# --- reference computations --------------------------------------------------


def distortion(spec):
    family, gamma = spec
    if family == "identity":
        return lambda p: p
    if gamma == 0.5:
        return math.sqrt  # numpy's x ** 0.5 is a correctly rounded sqrt
    return lambda p: p**gamma


def choquet_sum(values, probs, w) -> float:
    """sum_i (x_(i) - x_(i-1)) w(P(X >= x_(i))) over the distinct values, x_(0) = 0."""
    mass: dict[float, float] = {}
    for v, p in zip(values, probs):
        mass[v] = mass.get(v, 0.0) + p
    xs = sorted(mass)
    survival = []
    s = 0.0
    for x in reversed(xs):
        s += mass[x]
        survival.append(min(s, 1.0))
    survival.reverse()
    total = 0.0
    prev = 0.0
    for x, tail in zip(xs, survival):
        total += (x - prev) * w(tail)
        prev = x
    return total


def cpt_of_law(outcomes, probs, pref: dict) -> float:
    """CPT value of a finite law of outcomes X_T - B."""
    x = np.asarray(outcomes, dtype=float)
    gains = np.maximum(x, 0.0) ** pref["ap"]
    losses = pref["k"] * np.maximum(-x, 0.0) ** pref["am"]
    v_plus = choquet_sum([float(g) for g in gains], probs, distortion(pref["wp"]))
    v_minus = choquet_sum([float(l) for l in losses], probs, distortion(pref["wm"]))
    return v_plus - v_minus


def leaf_law(tree: dict, alloc: dict[int, float], x0: float) -> tuple[list, list, list]:
    """Leaves, terminal wealth and leaf probabilities by a forward pass over ``parent``."""
    parent, incs, prob = tree["parent"], tree["incs"], tree["prob"]
    n = len(parent)
    wealth = [0.0] * n
    reach = [0.0] * n
    wealth[0], reach[0] = x0, 1.0
    has_child = [False] * n
    for i in range(1, n):
        p = parent[i]
        has_child[p] = True
        wealth[i] = wealth[p] + alloc[p] * incs[i]
        reach[i] = reach[p] * prob[i]
    leaves = [i for i in range(n) if not has_child[i]]
    return leaves, [wealth[i] for i in leaves], [reach[i] for i in leaves]


def strategy_value(tree: dict, strategy: list, x0: float, pref: dict) -> float:
    """CPT value of a returned strategy against the zero reference."""
    _, wealth, probs = leaf_law(tree, {int(row[0]): row[1] for row in strategy}, x0)
    return cpt_of_law(wealth, probs, pref)


def coin_constant_closed_form(horizon: int, theta: float) -> float:
    """X = theta (2K - T), K ~ Bin(T, 1/2), under the coin-model preferences."""
    law: dict[float, float] = {}
    for k in range(horizon + 1):
        x = theta * (2 * k - horizon)
        law[x] = law.get(x, 0.0) + math.comb(horizon, k) / 2**horizon
    return cpt_of_law(list(law), list(law.values()), wl.COIN_PREF)


def coin_mixture_value(atoms) -> float:
    """Coin-model value of equal-weight external atoms |theta_i|."""
    m = len(atoms)
    vals = np.abs(np.asarray(atoms, dtype=float))
    gains = [float(g) for g in vals**0.25] + [0.0]
    probs = [0.5 / m] * m + [0.5]
    return choquet_sum(gains, probs, math.sqrt) - 0.5 * math.fsum(vals) / m


def m1_grid_oracle() -> float:
    """Best two-atom coin-model value on a 1e-3 grid with local refinement."""

    def value(a, b):
        ya, yb = a**0.25, b**0.25
        lo, hi = np.minimum(ya, yb), np.maximum(ya, yb)
        return lo * math.sqrt(0.5) + (hi - lo) * 0.5 - (a + b) / 4.0

    grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    a, b = np.meshgrid(grid, grid, indexing="ij")
    v = value(a, b)
    i = np.unravel_index(np.argmax(v), v.shape)
    best = (float(v[i]), float(a[i]), float(b[i]))
    step = 1e-3
    for _ in range(12):
        step /= 4.0
        aa = np.clip(np.arange(best[1] - 5 * step, best[1] + 5 * step + step / 2, step), 0, 1)
        bb = np.clip(np.arange(best[2] - 5 * step, best[2] + 5 * step + step / 2, step), 0, 1)
        a, b = np.meshgrid(aa, bb, indexing="ij")
        v = value(a, b)
        i = np.unravel_index(np.argmax(v), v.shape)
        best = (float(v[i]), float(a[i]), float(b[i]))
    return best[0]


def one_dim_kappa(incs: list[float], probs: list[float], pi: float) -> float | None:
    """Largest kappa with P(xi dS <= -kappa) >= pi for both xi = +-1."""
    kappas = []
    for xi in (1.0, -1.0):
        losses = sorted({-xi * d for d in incs if xi * d < 0}, reverse=True)
        found = None
        for kappa in losses:
            tail = math.fsum(p for d, p in zip(incs, probs) if xi * d <= -kappa)
            if tail >= pi - 1e-12:
                found = kappa
                break
        if found is None:
            return None
        kappas.append(found)
    return min(kappas)


def market_text(tree: dict) -> str:
    """The market text format, written out from the plain tree."""
    lines = [f"T={tree['horizon']} d=1"]
    for i in range(1, len(tree["parent"])):
        lines.append(
            f"node {i} parent {tree['parent'][i]} p {format(tree['prob'][i], '.17g')} "
            f"dS {format(tree['incs'][i], '.17g')}"
        )
    return "\n".join(lines) + "\n"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- per-workload checks -----------------------------------------------------


def check_searched(rep: Report, name: str, out: dict, tree: dict, pref: dict) -> None:
    v_reported = out["value"][2]
    rep.close(strategy_value(tree, out["strategy"], 0.0, pref), v_reported,
              f"{name}: recomputed value of the returned strategy")
    rep.expect(out["value"][0] - out["value"][1] == v_reported, f"{name}: v != v+ - v-")


def check_search(rep: Report, seed: int, outs: dict) -> None:
    coin = wl.coin_tree_data(wl.SEARCH_T)
    if "coin_search" in outs:
        out = outs["coin_search"]
        check_searched(rep, "coin_search", out, coin, wl.COIN_PREF)
        # a sanity floor: the searches find far more than this constant position
        best_constant = coin_constant_closed_form(wl.SEARCH_T, 0.25)
        rep.expect(out["value"][2] >= best_constant, "coin_search: below the theta=0.25 constant")
    for i in range(wl.PROBE_INSTANCES):
        name = f"probe_{i}"
        if name not in outs:
            continue
        inst = wl.probe_instance(seed, i)
        pref = inst["pref"]
        rep.expect(pref["ap"] / pref["wp"][1] < pref["am"], f"{name}: preferences fail the gate")
        _, hedge, _ = leaf_law(inst["tree"], {0: inst["phi"]}, inst["floor"])
        rep.expect(all(w <= inst["benchmark"][j] for j, w in zip((1, 2, 3), hedge)),
                   f"{name}: reference is not sub-hedged")
        points = outs[name]["points"]
        rep.expect([p[0] for p in points] == list(wl.PROBE_RADII), f"{name}: radii")
        vals = [p[1] for p in points]
        # warm starts make the sequence nondecreasing up to the last-digit rounding of
        # the final re-evaluation, which takes another summation path than the search
        rep.expect(all(b >= a - 1e-12 * max(1.0, abs(a)) for a, b in zip(vals, vals[1:])),
                   f"{name}: values decrease")
        rep.expect(outs[name]["plateau"], f"{name}: gate-respecting instance did not plateau")
    if "probe_violating" in outs:
        vals = [p[1] for p in outs["probe_violating"]["points"]]
        rep.expect(all(b > a for a, b in zip(vals, vals[1:])), "probe_violating: does not grow")
        rep.expect(not outs["probe_violating"]["plateau"], "probe_violating: plateau reported")
        vp = wl.VIOLATING_PREF
        rep.expect(vp["ap"] / vp["wp"][1] >= vp["am"], "probe_violating: gate holds")


def check_mixture(rep: Report, seed: int, outs: dict) -> None:
    tree = wl.coin_tree_data(wl.MIX_T)
    if "ladder" in outs:
        values, argmax = outs["ladder"]["values"], outs["ladder"]["argmax"]
        rep.expect(len(values) == wl.LADDER_N + 1, "ladder: level count")
        rep.close(values[0], 0.375, "ladder: M0", rel=1e-12)
        rep.expect(abs(argmax[0][0] - 0.25) < 1e-4, f"ladder: argmax0 {argmax[0][0]!r}")
        rep.expect(abs(values[1] - m1_grid_oracle()) < 1e-5, "ladder: M1 vs grid oracle")
        rep.expect(all(b >= a for a, b in zip(values, values[1:])), "ladder: values decrease")
        for k, (v, atoms) in enumerate(zip(values, argmax)):
            rep.expect(len(atoms) == 2**k, f"ladder: level {k} atom count")
            rep.close(coin_mixture_value(atoms), v, f"ladder: recomputed M{k}", rel=1e-12)
    if "pure_seed" in outs:
        check_searched(rep, "pure_seed", outs["pure_seed"], tree, wl.COIN_PREF)
    for n in wl.MIX_ATOMS:
        name = f"mixture_{n}"
        if name not in outs:
            continue
        atoms = outs[name]["atoms"]
        rep.expect(len(atoms) == n, f"{name}: atom count")
        outcomes, probs = [], []
        for weight, strategy in atoms:
            alloc = {int(r[0]): r[1] for r in strategy}
            _, wealth, leaf_p = leaf_law(tree, alloc, 0.0)
            outcomes += wealth
            probs += [weight * p for p in leaf_p]
        v = outs[name]["value"][2]
        rep.close(cpt_of_law(outcomes, probs, wl.COIN_PREF), v, f"{name}: recomputed value")
        if "pure_seed" in outs:
            rep.expect(v >= outs["pure_seed"]["value"][2], f"{name}: below its pure seed")


def check_deep(rep: Report, seed: int, outs: dict, extra: dict) -> None:
    big = wl.coin_tree_data(wl.DEEP_T)
    text = market_text(big)
    rep.expect(extra.get("emitted") == text, "deep: emitted market text differs from the format")
    rep.expect(extra.get("re_emitted") == text, "deep: emit -> parse -> emit is not byte-identical")
    for name, out in outs.items():
        if name.startswith("constant_"):
            closed = coin_constant_closed_form(out["T"], out["theta"])
            rep.expect(out["value"][2] == closed,
                       f"{name}: {out['value'][2]!r} != closed form {closed!r}")
            if out["T"] == 1 and out["theta"] == 0.25:
                rep.close(out["value"][2], 0.375, f"{name}: one-step value", rel=1e-15)
    if "engine_starts" in outs:
        check_searched(rep, "engine_starts", outs["engine_starts"], big, wl.COIN_PREF)
        if "terminal_wealth" in outs:
            alloc = {int(r[0]): r[1] for r in outs["engine_starts"]["strategy"]}
            leaves, wealth, _ = leaf_law(big, alloc, 0.0)
            got = outs["terminal_wealth"]["wealth"]
            rep.expect([g[0] for g in got] == leaves, "terminal_wealth: leaf ids")
            rep.expect(all(abs(g[1] - w) <= 1e-9 * max(1.0, abs(w)) for g, w in zip(got, wealth)),
                       "terminal_wealth: differs from the forward pass")
    if "certificate" in outs:
        entries = outs["certificate"]["entries"]
        nonterminal = sorted(set(big["parent"][1:]))
        rep.expect([e[0] for e in entries] == nonterminal, "certificate: node set")
        kappa = one_dim_kappa([1.0, -1.0], [0.5, 0.5], 0.25)
        rep.expect(kappa == 1.0 and all(e[1] == kappa and e[2] == 0.25 for e in entries),
                   "certificate: kappa != 1 at pi = 0.25 on the +-1 coin tree")
        rep.expect(not outs["certificate"]["sampled"], "certificate: d=1 scan marked sampled")
    if "validate" in outs:
        rep.expect(outs["validate"]["ok"] and outs["validate"]["witness"] is None,
                   "validate: the computed certificate does not validate")
    if "coarse_search" in outs:
        mid = wl.coin_tree_data(wl.DEEP_MID_T)
        out = outs["coarse_search"]
        check_searched(rep, "coarse_search", out, mid, wl.COARSE_PREF)
        rep.expect(out["value"][2] >= 0.0, "coarse_search: below its zero start")
        radius = wl.COARSE["box_radius"]
        rep.expect(all(abs(r[1]) <= radius for r in out["strategy"]), "coarse_search: left the box")


# --- cli artifacts ---------------------------------------------------------


def _json(path: Path):
    return json.loads(path.read_text())


def check_manifest(rep: Report, name: str, out: Path, inputs: Path, argv: list[str]) -> None:
    manifest = _json(out / "manifest.json")
    sub = "toolkit self-test" if argv[0] == "toolkit" else argv[0]
    rep.expect(manifest["subcommand"] == sub, f"{name}: manifest subcommand")
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
    rep.expect(set(manifest["outputs"]) == on_disk, f"{name}: manifest outputs != files")
    for fname, digest in manifest["outputs"].items():
        rep.expect(sha256((out / fname).read_bytes()) == digest, f"{name}: sha256 of {fname}")
    for path, digest in manifest["inputs"].items():
        rep.expect(sha256((inputs / path).read_bytes()) == digest,
                   f"{name}: sha256 of input {path}")


def tk_weight(gamma: float, p: float) -> float:
    return p**gamma / (p**gamma + (1.0 - p) ** gamma) ** (1.0 / gamma)


def check_cli_call(rep: Report, seed: int, name: str, out: Path) -> None:
    """Check one successful call's artifacts against own computations."""
    inp = wl.cli_inputs(seed)
    if name in ("value", "value-indented-comment"):
        theta = inp["theta"] if name == "value" else 0.25
        v = _json(out / "value.json")
        closed = theta**0.25 * math.sqrt(0.5) - 0.5 * theta
        rep.close(v["v"], closed, f"{name}: one-step coin value", rel=1e-15)
        rep.close(v["v"], coin_constant_closed_form(1, theta), f"{name}: closed form", rel=1e-15)
        rep.expect(v["admissible"] is True and v["v_plus_infinite"] is False, f"{name}: flags")
    elif name == "check-wellposed":
        tk = inp["tk"]
        r = _json(out / "report.json")
        ap, am, gp, gm = tk["alpha_plus"], tk["alpha_minus"], tk["gamma_plus"], tk["gamma_minus"]
        gate = ap / gp < am
        rep.expect(r["condition_a"] == gate, f"{name}: decisive gate")
        rep.expect(r["condition_bulb"] == (ap < am and ap / gp <= am / gm), f"{name}: weak gate")
        if gate:
            lo, hi = 1.0 / gp, am / ap
            rep.expect(r["feasible_lambda_interval"] == [lo, hi], f"{name}: lambda interval")
            rep.close(r["chosen_lambda"], 0.5 * (lo + hi), f"{name}: chosen lambda", rel=1e-15)
        else:
            rep.expect(r["feasible_lambda_interval"] is None and r["chosen_lambda"] is None,
                       f"{name}: lambda reported without the gate")
        p = r["tk_pathology_p"]
        if p is None:
            f = [tk_weight(gp, q) - tk["k_minus"] * tk_weight(gm, 1 - q) for q in (1e-9, 1 - 1e-9)]
            rep.expect(f[0] * f[1] > 0, f"{name}: pathology root missed")
        else:
            rep.expect(abs(tk_weight(gp, p) - tk["k_minus"] * tk_weight(gm, 1 - p)) < 1e-8,
                       f"{name}: pathology threshold is not a root")
    elif name == "illposed-demo":
        ill = inp["ill"]
        ap, gp, am, gm, km, ell = (ill[k] for k in
                                   ("alpha_plus", "gamma_plus", "alpha_minus", "gamma_minus",
                                    "k_minus", "ell"))
        r = _json(out / "report.json")
        rep.expect(r["verdict"] == "ill-posed" and r["v_plus"] == "inf", f"{name}: verdict")
        v_minus = km * 2.0**-gm / (ell * gm / am - 1.0)
        rep.close(r["v_minus"], v_minus, f"{name}: loss tail integral")
        rows = [line.split(",") for line in (out / "scan.csv").read_text().splitlines()[1:]]
        rep.expect(len(rows) == len(inp["scan"]), f"{name}: scan rows")
        prev = -math.inf
        for (n, vp, vm, v), level in zip(rows, inp["scan"]):

            def band(e, a):
                # int_1^{n^a} y^-e dy
                return a * math.log(level) if e == 1.0 else (level ** (a * (1 - e)) - 1) / (1 - e)

            want_p = 2.0**-gp * (1.0 + band(ell * gp / ap, ap))
            want_m = km * 2.0**-gm * (1.0 + band(ell * gm / am, am))
            rep.expect(float(n) == level, f"{name}: scan level")
            rep.close(float(vp), want_p, f"{name}: scan v+ at {level}")
            rep.close(float(vm), want_m, f"{name}: scan v- at {level}")
            rep.expect(float(v) > prev, f"{name}: truncated values do not grow")
            prev = float(v)
    elif name == "marche-check":
        c = _json(out / "certificate.json")
        m = inp["magnitude"]
        kappa = one_dim_kappa([m, -m], [0.5, 0.5], 0.25)
        rep.expect([e["node"] for e in c["entries"]] == [0, 1, 2], f"{name}: node set")
        rep.expect(all(e["kappa"] == kappa and e["pi"] == 0.25 for e in c["entries"]),
                   f"{name}: kappa != magnitude {m}")
        rep.expect(c["validation"]["valid"] is True and c["validation"]["witness_node"] is None,
                   f"{name}: kappa = magnitude / 2 rejected")
    elif name == "optimize":
        o = _json(out / "optimize.json")
        strategy = [[s["node"], *s["allocation"]] for s in o["strategy"]]
        tree = wl.coin_tree_data(1)
        rep.close(strategy_value(tree, strategy, 0.0, wl.COIN_PREF), o["value"]["v"],
                  f"{name}: recomputed value")
        rep.expect(o["value"]["v"] >= coin_constant_closed_form(1, 0.25) - 1e-12,
                   f"{name}: below the best constant position")
    elif name == "randomization-ladder":
        lad = _json(out / "ladder.json")
        csv = (out / "ladder.csv").read_text().splitlines()
        rep.expect(csv[0] == "n,M_n" and [float(r.split(",")[1]) for r in csv[1:]] == lad["values"],
                   f"{name}: csv and json disagree")
        values = lad["values"]
        rep.close(values[0], 0.375, f"{name}: M0", rel=1e-12)
        rep.expect(abs(values[1] - m1_grid_oracle()) < 1e-5, f"{name}: M1 vs grid oracle")
        rep.expect(all(b >= a for a, b in zip(values, values[1:])), f"{name}: values decrease")
        for k, (v, atoms) in enumerate(zip(values, lad["argmax"])):
            rep.close(coin_mixture_value(atoms), v, f"{name}: recomputed M{k}", rel=1e-12)
    elif name == "toolkit-self-test":
        s = _json(out / "selftest.json")
        rep.expect(s["all_passed"] is True, f"{name}: a statistical check failed")
        for c in s["checks"]:
            rep.expect(not c["passed"] or c["statistic"] <= c["threshold"],
                       f"{name}: {c['name']} passed above its threshold")
        tv = [c for c in s["checks"] if c["name"] == "transport_reconstruction_tv"]
        rep.expect(len(tv) == 1 and tv[0]["statistic"] <= 1e-12, f"{name}: transport TV")
