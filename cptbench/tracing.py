"""Spans around the calls into cpttree's layers, and the per-layer metrics.

The recorder wraps public functions by replacing module attributes, so it
sees both the benchmark's own calls and the calls one layer makes into
another (``optimize`` into ``choquet``, ``cli`` into every layer). Nothing
in cpttree changes; the wrappers are removed between traced rounds, so the
untraced rounds run the program as shipped.

A span is (name, start, end, parent span, size). Spans stay in memory and
are written out when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

MIB = 2**20


def _tree_nodes(result, args, kwargs) -> int:
    return result.n_nodes


def _law_atoms(result, args, kwargs) -> int:
    return len(args[0])


def _engine_bytes(result, args, kwargs) -> int:
    return result.matrix.nbytes + result.leaf_prob.nbytes + result.benchmark.nbytes


def _node_directions(result, args, kwargs) -> int:
    # a one-dimensional scan tests +-1; larger d tests the sampled directions
    tree = args[0]
    directions = 2 if tree.asset_dim == 1 else kwargs.get("direction_samples", 128)
    return len(tree.nonterminal_ids) * directions


# (module, attribute, span name, size of the call or None); "" is the package
# namespace, through which the benchmark's own calls go
PATCHES = [
    ("", "ScenarioTree", "tree.build", _tree_nodes),
    ("", "parse_market", "tree.parse", None),
    ("", "emit_market", "tree.emit", None),
    ("", "terminal_wealth", "tree.terminal_wealth", None),
    ("", "build_iid_market", "builders.build_iid_market", None),
    ("", "cpt_value", "choquet.cpt_value", None),
    ("", "optimize_pure", "optimize.optimize_pure", None),
    ("", "optimize_randomized", "optimize.optimize_randomized", None),
    ("", "ladder", "optimize.ladder", None),
    ("", "boundedness_probe", "wellposed.boundedness_probe", None),
    ("", "two_step_uniform_market", "wellposed.two_step_uniform_market", None),
    ("", "marche_certificate", "arbitrage.marche_certificate", _node_directions),
    ("", "validate_entries", "arbitrage.validate_entries", _node_directions),
    ("", "coin_model_preferences", "preferences.coin_model_preferences", None),
    ("tree", "ScenarioTree", "tree.build", _tree_nodes),
    ("builders", "ScenarioTree", "tree.build", _tree_nodes),
    ("tree", "parse_market", "tree.parse", None),
    ("cli", "parse_market", "tree.parse", None),
    ("tree", "emit_market", "tree.emit", None),
    ("tree", "terminal_wealth", "tree.terminal_wealth", None),
    ("builders", "build_iid_market", "builders.build_iid_market", None),
    ("builders", "build_market_from_level_pmfs", "builders.build_market_from_level_pmfs", None),
    ("wellposed", "build_market_from_level_pmfs", "builders.build_market_from_level_pmfs", None),
    ("optimize", "cpt_value_from_outcomes", "choquet.eval", _law_atoms),
    ("optimize", "coin_cpt_value", "choquet.eval", _law_atoms),
    ("choquet", "cpt_value", "choquet.cpt_value", None),
    ("optimize", "cpt_value", "choquet.cpt_value", None),
    ("wellposed", "cpt_value", "choquet.cpt_value", None),
    ("cli", "cpt_value", "choquet.cpt_value", None),
    ("optimize", "OutcomeEngine", "choquet.engine_build", _engine_bytes),
    ("optimize", "optimize_pure", "optimize.optimize_pure", None),
    ("optimize", "optimize_randomized", "optimize.optimize_randomized", None),
    ("optimize", "ladder", "optimize.ladder", None),
    ("wellposed", "optimize_pure", "optimize.optimize_pure", None),
    ("cli", "optimize_pure", "optimize.optimize_pure", None),
    ("cli", "optimize_randomized", "optimize.optimize_randomized", None),
    ("cli", "ladder", "optimize.ladder", None),
    ("wellposed", "boundedness_probe", "wellposed.boundedness_probe", None),
    ("wellposed", "two_step_uniform_market", "wellposed.two_step_uniform_market", None),
    ("cli", "illposed_demo", "wellposed.illposed_demo", None),
    ("arbitrage", "marche_certificate", "arbitrage.marche_certificate", _node_directions),
    ("arbitrage", "validate_entries", "arbitrage.validate_entries", _node_directions),
    ("cli", "marche_certificate", "arbitrage.marche_certificate", _node_directions),
    ("cli", "validate_certificate", "arbitrage.validate_certificate", _node_directions),
    ("cli", "parse_preferences", "preferences.parse_preferences", None),
    ("cli", "check_conditions", "preferences.check_conditions", None),
    ("cli", "toolkit_self_test", "randtools.toolkit_self_test", None),
    ("cli", "main", "cli.main", None),
]


class Tracer:
    """In-memory span recorder with install/remove of the layer wrappers."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.size: list[int] = []
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def open_span(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1])
        self.size.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close_span(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open_span(name)
        try:
            yield i
        finally:
            self.close_span(i)

    def _wrap(self, fn, name: str, sizer):
        def traced(*args, **kwargs):
            i = self.open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close_span(i)
            if sizer is not None:
                self.size[i] = sizer(result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        import importlib

        for mod_name, attr, name, sizer in PATCHES:
            mod = importlib.import_module(f"cpttree.{mod_name}" if mod_name else "cpttree")
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, sizer))

    def remove(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for i, name in enumerate(self.name):
                f.write(json.dumps({
                    "id": i, "parent": self.parent[i], "name": name,
                    "start": self.start[i], "end": self.end[i], "size": self.size[i],
                }) + "\n")

    # --- metrics ---------------------------------------------------------

    def subtree(self, root: int) -> list[int]:
        """Spans below ``root``: ids are assigned in open order, so a root's
        descendants are the contiguous ids up to the next span opened after it closed."""
        end = self.end[root]
        out = []
        for i in range(root + 1, len(self.name)):
            if self.start[i] > end:
                break
            out.append(i)
        return out

    def layer_metrics(self, roots: list[int]) -> dict[str, float]:
        """Per-layer figures over the spans below the given root spans."""
        ids = [i for r in roots for i in self.subtree(r)]
        dur = {i: self.end[i] - self.start[i] for i in ids}
        child = dict.fromkeys(ids, 0.0)
        for i in ids:
            if self.parent[i] in child:
                child[self.parent[i]] += dur[i]

        def outer(prefix: str) -> list[int]:
            # matching spans whose parent does not match too, so nesting counts once
            return [i for i in ids if self.name[i].startswith(prefix)
                    and not (self.parent[i] in child
                             and self.name[self.parent[i]].startswith(prefix))]

        def total(prefix: str) -> float:
            return sum(dur[i] for i in outer(prefix))

        evals = [i for i in ids if self.name[i] == "choquet.eval"]
        eval_s = sum(dur[i] for i in evals)
        search_s = total("optimize.")
        engines = [self.size[i] for i in ids if self.name[i] == "choquet.engine_build"]
        return {
            "tree.build_s": total("tree.build"),
            "tree.parse_s": total("tree.parse"),
            "tree.emit_s": total("tree.emit"),
            "tree.nodes": sum(self.size[i] for i in ids if self.name[i] == "tree.build"),
            "tree.terminal_wealth_s": total("tree.terminal_wealth"),
            "builders.build_s": total("builders."),
            "choquet.evals": len(evals),
            "choquet.eval_s": eval_s,
            "choquet.eval_us": 1e6 * eval_s / len(evals) if evals else 0.0,
            "choquet.atoms_per_eval": (sum(self.size[i] for i in evals) / len(evals)
                                       if evals else 0.0),
            "choquet.cpt_value_s": total("choquet.cpt_value"),
            "choquet.engine_build_s": total("choquet.engine_build"),
            "choquet.engine_mb": max(engines, default=0) / MIB,
            "optimize.search_s": search_s,
            "optimize.self_s": sum(dur[i] - child[i] for i in ids
                                   if self.name[i].startswith("optimize.")),
            "optimize.evals_per_s": len(evals) / search_s if search_s > 0 else 0.0,
            "wellposed.probe_s": total("wellposed.boundedness_probe"),
            "arbitrage.certificate_s": total("arbitrage.marche_certificate"),
            "arbitrage.validate_s": total("arbitrage.validate"),
            "arbitrage.node_directions": sum(self.size[i] for i in ids
                                             if self.name[i].startswith("arbitrage.")),
            "randtools.selftest_s": total("randtools.toolkit_self_test"),
        }


def median_round(rounds: list[tuple[int, float, int]]) -> tuple[int, int]:
    """(root span, round index) of the traced round with the (lower) median duration."""
    root, _, k = sorted(rounds, key=lambda r: r[1])[(len(rounds) - 1) // 2]
    return root, k

