"""Command-line entry point wiring the library, with reproducible artifacts.

Every run writes its artifacts plus a manifest naming the subcommand, the
resolved parameters, the seed, input checksums and output checksums.
Identical inputs produce byte-identical artifacts: floats are printed with
17 significant digits and nothing time-dependent is emitted.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, _from_module
from .errors import ValidationError
from .tree import _fmt

if TYPE_CHECKING:
    from .preferences import PreferenceSpec
    from .tree import PureStrategy

# The library names the subcommands call. A run reads each through ``_lib``,
# so it imports only the modules its subcommand calls. Code outside this
# module that reads one of them (a test's monkeypatch, a tracer's wrapper)
# binds them all here at once, the objects an eager import of them binds.
_LIBRARY = (
    "marche_certificate", "validate_certificate", "cpt_value", "SearchConfig", "ladder",
    "optimize_pure", "optimize_randomized", "DistortionPair", "Distortion", "PreferenceSpec",
    "UtilityPair", "check_conditions", "coin_model_preferences", "parse_preferences",
    "SELF_TEST_SEED", "toolkit_self_test", "PureStrategy", "ReferenceSpec", "parse_market",
    "illposed_demo", "boundedness_probe",
)


def __getattr__(name: str):
    if name not in _LIBRARY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    bound = globals()
    for n in _LIBRARY:
        if n not in bound:
            bound[n] = _from_module(n)
    return bound[name]


def _lib(name: str):
    """The library object ``name``: as bound on this module if it is, else as
    its module binds it now."""
    bound = globals()
    return bound[name] if name in bound else _from_module(name)


def _dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float {obj!r} cannot be written as JSON")
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(inner + _dumps(v, indent + 1) for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {_dumps(v, indent + 1)}" for k, v in sorted(obj.items())
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _Run:
    """Collects artifacts and writes them with a manifest once the run succeeds.

    Each file goes through a temporary file and a rename, the manifest last,
    so a failed run leaves no artifact behind and a finished one no partial
    file.
    """

    def __init__(self, subcommand: str, out_dir: str, parameters: dict, fmt: str):
        self.subcommand = subcommand
        self.out = Path(out_dir)
        self.parameters = parameters
        self.fmt = fmt
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, str] = {}
        self.buffered: dict[str, bytes] = {}
        self.seed = parameters.get("seed")

    def read_input(self, path: str) -> str:
        data = Path(path).read_bytes()
        self.inputs[path] = _sha256_bytes(data)
        return data.decode("utf-8")

    def write(self, name: str, text: str) -> None:
        if self.fmt != "both" and not name.endswith(f".{self.fmt}"):
            return
        data = text.encode("utf-8")
        self.buffered[name] = data
        self.outputs[name] = _sha256_bytes(data)

    def write_json(self, name: str, obj) -> None:
        self.write(name, _dumps(obj) + "\n")

    def finish(self) -> None:
        manifest = {
            "subcommand": self.subcommand,
            "parameters": self.parameters,
            "seed": self.seed,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "version": __version__,
        }
        self.buffered["manifest.json"] = (_dumps(manifest) + "\n").encode("utf-8")
        self.out.mkdir(parents=True, exist_ok=True)
        for name, data in self.buffered.items():
            tmp = self.out / f".{name}.tmp"
            try:
                tmp.write_bytes(data)
                os.replace(tmp, self.out / name)
            finally:
                tmp.unlink(missing_ok=True)


def _load_preferences(run: _Run, path: str | None, overrides: list[str]) -> PreferenceSpec:
    kv = {}
    for item in overrides:
        if "=" not in item:
            raise ValidationError(f"--set expects key=value, got {item!r}")
        k, v = item.split("=", 1)
        kv[k.strip()] = v.strip()
    if path is None:
        if kv:
            raise ValidationError("--set requires --pref")
        return _lib("coin_model_preferences")()
    return _lib("parse_preferences")(run.read_input(path), overrides=kv)


def _strategy_from_args(run: _Run, tree, args) -> PureStrategy:
    if (args.theta is None) == (args.strategy is None):
        raise ValidationError("provide exactly one of --theta or --strategy")
    PureStrategy = _lib("PureStrategy")
    if args.theta is not None:
        return PureStrategy.constant(tree, args.theta)
    payload = json.loads(run.read_input(args.strategy))
    try:
        if "constant" in payload:
            strategy = PureStrategy.constant(tree, payload["constant"])
        else:
            alloc = payload["allocations"].items()
            strategy = PureStrategy({int(k): tuple(float(x) for x in v) for k, v in alloc})
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValidationError(f"strategy JSON needs 'constant' or numeric 'allocations': {exc!r}") from exc
    if not all(math.isfinite(x) for vec in strategy.allocations.values() for x in vec):
        raise ValidationError("strategy JSON holds a non-finite allocation")
    return strategy


def _strategy_json(strategy: PureStrategy) -> list[dict]:
    return [
        {"node": node, "allocation": list(vec)}
        for node, vec in sorted(strategy.allocations.items())
    ]


def _finite_float(text: str) -> float:
    """argparse type: a finite float, so NaN and inf never reach a computation."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _int_at_least(lowest: int):
    """argparse type: an integer no smaller than ``lowest``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < lowest:
            raise argparse.ArgumentTypeError(f"expected an integer >= {lowest}, got {text!r}")
        return value

    return parse


def _parse_floats(text: str, option: str) -> list[float]:
    try:
        return [_finite_float(p) for p in text.split(",") if p]
    except argparse.ArgumentTypeError as exc:
        raise ValidationError(f"{option}: {exc}") from exc


def _cmd_value(run: _Run, args) -> int:
    tree = _lib("parse_market")(run.read_input(args.market))
    pref = _load_preferences(run, args.pref, args.set)
    strategy = _strategy_from_args(run, tree, args)
    ref = _lib("ReferenceSpec").constant(tree, args.benchmark)
    value = _lib("cpt_value")(tree, strategy, args.x0, ref, pref)
    run.write_json("value.json", value.to_json_dict())
    return 0


def _cmd_optimize(run: _Run, args) -> int:
    tree = _lib("parse_market")(run.read_input(args.market))
    pref = _load_preferences(run, args.pref, args.set)
    ref = _lib("ReferenceSpec").constant(tree, args.benchmark)
    cfg = _lib("SearchConfig")(box_radius=args.box, multistart=args.multistart, seed=args.seed)
    if args.atoms > 1:
        strategy, value = _lib("optimize_randomized")(tree, pref, args.x0, ref, args.atoms, cfg)
        payload = {
            "value": value.to_json_dict(),
            "n_atoms": args.atoms,
            "atoms": [
                {"weight": w, "strategy": _strategy_json(s)} for w, s in strategy.atoms
            ],
        }
    else:
        strategy, value = _lib("optimize_pure")(tree, pref, args.x0, ref, cfg)
        payload = {
            "value": value.to_json_dict(),
            "n_atoms": 1,
            "strategy": _strategy_json(strategy),
        }
    run.write_json("optimize.json", payload)
    return 0


def _cmd_probe(run: _Run, args) -> int:
    tree = _lib("parse_market")(run.read_input(args.market))
    pref = _load_preferences(run, args.pref, args.set)
    ref = _lib("ReferenceSpec").constant(tree, args.benchmark)
    cfg = _lib("SearchConfig")(multistart=args.multistart, seed=args.seed)
    radii = _parse_floats(args.radii, "--radii")
    result = _lib("boundedness_probe")(tree, pref, args.x0, ref, radii, cfg)
    run.write_json("probe.json", result.to_json_dict())
    return 0


def _cmd_ladder(run: _Run, args) -> int:
    cfg = _lib("SearchConfig")(box_radius=args.box, multistart=args.multistart, seed=args.seed)
    result = _lib("ladder")(args.n, cfg)
    csv = "n,M_n\n" + "".join(f"{k},{_fmt(v)}\n" for k, v in enumerate(result.values))
    run.write("ladder.csv", csv)
    run.write_json("ladder.json", vars(result))  # values, argmax and box_bound
    return 0


def _cmd_illposed(run: _Run, args) -> int:
    Distortion = _lib("Distortion")
    pref = _lib("PreferenceSpec")(
        utility=_lib("UtilityPair").power(args.alpha_plus, args.alpha_minus, k=args.k_minus),
        distortion=_lib("DistortionPair")(
            Distortion.power(args.gamma_plus), Distortion.power(args.gamma_minus)
        ),
    )
    n_list = _parse_floats(args.scan, "--scan")
    report, rows = _lib("illposed_demo")(pref, args.ell, n_list)
    run.write_json("report.json", report.to_json_dict())
    csv = "n,v_plus,v_minus,v\n" + "".join(
        f"{_fmt(r.n)},{_fmt(r.v_plus)},{_fmt(r.v_minus)},{_fmt(r.v)}\n" for r in rows
    )
    run.write("scan.csv", csv)
    return 0


def _cmd_check_wellposed(run: _Run, args) -> int:
    pref = _load_preferences(run, args.pref, args.set)
    run.write_json("report.json", _lib("check_conditions")(pref).to_json_dict())
    return 0


def _cmd_marche(run: _Run, args) -> int:
    if (args.validate_kappa is None) != (args.validate_pi is None):
        raise ValidationError("--validate-kappa and --validate-pi go together")
    tree = _lib("parse_market")(run.read_input(args.market))
    cert = _lib("marche_certificate")(tree, _parse_floats(args.pi, "--pi"), args.direction_samples)
    payload: dict = {
        "sampled": cert.sampled,
        "direction_samples": cert.direction_samples,
        "entries": [
            {"node": n, "kappa": kp, "pi": pp} for n, (kp, pp) in sorted(cert.entries.items())
        ],
    }
    if args.validate_kappa is not None:
        ok, node = _lib("validate_certificate")(
            tree,
            _parse_floats(args.validate_kappa, "--validate-kappa"),
            _parse_floats(args.validate_pi, "--validate-pi"),
            args.direction_samples,
        )
        payload["validation"] = {
            "kappa": args.validate_kappa, "pi": args.validate_pi,
            "valid": ok, "witness_node": node,
        }
    run.write_json("certificate.json", payload)
    return 0


def _cmd_toolkit(run: _Run, args) -> int:
    report = _lib("toolkit_self_test")(args.seed)
    run.write_json("selftest.json", report)
    return 0 if report["all_passed"] else 1


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", default=".", help="artifact directory")
    sp.add_argument("--format", choices=["json", "csv", "both"], default="both")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpttree",
        description="Evaluate, diagnose and optimize CPT objectives on finite scenario-tree markets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("value", help="CPT value of a strategy on a market")
    sp.add_argument("--market", required=True)
    sp.add_argument("--pref", default=None)
    sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    sp.add_argument("--theta", type=_finite_float, default=None, help="constant allocation")
    sp.add_argument("--strategy", default=None, help="JSON strategy file")
    sp.add_argument("--x0", type=_finite_float, default=0.0)
    sp.add_argument("--benchmark", type=_finite_float, default=0.0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_value)

    sp = sub.add_parser("optimize", help="search for the best (randomized) strategy")
    sp.add_argument("--market", required=True)
    sp.add_argument("--pref", default=None)
    sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    sp.add_argument("--x0", type=_finite_float, default=0.0)
    sp.add_argument("--benchmark", type=_finite_float, default=0.0)
    sp.add_argument("--seed", type=_int_at_least(0), default=0)
    sp.add_argument("--box", type=_finite_float, default=None)
    sp.add_argument("--multistart", type=int, default=4)
    sp.add_argument("--atoms", type=_int_at_least(1), default=1)
    _add_common(sp)
    sp.set_defaults(func=_cmd_optimize)

    sp = sub.add_parser("probe", help="best values found under growing search boxes")
    sp.add_argument("--market", required=True)
    sp.add_argument("--pref", default=None)
    sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    sp.add_argument("--x0", type=_finite_float, default=0.0)
    sp.add_argument("--benchmark", type=_finite_float, default=0.0)
    sp.add_argument("--radii", default="1,2,4,8,16,32,64", help="increasing box radii")
    sp.add_argument("--seed", type=_int_at_least(0), default=0)
    sp.add_argument("--multistart", type=_int_at_least(1), default=4)
    _add_common(sp)
    sp.set_defaults(func=_cmd_probe)

    sp = sub.add_parser("randomization-ladder", help="coin-model values over external coins")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=_int_at_least(0), default=0, help="ignored: the ladder is exact")
    sp.add_argument("--multistart", type=int, default=4, help="ignored: the ladder is exact")
    sp.add_argument("--box", type=_finite_float, default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_ladder)

    sp = sub.add_parser("illposed-demo", help="closed-form two-step divergence demo")
    sp.add_argument("--alpha-plus", type=_finite_float, required=True)
    sp.add_argument("--gamma-plus", type=_finite_float, required=True)
    sp.add_argument("--alpha-minus", type=_finite_float, required=True)
    sp.add_argument("--gamma-minus", type=_finite_float, required=True)
    sp.add_argument("--k-minus", type=_finite_float, default=1.0)
    sp.add_argument("--ell", type=_finite_float, required=True)
    sp.add_argument("--scan", default="10,1000,1000000")
    _add_common(sp)
    sp.set_defaults(func=_cmd_illposed)

    sp = sub.add_parser("check-wellposed", help="parameter gates and lambda interval")
    sp.add_argument("--pref", required=True)
    sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    _add_common(sp)
    sp.set_defaults(func=_cmd_check_wellposed)

    sp = sub.add_parser("marche-check", help="quantitative no-arbitrage certificate")
    sp.add_argument("--market", required=True)
    sp.add_argument("--pi", default="0.25")
    sp.add_argument("--direction-samples", type=_int_at_least(2), default=128)
    sp.add_argument("--validate-kappa", default=None)
    sp.add_argument("--validate-pi", default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_marche)

    sp = sub.add_parser("toolkit", help="probability toolkit utilities")
    sp.add_argument("action", choices=["self-test"])
    # None stands for the toolkit's own seed, which ``main`` reads only when
    # the toolkit runs
    sp.add_argument("--seed", type=_int_at_least(0), default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_toolkit)

    return parser


# argparse dests that are not recorded in the manifest's parameters
_NOT_PARAMETERS = {"command", "func", "out", "format", "action"}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv if argv is not None else sys.argv[1:])
    if args.command == "toolkit" and args.seed is None:
        args.seed = _lib("SELF_TEST_SEED")
    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
    subcommand = f"{args.command} {args.action}" if args.command == "toolkit" else args.command
    run = _Run(subcommand, args.out, params, args.format)
    try:
        code = args.func(run, args)
        run.finish()
        return code
    except (ValidationError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """The process entry, for ``python -m cpttree.cli`` and the ``cpttree``
    script: ``main``, then exit with its code.

    At exit the interpreter's last collections traverse every object the
    collector tracks, about 2 * 10**4 once numpy is imported: a CLI call took
    22-27 ms from the end of ``main`` to its exit, and 5-7 ms after
    ``gc.freeze`` (2-core x86-64, CPython 3.11, numpy 2.4). The freeze moves
    them out of the collector's reach; shutdown still flushes the streams,
    runs the atexit handlers and tears down the modules. ``main`` never
    freezes: a caller in the same process keeps running, and would keep its
    garbage for good.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
