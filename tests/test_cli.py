import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cpttree
from cpttree import build_iid_market, emit_market
from cpttree import cli
from cpttree.cli import _dumps, main
from cpttree.optimize import LadderResult
from cpttree.randtools import SELF_TEST_SEED

TK_PREF = (
    "alpha_plus=0.88\nalpha_minus=0.88\nk_minus=2.25\n"
    "family_wplus=tk\ngamma_plus=0.61\nfamily_wminus=tk\ngamma_minus=0.69\n"
)

COIN_PREF = (
    "alpha_plus=0.25\nalpha_minus=1.0\n"
    "family_wplus=power\ngamma_plus=0.5\nfamily_wminus=identity\n"
)


@pytest.fixture
def coin_market_file(tmp_path):
    path = tmp_path / "coin.mkt"
    path.write_text(emit_market(build_iid_market([(0.5, 1.0), (0.5, -1.0)], 1)))
    return path


def read_json(path):
    return json.loads(path.read_text())


class TestValue:
    def test_coin_quarter(self, tmp_path, coin_market_file):
        out = tmp_path / "out"
        code = main(
            ["value", "--market", str(coin_market_file), "--theta", "0.25", "--out", str(out)]
        )
        assert code == 0
        payload = read_json(out / "value.json")
        assert payload["v"] == pytest.approx(0.375, abs=1e-12)
        assert payload["admissible"] is True
        assert payload["v_plus_infinite"] is False

    def test_strategy_file(self, tmp_path, coin_market_file):
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps({"allocations": {"0": [0.25]}}))
        out = tmp_path / "out"
        code = main(
            ["value", "--market", str(coin_market_file), "--strategy", str(strat), "--out", str(out)]
        )
        assert code == 0
        assert read_json(out / "value.json")["v"] == pytest.approx(0.375, abs=1e-12)

    def test_theta_and_strategy_conflict_is_validation_error(self, tmp_path, coin_market_file, capsys):
        code = main(["value", "--market", str(coin_market_file), "--out", str(tmp_path)])
        assert code == 2
        assert "exactly one" in capsys.readouterr().err

    def test_missing_market_file_exit_2(self, tmp_path):
        code = main(["value", "--market", str(tmp_path / "nope.mkt"), "--theta", "0.1"])
        assert code == 2


class TestBoundary:
    """Exit 2 for every malformed input, and no non-finite float in an artifact."""

    @pytest.mark.parametrize("flag,text", [("--theta", "nan"), ("--x0", "inf"), ("--benchmark", "-inf")])
    def test_non_finite_float_option_exits_2(self, tmp_path, coin_market_file, flag, text):
        args = ["value", "--market", str(coin_market_file), "--out", str(tmp_path / "o")]
        if flag != "--theta":
            args += ["--theta", "0.25"]
        with pytest.raises(SystemExit) as exc:
            main(args + [f"{flag}={text}"])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("argv", [["value", "--theta", "0.3"], ["optimize"], ["check-wellposed"]])
    def test_non_finite_envelope_constant_exits_2(
        self, tmp_path, coin_market_file, capsys, value, argv
    ):
        pref = tmp_path / "p.cfg"
        pref.write_text("alpha_plus=0.5\nalpha_minus=0.9\nk_minus=2.0\n")
        args = argv + ["--pref", str(pref), "--set", f"k_minus={value}", "--out", str(tmp_path / "o")]
        if argv[0] != "check-wellposed":
            args += ["--market", str(coin_market_file)]
        assert main(args) == 2
        assert "positive" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_dumps_refuses_non_finite(self):
        for x in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="non-finite"):
                _dumps({"v": [1.0, x]})

    @pytest.mark.parametrize("extra", [["--pi", "abc"], ["--validate-kappa", "abc", "--validate-pi", "0.5"]])
    def test_marche_bad_levels_exit_2(self, tmp_path, coin_market_file, capsys, extra):
        code = main(["marche-check", "--market", str(coin_market_file), "--out", str(tmp_path)] + extra)
        assert code == 2
        assert "internal error" not in capsys.readouterr().err

    @pytest.mark.parametrize("lone", [["--validate-kappa", "0.5"], ["--validate-pi", "0.25"]])
    def test_marche_lone_validation_flag_exits_2_before_the_certificate(
        self, tmp_path, coin_market_file, capsys, monkeypatch, lone
    ):
        def no_certificate(*args):
            raise AssertionError("certificate computed for a refused call")

        monkeypatch.setattr(cli, "marche_certificate", no_certificate)
        code = main(["marche-check", "--market", str(coin_market_file), "--out", str(tmp_path / "o")] + lone)
        assert code == 2
        assert "--validate-kappa and --validate-pi go together" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_illposed_bad_scan_exits_2(self, tmp_path, capsys):
        code = main(TestIllposedDemo.ARGS + ["--scan", "10,abc", "--out", str(tmp_path)])
        assert code == 2
        assert "--scan" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        ['{"alloc": {"0": [0.25]}}', "[0.25]", '{"allocations": {"0": ["abc"]}}',
         '{"allocations": {"0": [NaN]}}', '{"constant": Infinity}'],
    )
    def test_malformed_strategy_json_exits_2(self, tmp_path, coin_market_file, payload):
        strat = tmp_path / "s.json"
        strat.write_text(payload)
        code = main(
            ["value", "--market", str(coin_market_file), "--strategy", str(strat), "--out", str(tmp_path)]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "text, extra, key",
        [
            (COIN_PREF + "lamda=1.6\n", [], "lamda"),
            (COIN_PREF, ["--set", "gamma_pluss=0.9"], "gamma_pluss"),
        ],
        ids=["file", "set"],
    )
    def test_unknown_preference_key_exits_2(self, tmp_path, capsys, text, extra, key):
        pref = tmp_path / "p.cfg"
        pref.write_text(text)
        out = tmp_path / "o"
        assert main(["check-wellposed", "--pref", str(pref), "--out", str(out)] + extra) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [["--x0", "1e308"], ["--box", "1e308"]])
    def test_overflowing_search_box_exits_2(self, tmp_path, coin_market_file, capsys, extra):
        # the box width 2r overflowed inside numpy's uniform: exit 1
        out = tmp_path / "o"
        assert main(["optimize", "--market", str(coin_market_file), "--out", str(out)] + extra) == 2
        assert "box" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_value_exits_2(self, tmp_path, coin_market_file, capsys):
        # the inf gain side used to reach the JSON writer: exit 1
        out = tmp_path / "o"
        argv = ["value", "--market", str(coin_market_file), "--x0", "1e308", "--theta", "1e308"]
        assert main(argv + ["--out", str(out)]) == 2
        assert "overflow" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_wealth_is_named_without_a_warning(self, tmp_path, coin_market_file):
        # numpy's overflow warning reached stderr before the refusal, which
        # named the CPT value instead of the wealth
        out = tmp_path / "o"
        argv = ["value", "--market", str(coin_market_file), "--x0", "1e308", "--theta", "1e308"]
        src = os.path.dirname(os.path.dirname(cpttree.__file__))
        run = subprocess.run(
            [sys.executable, "-m", "cpttree.cli", *argv, "--out", str(out)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == 2
        assert "terminal wealth overflows" in run.stderr
        assert "RuntimeWarning" not in run.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            # numpy warned from the outcome subtraction, then the refusal named
            # v_plus (value) or the search called it an internal error (exit 1)
            (["value", "--x0", "1e308", "--theta", "0", "--benchmark=-1e308"], "leaf outcome"),
            (["optimize", "--x0", "1e308", "--benchmark=-1e308", "--box", "1"], "leaf outcome"),
            # 2r is finite, but the shifted outcomes overflowed inside the poll: exit 1
            (["optimize", "--x0", "1.7e308", "--box", "1e307"], "box"),
            (["optimize", "--x0", "1.7e308", "--box", "1e307", "--atoms", "2"], "box"),
        ],
        ids=["value", "optimize", "box", "box-atoms-2"],
    )
    @pytest.mark.filterwarnings("error")  # a warning would end the run as exit 1
    def test_overflowing_outcomes_exit_2_without_a_warning(
        self, tmp_path, coin_market_file, capsys, extra, message
    ):
        out = tmp_path / "o"
        argv = [extra[0], "--market", str(coin_market_file), *extra[1:], "--out", str(out)]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_indented_comment_market_values(self, tmp_path, coin_market_file):
        header, body = coin_market_file.read_text().split("\n", 1)
        indented = tmp_path / "indented.mkt"
        indented.write_text(f"{header}\n  # one-step fair coin\n{body}")
        out = tmp_path / "out"
        assert main(["value", "--market", str(indented), "--theta", "0.25", "--out", str(out)]) == 0
        assert read_json(out / "value.json")["v"] == pytest.approx(0.375, abs=1e-12)


class TestIntegerOptions:
    """Integer options out of range are refused by the parser: exit 2, nothing written."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--market", "MKT", "--seed", "-1"],
            ["optimize", "--market", "MKT", "--atoms", "0"],
            ["randomization-ladder", "--n", "0", "--seed", "-1"],
            ["toolkit", "self-test", "--seed", "-2"],
            ["marche-check", "--market", "MKT", "--direction-samples", "0"],
            ["marche-check", "--market", "MKT", "--direction-samples", "1"],
            ["optimize", "--market", "MKT", "--seed", "1.5"],
        ],
    )
    def test_out_of_range_exits_2(self, tmp_path, coin_market_file, argv):
        out = tmp_path / "out"
        argv = [str(coin_market_file) if a == "MKT" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()


class TestLazyImports:
    def test_package_exports_every_name(self):
        assert set(cpttree.__all__) <= set(dir(cpttree))
        with pytest.raises(AttributeError, match="no_such_name"):
            cpttree.no_such_name
        namespace: dict = {}
        exec("from cpttree import *", namespace)
        for name in cpttree.__all__:
            assert namespace[name] is getattr(cpttree, name)

    def test_traced_cli_names_resolve(self):
        # the benchmark's tracer wraps these names on the cli module
        tracing = Path(__file__).resolve().parents[1] / "cptbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("cptbench_tracing", tracing)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        names = [attr for mod, attr, _, _ in module.PATCHES if mod == "cli"]
        assert "parse_market" in names and "main" in names
        for name in names:
            # bound as an eager import binds it: the object its module binds
            expected = cli.main if name == "main" else cpttree._from_module(name)
            assert getattr(cli, name) is expected


class TestArtifactWrites:
    def test_failed_run_writes_nothing(self, tmp_path, monkeypatch):
        # a name patched on the cli module is the one its subcommand calls
        for name, fake, argv in [
            # the CSV is formatted before the JSON refuses the NaN argmax
            ("ladder", lambda n, cfg: LadderResult(values=(0.5,), argmax=((float("nan"),),)),
             ["randomization-ladder", "--n", "0"]),
            ("toolkit_self_test", lambda seed: {"all_passed": True, "ks": float("nan")},
             ["toolkit", "self-test"]),
        ]:
            monkeypatch.setattr(cli, name, fake)
            out = tmp_path / name
            out.mkdir()
            assert main(argv + ["--out", str(out)]) == 1
            assert list(out.iterdir()) == []

    def test_finished_run_leaves_no_temporary_file(self, tmp_path):
        out = tmp_path / "out"
        assert main(["randomization-ladder", "--n", "0", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["ladder.csv", "ladder.json", "manifest.json"]


class TestCheckWellposed:
    def test_tk_parameters_fail_the_gate(self, tmp_path):
        pref = tmp_path / "tk.cfg"
        pref.write_text(TK_PREF)
        out = tmp_path / "out"
        assert main(["check-wellposed", "--pref", str(pref), "--out", str(out)]) == 0
        payload = read_json(out / "report.json")
        assert payload["condition_a"] is False
        assert payload["feasible_lambda_interval"] is None
        assert 0.783 <= payload["tk_pathology_p"] <= 0.793

    def test_override_flips_the_gate(self, tmp_path):
        pref = tmp_path / "p.cfg"
        pref.write_text(COIN_PREF)
        out = tmp_path / "out"
        assert main(
            ["check-wellposed", "--pref", str(pref), "--set", "gamma_plus=1.0", "--out", str(out)]
        ) == 0
        payload = read_json(out / "report.json")
        assert payload["condition_a"] is True
        assert payload["feasible_lambda_interval"] == [1.0, 4.0]


class TestLadderCommand:
    def test_three_levels(self, tmp_path):
        out = tmp_path / "out"
        assert main(["randomization-ladder", "--n", "2", "--seed", "7", "--out", str(out)]) == 0
        lines = (out / "ladder.csv").read_text().strip().splitlines()
        assert lines[0] == "n,M_n"
        m0, m1, m2 = (float(ln.split(",")[1]) for ln in lines[1:])
        assert m0 == pytest.approx(0.375, abs=1e-6)
        assert m0 < m1 < m2
        payload = read_json(out / "ladder.json")
        assert len(payload["argmax"][1]) == 2 and len(payload["argmax"][2]) == 4

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["randomization-ladder", "--n", "1", "--seed", "7", "--out", str(out)]) == 0
        for name in ("ladder.csv", "ladder.json", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestProbeCommand:
    ARGS = ["probe", "--radii", "0.5,1,2,4", "--seed", "1", "--multistart", "2", "--x0", "0.3",
            "--benchmark", "0.1"]

    @pytest.fixture
    def trinomial_market_file(self, tmp_path):
        path = tmp_path / "tri.mkt"
        path.write_text(emit_market(build_iid_market([(0.3, 1.2), (0.45, -0.8), (0.25, 0.3)], 1)))
        return path

    def test_byte_identical_reruns(self, tmp_path, trinomial_market_file):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            argv = self.ARGS + ["--market", str(trinomial_market_file), "--out", str(out)]
            assert main(argv) == 0
        assert sorted(p.name for p in outs[0].iterdir()) == ["manifest.json", "probe.json"]
        for name in ("probe.json", "manifest.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        tree = build_iid_market([(0.3, 1.2), (0.45, -0.8), (0.25, 0.3)], 1)
        expected = cpttree.boundedness_probe(
            tree, cpttree.coin_model_preferences(), 0.3, cpttree.ReferenceSpec.constant(tree, 0.1),
            [0.5, 1.0, 2.0, 4.0], cpttree.SearchConfig(seed=1, multistart=2),
        )
        assert read_json(outs[0] / "probe.json") == json.loads(_dumps(expected.to_json_dict()))
        manifest = read_json(outs[0] / "manifest.json")
        assert manifest["subcommand"] == "probe" and manifest["seed"] == 1
        assert manifest["parameters"] == {
            "market": str(trinomial_market_file), "pref": None, "set": [], "x0": 0.3,
            "benchmark": 0.1, "radii": "0.5,1,2,4", "seed": 1, "multistart": 2,
        }

    def test_failed_gate_exits_2_and_writes_nothing(self, tmp_path, trinomial_market_file, capsys):
        pref = tmp_path / "ill.cfg"
        pref.write_text("alpha_plus=0.9\nalpha_minus=1.0\nfamily_wplus=power\ngamma_plus=0.5\n")
        out = tmp_path / "out"
        argv = ["probe", "--market", str(trinomial_market_file), "--pref", str(pref)]
        assert main(argv + ["--out", str(out)]) == 2
        assert "gate" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("radii", ["2,1", "1,1", "-1,1", "a,b", "1,nan", "", ","])
    def test_bad_radius_list_exits_2_and_writes_nothing(
        self, tmp_path, trinomial_market_file, capsys, radii
    ):
        out = tmp_path / "out"
        argv = ["probe", "--market", str(trinomial_market_file), f"--radii={radii}"]
        assert main(argv + ["--out", str(out)]) == 2
        assert "radii" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [["--multistart", "0"], ["--seed", "-1"], ["--x0", "inf"]])
    def test_out_of_range_options_exit_2(self, tmp_path, trinomial_market_file, extra):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["probe", "--market", str(trinomial_market_file), *extra, "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()


class TestIllposedDemo:
    ARGS = [
        "illposed-demo", "--alpha-plus", "0.9", "--gamma-plus", "0.5",
        "--alpha-minus", "1.0", "--gamma-minus", "1.0", "--ell", "1.5",
    ]

    def test_report_and_scan(self, tmp_path):
        out = tmp_path / "out"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        payload = read_json(out / "report.json")
        assert payload["verdict"] == "ill-posed"
        assert payload["v_plus"] == "inf"
        assert payload["v_minus"] == pytest.approx(1.0, abs=1e-12)
        rows = (out / "scan.csv").read_text().strip().splitlines()
        assert rows[0] == "n,v_plus,v_minus,v"
        vals = [float(r.split(",")[3]) for r in rows[1:]]
        assert vals == sorted(vals) and len(vals) == 3

    def test_csv_only_format(self, tmp_path):
        out = tmp_path / "out"
        assert main(self.ARGS + ["--out", str(out), "--format", "csv"]) == 0
        assert (out / "scan.csv").exists()
        assert not (out / "report.json").exists()
        assert (out / "manifest.json").exists()


class TestOptimize:
    def test_mixture_after_box_doublings(self, tmp_path, coin_market_file):
        out = tmp_path / "out"
        args = ["optimize", "--market", str(coin_market_file), "--atoms", "2", "--box", "0.1"]
        assert main(args + ["--out", str(out)]) == 0
        payload = read_json(out / "optimize.json")
        assert payload["n_atoms"] == 2
        assert payload["value"]["v"] == pytest.approx(0.38953872227748554, abs=1e-6)


class TestMarcheCheck:
    def test_certificate_and_validation(self, tmp_path, coin_market_file):
        out = tmp_path / "out"
        code = main(
            [
                "marche-check", "--market", str(coin_market_file), "--pi", "0.5",
                "--validate-kappa", "1.0", "--validate-pi", "0.5", "--out", str(out),
            ]
        )
        assert code == 0
        payload = read_json(out / "certificate.json")
        assert payload["entries"] == [{"node": 0, "kappa": 1.0, "pi": 0.5}]
        assert payload["validation"]["valid"] is True

    def test_arbitrage_market_fails_validation_exit(self, tmp_path):
        bad = tmp_path / "bad.mkt"
        bad.write_text(emit_market(build_iid_market([(0.5, 1.0), (0.5, 2.0)], 1)))
        assert main(["marche-check", "--market", str(bad), "--out", str(tmp_path / "o")]) == 2


class TestToolkit:
    def test_self_test_passes(self, tmp_path):
        out = tmp_path / "out"
        assert main(["toolkit", "self-test", "--out", str(out)]) == 0
        payload = read_json(out / "selftest.json")
        assert payload["all_passed"] is True


class TestProcessEntry:
    @pytest.mark.parametrize("code", [0, 2])
    def test_run_freezes_once_after_main_and_exits_with_its_code(
        self, tmp_path, coin_market_file, monkeypatch, code
    ):
        out = tmp_path / "out"
        market = coin_market_file if code == 0 else tmp_path / "missing.mkt"
        argv = ["value", "--market", str(market), "--theta", "0.25", "--out", str(out)]
        events = []

        def main_then_record():
            events.append(("main", main(argv)))
            return events[-1][1]

        monkeypatch.setattr(cli, "main", main_then_record)
        # the fake never freezes this process
        monkeypatch.setattr(cli.gc, "freeze", lambda: events.append(("freeze", out.exists())))
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == code
        # with the manifest written for a finished run, and nothing for a refused one
        assert events == [("main", code), ("freeze", code == 0)]
        assert (out / "manifest.json").exists() == (code == 0)

    def test_main_never_freezes(self, tmp_path, coin_market_file, monkeypatch):
        calls = []
        monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append(1))
        assert main(["value", "--market", str(coin_market_file), "--theta", "0.25",
                     "--out", str(tmp_path / "out")]) == 0
        assert main(["toolkit", "self-test", "--out", str(tmp_path / "toolkit")]) == 0
        assert calls == []

    def test_module_entry_writes_what_main_writes(self, tmp_path):
        src = os.path.dirname(os.path.dirname(cpttree.__file__))
        fresh = subprocess.run(
            [sys.executable, "-m", "cpttree.cli", "toolkit", "self-test",
             "--out", str(tmp_path / "fresh")],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        )
        assert fresh.returncode == 0, fresh.stderr
        assert main(["toolkit", "self-test", "--out", str(tmp_path / "main")]) == 0
        names = sorted(p.name for p in (tmp_path / "main").iterdir())
        assert names == ["manifest.json", "selftest.json"]
        assert sorted(p.name for p in (tmp_path / "fresh").iterdir()) == names
        for name in names:
            assert (tmp_path / "fresh" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()


class TestManifest:
    def test_manifest_names_inputs_and_outputs(self, tmp_path, coin_market_file):
        out = tmp_path / "out"
        main(["value", "--market", str(coin_market_file), "--theta", "0.25", "--out", str(out)])
        manifest = read_json(out / "manifest.json")
        assert manifest["subcommand"] == "value"
        assert str(coin_market_file) in manifest["inputs"]
        assert "value.json" in manifest["outputs"]
        assert len(manifest["outputs"]["value.json"]) == 64
        assert manifest["parameters"]["theta"] == 0.25

    @pytest.mark.parametrize(
        "argv,subcommand,parameters",
        [
            (["value", "--market", "MKT", "--theta", "0.25", "--set", "k_minus=2"], "value",
             {"market": "MKT", "pref": "PREF", "set": ["k_minus=2"], "theta": 0.25,
              "strategy": None, "x0": 0.0, "benchmark": 0.0}),
            (["optimize", "--market", "MKT", "--multistart", "1", "--box", "1", "--seed", "3"],
             "optimize",
             {"market": "MKT", "pref": "PREF", "set": [], "x0": 0.0, "benchmark": 0.0,
              "seed": 3, "box": 1.0, "multistart": 1, "atoms": 1}),
            (["randomization-ladder", "--n", "0", "--multistart", "1"], "randomization-ladder",
             {"n": 0, "seed": 0, "multistart": 1, "box": None}),
            (TestIllposedDemo.ARGS, "illposed-demo",
             {"alpha_plus": 0.9, "gamma_plus": 0.5, "alpha_minus": 1.0, "gamma_minus": 1.0,
              "k_minus": 1.0, "ell": 1.5, "scan": "10,1000,1000000"}),
            (["check-wellposed"], "check-wellposed", {"pref": "PREF", "set": []}),
            (["marche-check", "--market", "MKT", "--validate-kappa", "1", "--validate-pi", "0.5"],
             "marche-check",
             {"market": "MKT", "pi": "0.25", "direction_samples": 128,
              "validate_kappa": "1", "validate_pi": "0.5"}),
            (["toolkit", "self-test"], "toolkit self-test", {"seed": SELF_TEST_SEED}),
        ],
    )
    def test_subcommand_and_parameters_frozen(
        self, tmp_path, coin_market_file, argv, subcommand, parameters
    ):
        pref = tmp_path / "coin.cfg"
        pref.write_text(COIN_PREF)
        paths = {"MKT": str(coin_market_file), "PREF": str(pref)}
        argv = [paths.get(a, a) for a in argv]
        if subcommand in ("value", "optimize", "check-wellposed"):
            argv += ["--pref", str(pref)]
        out = tmp_path / "out"
        main(argv + ["--out", str(out)])
        manifest = read_json(out / "manifest.json")
        assert manifest["subcommand"] == subcommand
        assert manifest["parameters"] == {
            k: paths.get(v, v) if isinstance(v, str) else v for k, v in parameters.items()
        }
        assert manifest["seed"] == parameters.get("seed")

    def test_unknown_flag_exits_2(self, coin_market_file):
        with pytest.raises(SystemExit) as exc:
            main(["value", "--market", str(coin_market_file), "--bogus"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
