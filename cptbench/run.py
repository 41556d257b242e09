"""cpttree benchmark: four seeded single-process workloads, end to end and per layer.

Run from the root of a checkout:

    python3 cptbench/run.py --workload search --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics (wall_s, setup_s, peak_rss_mb);
``--trace 1`` makes a separate traced run and reports the per-layer metrics
and the tracing overhead. Either way every output is checked against the
benchmark's own computations (checks.py), and the last line of standard
output is one JSON object: correct, attempted, failed, metrics.

The same file is started again as a child process: ``--role probe`` times
one set-up in a fresh interpreter, ``--role worker`` runs the timed rounds.
See README.md for the workloads, the metrics and the reference figures.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

# one BLAS thread: on two cores a second thread competes with the process itself
# for the dense engine products, and its start-up and spinning make timings drift
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORKLOADS = ("search", "mixture", "deep", "cli")
SETUP_SAMPLES = 3  # fresh-interpreter set-ups per run; setup_s is their median
IMPORT_SAMPLES = 3  # fresh-interpreter `import cpttree.cli` per traced run
MIN_ROUNDS = {"search": 3, "mixture": 3, "deep": 3, "cli": 2}
CHILD_TIMEOUT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "tree.build_s": "s", "tree.parse_s": "s", "tree.emit_s": "s", "tree.nodes": "count",
    "tree.terminal_wealth_s": "s", "builders.build_s": "s",
    "choquet.evals": "count", "choquet.eval_us": "us", "choquet.eval_s": "s",
    "choquet.atoms_per_eval": "count", "choquet.cpt_value_s": "s",
    "choquet.engine_build_s": "s", "choquet.engine_mb": "MB-computed",
    "optimize.search_s": "s", "optimize.self_s": "s", "optimize.evals_per_s": "1/s",
    "wellposed.probe_s": "s", "wellposed.probe_points": "count",
    "arbitrage.certificate_s": "s", "arbitrage.validate_s": "s",
    "arbitrage.node_directions": "count", "randtools.selftest_s": "s",
    "cli.import_s": "s", "cli.main_s": "s", "cli.artifact_bytes": "count", "cli.calls": "count",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}


def child_env() -> dict[str, str]:
    # a fixed hash seed gives every child the same dict and set layouts
    env = dict(os.environ, **BLAS_ENV, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv, cwd: Path, stderr=subprocess.DEVNULL, ready_line=False):
    """Run a child to its end; returns (exit code, seconds, peak RSS in KiB,
    seconds until its first line of output if ``ready_line``).

    ``os.wait4`` reaps the child and reports its own peak resident set.
    """
    stdout = subprocess.PIPE if ready_line else subprocess.DEVNULL
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=stdout, stderr=stderr)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        line_at = None
        if ready_line:
            proc.stdout.readline()
            line_at = time.perf_counter() - t0
            proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
    finally:
        timer.cancel()
        if proc.stdout is not None:
            proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss, line_at


def round_time(op_scaled: dict[str, list[float]], rounds) -> float:
    """One round's time at the reference core speed: the sum over the
    operations of each one's median scaled repetition among the given rounds."""
    rounds = list(rounds)
    return sum(statistics.median(times[k] for k in rounds) for times in op_scaled.values())


def pin_to_one_core() -> None:
    """Run this process and every child on one core, so that the gauge and
    the operations it rescales share a core and its speed state."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def self_argv(*args: str) -> list[str]:
    return [sys.executable, str(BENCH / "run.py"), *args]


def start_gauge() -> float:
    """Seconds the start-up gauge (speed.START_ARGV) takes now."""
    import speed

    code, seconds, _, _ = spawn([sys.executable, *speed.START_ARGV], ROOT)
    if code != 0:
        raise RuntimeError(f"start-up gauge exited with {code}")
    return seconds


# --- child roles ---------------------------------------------------------------


def role_probe(args) -> int:
    """One set-up: interpreter start, `import cpttree`, inputs built or written."""
    import workloads as wl

    if args.workload == "cli":
        wl.write_cli_inputs(args.seed, Path(args.dir))
    else:
        wl.prepare(args.workload, args.seed)
    print("ready", flush=True)
    return 0


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def role_worker(args) -> int:
    """Set up once, then run whole rounds until --seconds have passed.

    With --trace 1, round 0 is a warm-up (first calls pay one-off costs) and
    the later rounds alternate traced and untraced; the traced ones record
    spans, the untraced ones give the overhead baseline.
    """
    import speed
    import workloads as wl

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        setup_root = tracer.open_span("bench.setup")
    run_dir = Path(args.dir)
    if args.workload == "cli":
        wl.write_cli_inputs(args.seed, run_dir / "inputs")
        ops, finish = cli_ops(args.seed, run_dir), dict
    else:
        ops, finish = wl.prepare(args.workload, args.seed)
    if tracer is not None:
        tracer.close_span(setup_root)
        tracer.remove()
    print("ready", flush=True)

    rounds, traced_flags, digests, roots, errors = [], [], [], [], []
    op_times = {op.name: [] for op in ops}
    op_scaled = {op.name: [] for op in ops}
    outputs = None
    attempted = failed = 0
    gauge = speed.Gauge()
    before = gauge.sample()
    started = time.perf_counter()
    while True:
        k = len(rounds)
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install()
            root = tracer.open_span("bench.round")
        plain = {}
        for op in ops:
            attempted += 1
            gauge.arm()
            t0 = time.perf_counter()
            try:
                if traced:
                    with tracer.span(f"bench.op.{op.name}"):
                        result = op.call()
                else:
                    result = op.call()
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
                result, error = None, exc
            else:
                error = None
            t1 = time.perf_counter()
            inside = gauge.disarm(t1)
            seconds = t1 - t0 - sum(inside)
            after = gauge.sample()
            op_times[op.name].append(seconds)
            op_scaled[op.name].append(speed.scaled(seconds, [before, *inside, after], speed.REF_S))
            before = after
            if error is not None:
                failed += 1
                errors.append(f"round {k} {op.name}: {error!r}")
                continue
            plain[op.name] = op.plain(result)
            if args.workload == "cli" and result[0] != 0:
                failed += 1
        busy = sum(t[-1] for t in op_times.values())
        if traced:
            tracer.close_span(root)
            tracer.remove()
            roots.append((root, busy, k))
        rounds.append(busy)
        traced_flags.append(traced)
        digests.append(_digest(plain))
        if outputs is None:
            outputs = plain
        done = time.perf_counter() - started >= args.seconds
        if done and k + 1 >= MIN_ROUNDS[args.workload] and (tracer is None or k >= 2):
            break

    result = {
        "rounds": rounds, "op_times": op_times, "op_scaled": op_scaled,
        "traced": traced_flags, "digests": digests,
        "attempted": attempted, "failed": failed, "errors": errors[:20],
        "outputs": outputs, "extra": finish(),
    }
    if tracer is not None:
        result["layers"] = traced_metrics(tracer, setup_root, roots, result, run_dir)
        tracer.write(run_dir / "trace.jsonl")
    Path(args.result).write_text(json.dumps(result))
    return 0


def traced_metrics(tracer, setup_root: int, roots: list, res: dict, run_dir: Path) -> dict:
    """Per-layer figures of one set-up plus the median traced round."""
    import tracing

    best, best_k = tracing.median_round(roots)
    layers = tracer.layer_metrics([setup_root, best])
    calls = [i for i in tracer.subtree(best) if tracer.name[i] == "cli.main"]
    layers["cli.calls"] = len(calls)
    layers["cli.main_s"] = (statistics.fmean(tracer.end[i] - tracer.start[i] for i in calls)
                            if calls else 0.0)
    layers["wellposed.probe_points"] = sum(
        len(v["points"]) for v in res["outputs"].values() if "points" in v
    )
    artifacts = run_dir / f"r{best_k}"
    layers["cli.artifact_bytes"] = sum(
        p.stat().st_size for p in artifacts.rglob("*") if p.is_file()
    ) if artifacts.is_dir() else 0
    traced = [k for k, t in enumerate(res["traced"]) if t]
    untraced = [k for k, t in enumerate(res["traced"]) if k > 0 and not t]
    layers["trace.wall_s"] = round_time(res["op_scaled"], traced)
    layers["trace.overhead_s"] = layers["trace.wall_s"] - round_time(res["op_scaled"], untraced)
    return layers


class CliOp:
    """One in-process `cpttree.cli.main` call, writing to r<round>/<name>;
    the result is (exit code, stderr)."""

    def __init__(self, name, argv, run_dir: Path):
        self.name = name
        self.argv = argv
        self.run_dir = run_dir
        self.rounds = 0

    def call(self):
        from cpttree import cli

        out = self.run_dir / f"r{self.rounds}" / self.name
        self.rounds += 1
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = cli.main(self.argv + ["--out", str(out)])
        return code, err.getvalue()

    @staticmethod
    def plain(result):
        return {"code": result[0], "stderr": result[1][-300:]}


def cli_ops(seed: int, run_dir: Path) -> list:
    import workloads as wl

    os.chdir(run_dir / "inputs")
    argv = wl.cli_argv(wl.cli_inputs(seed))
    return [CliOp(name, argv[name], run_dir) for name in wl.CLI_CALLS]


# --- the parent: measure, check, report ------------------------------------------


def setup_samples(workload: str, seed: int, run_dir: Path) -> tuple[list[float], Path]:
    """Set-up times at the reference speed, one per fresh-interpreter probe."""
    import speed

    before = start_gauge()
    samples = []
    probe_dir = run_dir
    for i in range(SETUP_SAMPLES):
        probe_dir = run_dir / f"setup{i}"
        code, _, _, ready = spawn(
            self_argv("--role", "probe", "--workload", workload, "--seed", str(seed),
                      "--dir", str(probe_dir)),
            ROOT, ready_line=True,
        )
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        after = start_gauge()
        samples.append(speed.scaled(ready, [before, after], speed.REF_START_S))
        before = after
    return samples, probe_dir


def cli_rounds(seed: int, seconds: int, run_dir: Path, inputs: Path) -> dict:
    """The untraced cli workload: every call in a fresh interpreter."""
    import speed
    import workloads as wl

    argv = wl.cli_argv(wl.cli_inputs(seed))
    rounds, outputs, peak = [], {}, 0
    op_times = {name: [] for name in wl.CLI_CALLS}
    op_scaled = {name: [] for name in wl.CLI_CALLS}
    attempted = failed = 0
    before = start_gauge()
    started = time.perf_counter()
    while True:
        k = len(rounds)
        busy = 0.0
        for name in wl.CLI_CALLS:
            out = run_dir / f"r{k}" / name
            out.parent.mkdir(parents=True, exist_ok=True)
            err_path = run_dir / f"r{k}" / f"{name}.stderr"
            with err_path.open("wb") as err:
                code, secs, rss, _ = spawn(
                    [sys.executable, "-m", "cpttree.cli", *argv[name], "--out", str(out)],
                    inputs, stderr=err,
                )
            after = start_gauge()
            attempted += 1
            busy += secs
            op_times[name].append(secs)
            op_scaled[name].append(speed.scaled(secs, [before, after], speed.REF_START_S))
            before = after
            peak = max(peak, rss)
            failed += code != 0
            if k == 0:
                outputs[name] = {"code": code, "stderr": err_path.read_text()[-300:]}
        rounds.append(busy)
        if time.perf_counter() - started >= seconds and k + 1 >= MIN_ROUNDS["cli"]:
            break
    return {"rounds": rounds, "op_times": op_times, "op_scaled": op_scaled,
            "attempted": attempted, "failed": failed,
            "outputs": outputs, "peak_kib": peak, "errors": []}


def check_cli(rep, seed: int, run_dir: Path, inputs: Path, n_rounds: int, outputs: dict) -> None:
    import checks
    import workloads as wl

    argv = wl.cli_argv(wl.cli_inputs(seed))
    for name in wl.CLI_CALLS:
        out = outputs[name]
        if out["code"] != 0:
            if name == wl.EXPECTED_FAILURE:
                rep.expect("bad market line" in out["stderr"],
                           f"{name}: failed for another reason: {out['stderr']!r}")
            continue
        first = run_dir / "r0" / name
        checks.check_cli_call(rep, seed, name, first)
        for k in range(n_rounds):
            again = run_dir / f"r{k}" / name
            checks.check_manifest(rep, f"{name} round {k}", again, inputs, argv[name])
            files = sorted(p.name for p in first.iterdir())
            rep.expect(sorted(p.name for p in again.iterdir()) == files
                       and all((again / f).read_bytes() == (first / f).read_bytes() for f in files),
                       f"{name}: round {k} artifacts differ from round 0")


def check_outputs(workload: str, seed: int, res: dict, run_dir: Path, inputs: Path | None):
    import checks

    rep = checks.Report()
    digests = res.get("digests", [])
    rep.expect(len(set(digests)) <= 1, "outputs differ between rounds")
    outs = res["outputs"]
    if workload == "search":
        checks.check_search(rep, seed, outs)
    elif workload == "mixture":
        checks.check_mixture(rep, seed, outs)
    elif workload == "deep":
        checks.check_deep(rep, seed, outs, res["extra"])
    else:
        check_cli(rep, seed, run_dir, inputs, len(res["rounds"]), outs)
    return rep


def parent(args) -> int:
    if not (SRC / "cpttree" / "__init__.py").is_file():
        print(f"error: no cpttree sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    pin_to_one_core()
    compileall.compile_dir(str(SRC / "cpttree"), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1, maxlevels=0)
    run_dir = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    metrics: dict[str, float] = {}
    inputs = None
    if args.trace:
        imports = []
        for _ in range(IMPORT_SAMPLES):
            code, secs, _, _ = spawn([sys.executable, "-c", "import cpttree.cli"], ROOT)
            if code != 0:
                print("error: `import cpttree.cli` failed", file=sys.stderr)
                return 1
            imports.append(secs)
        metrics["cli.import_s"] = statistics.median(imports)
    else:
        samples, inputs = setup_samples(args.workload, args.seed, run_dir)
        metrics["setup_s"] = statistics.median(samples)

    if args.workload == "cli" and not args.trace:
        res = cli_rounds(args.seed, args.seconds, run_dir, inputs)
        peak_kib = res["peak_kib"]
        (run_dir / "rounds.json").write_text(json.dumps(res))
    else:
        result_path = run_dir / "worker.json"
        code, _, peak_kib, _ = spawn(
            self_argv("--role", "worker", "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--dir", str(run_dir), "--result", str(result_path)),
            ROOT, stderr=None,
        )
        if code != 0:
            print(f"error: worker exited with {code}", file=sys.stderr)
            return 1
        res = json.loads(result_path.read_text())
        inputs = run_dir / "inputs"

    if args.trace:
        metrics.update(res["layers"])
    else:
        metrics["wall_s"] = round_time(res["op_scaled"], range(len(res["rounds"])))
        metrics["peak_rss_mb"] = peak_kib / 1024.0
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    missing = set(units) - set(metrics)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1

    rep = check_outputs(args.workload, args.seed, res, run_dir, inputs)
    for line in res["errors"] + rep.failures:
        print(f"  {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(res['rounds'])} rounds, {res['attempted']} operations attempted, "
          f"{res['failed']} failed, {rep.checked} checks, {len(rep.failures)} check failures")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    if not args.trace:
        print(f"  (unscaled: wall {round_time(res['op_times'], range(len(res['rounds']))):.6g} s)")
    print(json.dumps({
        "correct": not rep.failures,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("parent", "probe", "worker"), default="parent")
    ap.add_argument("--dir", help=argparse.SUPPRESS)
    ap.add_argument("--result", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if args.role == "probe":
        return role_probe(args)
    if args.role == "worker":
        return role_worker(args)
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
