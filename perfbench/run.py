"""End-to-end benchmark of HTL retrieval: one workload per invocation.

    python3 perfbench/run.py --workload lists --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload runs in fresh worker
processes (``worker.py``): an optional ``prepare`` step writes what the
workload loads, ``SETUP_PROBES`` processes time set-up alone, and one
process times set-up, runs the closed loop for ``--seconds`` corrected
seconds and checks every ranking.  ``setup_s`` is the median of all the
set-ups.  The last stdout line is the JSON result: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``.

``--self-test`` runs every workload in both modes and fails when a
percentile falls between two templates or write kinds, a wrapper
predicted to fire never fires, the calibration slice imports the
program, or the metrics reported differ from those BENCHMARK.json
declares.

Everything is written under ``.perfbench/`` in the checkout and removed
afterwards.
"""

import argparse
import ast
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
DESIGN = os.path.join(HERE, "design.json")
#: Set-up-only processes per run, besides the measuring one.
SETUP_PROBES = 2
#: Per worker process, seconds.
PREPARE_TIMEOUT = 60
SETUP_TIMEOUT = 30
#: Fixed string hashing, so set and dict iteration orders (and with
#: them the work done) repeat from run to run.
HASH_SEED = "0"

class BenchError(Exception):
    """A worker failed, timed out or printed no result."""


def worker(mode, args, directory, timeout, extra=()):
    command = [
        sys.executable,
        WORKER,
        mode,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--dir",
        directory,
        *extra,
        "--spawned-at",
        repr(time.monotonic()),
    ]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env.pop("PYTHONPATH", None)
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker timed out after {timeout}s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(
            f"{mode} worker exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def declared_metrics():
    """Metric name -> unit as BENCHMARK.json declares them, by ``--trace``
    value."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    return {
        0: {metric["name"]: metric["unit"] for metric in declared["end_to_end"]},
        1: {metric["name"]: metric["unit"] for metric in declared["per_layer"]},
    }


def must_fire(workload):
    with open(DESIGN) as handle:
        design = json.load(handle)
    return design["workloads"][workload]["wrappers_must_fire"]


def measure(args):
    """Run one workload; returns (result line, diagnostics)."""
    directory = os.path.join(ROOT, ".perfbench", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    try:
        worker("prepare", args, directory, PREPARE_TIMEOUT)
        setups = [
            worker("setup", args, directory, SETUP_TIMEOUT)["setup"]
            for __ in range(SETUP_PROBES)
        ]
        main = worker(
            "run",
            args,
            directory,
            SETUP_TIMEOUT + 4 * args.seconds + 60,
            ("--seconds", str(args.seconds), "--trace", str(args.trace)),
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(directory))
        except OSError:
            pass
    setups.append(main["setup"])
    if args.trace:
        values = main["per_layer"]
    else:
        values = dict(main["end_to_end"])
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in declared_metrics()[args.trace].items()
    }
    result = {
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
    }
    diagnostics = dict(main, setups=setups, measured=sorted(values))
    diagnostics.pop("per_layer", None)
    diagnostics.pop("end_to_end", None)
    return result, diagnostics


def report(args, result, diagnostics):
    """Human-readable diagnostics (stdout, before the result line)."""
    cal = diagnostics["calibration"]
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}: "
        f"{result['attempted']} ops, {result['failed']} failed, "
        f"{diagnostics['checked']} rankings checked against the reference"
    )
    print(
        f"# calibration slice: median {cal['median_ms']:.3f} ms, "
        f"range {cal['min_ms']:.3f}-{cal['max_ms']:.3f} ms over {cal['n']}"
    )
    raw = diagnostics["raw"]
    print(
        "# raw (uncorrected): "
        + ", ".join(f"{name} {value:.3f}" for name, value in raw.items())
        + ", setup_s "
        + " ".join(f"{s['raw_setup_s']:.3f}" for s in diagnostics["setups"])
    )
    for kind, name in (("queries", "query"), ("writes", "write")):
        for label, row in diagnostics[kind].items():
            print(
                f"# {name:5} {label:14} n={row['n']:4d} "
                f"p10={row['p10_ms']:8.3f} p50={row['p50_ms']:8.3f} "
                f"p90={row['p90_ms']:8.3f} ms"
            )
    for name, (value, label, below, ok) in diagnostics["placement"].items():
        print(
            f"# placement {name} = {value:.3f} ms in {label} "
            f"({below:.0%} of it below): {'ok' if ok else 'ON A STEP'}"
        )
    for message in diagnostics["failures"]:
        print(f"# failure: {message}")
    if "wrapper_calls" in diagnostics:
        print(
            "# wrapper calls: "
            + ", ".join(f"{n}={c}" for n, c in diagnostics["wrapper_calls"].items())
        )
        for target in diagnostics["missing_wrappers"]:
            print(f"# wrapper target missing from the program: {target}")


def silent_wrappers(args, diagnostics):
    calls = diagnostics["wrapper_calls"]
    return [name for name in must_fire(args.workload) if not calls.get(name)]


def calibration_imports():
    """Modules the calibration slice's source imports."""
    with open(os.path.join(HERE, "calib.py")) as handle:
        tree = ast.parse(handle.read())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
    return names




def self_test(seconds):
    problems = []
    imported = [name for name in calibration_imports() if name.split(".")[0] == "repro"]
    if imported:
        problems.append(f"calib.py imports the program: {imported}")
    declared = {trace: set(units) for trace, units in declared_metrics().items()}
    for workload in ("lists", "metadata", "live"):
        for trace in (0, 1):
            args = argparse.Namespace(
                workload=workload, seed=1, seconds=seconds, trace=trace
            )
            result, diagnostics = measure(args)
            report(args, result, diagnostics)
            measured = set(diagnostics["measured"])
            if measured != declared[trace]:
                problems.append(
                    f"{workload} --trace {trace}: measured metrics differ from "
                    f"BENCHMARK.json: {sorted(measured ^ declared[trace])}"
                )
            if not result["correct"]:
                problems.append(f"{workload}: {result['failed']} failed operations")
            if trace:
                silent = silent_wrappers(args, diagnostics)
                if silent:
                    problems.append(f"{workload}: wrappers never fired: {silent}")
                continue
            for name, (__, label, below, ok) in diagnostics["placement"].items():
                if not ok:
                    problems.append(
                        f"{workload}: {name} falls on the step at the edge of "
                        f"{label} ({below:.0%} of it below)"
                    )
    for problem in problems:
        print(f"SELF-TEST FAILED: {problem}")
    if not problems:
        print("self-test passed")
    return 1 if problems else 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("lists", "metadata", "live"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(
            f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is "
            "missing (run from the root of a checkout)",
            file=sys.stderr,
        )
        return 2
    if args.self_test:
        return self_test(args.seconds)
    try:
        result, diagnostics = measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    report(args, result, diagnostics)
    if args.trace:
        silent = silent_wrappers(args, diagnostics)
        if silent:
            print(
                f"traced run failed: wrappers predicted to fire on "
                f"{args.workload} never did: {silent}",
                file=sys.stderr,
            )
            return 4
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
