"""emlab benchmark: seeded CLI workloads, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload population --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each operation is one in-process call of ``emlab.cli.main`` on a config the
workload makes from ``--seed`` (see workloads.py).  A run repeats whole
rounds of the workload's operations until the timed calls add up to
``--seconds``, checks every artifact of the first round (checks.py) and
requires later rounds to rewrite the same bytes.  ``work_per_s`` keeps each
operation's fastest call of the run: the host's speed switches between
regimes for tens of seconds at a time, and a slow spell only slows calls
down.  The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and the end-to-end metrics, or with ``--trace 1``
the per-layer metrics (spans.py).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import checks
from workloads import WORKLOADS

OUT_DIR = ".perfbench_out"
# fresh interpreters timed per run, spread over it; setup_s is the fastest
SETUP_RUNS = 8
# Import emlab from ./src and finish its lazy set-up: the first kernel call
# builds the cached 512- and 1024-node Gauss-Hermite rules.
SETUP_CODE = """
import os, sys, time
t0 = time.perf_counter()
sys.path.insert(0, "src")
import emlab, emlab.cli
emlab.kernel_p(0.5, 1.0, 1.0)
elapsed = time.perf_counter() - t0
if not emlab.__file__.startswith(os.path.abspath("src") + os.sep):
    sys.exit(f"imported emlab from {emlab.__file__}, not ./src")
print(elapsed)
"""


def time_setup() -> float:
    """Seconds one fresh interpreter takes to import and set up emlab."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def keep_pace(setup: list, progress: float) -> None:
    """Time fresh set-ups until their count keeps pace with ``progress``, the
    share of the run's timed seconds done, so they sample the whole run."""
    while len(setup) <= (SETUP_RUNS - 1) * min(progress, 1.0):
        setup.append(time_setup())


def _note(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)


def measure(workload: str, seed: int, seconds: float, trace: bool, setup: list) -> dict:
    import emlab.cli
    import spans

    ops = WORKLOADS[workload](seed)
    base = Path(OUT_DIR) / workload
    shutil.rmtree(base, ignore_errors=True)
    (base / "configs").mkdir(parents=True)
    argv = {}
    for op in ops:
        config = base / "configs" / f"{op.name}.json"
        config.write_text(json.dumps(op.config, sort_keys=True))
        argv[op.name] = [op.command, "--config", str(config), "--out", str(base / op.name)]

    cli_main = emlab.cli.main
    if trace:
        tracer = spans.Tracer()
        restore = spans.install(tracer)
        cli_main = tracer.wrap("cli", cli_main)
    first = {}  # op name -> (digest, work, bytes) from its first success
    fastest = {}  # op name -> its fastest call of the run, failed calls too
    op_seconds, timed, written = [], 0.0, 0
    attempted = failed = rounds = 0
    correct = True
    try:
        with open(os.devnull, "w") as devnull:
            while rounds == 0 or timed < seconds:
                for op in ops:
                    out = base / op.name
                    shutil.rmtree(out, ignore_errors=True)
                    counted = tracer.counts[spans.WORK_COUNTS[op.kind]] if trace else 0
                    t0 = perf_counter()
                    try:
                        with redirect_stdout(devnull):
                            status = cli_main(argv[op.name])
                        error = None if status == 0 else f"exit status {status}"
                    except Exception as exc:  # a numerical fault escapes the CLI
                        error = f"{type(exc).__name__}: {exc}"
                    dt = perf_counter() - t0
                    timed += dt
                    fastest[op.name] = min(dt, fastest.get(op.name, dt))
                    attempted += 1
                    if error is not None:
                        failed += 1
                        if rounds == 0:
                            _note(f"{op.name} failed: {error}")
                        continue
                    op_seconds.append(dt)
                    if op.name not in first:
                        correct &= _check(op, out, base)
                        first[op.name] = (checks.artifact_digest(out),
                                          checks.KINDS[op.kind][1](out, op),
                                          checks.artifact_bytes(out))
                    elif checks.artifact_digest(out) != first[op.name][0]:
                        _note(f"{op.name}: artifacts differ from the first pass")
                        correct = False
                    if trace:
                        counted = tracer.counts[spans.WORK_COUNTS[op.kind]] - counted
                        if counted != first[op.name][1]:
                            _note(f"{op.name}: the layers did {counted} units of work, "
                                  f"the artifacts give {first[op.name][1]:.0f}")
                            correct = False
                    written += first[op.name][2]
                rounds += 1
                keep_pace(setup, timed / seconds)
    finally:
        if trace:
            restore()
    if not first:
        _note("no operation succeeded")
        correct = False
    # a round of fastest calls: the work of the ops that succeed over the time
    # of every op attempted
    round_work = sum(work for _, work, _ in first.values())
    metrics = {
        "work_per_s": (round_work / sum(fastest.values()), "units/s"),
        "op_ms.p50": (statistics.median(op_seconds) * 1e3 if op_seconds else 0.0, "ms"),
    }
    if trace:
        metrics.update(spans.metrics(tracer, attempted, rounds, written))
    _note(f"{workload}: {rounds} rounds of {len(ops)} ops, {timed:.2f} s timed")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _check(op, out: Path, base: Path) -> bool:
    check = checks.KINDS[op.kind][0]
    try:
        check(out, op, base / op.ref) if op.ref else check(out, op)
    except (checks.CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
        _note(f"{op.name}: check failed: {type(exc).__name__}: {exc}")
        return False
    return True


def run_one(args) -> int:
    setup = []
    keep_pace(setup, 0.0)
    sys.path.insert(0, "src")
    import emlab

    emlab.kernel_p(0.5, 1.0, 1.0)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), setup)
    keep_pace(setup, 1.0)
    metrics = result.pop("metrics")
    metrics["setup_s"] = (min(setup), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB")
    e2e = ("work_per_s", "op_ms.p50", "setup_s", "peak_rss_mb")
    for name, (value, unit) in metrics.items():
        tag = "" if name in e2e else "  [traced]"
        print(f"{args.workload:10} {name:34} {value:16.6g} {unit}{tag}")
    print(f"{args.workload:10} attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    keep = (lambda name: name not in e2e) if args.trace else (lambda name: name in e2e)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items() if keep(name)}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            _note(f"{workload} exited with status {done.returncode}")
            return done.returncode
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not Path("src/emlab/__init__.py").is_file():
        _note("no emlab sources under ./src; run from the repository root")
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
