"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload train-compare --seed 0 --seconds 10 --trace 0

Run from the root of a checkout. The set-up phase (fresh interpreter,
imports, inputs written to disk) is timed in fresh processes, three times
before the workload and three times after it, and `setup_s` is the median
of the six. The workload runs alone in one more fresh process with BLAS and
OpenMP limited to one thread. With `--trace 0` the
last line holds the end-to-end metrics, with `--trace 1` the per-layer
metrics of a separate traced round. Outputs and the trace go to
`perfbench/out/<workload>-<seed>-<trace>/`, which replaces the previous
run's.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("train-compare", "stream-eval", "flowocc-annotate")
SETUP_REPEATS = 3             # timed set-ups before and again after the workload
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(cmd, env, capture: bool = False):
    """(exit status, stdout) of a child killed after CHILD_TIMEOUT_S.

    The wait blocks instead of polling, so the measured time is not rounded
    up to the polling interval of `subprocess.run(timeout=...)`."""
    proc = subprocess.Popen(cmd, env=env, text=True,
                            stdout=subprocess.PIPE if capture else None)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="viewocc benchmark: one workload run")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "viewocc" / "__init__.py").is_file():
        print(f"benchmark: no viewocc package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    # only the latest run's outputs are kept: a flowocc-annotate run leaves
    # about 18 MB of blobs
    shutil.rmtree(HERE / "out", ignore_errors=True)
    out = HERE / "out" / f"{args.workload}-{args.seed}-{args.trace}"
    out.mkdir(parents=True)
    env = child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", str(out)]
    setup_cmd = [sys.executable, str(HERE / "workload.py"), "setup"] + common

    def timed_setups(count: int) -> list:
        times = []
        for _ in range(count):
            t0 = time.perf_counter()
            status, _ = run_child(setup_cmd, env)
            if status != 0:
                raise RuntimeError(f"set-up exited with status {status}")
            times.append(time.perf_counter() - t0)
        return times

    run_cmd = ([sys.executable, str(HERE / "workload.py"), "run"] + common
               + ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    try:
        # the first set-up also compiles bytecode in a fresh checkout: untimed
        timed_setups(1)
        before = timed_setups(0 if args.trace else SETUP_REPEATS)
        status, stdout = run_child(run_cmd, env, capture=True)
        # this machine's speed drifts over tens of seconds; timing set-up on
        # both sides of the workload samples two stretches of it
        after = timed_setups(0 if args.trace else SETUP_REPEATS)
    except RuntimeError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    lines = stdout.strip().splitlines()
    if status != 0 or not lines:
        print(f"benchmark: workload exited with status {status}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(before + after),
                                        "unit": "s"}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
