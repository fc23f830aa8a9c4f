"""End-to-end and per-layer benchmark of the causal-lens CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload ring-classical --seed 1 --seconds 36 --trace 0

One process runs one workload as a closed loop with one client: each op is
one CLI command run in-process through ``causal_lens.cli.main(argv)`` with
``--format json``. The run repeats whole passes over the workload's fixed op
list until ``--seconds`` is spent. Each op's time is scaled to a reference
host speed with the calibration loop timed around it (``calibrate.py``), and
the run reports, per op, the median over the passes (see README.md for why).
Every op's output is checked against the benchmark's own reference
computations, outside the timed region. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__" and "--default-blas-threads" not in sys.argv:
    # pin BLAS before numpy loads, so timings do not depend on the neighbours' load
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from pathlib import Path

import calibrate

ROOT = Path.cwd()
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 9
# a fresh interpreter: calibration loops around one timed import of the CLI
IMPORT_PROBE = """
import statistics, sys, time
sys.path[:0] = sys.argv[1:3]
from calibrate import loop, scale
before = statistics.median(loop() for _ in range(5))
start = time.perf_counter()
import causal_lens.cli
elapsed = time.perf_counter() - start
after = statistics.median(loop() for _ in range(5))
print(scale(elapsed, before, after))
"""


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup() -> float:
    """Median import time of ``causal_lens.cli`` in fresh interpreters.

    One untimed import first writes the bytecode cache, as an installed
    package would have it.
    """
    times = []
    for k in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=60, check=False,
        )
        if out.returncode != 0:
            _fail(f"importing causal_lens.cli failed:\n{out.stderr}")
        if k:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_op(main, argv) -> tuple[float, int, str, str]:
    """Run one CLI command in-process; returns (seconds, exit code, stdout, stderr).

    An exception that escapes the CLI is a failed op with exit code -1, not
    the end of the run.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - a fault in the program under test
            code = -1
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


class Verifier:
    """Checks each op's output; identical outputs of an op are checked once."""

    def __init__(self, ops):
        self.ops = ops
        self.seen: dict[tuple[int, int, str], bool] = {}
        self.first: dict[int, str] = {}
        self.unexpected: list[str] = []

    def ok(self, k: int, code: int, stdout: str, stderr: str) -> bool:
        self.first.setdefault(k, stdout)
        key = (k, code, stdout)
        if key not in self.seen:
            op = self.ops[k]
            if code != 0:
                problems = [f"exit code {code}: {stderr.strip().splitlines()[-1:]}"]
            else:
                problems = _problems(op, stdout)
            self.seen[key] = not problems
            if problems and not (op.known_fault and code != 0):
                self.unexpected.append(f"{' '.join(op.argv)}: {'; '.join(map(str, problems[:3]))}")
        return self.seen[key]


def _problems(op, stdout: str) -> list:
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    try:
        return op.check(payload)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"output lacks an expected field: {exc!r}"]


CORRUPTIONS = {
    "analyze": lambda p: _flip(p["causal"][p["inputs"][0]], p["outputs"][-1]),
    "hierarchy": lambda p: _flip(p, "causal_influence"),
    "niwd": lambda p: _flip(p, "premise_holds"),
    "oracle": lambda p: _flip(p["pairs"][0], "t_process"),
    "ca": lambda p: p["neighbourhoods"]["c0"]["causal"].append("c-extra"),
}


def _flip(obj: dict, key: str) -> None:
    obj[key] = not obj[key]


def self_test(verifier: Verifier) -> list[str]:
    """Feed the checker one corrupted verdict per command and require a complaint."""
    missed = []
    for command, corrupt in CORRUPTIONS.items():
        for k, stdout in verifier.first.items():
            op = verifier.ops[k]
            if op.command == command and verifier.seen.get((k, 0, stdout)):
                payload = json.loads(stdout)
                corrupt(payload)
                if not op.check(payload):
                    missed.append(f"checker accepted a corrupted {command} verdict")
                break
    return missed


def one_pass(main, ops, verifier) -> tuple[list[float], list[float], int, int]:
    """Run every op once, with a calibration loop before each op and after the last.

    Returns per-op times at the reference speed, the loop times, the failed
    ops and the output bytes.
    """
    times, loops, failed, output_bytes = [], [calibrate.loop()], 0, 0
    for k, op in enumerate(ops):
        dt, code, stdout, stderr = run_op(main, op.argv)
        loops.append(calibrate.loop())
        times.append(calibrate.scale(dt, loops[-2], loops[-1]))
        output_bytes += len(stdout.encode())
        if not verifier.ok(k, code, stdout, stderr):
            failed += 1
    return times, loops, failed, output_bytes


def timed_passes(main, ops, verifier, seconds: float):
    """Whole passes until ``seconds`` are spent; returns per-op times, passes, failed."""
    times = [[] for _ in ops]
    failed = passes = 0
    start = time.perf_counter()
    longest = 0.0
    while passes == 0 or time.perf_counter() - start + longest <= seconds:
        pass_start = time.perf_counter()
        pass_times, _, n_failed, _ = one_pass(main, ops, verifier)
        for k, t in enumerate(pass_times):
            times[k].append(t)
        failed += n_failed
        passes += 1
        longest = max(longest, time.perf_counter() - pass_start)
    return times, passes, failed


def end_to_end(times, setup_s: float) -> dict:
    per_op = [statistics.median(t) for t in times]
    deciles = statistics.quantiles(per_op, n=10)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": {"value": len(per_op) / sum(per_op), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(per_op) * 1e3, "unit": "ms"},
        "op_p90_ms": {"value": deciles[8] * 1e3, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
    }


def environment() -> str:
    """Python, numpy and BLAS versions and the BLAS thread setting, for the record."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = "unknown BLAS"
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    return f"python {sys.version.split()[0]}, numpy {np.__version__}, {blas}, BLAS threads {threads}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--default-blas-threads", action="store_true",
        help="leave the BLAS thread count at its default (reference runs only)",
    )
    args = parser.parse_args()

    if not (SRC / "causal_lens" / "cli.py").is_file() or not FIXTURES.is_dir():
        _fail("run from the repository root: src/causal_lens and fixtures/ are missing")
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        ops = workloads.build(args.workload, args.seed, workdir, FIXTURES)
        verifier = Verifier(ops)
        if args.trace:
            import tracing

            metrics, attempted, failed = tracing.traced_run(ops, verifier, args.seconds, one_pass)
        else:
            setup_s = measure_setup()
            from causal_lens.cli import main as cli_main

            times, passes, failed = timed_passes(cli_main, ops, verifier, args.seconds)
            metrics = end_to_end(times, setup_s)
            attempted = passes * len(ops)
            print(f"perfbench: {len(ops)} ops, {passes} passes, {environment()}", file=sys.stderr)
        problems = verifier.unexpected + self_test(verifier)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
