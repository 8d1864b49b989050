"""Benchmark entry point: one seeded run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a repository checkout.  The program runs from
source (``src/``); nothing is installed.  Each run uses fresh processes:
one writes the workload's input from the seed (for workloads that read
an export), one measures.  With ``--trace 0`` the last line of standard
output holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a separate traced run.  Everything a run writes
stays under ``.bench_work/`` in the checkout; the traced run's spans
are kept in ``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent

#: The workload names, as BENCHMARK.json declares them.
WORKLOADS = [
    workload["name"]
    for workload in json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
]

#: Workloads whose input is an export written by a separate process.
NEEDS_INPUT = ("service_replay",)

#: A run must end within 180 s; leave room to clean up.
DEADLINE_S = 170.0


def _run_child(argv: List[str], env: dict, deadline: float) -> None:
    """Run a child in its own process group; kill the whole group (and
    wait for it) on timeout or interruption."""
    child = subprocess.Popen(argv, env=env, start_new_session=True)
    try:
        code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    finally:
        # Reap anything the child left in its group (e.g. pool workers).
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0:
        raise RuntimeError(f"{argv[2]} exited with code {code}")


def main() -> int:
    # A terminated run raises SystemExit, so _run_child kills and reaps
    # the child's process group on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--shape", choices=("full", "tiny"), default="full",
        help="tiny: the self-test's 40 /24s x 2 days",
    )
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"{root}: no src/repro here; run from the root of a repository "
            "checkout",
            file=sys.stderr,
        )
        return 2
    deadline = time.monotonic() + DEADLINE_S
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            [str(root / "src")]
            + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        ),
        TMPDIR=str(work / "tmp"),
    )
    bench = [sys.executable, str(HERE / "bench.py")]
    tiny = ["--tiny"] if args.shape == "tiny" else []
    common = ["--workload", args.workload, "--seed", str(args.seed)] + tiny
    result_path = work / "result.json"
    try:
        if args.workload in NEEDS_INPUT:
            (work / "input").mkdir()
            _run_child(bench + ["generate", *common, "--out", str(work / "input")], env, deadline)
        _run_child(
            bench + [
                "measure", *common,
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--input", str(work / "input"),
                "--work", str(work),
                "--result", str(result_path),
            ],
            env,
            deadline,
        )
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as error:
        print(f"benchmark run failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
