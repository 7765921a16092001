"""The affinv benchmark.  Run from the root of a checkout:

    python3 perfbench/run.py --workload query --seed 1 --seconds 15 --trace 0

Set-up is timed from a fresh interpreter (so it includes `import affinv`)
SETUPS times, each in its own process, and reported as the median; the last
of those processes then runs the workload.  The last line of stdout is one
JSON object with keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The line
before it records the environment and the outcome of every operation class.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("spectrum", "query", "limit", "identities")
SETUPS = 5
# Every process must be done well within the 180 s a run may take.
DEADLINE_S = 170.0


def _fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def run_worker(args, root: str, env: dict, setup_only: bool, deadline: float):
    """Start one worker; return (set-up seconds, parsed result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", root]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker did not finish in time")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    messages = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    ready = next(m["ready"] for m in messages if "ready" in m)
    result = next((m["result"] for m in messages if "result" in m), None)
    if result is None and not setup_only:
        raise RuntimeError("worker printed no result")
    return ready - spawned, result


def main() -> int:
    parser = argparse.ArgumentParser(description="affinv benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    src = os.path.join(root, "src")
    for needed in (os.path.join(src, "affinv", "__init__.py"),
                   os.path.join(root, "fixtures", "schottky_n2.json")):
        if not os.path.isfile(needed):
            return _fail(f"{needed} not found: run from the root of an affinv checkout")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    try:
        setups = [run_worker(args, root, env, True, deadline)[0] for _ in range(SETUPS - 1)]
        last_setup, result = run_worker(args, root, env, False, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, StopIteration) as exc:
        return _fail(str(exc))
    setups.append(last_setup)

    metrics = result.pop("metrics")
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "setup_runs_s": setups, **result}))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
