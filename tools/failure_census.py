"""Count the failing operations of a perfbench workload over many seeds.

One untimed pass of the workload per seed, in this process, with the checkout
this file sits in: its `src/` and `perfbench/` are put first on sys.path.
Operations are classified as perfbench's worker classifies them: `ok`,
`failed-raised:<exception>` or `failed-wrong:<check>`.  Prints one JSON line:

    {"workload": ..., "seeds": [first, last], "attempted": ..., "failed": ...,
     "failures": [[seed, key, outcome], ...]}

    python3 tools/failure_census.py identities --seeds 1 400

A benchmark run sees one seed, so a failure rate of one operation in 10,000
shows only in a census like this.  Needs nothing beyond the standard library
and what the benchmark itself imports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def census(workload: str, seeds) -> dict:
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import workloads

    attempted, failures = 0, []
    for seed in seeds:
        wl = workloads.WORKLOADS[workload](seed, ROOT)
        wl.load_checks()
        for op in wl.ops:
            attempted += 1
            try:
                out = wl.run(op)
            except Exception as exc:  # a raise is a counted failure, as in the benchmark
                outcome = f"failed-raised:{type(exc).__name__}"
            else:
                reason = wl.check(op, out)
                outcome = "ok" if reason is None else f"failed-wrong:{reason}"
            if outcome != "ok":
                failures.append([seed, wl.key(op), outcome])
    return {"workload": workload, "seeds": [min(seeds), max(seeds)], "attempted": attempted,
            "failed": len(failures), "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", help="spectrum, query, limit or identities")
    parser.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"), required=True,
                        help="run every seed from FIRST to LAST inclusive")
    args = parser.parse_args(argv)
    first, last = args.seeds
    if not 0 < first <= last:
        parser.error("--seeds needs 0 < FIRST <= LAST")
    print(json.dumps(census(args.workload, range(first, last + 1))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
