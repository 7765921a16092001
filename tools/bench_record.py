"""Turn perfbench runs of a parent and a change commit into one BENCH_<n>.json.

Each RUN file holds the stdout of one `python3 perfbench/run.py ...` run: the
line that names the workload, seed and environment, then the result line.
Parent and change runs of a workload are paired by seed, so run each seed on
both sides, alternating which side runs first.

    python3 tools/bench_record.py --out BENCH_6.json \\
        --parent runs/p-spectrum-*.txt runs/p-query-*.txt ... \\
        --change runs/c-spectrum-*.txt runs/c-query-*.txt ...

For every workload and metric the output holds each side's median, quartiles
and values, and how many pairs the change won (by the direction declared in
BENCHMARK.json).  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read_run(path: str) -> tuple[dict, dict]:
    """(workload line, result line) of one perfbench stdout capture."""
    with open(path) as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    if len(lines) < 2 or "environment" not in lines[-2] or "metrics" not in lines[-1]:
        raise ValueError(f"{path}: expected perfbench's workload line and result line")
    return lines[-2], lines[-1]


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def directions() -> dict:
    """metric -> "lower" or "higher", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    return {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}


def record(parent_paths: list[str], change_paths: list[str]) -> dict:
    runs = {"parent": [read_run(p) for p in parent_paths],
            "change": [read_run(p) for p in change_paths]}
    better = directions()
    environments = {json.dumps(head["environment"], sort_keys=True)
                    for side in runs.values() for head, _ in side}
    out = {"environment": [json.loads(e) for e in sorted(environments)], "workloads": {}}
    names = sorted({head["workload"] for side in runs.values() for head, _ in side})
    for name in names:
        sides = {side: sorted(((head, result) for head, result in runs[side]
                               if head["workload"] == name), key=lambda run: run[0]["seed"])
                 for side in runs}
        entry = {side: {"runs": len(rows), "seeds": [head["seed"] for head, _ in rows],
                        "all_correct": all(result["correct"] for _, result in rows)}
                 for side, rows in sides.items()}
        metrics = {}
        for metric in sorted({m for rows in sides.values() for _, r in rows for m in r["metrics"]}):
            values = {side: [r["metrics"][metric]["value"] for _, r in rows
                             if metric in r["metrics"]] for side, rows in sides.items()}
            if not all(values.values()):
                continue
            unit = next(r["metrics"][metric]["unit"] for rows in sides.values() for _, r in rows
                        if metric in r["metrics"])
            row = {"unit": unit, "better": better.get(metric)}
            row.update({side: summary(v) for side, v in values.items()})
            if row["better"] in ("lower", "higher"):
                sign = 1 if row["better"] == "lower" else -1
                pairs = list(zip(values["parent"], values["change"]))
                row["change_won_pairs"] = sum(sign * (p - c) > 0 for p, c in pairs)
                row["pairs"] = len(pairs)
            metrics[metric] = row
        entry["metrics"] = metrics
        out["workloads"][name] = entry
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--parent", nargs="+", required=True, metavar="RUN")
    parser.add_argument("--change", nargs="+", required=True, metavar="RUN")
    parser.add_argument("--note", default="", help="free text kept in the record")
    args = parser.parse_args()
    try:
        data = record(args.parent, args.change)
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"bench_record: {exc}\n")
        return 2
    if args.note:
        data = {"note": args.note, **data}
    with open(args.out, "w") as handle:
        json.dump(data, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
