"""tools/bench_record.py: perfbench runs of a parent and a change into one record."""

import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_record.py")


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(path, workload, seed, op_ms, correct=True):
    head = {"workload": workload, "seed": seed, "correct": correct,
            "environment": {"cores": 2, "numpy": "2.4.6"}}
    result = {"correct": correct, "attempted": 1, "failed": 0,
              "metrics": {"op_p50_ms": {"value": op_ms, "unit": "ms"},
                          "ok_per_s": {"value": 1000.0 / op_ms, "unit": "1/s"}}}
    path.write_text(json.dumps(head) + "\n" + json.dumps(result) + "\n")
    return str(path)


def test_medians_quartiles_and_won_pairs(tmp_path, bench_record):
    parent = [write_run(tmp_path / f"p{i}.txt", "spectrum", i, ms)
              for i, ms in enumerate([10.0, 12.0, 11.0, 13.0])]
    change = [write_run(tmp_path / f"c{i}.txt", "spectrum", i, ms)
              for i, ms in enumerate([5.0, 6.0, 12.0, 4.0])]
    data = bench_record.record(parent, change)
    assert data["environment"] == [{"cores": 2, "numpy": "2.4.6"}]
    entry = data["workloads"]["spectrum"]
    assert entry["parent"] == {"runs": 4, "seeds": [0, 1, 2, 3], "all_correct": True}
    op = entry["metrics"]["op_p50_ms"]
    assert op["unit"] == "ms" and op["better"] == "lower"
    assert op["parent"]["median"] == 11.5 and op["change"]["median"] == 5.5
    assert (op["parent"]["q1"], op["parent"]["q3"]) == (10.75, 12.25)
    assert (op["change_won_pairs"], op["pairs"]) == (3, 4)
    # higher is better for throughput: the same three pairs are won
    assert entry["metrics"]["ok_per_s"]["change_won_pairs"] == 3


def test_rejects_a_file_without_the_workload_line(tmp_path, bench_record):
    bad = tmp_path / "bad.txt"
    bad.write_text(json.dumps({"correct": True, "metrics": {}}) + "\n")
    with pytest.raises(ValueError, match="workload line"):
        bench_record.read_run(str(bad))
