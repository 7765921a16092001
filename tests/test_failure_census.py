"""tools/failure_census.py: one untimed pass of a benchmark workload per seed."""

import importlib.util
import json
import os
import sys

import pytest

from affinv import cartan

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "failure_census.py")


@pytest.fixture
def failure_census(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts perfbench/ first
    spec = importlib.util.spec_from_file_location("failure_census", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop("workloads", None)


def test_census_of_one_seed_counts_each_failing_operation(failure_census, monkeypatch, capsys):
    assert failure_census.main(["identities", "--seeds", "3", "3"]) == 0
    clean = json.loads(capsys.readouterr().out)
    assert (clean["workload"], clean["seeds"], clean["attempted"]) == ("identities", [3, 3], 150)
    assert clean["failed"] == len(clean["failures"])

    def refuse(*args, **kwargs):
        raise cartan.NotTransverse("refused")

    # co_neutral serves only the neutral-maps family: 10 configurations for each n = 2, 3, 4
    monkeypatch.setattr(cartan, "co_neutral", refuse)
    out = failure_census.census("identities", [3])
    assert out["attempted"] == 150 and out["failed"] == 30
    assert {(seed, key.split("/")[0], outcome) for seed, key, outcome in out["failures"]} \
        == {(3, "neutral-maps", "failed-raised:NotTransverse")}


def test_census_refuses_an_empty_seed_range(failure_census):
    with pytest.raises(SystemExit):
        failure_census.main(["identities", "--seeds", "5", "4"])
