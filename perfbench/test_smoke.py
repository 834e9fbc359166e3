"""Smoke test of the benchmark: every workload at n = 3, untraced and traced.

    python3 -m pytest perfbench

Checks that the commands run, their outputs pass the correctness gate, every
metric named in BENCHMARK.json is produced, and exact counts repeat between
two traced runs with the same seed.  It makes no wall-clock assertions.
"""

import json

import pytest

import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = (
    "numpy.eigh.calls",
    "states.from_points.points_in",
    "dynamics.with_lam.calls",
    "fcs.quad_vec.evals",
)


def small_run(name: str, trace: bool) -> dict:
    return run.run_workload(WORKLOADS[name].at_size(3), seed=0, seconds=0, trace=trace,
                            scale_sizes=(3,), setup_probes=1)


@pytest.fixture(scope="module")
def traced():
    return {name: small_run(name, True) for name in WORKLOADS}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_is_correct_and_reports_end_to_end(name):
    result = small_run(name, False)
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["problems"]
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]] > 0


def test_traced_runs_are_correct(traced):
    for result in traced.values():
        assert result["attempted"] > 0
        assert result["failed"] == 0, result["problems"]


def test_every_per_layer_metric_is_produced(traced):
    # The smoke runs time the scaling cell at n = 3 only.
    produced = set().union(*(r["metrics"] for r in traced.values()))
    assert "scale.n3.run_s" in produced
    scale = {f"scale.n{n}.run_s" for n in run.SCALE_SIZES}
    names = {m["name"] for m in SPEC["per_layer"]}
    assert scale <= names
    assert not names - produced - scale


def test_exact_counts_repeat(traced):
    for name in ("verify_chain6", "scan_lambda_chain7_w2"):
        again = small_run(name, True)["metrics"]
        first = traced[name]["metrics"]
        for key in EXACT_COUNTS:
            assert first.get(key) == again.get(key), (name, key)
