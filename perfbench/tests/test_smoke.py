"""A scaled-down pass of each workload shape, untraced and traced."""

import json

import pytest

import run
from workloads import WORKLOADS

SMALL = {
    "bert-768x12-r8": (48, 40, 4),
    "wide-4096x2-r16": (128, 96, 2),
    "svd-ramp-128x12": (32, 32, 6),
    "fullrank-128x6": (24, 24, 4),
}


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_workload_shape_runs_and_checks_out(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    small = workload.scaled(*SMALL[workload.name])

    untraced = run.measure(small, seed=5, seconds=0.0, threads=1)
    assert untraced["correct"], untraced["problems"]
    assert untraced["attempted"] == 1 + run.SETUP_REPS + len(small.commands) + 1
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    traced = run.trace(small, seed=5, threads=1)
    assert traced["correct"], traced["problems"]
    metrics = {name: m["value"] for name, m in traced["metrics"].items()}
    assert [name for name, _, _ in run.PER_LAYER] == list(metrics)
    # tiny inputs run in less than interpreter start-up, so no parallel speedup is defined
    assert all(v is not None for k, v in metrics.items() if k != "cli.parallel_speedup")
    assert 0.0 < metrics["trace.coverage_ratio"] <= 1.0
    assert metrics["analysis.sweep_points"] == len(small.sweep_k.split(",")) * small.count
    assert (metrics["stats.svd_cells"] > 0) == ("correlate" in small.commands)

    spans = json.loads((tmp_path / "traces" / f"{small.name}-seed5.json").read_text())["spans"]
    layer = [s for s in spans if not s["name"].startswith("command.")]
    assert all(s["workload"] == small.name and s["command"] for s in spans)
    merges = [s for s in layer if s["name"] == "container.merge_delta"]
    assert merges and all(s["matrix"] and s["shape"] == [small.m, small.n] for s in merges)


def test_rerun_of_a_seed_must_match_its_first_run(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    small = WORKLOADS[2].scaled(16, 16, 5)
    assert run.measure(small, seed=7, seconds=0.0, threads=1)["correct"]
    store = tmp_path / "digests" / f"{small.name}-seed7.json"
    digests = json.loads(store.read_text())
    digests["sweep"] = "0" * 64
    store.write_text(json.dumps(digests))
    again = run.measure(small, seed=7, seconds=0.0, threads=1)
    assert again["failed"] == 1
    assert again["problems"] == ["sweep output differs from this seed's first run"]
