"""Tests of the benchmark's own code: span arithmetic, tracer clean-up, the
output check, and agreement of its metric tables with BENCHMARK.json."""

import dataclasses
import json
import os

import pytest

import run
from spans import Tracer, layer_totals, traced_functions
from workloads import WORKLOADS, check_campaign, summary_means


def _span_tree():
    # bench [0, 10]
    #   solvers [1, 9]
    #     direction [2, 5]
    #       prox [2.5, 3], prox [3, 4]
    #     problems [6, 8]
    #       prox [6.5, 7]
    names = ["bench.run_campaign", "solvers.solve", "direction.frank_wolfe_solve",
             "prox.WeightedL1.prox", "prox.WeightedL1.prox", "problems.evaluate_F",
             "prox.BoxIndicator.contains"]
    parents = [-1, 0, 1, 2, 2, 1, 5]
    starts = [0.0, 1.0, 2.0, 2.5, 3.0, 6.0, 6.5]
    ends = [10.0, 9.0, 5.0, 3.0, 4.0, 8.0, 7.0]
    return names, parents, starts, ends


def test_self_time_subtracts_direct_children():
    totals = layer_totals(*_span_tree())
    self_s = {layer: entry["self_s"] for layer, entry in totals.items()}
    assert self_s == pytest.approx(
        {"bench": 2.0, "solvers": 3.0, "direction": 1.5, "prox": 2.0, "problems": 1.5}
    )
    assert sum(self_s.values()) == pytest.approx(10.0)
    assert totals["prox"]["calls"] == 3
    assert totals["prox"]["total_s"] == pytest.approx(2.0)
    assert totals["direction"]["total_s"] == pytest.approx(3.0)


def _small_campaign(name="quad_n2", trials=3):
    from moprox import bench

    workload = dataclasses.replace(WORKLOADS[name], trials=trials)
    workload.register()
    return workload, bench


def test_tracer_records_nested_spans_and_restores_every_wrapper():
    workload, bench = _small_campaign()
    originals = [
        vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        for owner, attr, _name in traced_functions()
    ]
    tracer = Tracer()
    with tracer:
        summary = bench.run_campaign(workload.spec(5))
    for (owner, attr, _name), original in zip(traced_functions(), originals):
        current = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, f"{owner.__name__}.{attr} still wrapped"

    assert tracer.names[0] == "bench.run_campaign" and tracer.parents[0] == -1
    solves = [i for i, name in enumerate(tracer.names) if name == "solvers.solve"]
    assert len(solves) == len(summary.raw)
    assert all(tracer.parents[i] == 0 for i in solves)
    assert all(a <= b for a, b in zip(tracer.starts, tracer.ends))
    # every span inside a solve carries that solve's id
    for i, parent in enumerate(tracer.parents):
        if parent > 0:
            assert tracer.solve_ids[i] == tracer.solve_ids[parent] >= 0
    layers = {name.split(".", 1)[0] for name in tracer.names}
    assert layers >= {"bench", "solvers", "bb", "direction", "prox", "problems", "linesearch"}


def test_tracer_restores_wrappers_when_the_campaign_raises():
    from moprox import bench

    original = bench.solve
    with pytest.raises(ValueError):
        with Tracer():
            assert bench.solve is not original
            raise ValueError("boom")
    assert bench.solve is original


def test_output_check_rejects_a_perturbed_iteration_mean():
    workload, bench = _small_campaign()
    summary = bench.run_campaign(workload.spec(5))
    problem = workload.build()
    expected = {workload.name: {"trials": workload.trials,
                                "seeds": {"5": summary_means(summary)}}}
    assert check_campaign(workload, 5, summary, problem, expected) == []

    summary.rows[0]["iter_mean"] *= 1.05
    errors = check_campaign(workload, 5, summary, problem, expected)
    assert any("iter_mean" in error and "2%" in error for error in errors)

    summary.rows[0]["iter_mean"] /= 1.05
    expected[workload.name]["trials"] += 1
    assert check_campaign(workload, 5, summary, problem, expected) != []


def test_metric_tables_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_tail_percentile_leaves_ten_solves_beyond_it():
    assert run.tail_percentile(200) == pytest.approx(95.0)
    assert run.tail_percentile(24) == pytest.approx(100.0 * 14 / 24)


def test_quadratic_workloads_solve_the_acceptance_campaign_instances():
    from moprox.bench import ExperimentSpec, run_campaign

    for name, token, seed in (("quad_n2", "quadratic:n=2", 5), ("quad_n10", "quadratic:n=10", 0)):
        workload, bench = _small_campaign(name, trials=2)
        ours = bench.run_campaign(workload.spec(seed))
        acceptance = run_campaign(
            ExperimentSpec(problem=token, algorithms=workload.algorithms, trials=2, seed=seed)
        )
        for a, b in zip(ours.raw, acceptance.raw):
            assert {k: v for k, v in a.items() if k != "time_ms"} == {
                k: v for k, v in b.items() if k != "time_ms"
            }
