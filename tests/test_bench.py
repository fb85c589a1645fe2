"""Tests for campaign execution, CSV/SVG export, and the bench CLI."""

import concurrent.futures
import csv
import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from xml.etree import ElementTree

import numpy as np
import pytest

import moprox
from moprox import bench, testproblems
from moprox.bench import (
    ExperimentSpec,
    ExperimentSummary,
    _child_seed,
    algo_config,
    export_results,
    main,
    run_campaign,
)
from moprox.exceptions import UnknownProblemError
from moprox.problems import MCOProblem, SmoothComponent
from moprox.prox import BoxIndicator
from moprox.svg import scatter_svg

# the perfbench quad_m4 instance, registered on first use
_QUAD_M4 = "bench-test-quad-m4"


def _quad_m4():
    spec = testproblems.QuadraticSpec(n=10, n_objectives=4)
    return testproblems.random_quadratic(spec, 7)


@pytest.fixture
def bad_gradient_problem():
    """Registered problem whose gradient has the wrong sign, so every line
    search exhausts; removed from the registry afterwards."""
    key = "bench-test-bad-gradient"

    def factory():
        comp = SmoothComponent(
            value=lambda x: 0.5 * float(np.dot(x, x)),
            gradient=lambda x: -x,
            lipschitz=1.0,
        )
        return MCOProblem(
            n=2,
            smooth=(comp,),
            bounds=(np.full(2, -2.0), np.full(2, 2.0)),
            name=key,
        )

    testproblems.register_problem(key, factory)
    yield key
    del testproblems._REGISTRY[key]


@pytest.fixture
def poisoned_start_problem():
    """Registered BK1-like problem whose objective raises a RuntimeError,
    not an EvaluationError, at the start of trial 1 of a seed-0 campaign;
    removed from the registry afterwards. Returns the key."""
    key = "bench-test-poisoned-start"
    lo, hi = np.full(2, -2.0), np.full(2, 2.0)
    spec = ExperimentSpec(problem=key, algorithms=("bbpgmo",), seed=0)
    poisoned = np.random.default_rng(_child_seed(spec, 2)).uniform(lo, hi)

    def value(x, s):
        if np.array_equal(x, poisoned):
            raise RuntimeError("poisoned start")
        return float(np.dot(x - s, x - s))

    def factory():
        comps = tuple(
            SmoothComponent(
                value=lambda x, s=s: value(x, s),
                gradient=lambda x, s=s: 2.0 * (x - s),
                lipschitz=2.0,
                strong_mu=2.0,
            )
            for s in (0.0, 1.0)
        )
        return MCOProblem(n=2, smooth=comps, bounds=(lo, hi), name=key)

    testproblems.register_problem(key, factory)
    yield key
    del testproblems._REGISTRY[key]


@pytest.fixture
def three_objective_problem():
    key = "bench-test-three-objectives"

    def factory():
        comps = tuple(
            SmoothComponent(
                value=lambda x, s=s: float(np.dot(x - s, x - s)),
                gradient=lambda x, s=s: 2.0 * (x - s),
                lipschitz=2.0,
                strong_mu=2.0,
            )
            for s in (0.0, 1.0, -1.0)
        )
        return MCOProblem(
            n=2,
            smooth=comps,
            bounds=(np.full(2, -2.0), np.full(2, 2.0)),
            name=key,
        )

    testproblems.register_problem(key, factory)
    yield key
    del testproblems._REGISTRY[key]


class TestAlgoConfig:
    def test_plain_token(self):
        cfg = algo_config("bbpgmo")
        assert cfg.algorithm == "bbpgmo"
        assert cfg.ell is None

    def test_parameters(self):
        cfg = algo_config("pgmo_fixed:ell=7.5")
        assert cfg.algorithm == "pgmo_fixed"
        assert cfg.ell == 7.5
        cfg = algo_config("abbpgmo:tau=3,ell=2")
        assert cfg.tau == 3.0 and cfg.ell == 2.0

    def test_tolerances_plumbed(self):
        cfg = algo_config("bbpgmo", d_tol=1e-4, max_iters=77)
        assert cfg.d_tol == 1e-4
        assert cfg.max_iters == 77

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm parameter"):
            algo_config("pgmo_ls:gamma=0.5")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            algo_config("gradientdescent")

    def test_repeated_parameter_rejected(self):
        with pytest.raises(ValueError, match="repeated algorithm parameter 'ell'"):
            algo_config("pgmo_ls:ell=1,ell=2")

    @pytest.mark.parametrize("token", ("pgmo_ls:ell", "pgmo_ls:ell="))
    def test_bad_parameter_value_named(self, token):
        with pytest.raises(ValueError, match=f"invalid float value '' for 'ell' in '{token}'"):
            algo_config(token)


class TestSpecValidation:
    def test_trials(self):
        with pytest.raises(ValueError):
            ExperimentSpec(problem="BK1", algorithms=("bbpgmo",), trials=0)

    def test_algorithms(self):
        with pytest.raises(ValueError):
            ExperimentSpec(problem="BK1", algorithms=())

    @pytest.mark.parametrize("jobs", (0, -4))
    def test_jobs(self, jobs, capsys):
        with pytest.raises(ValueError, match="jobs"):
            ExperimentSpec(problem="BK1", algorithms=("bbpgmo",), jobs=jobs)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--problem", "BK1", "--algos", "bbpgmo", "--jobs", str(jobs)])
        assert exc.value.code == 2
        assert "jobs must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ("trials", "jobs", "max_iters", "seed"))
    @pytest.mark.parametrize("value", (2.5, np.inf, np.nan, np.float64(3.0)))
    def test_non_integer_counts(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ExperimentSpec(problem="BK1", algorithms=("bbpgmo",), **{name: value})
        spec = ExperimentSpec(problem="BK1", algorithms=("bbpgmo",), **{name: np.int64(3)})
        assert getattr(spec, name) == 3

    @pytest.mark.parametrize("seed", (-1, np.int64(-7)))
    def test_negative_seed(self, seed):
        """Refused when the spec is built, not by numpy's SeedSequence at
        the first trial."""
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            ExperimentSpec(problem="BK1", algorithms=("bbpgmo",), seed=seed)

    def test_quadratic_token_needs_n(self):
        spec = ExperimentSpec(problem="quadratic", algorithms=("bbpgmo",), trials=1)
        with pytest.raises(ValueError, match="n=<dim>"):
            run_campaign(spec)

    def test_quadratic_token_unknown_field(self):
        spec = ExperimentSpec(
            problem="quadratic:n=3,rho=2", algorithms=("bbpgmo",), trials=1
        )
        with pytest.raises(ValueError, match="unknown quadratic fields"):
            run_campaign(spec)

    def test_quadratic_token_repeated_field(self):
        spec = ExperimentSpec(
            problem="quadratic:n=2,n=5", algorithms=("bbpgmo",), trials=1
        )
        with pytest.raises(ValueError, match="repeated quadratic fields 'n'"):
            run_campaign(spec)

    def test_quadratic_token_bad_value_named(self):
        spec = ExperimentSpec(problem="quadratic:n=2.5", algorithms=("bbpgmo",), trials=1)
        with pytest.raises(ValueError, match="invalid int value '2.5' for 'n' in 'quadratic:n=2.5'"):
            run_campaign(spec)

    def test_only_the_quadratic_token_draws_an_instance(self):
        """A registry key that begins with "quadratic" names its registered
        problem, and a token whose name is not exactly "quadratic" is looked
        up in the registry."""
        testproblems.register_problem("quadratic_bk1", testproblems.bk1)
        try:
            spec = ExperimentSpec(problem="quadratic_bk1", algorithms=("bbpgmo",), trials=1)
            assert run_campaign(spec).problem_name == "BK1"
        finally:
            del testproblems._REGISTRY["quadratic_bk1"]
        spec = ExperimentSpec(problem="quadraticfoo:n=2", algorithms=("bbpgmo",), trials=1)
        with pytest.raises(UnknownProblemError, match="quadraticfoo:n=2"):
            run_campaign(spec)


class TestCampaign:
    def test_shared_starts_across_algorithms(self):
        spec = ExperimentSpec(
            problem="BK1", algorithms=("bbpgmo", "pgmo_L"), trials=3, seed=4
        )
        summary = run_campaign(spec)
        assert len(summary.raw) == 6
        for trial in range(3):
            hashes = {r["x0_hash"] for r in summary.raw if r["trial"] == trial}
            assert len(hashes) == 1
        # different trials draw different starts
        assert len({r["x0_hash"] for r in summary.raw}) == 3

    def test_deterministic_modulo_time(self):
        spec = ExperimentSpec(
            problem="quadratic:n=3", algorithms=("bbpgmo",), trials=4, seed=9
        )
        a = run_campaign(spec)
        b = run_campaign(spec)
        for ra, rb in zip(a.raw, b.raw):
            for key in ("trial", "algo", "x0_hash", "status", "iterations", "fevals"):
                assert ra[key] == rb[key]
        assert a.pareto == b.pareto

    def test_summary_rows(self):
        spec = ExperimentSpec(
            problem="BK1", algorithms=("bbpgmo", "pgmo_fixed"), trials=3, seed=0
        )
        summary = run_campaign(spec)
        assert [row["algo"] for row in summary.rows] == ["bbpgmo", "pgmo_fixed"]
        for row in summary.rows:
            assert row["failures"] == 0
            assert row["iter_mean"] > 0
        assert summary.hard_failures == 0
        assert summary.n == 2 and summary.m == 2

    def test_reports_kept_per_trial(self):
        spec = ExperimentSpec(problem="BK1", algorithms=("bbpgmo",), trials=2, seed=0)
        summary = run_campaign(spec)
        assert len(summary.reports) == 2
        assert summary.reports[0]["bbpgmo"].status == "critical_point"

    def test_simplex_problem_samples_simplex(self):
        spec = ExperimentSpec(
            problem="markowitz", algorithms=("bbpgmo",), trials=2, seed=1
        )
        summary = run_campaign(spec)
        problem = testproblems.get_problem("markowitz")
        for trial in range(2):
            rng = np.random.default_rng(_child_seed(spec, trial + 1))
            x0 = rng.dirichlet(np.ones(8))
            assert problem.is_feasible(x0)  # Dirichlet starts are feasible
            (row,) = (r for r in summary.raw if r["trial"] == trial)
            assert row["x0_hash"] == hashlib.sha1(x0.tobytes()).hexdigest()[:12]

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_box_kind_problem_samples_its_box(self, jobs):
        """A problem without bounds whose kind is a box draws each start
        uniformly in that box, and its campaign runs; an infinite box is
        refused before any solve."""
        key = "bench-test-box-kind"

        def factory(upper=1.0):
            qspec = testproblems.QuadraticSpec(n=3, xl=None, xu=None, g_kind="zero")
            problem = testproblems.random_quadratic(qspec, 2)
            box = BoxIndicator((-1.0, -0.5, 0.0), (upper,) * 3)
            return dataclasses.replace(problem, nonsmooth=box)

        testproblems.register_problem(key, factory)
        testproblems.register_problem(f"{key}-inf", lambda: factory(np.inf))
        try:
            spec = ExperimentSpec(problem=key, algorithms=("bbpgmo", "pgmo_ls"),
                                  trials=3, seed=4, jobs=jobs)
            summary = run_campaign(spec)
            with pytest.raises(ValueError, match="start sampling needs a finite box"):
                run_campaign(dataclasses.replace(spec, problem=f"{key}-inf"))
        finally:
            del testproblems._REGISTRY[key], testproblems._REGISTRY[f"{key}-inf"]
        assert summary.hard_failures == 0
        for trial in range(3):
            rng = np.random.default_rng(_child_seed(spec, trial + 1))
            x0 = rng.uniform((-1.0, -0.5, 0.0), (1.0,) * 3)
            hashes = {r["x0_hash"] for r in summary.raw if r["trial"] == trial}
            assert hashes == {hashlib.sha1(x0.tobytes()).hexdigest()[:12]}
            assert factory().is_feasible(x0)

    def test_child_seed_matches_full_spawn(self):
        for seed in (0, 5, 123456789):
            spec = ExperimentSpec(
                problem="BK1", algorithms=("bbpgmo",), trials=200, seed=seed
            )
            spawned = np.random.SeedSequence(seed).spawn(spec.trials + 1)
            for i in (0, 1, 57, 200):
                child = _child_seed(spec, i)
                np.testing.assert_array_equal(
                    child.generate_state(8), spawned[i].generate_state(8)
                )
                np.testing.assert_array_equal(
                    np.random.default_rng(child).random(4),
                    np.random.default_rng(spawned[i]).random(4),
                )

    def test_jobs_do_not_change_results(self):
        spec = ExperimentSpec(
            problem="quadratic:n=3", algorithms=("bbpgmo", "pgmo_mu"), trials=4, seed=3
        )
        serial = run_campaign(spec)
        pooled = run_campaign(ExperimentSpec(**{**vars(spec), "jobs": 2}))

        def untimed(rows):
            return [{k: v for k, v in r.items() if k != "time_ms"} for r in rows]

        assert untimed(pooled.raw) == untimed(serial.raw)
        assert pooled.pareto == serial.pareto
        # every trace column but the wall times crosses the pool unchanged
        fields = dataclasses.fields(moprox.TraceRecord)
        columns = [f.name for f in fields if f.name != "time_s"]
        for serial_trial, pooled_trial in zip(serial.reports, pooled.reports, strict=True):
            for token, report in serial_trial.items():
                got, want = pooled_trial[token].trace, report.trace
                assert len(got) == len(want) > 0
                for name in columns:
                    np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_configs_built_once_per_token(self, monkeypatch):
        """Each distinct token is parsed into its SolverConfig once per
        campaign, not once per trial."""
        calls = []
        original = bench.algo_config

        def counted(token, *args):
            calls.append(token)
            return original(token, *args)

        monkeypatch.setattr(bench, "algo_config", counted)
        spec = ExperimentSpec(
            problem="BK1", algorithms=("bbpgmo", "pgmo_ls:ell=2", "bbpgmo"), trials=4
        )
        run_campaign(spec)
        assert calls == ["bbpgmo", "pgmo_ls:ell=2"]

    def test_duplicate_token_solves_again(self):
        """A repeated token runs its solve again in every trial: its rows
        repeat the first occurrence's, and reports keep one per token."""
        single = run_campaign(
            ExperimentSpec(problem="BK1", algorithms=("bbpgmo", "pgmo_L"), trials=3, seed=2)
        )
        double = run_campaign(
            ExperimentSpec(
                problem="BK1", algorithms=("bbpgmo", "pgmo_L", "bbpgmo"), trials=3, seed=2
            )
        )

        def untimed(row):
            return {k: v for k, v in row.items() if k != "time_ms"}

        expected = []
        for trial in range(3):
            first, second = single.raw[2 * trial : 2 * trial + 2]
            expected += [untimed(first), untimed(second), untimed(first)]
        assert [untimed(r) for r in double.raw] == expected
        assert [r["algo"] for r in double.rows] == ["bbpgmo", "pgmo_L", "bbpgmo"]
        assert double.rows[0]["iter_mean"] == double.rows[2]["iter_mean"]
        assert [sorted(r) for r in double.reports] == [["bbpgmo", "pgmo_L"]] * 3
        assert double.pareto[2] == {**double.pareto[0], "algo": "bbpgmo"}

    def test_hard_failures_counted(self, bad_gradient_problem):
        spec = ExperimentSpec(
            problem=bad_gradient_problem, algorithms=("pgmo_ls",), trials=2, seed=0
        )
        summary = run_campaign(spec)
        assert summary.hard_failures == 2
        assert summary.rows[0]["failures"] == 2

    def test_campaign_survives_a_raising_solve(self, poisoned_start_problem, tmp_path):
        """A solve that raises something other than EvaluationError becomes
        its trial's row: status "exception" (a hard failure), zero counters
        and the error text, no report and no pareto row. The other trials
        run as usual, and the exports still write."""
        spec = ExperimentSpec(
            problem=poisoned_start_problem, algorithms=("bbpgmo", "pgmo_ls"), trials=4,
            seed=0,
        )
        summary = run_campaign(spec)
        bad = [r for r in summary.raw if r["trial"] == 1]
        assert [r["status"] for r in bad] == ["exception"] * 2
        assert all(r["error"] == "RuntimeError: poisoned start" for r in bad)
        assert all(r["iterations"] == r["fevals"] == r["prox_evals"] == 0 for r in bad)
        others = [r for r in summary.raw if r["trial"] != 1]
        assert {r["status"] for r in others} == {"critical_point"}
        assert not any("error" in r for r in others)
        assert summary.hard_failures == 2
        assert [row["failures"] for row in summary.rows] == [1, 1]
        assert summary.reports[1] == {}
        assert [(r["trial"], r["algo"]) for r in summary.pareto] == [
            (t, a) for t in (0, 2, 3) for a in ("bbpgmo", "pgmo_ls")
        ]
        export_results(summary, str(tmp_path))
        with open(tmp_path / "runs.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-1] == "error" and rows[3][-1] == "RuntimeError: poisoned start"
        assert {row[-1] for row in rows[1:3] + rows[5:]} == {""}

    def test_pool_has_no_more_workers_than_trials(self, monkeypatch):
        """The pool forks all its workers at its first submit, so --jobs
        above --trials would fork idle interpreters. A fake pool records
        the size it is asked for and maps in this process; none is
        started."""
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # run_campaign imports the pool from concurrent.futures when jobs > 1
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        spec = ExperimentSpec(problem="BK1", algorithms=("bbpgmo",), trials=2, seed=1)
        serial = run_campaign(spec)
        pooled = run_campaign(ExperimentSpec(**{**vars(spec), "jobs": 64}))
        assert sizes == [2]

        def untimed(rows):
            return [{k: v for k, v in r.items() if k != "time_ms"} for r in rows]

        assert untimed(pooled.raw) == untimed(serial.raw)
        assert pooled.pareto == serial.pareto

    def test_jobs_do_not_change_a_raising_campaign(self, poisoned_start_problem):
        spec = ExperimentSpec(
            problem=poisoned_start_problem, algorithms=("bbpgmo", "pgmo_ls"), trials=4,
            seed=0,
        )
        serial = run_campaign(spec)
        pooled = run_campaign(ExperimentSpec(**{**vars(spec), "jobs": 2}))

        def untimed(rows):
            return [{k: v for k, v in r.items() if k != "time_ms"} for r in rows]

        # repr: the raising rows' stepsize_mean is NaN
        assert repr(untimed(pooled.raw)) == repr(untimed(serial.raw))
        assert pooled.pareto == serial.pareto
        assert pooled.hard_failures == serial.hard_failures == 2

    def test_solves_that_all_stop_at_k0_have_a_nan_stepsize_mean(self):
        """Every solve of a problem whose gradients vanish is critical at
        x0, so no trial has a step; the stepsize mean is NaN without numpy's
        "Mean of empty slice" warning, which this suite turns into an
        error."""
        key = "bench-test-flat"
        flat = SmoothComponent(value=lambda x: 0.0, gradient=lambda x: np.zeros(2),
                               lipschitz=1.0)
        testproblems.register_problem(key, lambda: MCOProblem(
            n=2, smooth=(flat, flat), bounds=(np.zeros(2), np.ones(2)), name=key
        ))
        try:
            summary = run_campaign(ExperimentSpec(
                problem=key, algorithms=("bbpgmo", "pgmo_separate"), trials=3
            ))
        finally:
            del testproblems._REGISTRY[key]
        assert {r["status"] for r in summary.raw} == {"critical_point"}
        for row in summary.rows:
            assert row["iter_mean"] == 0.0
            assert np.isnan(row["stepsize_mean"])

    def test_evaluation_failure_is_hard(self):
        statuses = ("evaluation_failure", "max_iters", "critical_point")
        raw = [{"status": s} for s in statuses]
        summary = ExperimentSummary(
            spec=ExperimentSpec(problem="BK1", algorithms=("bbpgmo",)),
            problem_name="BK1", n=2, m=2, rows=[], raw=raw,
        )
        assert summary.hard_failures == 1

    @pytest.mark.parametrize(
        "problem, algorithms, trials, seed, totals",
        [
            ("markowitz", ("bbpgmo", "pgmo_fixed"), 3, 1, (1206, 1222, 8788)),
            ("quadratic:n=2", ("bbpgmo", "pgmo_separate", "pgmo_mu"), 20, 5, (624, 624, 2361)),
            (_QUAD_M4, ("bbpgmo", "abbpgmo", "pgmo_ls"), 3, 5, (247, 899, 1541)),
            (_QUAD_M4, ("pgmo_ls",), 4, 5, (128, 784, 692)),
        ],
        ids=("markowitz", "quadratic_n2", "quad_m4", "quad_m4_cycling_dual"),
    )
    def test_work_counters_are_pinned(self, problem, algorithms, trials, seed, totals):
        """The deterministic work counters are the performance regression
        gate: exact totals of iterations, F evaluations and prox calls over
        short seeded campaigns. A change that moves one must say why; fewer
        prox calls for the same iterations and F evaluations is a speed-up
        that left the iterates alone. The m = 4 cases run the pairwise
        Frank-Wolfe, face Newton and abbpgmo re-solve paths; pgmo_ls trial 3
        holds a dual whose multiplier cycles at the roundoff floor, which
        the solver ends at the first repeat instead of at its 2000-iteration
        cap."""
        if problem == _QUAD_M4 and problem not in testproblems.available_problems():
            testproblems.register_problem(problem, _quad_m4)
        summary = run_campaign(
            ExperimentSpec(problem=problem, algorithms=algorithms, trials=trials, seed=seed)
        )
        got = tuple(
            sum(row[key] for row in summary.raw)
            for key in ("iterations", "fevals", "prox_evals")
        )
        assert got == totals


class TestExport:
    def _read(self, path):
        with open(path) as fh:
            return list(csv.reader(fh))

    def test_csv_schemas_and_svg(self, tmp_path):
        spec = ExperimentSpec(
            problem="BK1", algorithms=("bbpgmo", "pgmo_L"), trials=3, seed=2
        )
        summary = run_campaign(spec)
        written = export_results(summary, str(tmp_path))
        names = sorted(p.rsplit("/", 1)[-1] for p in written)
        assert names == [
            "pareto.csv",
            "pareto_values.svg",
            "pareto_variables.svg",
            "runs.csv",
            "summary.csv",
        ]

        rows = self._read(tmp_path / "summary.csv")
        assert rows[0] == [
            "algo",
            "iter_mean",
            "feval_mean",
            "time_ms_mean",
            "stepsize_mean",
            "failures",
        ]
        assert len(rows) == 3

        rows = self._read(tmp_path / "runs.csv")
        assert rows[0] == [
            "trial",
            "algo",
            "x0_hash",
            "status",
            "iterations",
            "fevals",
            "grad_evals",
            "prox_evals",
            "stepsize_mean",
            "time_ms",
        ]
        assert len(rows) == 1 + 6

        rows = self._read(tmp_path / "pareto.csv")
        assert rows[0] == ["trial", "algo", "F1", "F2", "x1", "x2"]
        # final objective vectors survive the round trip exactly
        first = summary.pareto[0]
        assert float(rows[1][2]) == first["F1"]
        assert float(rows[1][3]) == first["F2"]

        svg = (tmp_path / "pareto_values.svg").read_text()
        assert svg.lstrip().startswith("<svg")
        assert "F1" in svg and "F2" in svg

    def test_svg_skips_nonfinite_points(self):
        """An F = NaN row (an evaluation failure at the start) is not drawn and
        does not turn the axis ticks into NaN, also when it comes first; a
        series with no finite point keeps its legend entry."""
        nan = float("nan")
        svg = scatter_svg(
            {"a": ([nan, 1.0, 2.0], [nan, 3.0, 4.0]), "b": ([nan], [1.0])},
            "F1", "F2", "t",
        )
        assert "nan" not in svg
        # two points of "a" and the two legend markers
        assert svg.count("<circle") == 4
        assert ">b</text>" in svg
        finite = scatter_svg({"a": ([1.0, 2.0], [3.0, 4.0]), "b": ([], [])}, "F1", "F2", "t")
        assert svg == finite

    def test_svg_with_no_finite_point(self):
        """When no point is finite the axes fall back to [0, 1]: the output
        still parses, keeps one legend entry per series and draws no data
        circle (data circles have r = 3, legend markers r = 4)."""
        nan, inf = float("nan"), float("inf")
        svg = scatter_svg(
            {"a": ([nan, inf], [1.0, 2.0]), "b": ([3.0], [-inf]), "c": ([], [])},
            "F1", "F2", "t",
        )
        root = ElementTree.fromstring(svg)
        circles = list(root.iter("{http://www.w3.org/2000/svg}circle"))
        assert [el.get("r") for el in circles] == ["4", "4", "4"]
        legend = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")
                  if el.get("font-size") == "12"]
        assert legend == ["a", "b", "c"]
        assert "nan" not in svg and "inf" not in svg

    def test_svg_coordinates_finite_on_degenerate_ranges(self):
        """One point at 1e17, where the 0.05 padding is lost below one ulp,
        and two points whose span overflows: every coordinate written is
        finite, each point is drawn inside the axes, and no tick label reads
        inf or nan (at 4 digits, MAX_FLOAT itself shows as 1.798e+308)."""
        for xs, ys in (([1e17], [2.0]), ([-1.7e308, 1.7e308], [2.0, 3.0])):
            root = ElementTree.fromstring(scatter_svg({"a": (xs, ys)}, "F1", "F2", "t"))
            coords = [float(value) for el in root.iter() for name, value in el.attrib.items()
                      if name in ("x", "y", "x1", "x2", "y1", "y2", "cx", "cy")]
            assert coords and all(math.isfinite(c) for c in coords)
            points = [el for el in root.iter("{http://www.w3.org/2000/svg}circle")
                      if el.get("r") == "3"]
            assert len(points) == len(xs)
            for el in points:
                assert 64.0 <= float(el.get("cx")) <= 490.0
                assert 40.0 <= float(el.get("cy")) <= 424.0
            ticks = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")
                     if el.get("font-size") == "11"]
            assert len(ticks) == 10
            assert not any("inf" in t or "nan" in t for t in ticks)

    def test_svg_escapes_text(self):
        """Title, axis and legend labels holding &, < or > give well-formed
        XML that reads back as the original text."""
        svg = scatter_svg({"a<b&c": ([1.0], [2.0])}, "F1 & F2", "<F2>", "R&D <test>")
        texts = [el.text for el in ElementTree.fromstring(svg).iter(
            "{http://www.w3.org/2000/svg}text")]
        assert {"a<b&c", "F1 & F2", "<F2>", "R&D <test>"} <= set(texts)

    def test_no_value_svg_for_three_objectives(
        self, tmp_path, three_objective_problem, capsys
    ):
        spec = ExperimentSpec(
            problem=three_objective_problem, algorithms=("bbpgmo",), trials=2, seed=0
        )
        summary = run_campaign(spec)
        written = export_results(summary, str(tmp_path))
        names = sorted(p.rsplit("/", 1)[-1] for p in written)
        assert "pareto_values.svg" not in names
        assert "pareto_variables.svg" in names  # n = 2 still draws x space
        assert "scatter is only drawn" in capsys.readouterr().err
        rows = self._read(tmp_path / "pareto.csv")
        assert rows[0] == ["trial", "algo", "F1", "F2", "F3", "x1", "x2"]


class TestCLI:
    def test_run_smoke(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code = main(
            [
                "run",
                "--problem",
                "BK1",
                "--algos",
                "bbpgmo,pgmo_L",
                "--trials",
                "2",
                "--seed",
                "0",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "problem BK1" in printed
        assert "bbpgmo" in printed
        assert (out_dir / "summary.csv").exists()

    def test_quadratic_token_sets_the_objective_count(self, capsys):
        """quadratic:n=10,m=3 runs a campaign on a three-objective instance."""
        code = main(["run", "--problem", "quadratic:n=10,m=3", "--algos", "bbpgmo,abbpgmo",
                     "--trials", "2", "--seed", "4"])
        assert code == 0
        assert "n=10 m=3" in capsys.readouterr().out

    def test_run_list(self, capsys):
        """``run -h`` lists the registry keys in --problem's help."""
        with pytest.raises(SystemExit) as exc:
            main(["run", "-h"])
        assert exc.value.code == 0
        helped = capsys.readouterr().out
        assert "BK1" in helped and "markowitz" in helped

    @staticmethod
    def _args_file(path, lines):
        path.write_text("".join(f"{line}\n" for line in lines))
        return f"@{path}"

    @pytest.mark.parametrize("sep", ("_", "-"))
    def test_config_file_matches_flags(self, tmp_path, capsys, sep):
        """An @FILE does exactly what the same options as flags do, whichever
        separator the two-word options use: with '-' both write the same runs
        (time aside) and pareto files; '_' spells no option, so both exit 2
        with the same usage error."""
        flags = ["--problem=quadratic:n=2,xl=-1,xu=1", "--algos=bbpgmo, pgmo_ls:ell=2",
                 "--trials=3", "--seed=11", f"--d{sep}tol=1e-5", f"--max{sep}iters=200"]
        args_file = self._args_file(tmp_path / "campaign.args", flags)

        def outcome(argv, out):
            try:
                assert main(["run", *argv, "--out", str(tmp_path / out)]) == 0
            except SystemExit as exc:
                return exc.code, capsys.readouterr().err
            capsys.readouterr()
            tables = []
            for name, drop in (("runs.csv", ("time_ms",)), ("pareto.csv", ())):
                with open(tmp_path / out / name) as fh:
                    rows = list(csv.reader(fh))
                keep = [i for i, c in enumerate(rows[0]) if c not in drop]
                tables.append([[row[i] for i in keep] for row in rows])
            return tables

        from_file = outcome([args_file], "a")
        assert from_file == outcome(flags, "b")
        if sep == "-":
            assert [len(table) for table in from_file] == [1 + 3 * 2] * 2
        else:
            code, err = from_file
            assert code == 2
            assert "unrecognized arguments: --d_tol=1e-5 --max_iters=200" in err

    def test_args_file_with_cli_override(self, tmp_path, capsys):
        args_file = self._args_file(
            tmp_path / "campaign.args",
            ["--problem=BK1", "--algos=bbpgmo", "--trials=5", "--seed=3"],
        )
        assert main(["run", args_file, "--trials", "2"]) == 0
        printed = capsys.readouterr().out
        assert "trials=2" in printed       # the later flag wins
        assert "seed=3" in printed         # the file fills the rest

    @pytest.mark.parametrize(
        "line, message",
        (("--budget=9", "unrecognized arguments: --budget=9"),
         ("--trials=many", "invalid int value: 'many'")),
        ids=("unknown_option", "bad_value"),
    )
    def test_args_file_bad_option(self, tmp_path, capsys, line, message):
        """A bad option or value in a file is a usage error, as on the
        command line."""
        args_file = self._args_file(
            tmp_path / "campaign.args", ["--problem=BK1", "--algos=bbpgmo", line]
        )
        with pytest.raises(SystemExit) as exc:
            main(["run", args_file])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_missing_problem_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--algos", "bbpgmo"])
        assert exc.value.code == 2
        assert "the following arguments are required: --problem" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        ((["--problem", "nope"], "unknown problem 'nope'; available: BK1"),
         (["--trials", "0"], "trials must be positive"),
         (["--seed", "-1"], "seed must be nonnegative"),
         (["--d-tol", "nan"], "need 0 < d_tol < inf"),
         (["--algos", "foo"], "unknown algorithm 'foo'"),
         (["--problem", "quadratic:n=2.5"],
          "invalid int value '2.5' for 'n' in 'quadratic:n=2.5'"),
         (["--problem", "markowitz", "--algos", "pgmo_separate,bbpgmo", "--trials", "2"],
          "pgmo_separate needs finite positive Lipschitz constants"),
         (["--algos", "pgmo_fixed:ell=0.5", "--trials", "2"],
          "pgmo_fixed needs ell > L_max / 2"),
         (["--algos", "pgmo_ls:ell=-1", "--trials", "2"],
          "pgmo_ls needs finite positive ell")),
        ids=("unknown_problem", "trials", "seed", "d_tol", "unknown_algorithm", "token_value",
             "mode_needs_constants", "fixed_ell_too_small", "nonpositive_ell"),
    )
    def test_invalid_campaign_is_a_usage_error(self, flags, message, capsys):
        """A campaign that cannot start exits 2 with the usage line and the
        reason, as a malformed flag does; exit 1 is left to hard failures.
        A mode its problem cannot run is such a campaign: markowitz's return
        objective has L = 0, and BK1 refuses ell = 0.5 for pgmo_fixed."""
        with pytest.raises(SystemExit) as exc:
            main(["run", "--problem", "BK1", "--algos", "bbpgmo", *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: bench run")
        assert f"bench run: error: {message}" in err

    def test_start_sampling_without_a_box_is_a_usage_error(self, capsys):
        """A problem with the Zero kind and no bounds gives a trial no set to
        draw its start from: ``bench run`` exits 2 with the reason before
        any solve evaluates it."""
        key = "bench-test-no-box"
        calls = []

        def factory():
            comp = SmoothComponent(
                value=lambda x: calls.append("F") or 0.5 * float(np.dot(x, x)),
                gradient=lambda x: calls.append("grad") or x.copy(),
                lipschitz=1.0,
            )
            return MCOProblem(n=2, smooth=(comp, comp), name=key)

        testproblems.register_problem(key, factory)
        try:
            with pytest.raises(SystemExit) as exc:
                main(["run", "--problem", key, "--algos", "bbpgmo", "--trials", "2"])
        finally:
            del testproblems._REGISTRY[key]
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: bench run")
        assert ("bench run: error: start sampling needs bounds, the box kind or "
                "the simplex kind") in err
        assert calls == []

    def test_hard_failures_exit_code(self, bad_gradient_problem, capsys):
        code = main(
            [
                "run",
                "--problem",
                bad_gradient_problem,
                "--algos",
                "pgmo_ls",
                "--trials",
                "2",
            ]
        )
        assert code == 1
        assert "hard failure" in capsys.readouterr().err

    def test_run_is_the_only_command(self, capsys):
        """The invariant checks live in the test suite; ``verify`` is unknown."""
        with pytest.raises(SystemExit) as exc:
            main(["verify"])
        assert exc.value.code == 2
        assert "invalid choice: 'verify'" in capsys.readouterr().err


def test_one_process_campaign_loads_no_pool_and_no_exporters():
    """A jobs=1 campaign starts no pool and writes no file, so after it
    neither multiprocessing nor concurrent.futures' process module, nor
    csv or moprox.svg, is loaded in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(moprox.__file__)))
    probe = (
        "import sys; from moprox import ExperimentSpec, run_campaign; "
        "run_campaign(ExperimentSpec(problem='BK1', algorithms=('bbpgmo',), trials=2)); "
        "print(sorted({'multiprocessing', 'concurrent.futures.process', 'csv', "
        "'moprox.svg'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout.strip() == "[]"


def test_package_import_defers_bench():
    """``import moprox`` loads neither bench nor its command-line imports;
    the bench names load on first use, and ``python -m moprox.bench`` runs
    without runpy's warning about a module the package already imported."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(moprox.__file__)))
    probe = (
        "import sys; before = set(sys.modules); import moprox; "
        "heavy = {'moprox.bench', 'argparse', 'csv', 'hashlib', 'concurrent.futures'}; "
        "assert not heavy & (set(sys.modules) - before), heavy & set(sys.modules); "
        "from moprox import ExperimentSpec, bench; "
        "assert ExperimentSpec is bench.ExperimentSpec is moprox.ExperimentSpec"
    )
    subprocess.run([sys.executable, "-c", probe], env=env, check=True)
    helped = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "moprox.bench",
         "run", "-h"],
        env=env, check=True, capture_output=True, text=True,
    )
    assert "markowitz" in helped.stdout
