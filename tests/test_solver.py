from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from pottsim import (
    AblationMode,
    DynamicsParams,
    Graph,
    IntegrationDivergedError,
    ShilSchedule,
    ablate,
    accuracy,
    bootstrap_mean_diff,
    config_to_settings,
    delta_energy,
    detect_convergence,
    detune_protocol_params,
    detune_sweep,
    effective_config,
    histogram_csv,
    integrate,
    random_init,
    report_csv,
    report_json,
    solve_multi,
    solve_once,
)
from pottsim import dynamics

from conftest import random_colorable_graph

FAST = DynamicsParams(t_max=20.0)
SCHED = ShilSchedule()


class TestSolveOnce:
    def test_edgeless_graph_scores_perfect(self):
        graph = Graph(5, np.empty((0, 2), dtype=int))
        record = solve_once(graph, FAST, SCHED, seed=0)
        assert record.accuracy == 1.0
        assert record.delta_energy == 0.0

    def test_k3_defaults_solve(self, k3):
        solved = sum(
            solve_once(k3, DynamicsParams(t_max=40.0), SCHED, seed=s).accuracy == 1.0
            for s in range(100)
        )
        assert solved >= 95

    def test_settle_exit_scores_like_the_full_horizon(self):
        graph = random_colorable_graph(30, 66, seed=4)
        params = DynamicsParams(t_max=40.0)
        for seed in range(6):
            record = solve_once(graph, params, SCHED, seed=seed)
            full = integrate(graph, random_init(30, seed), params, SCHED, seed=seed)
            assert record.cycles < params.t_max  # the run did stop early
            assert record.accuracy == accuracy(graph, full.final.coloring)
            assert record.delta_energy == delta_energy(graph, full.final.coloring)
            assert record.cycles == detect_convergence(full, SCHED.ramp_end)

    def test_deterministic_per_seed(self):
        graph = random_colorable_graph(15, 30, seed=0)
        a = solve_once(graph, FAST, SCHED, seed=3)
        b = solve_once(graph, FAST, SCHED, seed=3)
        assert a == b


class TestSolveMulti:
    def test_single_iteration_aggregate(self):
        graph = random_colorable_graph(12, 24, seed=1)
        report = solve_multi(graph, FAST, SCHED, iterations=1, base_seed=7)
        assert report.num_runs == 1
        assert report.avg_accuracy == report.best_accuracy == report.runs[0].accuracy

    def test_aggregate_recomputable_from_runs(self):
        graph = random_colorable_graph(12, 24, seed=1)
        report = solve_multi(graph, FAST, SCHED, iterations=8, base_seed=0)
        accs = [r.accuracy for r in report.runs]
        assert report.avg_accuracy == pytest.approx(np.mean(accs))
        assert report.best_accuracy == max(accs)
        assert sum(report.histogram) == report.num_runs
        assert [r.seed for r in report.runs] == list(range(8))

    def test_reproducible_and_jobs_invariant(self):
        graph = random_colorable_graph(12, 24, seed=2)
        serial = solve_multi(graph, FAST, SCHED, iterations=4, base_seed=0, benchmark="x")
        again = solve_multi(graph, FAST, SCHED, iterations=4, base_seed=0, benchmark="x")
        parallel = solve_multi(graph, FAST, SCHED, iterations=4, base_seed=0, benchmark="x", jobs=2)
        assert report_json(serial) == report_json(again) == report_json(parallel)

    def test_failing_run_names_its_seed(self, k3):
        params = DynamicsParams(coupling_gain=1e308, t_max=1.0)
        with pytest.raises(IntegrationDivergedError, match="seed 5"):
            solve_multi(k3, params, SCHED, iterations=1, base_seed=5)

    def test_rejects_zero_iterations(self, k3):
        with pytest.raises(ValueError):
            solve_multi(k3, FAST, SCHED, iterations=0, base_seed=0)


class TestAblate:
    def test_mode_none_matches_random_coloring_analysis(self):
        # a uniform random 3-coloring satisfies each edge with probability 2/3
        graph = random_colorable_graph(60, 140, seed=5)
        report = ablate(graph, FAST, SCHED, AblationMode.NONE, iterations=200, base_seed=0)
        assert report.avg_accuracy == pytest.approx(2 / 3, abs=0.035)
        assert all(r.cycles is None for r in report.runs)

    def test_sync_only_close_to_none(self):
        graph = random_colorable_graph(40, 90, seed=6)
        none = ablate(graph, FAST, SCHED, AblationMode.NONE, iterations=60, base_seed=0)
        sync = ablate(graph, FAST, SCHED, AblationMode.SYNC_ONLY, iterations=60, base_seed=0)
        assert abs(sync.avg_accuracy - none.avg_accuracy) < 0.05

    def test_sync_only_settles_after_the_ramp(self):
        # with no couplings the phases sit still until SHIL switches on
        graph = random_colorable_graph(40, 90, seed=6)
        sync = ablate(graph, FAST, SCHED, AblationMode.SYNC_ONLY, iterations=5, base_seed=0)
        assert all(SCHED.ramp_end <= r.cycles < FAST.t_max for r in sync.runs)

    def test_full_beats_sync_only(self):
        graph = random_colorable_graph(40, 90, seed=6)
        full = ablate(graph, FAST, SCHED, AblationMode.FULL, iterations=40, base_seed=0)
        sync = ablate(graph, FAST, SCHED, AblationMode.SYNC_ONLY, iterations=40, base_seed=0)
        lo, _ = bootstrap_mean_diff(
            [r.accuracy for r in full.runs], [r.accuracy for r in sync.runs], seed=1
        )
        assert lo > 0.0

    def test_mode_recorded_in_config(self):
        graph = random_colorable_graph(12, 24, seed=1)
        report = ablate(graph, FAST, SCHED, AblationMode.COUPLINGS_ONLY, iterations=2, base_seed=0)
        assert report.params["mode"] == "couplings_only"

    def test_accepts_mode_strings(self):
        graph = random_colorable_graph(12, 24, seed=1)
        report = ablate(graph, FAST, SCHED, "none", iterations=2, base_seed=0)
        assert report.params["mode"] == "none"


class TestDetuneSweep:
    def test_zero_and_far_detuning_limits(self):
        graph = random_colorable_graph(20, 44, seed=7)
        params = dataclasses.replace(detune_protocol_params(), t_max=20.0)
        sweep = detune_sweep(graph, params, SCHED, deltas=[0.0, 400.0], iterations=3)
        by_delta = dict(sweep)
        assert by_delta[0.0] < 1.5
        assert 20.0 < by_delta[400.0] < 40.0

    def test_requires_deltas(self, k3):
        with pytest.raises(ValueError):
            detune_sweep(k3, FAST, SCHED, deltas=[], iterations=1)
        with pytest.raises(ValueError, match="iterations must be >= 1"):
            detune_sweep(k3, FAST, SCHED, deltas=[0.0], iterations=0)


class TestBootstrap:
    def test_identical_samples_cover_zero(self):
        xs = [0.5, 0.6, 0.7, 0.8] * 10
        lo, hi = bootstrap_mean_diff(xs, xs, seed=0)
        assert lo <= 0.0 <= hi

    def test_shifted_samples_recover_shift(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(0.9, 0.02, 100)
        ys = rng.normal(0.6, 0.02, 100)
        lo, hi = bootstrap_mean_diff(xs, ys, seed=0)
        assert 0.28 < lo < hi < 0.32

    def test_deterministic(self):
        xs, ys = [1.0, 2.0, 3.0], [0.5, 1.5]
        assert bootstrap_mean_diff(xs, ys, seed=3) == bootstrap_mean_diff(xs, ys, seed=3)


class TestReports:
    @pytest.fixture
    def report(self):
        graph = random_colorable_graph(12, 24, seed=3)
        return solve_multi(graph, FAST, SCHED, iterations=5, base_seed=2, benchmark="tiny")

    def test_json_schema(self, report):
        doc = json.loads(report_json(report))
        assert doc["benchmark"] == "tiny"
        assert doc["params"]["iterations"] == 5
        assert doc["params"]["base_seed"] == 2
        assert doc["params"]["dynamics"]["shil_gain_max"] == 2.0
        assert len(doc["runs"]) == 5
        agg = doc["aggregate"]
        assert set(agg) >= {"avg_accuracy", "best_accuracy", "mean_cycles", "num_runs", "histogram"}
        assert sum(agg["histogram"]) == 5

    def test_csv_rows(self, report):
        lines = report_csv(report).strip().split("\n")
        assert lines[0].startswith("# ")
        assert lines[1] == "seed,accuracy,delta_energy,vector_energy,cycles"
        assert len(lines) == 2 + 5

    def test_histogram_csv(self, report):
        lines = histogram_csv(report).strip().split("\n")
        assert lines[0] == "bin_low,bin_high,count"
        assert len(lines) == 101
        assert sum(int(ln.split(",")[2]) for ln in lines[1:]) == 5

    def test_config_round_trip(self, report):
        params, schedule, iterations, base_seed = config_to_settings(report.params)
        assert params == FAST
        assert schedule == SCHED
        assert (iterations, base_seed) == (5, 2)
        assert effective_config(FAST, SCHED, 5, 2)["convergence"] == {
            "window": dynamics.CONVERGENCE_WINDOW, "eps": dynamics.CONVERGENCE_EPS,
        }

    def test_config_survives_json(self, report):
        cfg = json.loads(json.dumps(report.params))
        params, schedule, _, _ = config_to_settings(cfg)
        assert params == FAST and schedule == SCHED
