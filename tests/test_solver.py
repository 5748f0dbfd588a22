from __future__ import annotations

import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pottsim import DynamicsParams, dynamics, solve_multi, solver
from pottsim.graph_io import Graph
from pottsim.potts import accuracy, delta_energy
from pottsim.dynamics import IntegrationDivergedError, integrate_block, random_init
from pottsim.solver import (
    LOCKSTEP_ROWS,
    AblationMode,
    _detune_task,
    _run_batch,
    _run_task,
    detune_protocol_params,
    detune_sweep,
    effective_config,
    report_csv,
    report_json,
)

from conftest import random_colorable_graph
from helpers import bootstrap_mean_diff, last_checkpoint
from strategies import graphs

FAST = DynamicsParams(t_max=20.0)


def run_alone(graph, params, seed):
    """One restart run alone: a block of one row."""
    return _run_task(((graph, params, None), [seed]))[0]


class TestRunTask:
    """`_run_task`: restart runs scored from their last checkpoints, most of them alone."""

    def test_edgeless_graph_scores_perfect(self):
        graph = Graph(5, np.empty((0, 2), dtype=int))
        record = run_alone(graph, FAST, seed=0)
        assert record.accuracy == 1.0
        assert record.delta_energy == 0.0

    def test_k3_defaults_solve(self, k3):
        # the 100 restarts run as one lockstep block
        params = DynamicsParams(t_max=40.0)
        records = _run_task(((k3, params, None), range(100)))
        assert sum(r.accuracy == 1.0 for r in records) >= 95

    def test_settle_exit_scores_like_the_full_horizon(self):
        graph = random_colorable_graph(30, 66, seed=4)
        params = DynamicsParams(t_max=40.0)
        for seed in range(6):
            record = run_alone(graph, params, seed=seed)
            # the same run to t_max, without the settle exit
            _, final = last_checkpoint(integrate_block(
                graph, [random_init(30, seed)], params, [seed]))
            assert final.time == pytest.approx(params.t_max)
            assert record.cycles < params.t_max  # the run did stop early
            assert [record.accuracy] == accuracy(graph, final.spins).tolist()
            assert [record.delta_energy] == delta_energy(graph, final.spins).tolist()
            assert [record.cycles] == final.settled_at.tolist()

    def test_deterministic_per_seed(self):
        graph = random_colorable_graph(15, 30, seed=0)
        a = run_alone(graph, FAST, seed=3)
        b = run_alone(graph, FAST, seed=3)
        assert a == b


def split(tasks: list, cuts: list[int]) -> list[list]:
    """Consecutive blocks of `tasks` whose sizes cycle through `cuts`."""
    blocks, i = [], 0
    while i < len(tasks):
        size = cuts[len(blocks) % len(cuts)] if cuts else len(tasks)
        blocks.append(tasks[i:i + size])
        i += size
    return blocks


def tag_with_block_size(block):
    """A batch task that pairs each of its rows with its block's size."""
    shared, rows = block
    assert shared == "shared"
    return [(len(rows), row) for row in rows]


class TestLockstepBlocks:
    @pytest.mark.parametrize("num_tasks, jobs", [(1, 1), (10, 2), (41, 2), (100, 2), (7, 3)])
    def test_batch_deal(self, num_tasks, jobs):
        results = _run_batch(tag_with_block_size, "shared", list(range(num_tasks)), jobs)
        assert [arg for _, arg in results] == list(range(num_tasks))
        sizes, i = [], 0
        while i < num_tasks:
            size = results[i][0]
            assert all(s == size for s, _ in results[i:i + size])
            sizes.append(size)
            i += size
        assert i == num_tasks
        assert max(sizes) <= LOCKSTEP_ROWS
        assert max(sizes) - min(sizes) <= 1
        if num_tasks >= jobs:
            assert len(sizes) % jobs == 0

    @pytest.mark.parametrize("num_tasks, jobs, pools", [(1, 4, []), (3, 4, [3]), (100, 2, [2])])
    def test_pool_has_no_more_workers_than_blocks(self, monkeypatch, num_tasks, jobs, pools):
        # a forked pool starts all of its workers at once, used or not
        opened = []

        class InProcessPool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        monkeypatch.setattr(solver, "ProcessPoolExecutor", InProcessPool)
        results = _run_batch(tag_with_block_size, "shared", list(range(num_tasks)), jobs)
        assert [arg for _, arg in results] == list(range(num_tasks))
        assert opened == pools

    @settings(max_examples=20, deadline=None)
    @given(
        graph=graphs(max_vertices=8),
        seeds=st.lists(st.integers(0, 10**6), min_size=1, max_size=6, unique=True),
        cuts=st.lists(st.integers(1, 6), max_size=4),
        noise=st.sampled_from([0.0, 0.3]),
        detunings=st.lists(st.sampled_from([0.0, 1e-5, -2.0]), min_size=6, max_size=6),
    )
    def test_records_do_not_depend_on_the_block(self, graph, seeds, cuts, noise, detunings):
        # each row alone is the reference; a solve block shares its params,
        # a sweep's rows differ in their rate
        params = DynamicsParams(noise_amplitude=noise, detuning=detunings[0], t_max=14.0)
        records = [r for block in split(seeds, cuts)
                   for r in _run_task(((graph, params, None), block))]
        assert records == [run_alone(graph, params, s) for s in seeds]
        shared = (graph, dataclasses.replace(params, detuning=0.0))
        rows = list(zip(seeds, detunings))
        devs = [d for block in split(rows, cuts) for d in _detune_task((shared, block))]
        assert devs == [_detune_task((shared, [row]))[0] for row in rows]

        # mixed rates with the settle exit: only the flows among them leave early
        def run(block):
            """Each row's time, Lyapunov value, settle time (None if unsettled)
            and phase bytes at its end."""
            row_seeds, rates = zip(*block)
            ends = {}
            for rows, cp in integrate_block(
                    graph, [random_init(graph.num_vertices, s) for s in row_seeds],
                    shared[1], row_seeds, rates, settle_exit=True):
                for r, lyap, at, phases in zip(rows, cp.lyapunov.tolist(),
                                               cp.settled_at.tolist(), cp.phases):
                    ends[r] = (cp.time, lyap, None if np.isnan(at) else at, phases.tobytes())
            return [ends[r] for r in range(len(block))]

        ends = [end for block in split(rows, cuts) for end in run(block)]
        assert ends == [end for row in rows for end in run([row])]

    def test_diverged_row_fails_by_its_seed(self, k3):
        # detuning * t overflows to inf near t = 1.06 in the middle row only
        shared = (k3, DynamicsParams(t_max=2.0, t_on=0.0, ramp=0.0))
        rows = [(11, 0.0), (12, 1.7e308), (13, 0.0)]
        with pytest.raises(IntegrationDivergedError, match="seed 12"):
            _detune_task((shared, rows))
        assert len(_detune_task((shared, [rows[0], rows[2]]))) == 2


class TestSolveMulti:
    def test_single_iteration_aggregate(self):
        graph = random_colorable_graph(12, 24, seed=1)
        report = solve_multi(graph, FAST, iterations=1, base_seed=7)
        assert report.num_runs == 1
        assert report.avg_accuracy == report.best_accuracy == report.runs[0].accuracy

    def test_aggregate_recomputable_from_runs(self):
        graph = random_colorable_graph(12, 24, seed=1)
        report = solve_multi(graph, FAST, iterations=8, base_seed=0)
        accs = [r.accuracy for r in report.runs]
        assert report.avg_accuracy == pytest.approx(np.mean(accs))
        assert report.best_accuracy == max(accs)
        assert sum(report.histogram) == report.num_runs
        assert [r.seed for r in report.runs] == list(range(8))

    def test_reproducible_and_jobs_invariant(self):
        graph = random_colorable_graph(12, 24, seed=2)
        serial = solve_multi(graph, FAST, iterations=4, base_seed=0, benchmark="x")
        again = solve_multi(graph, FAST, iterations=4, base_seed=0, benchmark="x")
        parallel = solve_multi(graph, FAST, iterations=4, base_seed=0, benchmark="x", jobs=2)
        assert report_json(serial) == report_json(again) == report_json(parallel)

    def test_failing_run_names_its_seed(self, k3):
        params = DynamicsParams(coupling_gain=1e308, t_max=1.0)
        with pytest.raises(IntegrationDivergedError, match="seed 5"):
            solve_multi(k3, params, iterations=1, base_seed=5)

    def test_rejects_zero_iterations(self, k3):
        with pytest.raises(ValueError):
            solve_multi(k3, FAST, iterations=0, base_seed=0)


class TestAblate:
    def test_mode_none_matches_random_coloring_analysis(self):
        # a uniform random 3-coloring satisfies each edge with probability 2/3
        graph = random_colorable_graph(60, 140, seed=5)
        report = solve_multi(graph, FAST, iterations=200, base_seed=0, mode=AblationMode.NONE)
        assert report.avg_accuracy == pytest.approx(2 / 3, abs=0.035)
        assert all(r.cycles is None for r in report.runs)

    def test_sync_only_close_to_none(self):
        graph = random_colorable_graph(40, 90, seed=6)
        none = solve_multi(graph, FAST, iterations=60, base_seed=0, mode=AblationMode.NONE)
        sync = solve_multi(graph, FAST, iterations=60, base_seed=0, mode=AblationMode.SYNC_ONLY)
        assert abs(sync.avg_accuracy - none.avg_accuracy) < 0.05

    def test_sync_only_settles_after_the_ramp(self):
        # with no couplings the phases sit still until SHIL switches on
        graph = random_colorable_graph(40, 90, seed=6)
        sync = solve_multi(graph, FAST, iterations=5, base_seed=0, mode=AblationMode.SYNC_ONLY)
        assert all(FAST.ramp_end <= r.cycles < FAST.t_max for r in sync.runs)

    def test_full_beats_sync_only(self):
        graph = random_colorable_graph(40, 90, seed=6)
        full = solve_multi(graph, FAST, iterations=40, base_seed=0, mode=AblationMode.FULL)
        sync = solve_multi(graph, FAST, iterations=40, base_seed=0, mode=AblationMode.SYNC_ONLY)
        lo, _ = bootstrap_mean_diff(
            [r.accuracy for r in full.runs], [r.accuracy for r in sync.runs], seed=1
        )
        assert lo > 0.0

    def test_mode_recorded_in_config(self):
        graph = random_colorable_graph(12, 24, seed=1)
        report = solve_multi(graph, FAST, iterations=2, base_seed=0, mode=AblationMode.COUPLINGS_ONLY)
        assert report.params["mode"] == "couplings_only"

    def test_accepts_mode_strings(self):
        graph = random_colorable_graph(12, 24, seed=1)
        report = solve_multi(graph, FAST, iterations=2, base_seed=0, mode="none")
        assert report.params["mode"] == "none"


class TestDetuneSweep:
    def test_zero_and_far_detuning_limits(self):
        graph = random_colorable_graph(20, 44, seed=7)
        params = dataclasses.replace(detune_protocol_params(), t_max=20.0)
        sweep = detune_sweep(graph, params, deltas=[0.0, 400.0], iterations=3)
        by_delta = dict(sweep)
        assert by_delta[0.0] < 1.5
        assert 20.0 < by_delta[400.0] < 40.0

    def test_requires_deltas(self, k3):
        with pytest.raises(ValueError):
            detune_sweep(k3, FAST, deltas=[], iterations=1)
        with pytest.raises(ValueError, match="iterations must be >= 1"):
            detune_sweep(k3, FAST, deltas=[0.0], iterations=0)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_params_detuning_must_be_zero(self, k3, monkeypatch, jobs):
        # each row's rate comes from `deltas`, so a nonzero params.detuning
        # would be ignored yet recorded by effective_config: no block runs
        calls = []
        monkeypatch.setattr(solver, "_detune_task", lambda block: calls.append(block) or [])
        params = dataclasses.replace(FAST, detuning=5.0)
        with pytest.raises(ValueError, match="--detune must be 0"):
            detune_sweep(k3, params, deltas=[0.0, 30.0], iterations=2, jobs=jobs)
        assert calls == []


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
        return solve_multi(graph, FAST, iterations=5, base_seed=2, benchmark="tiny")

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

    def test_config_round_trip(self, report):
        cfg = report.params
        assert DynamicsParams(**cfg["dynamics"], **cfg["schedule"]) == FAST
        assert (cfg["iterations"], cfg["base_seed"]) == (5, 2)
        assert effective_config(FAST, 5, 2)["convergence"] == {
            "window": dynamics.CONVERGENCE_WINDOW, "eps": dynamics.CONVERGENCE_EPS,
        }

    def test_numpy_settings_serialize(self):
        # settings given as numpy scalars run and report as the Python
        # numbers they stand for
        graph = random_colorable_graph(12, 24, seed=3)
        params = DynamicsParams(n_phases=np.int64(3), dt=np.float32(0.02), t_max=10.0,
                                t_on=np.float32(5))
        report = solve_multi(graph, params, iterations=2, base_seed=0)
        doc = json.loads(report_json(report))
        assert doc["params"]["dynamics"]["n_phases"] == 3
        assert doc["params"]["dynamics"]["dt"] == float(np.float32(0.02))
        assert doc["params"]["schedule"]["t_on"] == 5.0

    def test_config_survives_json(self, report):
        cfg = json.loads(json.dumps(report.params))
        assert DynamicsParams(**cfg["dynamics"], **cfg["schedule"]) == FAST

    def test_report_needs_a_run(self):
        # refused before any arithmetic, so numpy warns of no empty mean
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="^a report needs at least one run$"):
                solver.SolveReport("x", {}, ())

    def test_report_derives_its_aggregate(self):
        def report(*runs):
            records = [solver.RunRecord(seed, acc, 0.0, 0.0, cycles)
                       for seed, (acc, cycles) in enumerate(runs)]
            return solver.SolveReport("x", {}, tuple(records))

        r = report((1.0, 12.0), (0.0, None), (0.5, 15.0))
        assert (r.num_runs, r.num_converged, r.mean_cycles) == (3, 2, 13.5)
        assert (r.avg_accuracy, r.best_accuracy) == (0.5, 1.0)
        # one run each in bins 0, 50 and 99: the last bin is closed
        assert len(r.histogram) == solver.HISTOGRAM_BINS
        assert {i: c for i, c in enumerate(r.histogram) if c} == {0: 1, 50: 1, 99: 1}
        assert report((0.5, None)).mean_cycles is None
        with pytest.raises(TypeError):
            solver.SolveReport("x", {}, r.runs, avg_accuracy=0.5)
        for bad in (1.5, float("nan")):
            with pytest.raises(ValueError, match=r"accuracy outside \[0, 1\]"):
                report((bad, None))
