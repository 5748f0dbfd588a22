"""Acceptance gate: runs every top-level criterion at its stated tolerance.

Each test prints one `[acceptance] criterion N (...): PASS/FAIL` line; run
with `pytest tests/test_acceptance.py -v -s` to watch them live.  The heavy
fixtures (100-restart benchmark sweeps) are shared across criteria.
"""
from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from pottsim import DynamicsParams, ShilSchedule, solve_multi
from pottsim.graph_io import Graph
from pottsim.potts import Coloring, PhaseState, accuracy, lattice_state, lyapunov, quantize
from pottsim.dynamics import random_init, rhs
from pottsim.solver import (
    AblationMode,
    detune_protocol_params,
    detune_sweep,
)
from pottsim.oracle import enumerate_landscape
from pottsim.cli import main as cli_main

from conftest import BENCH_DIR, load_benchmark, random_colorable_graph
from helpers import bootstrap_mean_diff, count_proper_colorings, run_checkpoints

JOBS = 2
BASE_SEED = 0
ITERATIONS = 100
FLAT_NAMES = [
    "flat_30_60-1",
    "flat_50_115-1",
    "flat_75_180-1",
    "flat_100_239-1",
    "flat_125_301-1",
    "flat_150_360-1",
    "flat_175_417-1",
    "flat_200_479-1",
]
DEFAULTS = DynamicsParams()
SCHEDULE = ShilSchedule()


def emit(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {num} ({name}): {status}"
    if detail:
        line += f" - {detail}"
    print(line, flush=True)


@pytest.fixture(scope="module")
def flat_reports():
    return {
        name: solve_multi(
            load_benchmark(name), DEFAULTS, SCHEDULE, ITERATIONS, BASE_SEED,
            benchmark=name, jobs=JOBS,
        )
        for name in FLAT_NAMES
    }


@pytest.fixture(scope="module")
def rnd1000_report():
    return solve_multi(
        load_benchmark("rnd_1000"), DEFAULTS, SCHEDULE, ITERATIONS, BASE_SEED,
        benchmark="rnd_1000", jobs=JOBS,
    )


@pytest.fixture(scope="module")
def ablation_reports():
    graph = load_benchmark("flat_200_479-1")
    return {
        mode: solve_multi(graph, DEFAULTS, SCHEDULE, ITERATIONS, BASE_SEED,
                          benchmark="flat_200_479-1", jobs=JOBS, mode=mode)
        for mode in AblationMode
    }


def test_criterion_1_satlib_accuracy_band(flat_reports):
    rows = []
    ok = True
    for name in FLAT_NAMES[:4]:
        rep = flat_reports[name]
        good = rep.avg_accuracy >= 0.85 and rep.best_accuracy >= 0.92
        ok &= good
        rows.append(f"{name} avg={rep.avg_accuracy:.3f} best={rep.best_accuracy:.3f}")
    emit(1, "SATLIB accuracy band", ok, "; ".join(rows))
    for name in FLAT_NAMES[:4]:
        rep = flat_reports[name]
        assert rep.avg_accuracy >= 0.85, f"{name}: avg {rep.avg_accuracy:.3f} < 0.85"
        assert rep.best_accuracy >= 0.92, f"{name}: best {rep.best_accuracy:.3f} < 0.92"


def test_criterion_2_size_robustness(flat_reports, rnd1000_report):
    avgs = {name: flat_reports[name].avg_accuracy for name in FLAT_NAMES}
    band = max(avgs.values()) - min(avgs.values())
    rnd_avg = rnd1000_report.avg_accuracy
    ok = band <= 0.05 and rnd_avg >= 0.84
    emit(2, "size robustness", ok,
         f"flat avg band {band:.3f} over {min(avgs.values()):.3f}..{max(avgs.values()):.3f}; "
         f"rnd_1000 avg={rnd_avg:.3f}")
    assert band <= 0.05, f"average accuracy varies by {band:.3f} > 0.05 across sizes"
    assert rnd_avg >= 0.84, f"rnd_1000 average {rnd_avg:.3f} < 0.84"


def zero_detune_deviation(params: DynamicsParams) -> float:
    """Mean distance (degrees) from the final phases to the nearest lattice phase."""
    graph = load_benchmark("flat_200_479-1")
    [(_, dev)] = detune_sweep(graph, params, SCHEDULE, [0.0], iterations=20,
                              base_seed=BASE_SEED, jobs=JOBS)
    return dev


def test_criterion_3_ablation_ordering(ablation_reports):
    accs = {
        mode: [r.accuracy for r in ablation_reports[mode].runs] for mode in AblationMode
    }
    sync_lo, _ = bootstrap_mean_diff(accs[AblationMode.FULL], accs[AblationMode.SYNC_ONLY], seed=0)
    coup_lo, _ = bootstrap_mean_diff(accs[AblationMode.FULL], accs[AblationMode.COUPLINGS_ONLY], seed=0)
    none_mean = float(np.mean(accs[AblationMode.NONE]))
    # N-SHIL is what gives each oscillator N stable phases.  Without it
    # (couplings_only, as in `ablate`) the phases settle with no regard to the
    # lattice: the mean distance to the nearest of 3 points 120 degrees apart
    # is then 30 degrees.  With it the phases sit near the lattice, above the
    # ~10 degree floor that the solve-protocol SHIL gain leaves.
    full_dev = zero_detune_deviation(DEFAULTS)
    coup_dev = zero_detune_deviation(dataclasses.replace(DEFAULTS, shil_gain_max=0.0))
    ok = (sync_lo >= 0.15 and coup_dev >= 25.0 and full_dev <= 15.0
          and 0.63 <= none_mean <= 0.70)
    emit(3, "ablation ordering", ok,
         f"full-sync_only CI low {sync_lo:.3f}; lattice deviation full {full_dev:.2f}deg, "
         f"couplings_only {coup_dev:.2f}deg; none mean {none_mean:.3f}; "
         f"full-couplings_only CI low {coup_lo:.3f} (reported only)")
    assert sync_lo >= 0.15, f"full vs sync_only margin CI low {sync_lo:.3f} < 0.15"
    assert 0.63 <= none_mean <= 0.70, f"mode none mean {none_mean:.3f} outside [0.63, 0.70]"
    assert coup_dev >= 25.0, f"couplings_only lattice deviation {coup_dev:.2f} deg < 25"
    assert full_dev <= 15.0, f"full-mode lattice deviation {full_dev:.2f} deg > 15"


def landscape_corpus():
    graphs = [
        ("K3", Graph(3, [(0, 1), (1, 2), (0, 2)]), True),
        ("K4", Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]), False),
        ("path4", Graph(4, [(0, 1), (1, 2), (2, 3)]), True),
        ("path7", Graph(7, [(i, i + 1) for i in range(6)]), True),
    ]
    for idx in range(20):
        n = 5 + idx % 6  # 5..10 vertices
        m = int(1.4 * n)
        graphs.append(
            (f"rnd{idx}", random_colorable_graph(n, m, seed=500 + idx), True)
        )
    return graphs


def test_criterion_4_landscape_oracle():
    failures = []
    for name, graph, colorable in landscape_corpus():
        scape = enumerate_landscape(graph, 3)
        proper = count_proper_colorings(graph, 3)
        # uni-color states sit at the maximum energy |E|
        if not np.isclose(scape.energies[-1], graph.num_edges, atol=1e-9):
            failures.append(f"{name}: max energy {scape.energies[-1]:.6f} != |E|")
        if colorable:
            if scape.num_global_minima != proper:
                failures.append(
                    f"{name}: {scape.num_global_minima} global minima != {proper} proper colorings"
                )
            if not np.isclose(scape.min_energy, -0.5 * graph.num_edges, atol=1e-9):
                failures.append(f"{name}: min energy {scape.min_energy:.6f} != -0.5|E|")
        else:
            if proper != 0 or scape.min_energy <= -0.5 * graph.num_edges + 1e-9:
                failures.append(f"{name}: expected uncolorable with raised minimum")
    emit(4, "landscape oracle", not failures,
         f"{len(landscape_corpus())} graphs checked" + ("; " + "; ".join(failures) if failures else ""))
    assert not failures, failures


def test_criterion_5_dynamics_correctness():
    rng = np.random.default_rng(2024)
    # gradient consistency against central finite differences
    max_err = 0.0
    for case in range(100):
        n_phases = int(rng.choice([2, 3, 4]))
        n = int(rng.integers(2, 12))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        m = int(rng.integers(0, len(pairs) + 1))
        picked = rng.choice(len(pairs), size=m, replace=False) if m else []
        graph = Graph(n, np.array([pairs[i] for i in picked], dtype=int).reshape(-1, 2))
        state = PhaseState(rng.random(n) * 2 * np.pi)
        kc, ks = float(rng.random() * 2), float(rng.random() * 3)
        vel = rhs(graph, state, kc, ks, n_phases)
        h = 1e-5
        for i in range(n):
            up, dn = state.phases.copy(), state.phases.copy()
            up[i] += h
            dn[i] -= h
            fd = (lyapunov(graph, PhaseState(up), kc, ks, n_phases)
                  - lyapunov(graph, PhaseState(dn), kc, ks, n_phases)) / (2 * h)
            max_err = max(max_err, abs(vel[i] + fd))
    grad_ok = max_err < 1e-6

    # noise-free Lyapunov descent on constant-envelope segments
    descent_ok = True
    sched = ShilSchedule(t_on=5.0, ramp=5.0)
    for trial in range(20):
        n = 12 + trial
        graph = random_colorable_graph(n, 2 * n, seed=800 + trial)
        params = DynamicsParams(t_max=30.0)
        cps = run_checkpoints(graph, random_init(n, seed=trial), params, sched, seed=trial)
        steps = int(round((cps.time[1] - cps.time[0]) / params.dt))
        tol = 1e-6 * graph.num_edges * steps
        constant = (cps.time[1:] <= sched.t_on) | (cps.time[:-1] >= sched.t_on + sched.ramp)
        descent_ok &= bool(np.all(cps.lyapunov[1:][constant] <= cps.lyapunov[:-1][constant] + tol))

    # quantization round-trip, every spin, N in 2..8
    round_ok = True
    for n_phases in range(2, 9):
        spins = np.arange(n_phases)
        coloring = Coloring(spins, n_phases)
        round_ok &= np.array_equal(
            quantize(lattice_state(coloring), n_phases).spins, spins
        )

    ok = grad_ok and descent_ok and round_ok
    emit(5, "dynamics correctness", ok,
         f"gradient max error {max_err:.2e}; descent {'ok' if descent_ok else 'violated'}; "
         f"round-trip {'ok' if round_ok else 'broken'}")
    assert grad_ok, f"rhs vs finite-difference gradient error {max_err:.2e} > 1e-6"
    assert descent_ok, "Lyapunov increased on a constant-envelope segment"
    assert round_ok, "quantize(lattice_state(s)) != s for some spin"


def test_criterion_6_detuning():
    graph = load_benchmark("flat_200_479-1")
    deltas = [0.0, 10.0, -10.0, 30.0, -30.0, 80.0, -80.0, 150.0, -150.0, 300.0, -300.0]
    sweep = dict(detune_sweep(graph, detune_protocol_params(), SCHEDULE, deltas,
                              iterations=10, base_seed=BASE_SEED, jobs=JOBS))
    by_mag = {
        mag: float(np.mean([sweep[d] for d in deltas if abs(d) == mag]))
        for mag in (0.0, 10.0, 30.0, 80.0, 150.0, 300.0)
    }
    mags = sorted(by_mag)
    zero_ok = by_mag[0.0] < 1.0
    rising_ok = all(by_mag[a] <= by_mag[b] + 0.5 for a, b in zip(mags, mags[1:]))
    far_ok = 25.0 < by_mag[300.0] < 35.0
    ordered = sorted(deltas)
    below = [sweep[d] < 10.0 for d in ordered]
    band = [i for i, b in enumerate(below) if b]
    band_ok = (
        bool(band)
        and below[ordered.index(0.0)]
        and band == list(range(band[0], band[-1] + 1))
        and not below[0]
        and not below[-1]
    )
    ok = zero_ok and rising_ok and far_ok and band_ok
    emit(6, "detuning sweep", ok,
         "deviation by |delta| " + ", ".join(f"{m:g}:{by_mag[m]:.2f}deg" for m in mags))
    assert zero_ok, f"deviation at delta=0 is {by_mag[0.0]:.3f} deg >= 1"
    assert rising_ok, f"deviation not rising with |delta|: {by_mag}"
    assert far_ok, f"far-detuned deviation {by_mag[300.0]:.2f} not near 30 deg"
    assert band_ok, "sub-10-degree band around delta=0 not contiguous or not exceeded outside"


def test_criterion_7_convergence_trend(flat_reports):
    cycles = {name: flat_reports[name].mean_cycles for name in FLAT_NAMES}
    missing = [n for n, c in cycles.items() if c is None]
    vertex_ratio = 200 / 30
    ok = not missing
    if not missing:
        cycle_ratio = cycles["flat_200_479-1"] / cycles["flat_30_60-1"]
        in_range = all(10.0 <= c <= 500.0 for c in cycles.values())
        ok = cycle_ratio < vertex_ratio and in_range
    emit(7, "convergence trend", ok,
         ", ".join(f"{n.split('_')[1]}v:{c:.1f}" for n, c in cycles.items() if c is not None))
    assert not missing, f"no converged runs for {missing}"
    assert cycle_ratio < vertex_ratio, (
        f"cycles ratio {cycle_ratio:.2f} not sub-linear vs vertex ratio {vertex_ratio:.2f}"
    )
    assert in_range, f"mean cycles outside 10..500: {cycles}"


def test_criterion_8_reproducibility(tmp_path):
    src = BENCH_DIR / "flat_30_60-1.col"
    out1, out2, out3 = (tmp_path / f"r{i}.json" for i in range(3))
    flags = ["--iters", "10", "--seed", "0"]
    assert cli_main(["solve", str(src), *flags, "--jobs", "1", "--out", str(out1)]) == 0
    assert cli_main(["solve", str(src), *flags, "--jobs", "2", "--out", str(out2)]) == 0
    # regenerate strictly from the embedded configuration block
    cfg = json.loads(out1.read_text())["params"]
    dyn, sched = cfg["dynamics"], cfg["schedule"]
    argv = [
        "solve", str(src),
        "--iters", str(cfg["iterations"]), "--seed", str(cfg["base_seed"]),
        "--kc", str(dyn["coupling_gain"]), "--ks", str(dyn["shil_gain_max"]),
        "--n-phases", str(dyn["n_phases"]), "--noise", str(dyn["noise_amplitude"]),
        "--detune", str(dyn["detuning"]), "--dt", str(dyn["dt"]),
        "--t-max", str(dyn["t_max"]), "--t-on", str(sched["t_on"]),
        "--ramp", str(sched["ramp"]), "--out", str(out3),
    ]
    assert cli_main(argv) == 0
    same_jobs = out1.read_bytes() == out2.read_bytes()
    same_regen = out1.read_bytes() == out3.read_bytes()
    ok = same_jobs and same_regen
    emit(8, "reproducibility", ok,
         f"jobs-invariant={same_jobs}, regenerated-from-config={same_regen}")
    assert same_jobs, "report bytes differ between --jobs 1 and --jobs 2"
    assert same_regen, "report regenerated from its embedded config differs"
