from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pottsim import DynamicsParams, ShilSchedule, dynamics
from pottsim.graph_io import Graph
from pottsim.potts import (
    TWO_PI,
    Coloring,
    PhaseState,
    accuracy,
    lattice_deviation,
    lattice_state,
    lyapunov,
    quantize,
)
from pottsim.dynamics import (
    CONVERGENCE_WINDOW,
    Checkpoint,
    IntegrationDivergedError,
    _BlockEdges,
    _rhs_core,
    _settle_step,
    integrate_block,
    random_init,
    rhs,
)

from conftest import random_colorable_graph
from helpers import run_checkpoints
from strategies import graphs

# chi-square critical value, 35 degrees of freedom, significance 0.01
CHI2_35_99 = 57.342


def gradient_fd(graph, state, kc, ks, n_phases, h=1e-5):
    """Independent oracle: central finite differences of the Lyapunov function."""
    grad = np.zeros(len(state))
    for i in range(len(state)):
        up = state.phases.copy()
        dn = state.phases.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (
            lyapunov(graph, PhaseState(up), kc, ks, n_phases)
            - lyapunov(graph, PhaseState(dn), kc, ks, n_phases)
        ) / (2 * h)
    return grad


def solved_to_t_max(graph, params, sched, seeds) -> int:
    """Runs, stepped as one block to t_max, whose final coloring is proper."""
    final, _ = integrate_block(graph, [random_init(graph.num_vertices, s) for s in seeds],
                               params, sched, list(seeds))
    return int(np.sum(accuracy(graph, final.coloring) == 1.0))


class TestParamsValidation:
    def test_rejects_bad_values(self):
        for kwargs in (
            {"dt": 0.0},
            {"t_max": -1.0},
            {"n_phases": 1},
            {"coupling_gain": -0.1},
            {"shil_gain_max": np.inf},
            {"noise_amplitude": -1.0},
            {"detuning": np.nan},
            {"dt": np.inf},
            {"dt": np.nan},
            # t_max / dt overflows to inf, so the step count is not a number
            {"dt": 1e-320},
            # dt * n_phases * shil_gain_max = 3.6, past RK4's real-axis limit
            {"shil_gain_max": 60.0},
        ):
            with pytest.raises(ValueError):
                DynamicsParams(**kwargs)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            ShilSchedule(t_on=-1.0)
        with pytest.raises(TypeError):
            ShilSchedule(mode="square")
        for kwargs in ({"t_on": np.nan}, {"t_on": np.inf}, {"ramp": np.nan}, {"ramp": np.inf}):
            with pytest.raises(ValueError, match="finite"):
                ShilSchedule(**kwargs)


class TestEnvelope:
    def test_ramp_profile(self):
        sched = ShilSchedule(t_on=2.0, ramp=4.0)
        assert sched.envelope(0.0) == 0.0
        assert sched.envelope(1.99) == 0.0
        assert sched.envelope(4.0) == pytest.approx(0.5)
        assert sched.envelope(6.0) == 1.0
        assert sched.envelope(100.0) == 1.0


class TestRhs:
    def test_lattice_is_fixed_point_without_coupling(self):
        graph = random_colorable_graph(6, 9, seed=0)
        coloring = Coloring([0, 1, 2, 0, 1, 2], 3)
        vel = rhs(graph, lattice_state(coloring), coupling_gain=0.0,
                  shil_gain_now=2.0, n_phases=3)
        assert np.allclose(vel, 0.0, atol=1e-12)

    def test_repulsive_pair_drifts_apart(self, single_edge):
        state = PhaseState([0.0, 2 * np.pi / 3])
        vel = rhs(single_edge, state, 1.0, 0.0, 3)
        root3_half = np.sqrt(3) / 2
        assert vel[0] == pytest.approx(-root3_half)
        assert vel[1] == pytest.approx(root3_half)

    def test_matches_negative_gradient(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n_phases = int(rng.integers(2, 5))
            n = int(rng.integers(2, 10))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            m = int(rng.integers(0, len(pairs) + 1))
            picked = rng.choice(len(pairs), size=m, replace=False) if m else []
            graph = Graph(n, np.array([pairs[i] for i in picked], dtype=int).reshape(-1, 2))
            state = PhaseState(rng.random(n) * 2 * np.pi)
            kc, ks = float(rng.random() * 2), float(rng.random() * 3)
            vel = rhs(graph, state, kc, ks, n_phases)
            assert np.allclose(vel, -gradient_fd(graph, state, kc, ks, n_phases), atol=1e-6)

    def test_single_phase_matches_negative_gradient(self):
        # N = 1: the Chebyshev recurrence takes no step
        graph = random_colorable_graph(6, 9, seed=0)
        state = random_init(6, seed=4)
        vel = rhs(graph, state, 0.7, 2.5, 1)
        assert np.allclose(vel, -gradient_fd(graph, state, 0.7, 2.5, 1), atol=1e-6)

    @settings(max_examples=80, deadline=None)
    @given(
        graph=graphs(),
        n_phases=st.integers(min_value=1, max_value=8),
        gains=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 60.0)),
        t=st.floats(0.0, 10.0),
        detunings=st.lists(st.sampled_from([1e-5, -2.0, 30.0, 300.0, -300.0]),
                           min_size=1, max_size=3),
        data=st.data(),
    )
    def test_core_matches_the_direct_formula(self, graph, n_phases, gains, t, detunings, data):
        # rows of one block, at least one of them undetuned; phases outside
        # [0, 2*pi) as in an RK4 stage state, and at the half-angle
        # tangent's pole pi.  The block runs once with its detunings and
        # once with none (the undetuned path, detuning=None).
        detunings.insert(data.draw(st.integers(0, len(detunings))), 0.0)
        n, rows = graph.num_vertices, len(detunings)
        phase = st.one_of(st.floats(-20.0, 20.0), st.sampled_from([np.pi, -np.pi, 3 * np.pi]))
        theta = np.array(data.draw(st.lists(phase, min_size=n * rows, max_size=n * rows)))
        # one run per column, as integrate_block stores a block
        theta = theta.reshape(n, rows)
        kc, ks = gains
        u, v = graph.edge_arrays()
        coupling = np.zeros_like(theta)
        for a, b in zip(u, v):
            coupling[a] += kc * np.sin(theta[a] - theta[b])
            coupling[b] += kc * np.sin(theta[b] - theta[a])
        degree = np.bincount(np.concatenate([u, v]), minlength=n).max(initial=0)
        for deltas in (detunings, [0.0] * rows):
            rates = np.array(deltas)
            got = _rhs_core(theta, t, _BlockEdges(graph, rows), kc, ks, n_phases,
                            rates if any(deltas) else None)
            want = coupling - ks * np.sin(n_phases * theta - rates * t)
            assert np.max(np.abs(got - want)) <= 1e-12 * (kc * max(degree, 1) + ks)
            # a row has the bits it has alone, whatever rows share its block
            for r, delta in enumerate(deltas):
                alone = _rhs_core(theta[:, [r]], t, _BlockEdges(graph, 1), kc, ks, n_phases,
                                  delta or None)
                assert np.array_equal(got[:, r], alone[:, 0])

    def test_rejects_negative_shil(self, single_edge):
        with pytest.raises(ValueError):
            rhs(single_edge, PhaseState([0.0, 1.0]), 1.0, -1.0, 3)


class TestRandomInit:
    def test_deterministic(self):
        a = random_init(100, seed=5)
        b = random_init(100, seed=5)
        assert np.array_equal(a.phases, b.phases)
        assert not np.array_equal(a.phases, random_init(100, seed=6).phases)

    def test_range(self):
        state = random_init(1000, seed=1)
        assert np.all(state.phases >= 0.0) and np.all(state.phases < 2 * np.pi)

    def test_uniformity_chi_square(self):
        state = random_init(100_000, seed=7)
        counts, _ = np.histogram(state.phases, bins=36, range=(0.0, 2 * np.pi))
        expected = 100_000 / 36
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < CHI2_35_99


class TestIntegrate:
    def test_zero_horizon_keeps_initial_checkpoint(self, k3):
        params = DynamicsParams(t_max=0.0)
        init = random_init(3, seed=0)
        cps = run_checkpoints(k3, init, params, ShilSchedule(), seed=0)
        assert len(cps.time) == 1
        assert cps.time[0] == 0.0
        assert np.array_equal(cps.state.phases[0], init.phases)

    @pytest.mark.parametrize("endpoint", [-1, 3])
    def test_out_of_range_endpoint_is_rejected(self, endpoint):
        # Graph checks its endpoints, but its edge array stays writable; the
        # gathers clamp indices, so the block checks them once itself
        graph = Graph(3, [(0, 1), (1, 2)])
        graph.edges[1, 1] = endpoint
        state = PhaseState([0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="out of range"):
            integrate_block(graph, [state], DynamicsParams(t_max=1.0), ShilSchedule(), [0])
        with pytest.raises(ValueError, match="out of range"):
            rhs(graph, state, 1.0, 1.0, 3)

    def test_k3_solves_nearly_always(self, k3):
        # the 27-state landscape has no improper local minima, so the flow
        # should land on a proper coloring from almost every start
        params = DynamicsParams(shil_gain_max=2.0, t_max=40.0)
        sched = ShilSchedule(t_on=5.0, ramp=5.0)
        assert solved_to_t_max(k3, params, sched, range(100)) >= 95

    def test_lyapunov_descends_without_noise(self):
        # gradient flow: L non-increasing while the SHIL envelope is constant
        sched = ShilSchedule(t_on=5.0, ramp=5.0)
        for trial in range(20):
            n = 10 + trial
            graph = random_colorable_graph(n, 2 * n, seed=100 + trial)
            params = DynamicsParams(t_max=30.0)
            cps = run_checkpoints(graph, random_init(n, seed=trial), params, sched, seed=trial)
            steps_per_stride = int(round((cps.time[1] - cps.time[0]) / params.dt))
            tol = 1e-6 * graph.num_edges * steps_per_stride
            a, b = cps.time[:-1], cps.time[1:]
            constant_envelope = (b <= sched.t_on) | (a >= sched.t_on + sched.ramp)
            lyap_a, lyap_b = cps.lyapunov[:-1], cps.lyapunov[1:]
            assert np.all(lyap_b[constant_envelope] <= lyap_a[constant_envelope] + tol)

    @settings(max_examples=60, deadline=None)
    @given(
        graph=graphs().filter(lambda g: g.num_edges > 0),
        kc=st.floats(0.0, 40.0),
        ks_share=st.floats(0.0, 0.99),
        n_phases=st.integers(min_value=2, max_value=4),
        # steps that divide 0.5 put a checkpoint exactly on t_on
        dt=st.one_of(st.sampled_from([0.01, 0.02, 0.05, 0.1]), st.floats(0.005, 0.1)),
        # the first three switch the SHIL on, the last two leave the couplings
        # alone to t_max
        sched=st.sampled_from([ShilSchedule(t_on=1.0, ramp=1.0), ShilSchedule(t_on=0.0, ramp=0.0),
                               ShilSchedule(t_on=1.0, ramp=0.0), ShilSchedule(t_on=8.0, ramp=1.0),
                               ShilSchedule(t_on=10.0, ramp=0.0)]),
        seed=st.integers(0, 1000),
    )
    def test_unflagged_flow_descends_lyapunov(self, graph, kc, ks_share, n_phases, dt, sched, seed):
        # a fixed gradient flow that is not flagged as diverged has a
        # non-increasing Lyapunov value wherever the envelope is constant,
        # within test_lyapunov_descends_without_noise's tolerance
        ks = ks_share * 2.78 / (dt * n_phases)
        params = DynamicsParams(coupling_gain=kc, shil_gain_max=ks, n_phases=n_phases,
                                dt=dt, t_max=6.0)
        # bound on the Hessian of the Lyapunov function (Gershgorin)
        degree = np.bincount(np.concatenate(graph.edge_arrays()), minlength=graph.num_vertices).max()
        stiffness = 2 * degree * kc + n_phases * ks
        try:
            cps = run_checkpoints(graph, random_init(graph.num_vertices, seed), params, sched,
                                  seed=seed)
        except IntegrationDivergedError as err:
            assert f"seed {seed}:" in str(err)
            # a step this small against the flow's stiffness descends
            assert dt * stiffness > 0.5
            return
        tol = 1e-6 * graph.num_edges * int(round((cps.time[1] - cps.time[0]) / dt))
        constant = (cps.time[1:] < sched.t_on) | (cps.time[:-1] >= sched.ramp_end)
        assert np.all(cps.lyapunov[1:][constant] <= cps.lyapunov[:-1][constant] + tol)

    def test_well_switched_on_whole_is_not_a_rise(self):
        # with ramp 0 the envelope jumps from 0 to 1 at t_on, here a
        # checkpoint time, and once the couplings have slowed the well term
        # raises the Lyapunov value of about half the seeds there; the flow
        # itself is stable
        graph = random_colorable_graph(20, 40, seed=5)
        for seed in range(8):
            run_checkpoints(graph, random_init(20, seed), DynamicsParams(t_max=6.0),
                            ShilSchedule(t_on=5.0, ramp=0.0), seed=seed)

    @pytest.mark.parametrize("sched", [
        ShilSchedule(),
        ShilSchedule(t_on=0.0, ramp=0.0),
        ShilSchedule(t_on=20.0, ramp=0.0),
    ], ids=["before-t_on", "after-ramp", "never-on"])
    def test_rising_lyapunov_raises_with_seed(self, k4, sched):
        # K_c = 40 at dt = 0.05: the couplings alone overshoot every step,
        # yet the phases stay finite because they are wrapped mod 2*pi
        params = DynamicsParams(coupling_gain=40.0, dt=0.05, t_max=10.0)
        with pytest.raises(IntegrationDivergedError, match="seed 3: Lyapunov value rose"):
            run_checkpoints(k4, random_init(4, seed=3), params, sched, seed=3)

    @pytest.mark.parametrize("params, sched", [
        (DynamicsParams(noise_amplitude=0.3, t_max=30.0), ShilSchedule()),
        (DynamicsParams(detuning=0.5, t_max=30.0), ShilSchedule()),
    ], ids=["noise", "detuning"])
    def test_rise_check_needs_a_fixed_gradient_flow(self, params, sched):
        # noise kicks and the rotating lattice each raise the Lyapunov value
        # of a stable run, so these runs are not checked
        graph = random_colorable_graph(20, 40, seed=5)
        cps = run_checkpoints(graph, random_init(20, 1), params, sched, seed=1)
        assert cps.time[-1] == pytest.approx(params.t_max)
        tol = 1e-6 * graph.num_edges * int(round((cps.time[1] - cps.time[0]) / params.dt))
        after_ramp = cps.time[:-1] >= sched.ramp_end
        assert np.any(cps.lyapunov[1:][after_ramp] > cps.lyapunov[:-1][after_ramp] + tol)

    def test_equivariant_under_lattice_rotation(self):
        graph = random_colorable_graph(12, 24, seed=2)
        params = DynamicsParams(t_max=20.0)
        sched = ShilSchedule()
        init = random_init(12, seed=3)
        shift = 2 * np.pi / 3
        rotated = PhaseState(init.phases + shift)
        base = run_checkpoints(graph, init, params, sched, seed=3)
        rot = run_checkpoints(graph, rotated, params, sched, seed=3)
        assert np.array_equal(base.time, rot.time)
        mismatch = np.angle(np.exp(1j * (rot.state.phases - base.state.phases - shift)))
        assert np.allclose(mismatch, 0.0, atol=1e-8)

    def test_lattice_configs_attract_small_perturbations(self):
        rng = np.random.default_rng(0)
        coloring = Coloring(rng.integers(0, 3, 8), 3)
        graph = Graph(8, np.empty((0, 2), dtype=int))
        start = lattice_state(coloring)
        bumped = PhaseState(start.phases + rng.uniform(-0.9, 0.9, 8))  # < pi/3
        params = DynamicsParams(coupling_gain=0.0, t_max=20.0)
        cps = run_checkpoints(graph, bumped, params, ShilSchedule(t_on=0.0, ramp=0.0), seed=0)
        assert np.array_equal(cps.coloring.spins[-1], coloring.spins)
        assert np.max(lattice_deviation(cps.state, 3)[-1]) < 1e-6

    def test_deviation_shrinks_as_shil_dominates(self):
        graph = random_colorable_graph(20, 40, seed=3)
        sched = ShilSchedule()
        devs = []
        for gain in (0.5, 1.0, 2.0, 4.0, 8.0):
            params = DynamicsParams(shil_gain_max=gain, dt=0.01, t_max=60.0)
            cps = run_checkpoints(graph, random_init(20, seed=8), params, sched, seed=8)
            devs.append(float(np.mean(lattice_deviation(cps.state, 3)[-1])))
        assert all(b <= a + 1e-9 for a, b in zip(devs, devs[1:]))

    def test_two_phase_machine_two_colors_bipartite(self):
        rng = np.random.default_rng(14)
        edges = set()
        while len(edges) < 45:
            u, v = int(rng.integers(0, 15)), int(rng.integers(15, 30))
            edges.add((u, v))
        graph = Graph(30, sorted(edges))
        # two-phase wells are stiffer than three-phase ones, so give the
        # couplings a longer ramp before the discretization bites
        params = DynamicsParams(n_phases=2, t_max=50.0)
        sched = ShilSchedule(t_on=5.0, ramp=15.0)
        assert solved_to_t_max(graph, params, sched, range(100)) >= 90

    def test_noise_is_seeded(self):
        graph = random_colorable_graph(10, 20, seed=1)
        params = DynamicsParams(noise_amplitude=0.3, t_max=5.0)
        init = random_init(10, seed=4)
        a = run_checkpoints(graph, init, params, ShilSchedule(), seed=4)
        b = run_checkpoints(graph, init, params, ShilSchedule(), seed=4)
        c = run_checkpoints(graph, init, params, ShilSchedule(), seed=5)
        assert np.array_equal(a.state.phases[-1], b.state.phases[-1])
        assert not np.array_equal(a.state.phases[-1], c.state.phases[-1])

    def test_divergence_raises_with_time(self, k3):
        params = DynamicsParams(coupling_gain=1e308, t_max=1.0)
        with pytest.raises(IntegrationDivergedError, match="t="):
            run_checkpoints(k3, random_init(3, seed=0), params, ShilSchedule(), seed=0)

    def test_length_mismatch(self, k3):
        with pytest.raises(ValueError, match="length"):
            run_checkpoints(k3, random_init(4, seed=0), DynamicsParams(t_max=1.0), ShilSchedule())

    def test_stride_is_the_checkpoint_spacing(self, k3):
        # 0.5 / 0.008 = 62.5 rounds to 62 steps per checkpoint
        params = DynamicsParams(dt=0.008, t_max=2.0)
        cps = run_checkpoints(k3, random_init(3, seed=0), params, ShilSchedule(), seed=0)
        assert cps.time[1] - cps.time[0] == 62 * 0.008
        assert cps.time[2] == 124 * 0.008

    @pytest.mark.parametrize("kc", [1.0, 0.0])
    def test_settle_exit_stops_at_the_settle_time(self, kc):
        # kc = 0 is the sync_only machine: its phases sit still until SHIL
        # switches on, which must not count as settling
        graph = random_colorable_graph(20, 40, seed=5)
        params = DynamicsParams(coupling_gain=kc, t_max=40.0)
        sched = ShilSchedule()
        for seed in range(3):
            init = random_init(20, seed)
            early, full = [], []
            final, [settle] = integrate_block(graph, [init], params, sched, [seed],
                                              settle_exit=True,
                                              record=lambda rows, cp: early.append(cp))
            _, [full_settle] = integrate_block(graph, [init], params, sched, [seed],
                                               record=lambda rows, cp: full.append(cp))
            assert settle == final.time[0] == early[-1].time[0] == full_settle
            assert sched.ramp_end <= settle < params.t_max
            # stopping early changes nothing before the exit
            assert len(early) < len(full)
            for a, b in zip(early, full):
                assert a.time[0] == b.time[0] and a.max_rate[0] == b.max_rate[0]
                assert np.array_equal(a.state.phases, b.state.phases)

    @pytest.mark.parametrize("params, sched", [
        (DynamicsParams(noise_amplitude=1e-4, t_max=30.0), ShilSchedule()),
        (DynamicsParams(detuning=1e-5, t_max=30.0), ShilSchedule()),
    ], ids=["noise", "detuning"])
    def test_settle_exit_needs_a_fixed_gradient_flow(self, params, sched):
        graph = random_colorable_graph(20, 40, seed=5)
        checkpoints = []
        final, [settle] = integrate_block(graph, [random_init(20, 1)], params, sched, [1],
                                          settle_exit=True,
                                          record=lambda rows, cp: checkpoints.append(cp))
        assert final.time[0] == checkpoints[-1].time[0] == pytest.approx(params.t_max)
        # the settle rule held well before t_max, so only the gate kept it running
        assert settle < params.t_max - 5.0

    @pytest.mark.parametrize("params, sched", [
        (DynamicsParams(t_max=12.0), ShilSchedule()),
        (DynamicsParams(noise_amplitude=0.05, t_max=6.0), ShilSchedule(t_on=1.0, ramp=1.0)),
    ], ids=["flow", "noisy"])
    def test_block_checkpoints_match_the_row_reference(self, params, sched):
        # the block-wide Lyapunov sums and quantization give each row the
        # bits of potts.lyapunov and potts.quantize on that row alone
        graph = random_colorable_graph(30, 66, seed=4)
        seeds = [3, 4, 5, 6, 7]
        recorded = []
        integrate_block(graph, [random_init(30, s) for s in seeds], params, sched,
                        seeds, record=lambda rows, cp: recorded.append((rows, cp)))
        alone = run_checkpoints(graph, random_init(30, 3), params, sched, seed=3)
        # row 0 of the block is the run alone, checkpoint for checkpoint
        assert len(recorded) == len(alone.time)
        for k, (rows, a) in enumerate(recorded):
            assert rows[0] == 0
            assert ((a.time[0], a.lyapunov[0], a.max_rate[0])
                    == (alone.time[k], alone.lyapunov[k], alone.max_rate[k]))
            assert a.state.phases[0].tobytes() == alone.state.phases[k].tobytes()
            assert np.array_equal(a.coloring.spins[0], alone.coloring.spins[k])
        # every row's Lyapunov value and coloring are those of the row alone
        for cp in [cp for _, cp in recorded] + [alone]:
            for time, phases, lyap, spins in zip(cp.time, cp.state.phases, cp.lyapunov,
                                                 cp.coloring.spins, strict=True):
                ks_now = params.shil_gain_max * sched.envelope(time)
                assert lyap == lyapunov(graph, PhaseState(phases), params.coupling_gain, ks_now,
                                        params.n_phases)
                assert np.array_equal(spins, quantize(PhaseState(phases), params.n_phases).spins)
        assert sum(len(rows) for rows, _ in recorded) == len(seeds) * len(alone.time)

    def test_record_gets_the_running_rows_at_strictly_increasing_times(self):
        # rows that settle leave the block, so later checkpoints record fewer
        # rows; each row's last recorded checkpoint is the one returned
        graph = random_colorable_graph(20, 40, seed=5)
        seeds = [0, 1, 2, 3]
        recorded = []
        final, settled_at = integrate_block(graph, [random_init(20, s) for s in seeds],
                                            DynamicsParams(t_max=40.0), ShilSchedule(), seeds,
                                            settle_exit=True,
                                            record=lambda rows, cp: recorded.append((rows, cp)))
        times = [cp.time[0] for _, cp in recorded]
        assert all(b > a for a, b in zip(times, times[1:]))
        for rows, cp in recorded:
            assert np.all(cp.time == cp.time[0])
            assert (len(rows) == len(cp.state.phases) == len(cp.lyapunov)
                    == len(cp.coloring.spins) == len(cp.max_rate))
        assert [len(rows) for rows, _ in recorded] != [len(seeds)] * len(recorded)
        for r in range(len(seeds)):
            rows, cp = [(rows, cp) for rows, cp in recorded if r in rows][-1]
            k = list(rows).index(r)
            assert cp.time[k] == final.time[r] == settled_at[r]
            assert (cp.lyapunov[k], cp.max_rate[k]) == (final.lyapunov[r], final.max_rate[r])
            assert cp.state.phases[k].tobytes() == final.state.phases[r].tobytes()
            assert np.array_equal(cp.coloring.spins[k], final.coloring.spins[r])


def lattice_checkpoint(time: float, coloring: Coloring, max_rate: float) -> Checkpoint:
    """A one-row block at the lattice point of `coloring`."""
    return Checkpoint(np.array([time]), PhaseState(lattice_state(coloring).phases[None]),
                      np.array([-1.0]), Coloring(coloring.spins[None], coloring.num_phases),
                      np.array([max_rate]))


def constant_checkpoints(coloring: Coloring, count: int, stride: float = 0.5) -> list[Checkpoint]:
    return [lattice_checkpoint(i * stride, coloring, 0.0) for i in range(count)]


def first_settle(checkpoints: list[Checkpoint], settle_from: float):
    """Time of the first checkpoint at which the settle counter of a
    one-row block reports a settle."""
    counts = spins = None
    for cp in checkpoints:
        counts, settled = _settle_step(counts, spins, cp.coloring.spins, cp.max_rate,
                                       cp.time[0], settle_from)
        spins = cp.coloring.spins
        if settled[0]:
            return cp.time[0]
    return None


class TestDetectConvergence:
    def test_constant_trajectory_converges_at_window(self):
        cps = constant_checkpoints(Coloring([0, 1, 2], 3), count=10)
        assert first_settle(cps, 0.0) == cps[CONVERGENCE_WINDOW - 1].time

    def test_flickering_coloring_never_converges(self):
        a, b = Coloring([0, 1, 2], 3), Coloring([1, 2, 0], 3)
        cps = [lattice_checkpoint(i * 0.5, a if i % 2 else b, 0.0) for i in range(10)]
        assert first_settle(cps, 0.0) is None

    def test_settle_counts_from_settle_from(self):
        cps = constant_checkpoints(Coloring([0, 1, 2], 3), count=30)
        assert first_settle(cps, 10.0) == 10.0
        assert first_settle(cps, 20.0) is None

    def test_rows_settle_on_their_own_counts(self):
        # one row holds its coloring; the other flickers, then holds from t = 2
        a, b = np.array([0, 1, 2]), np.array([1, 2, 0])
        counts = spins = None
        settle_times = [None, None]
        for i in range(12):
            now = np.stack([a, b if i % 2 and i < 5 else a])
            counts, settled = _settle_step(counts, spins, now, np.zeros(2), i * 0.5, 0.0)
            spins = now
            for row in np.flatnonzero(settled):
                settle_times[row] = settle_times[row] or i * 0.5
        assert settle_times == [(CONVERGENCE_WINDOW - 1) * 0.5, (4 + CONVERGENCE_WINDOW - 1) * 0.5]

    def test_high_rate_blocks_convergence(self):
        coloring = Coloring([0, 1, 2], 3)
        cps = [lattice_checkpoint(i * 0.5, coloring, 1.0) for i in range(10)]
        assert first_settle(cps, 0.0) is None

class TestWrapPhases:
    @pytest.mark.parametrize("params", [
        DynamicsParams(t_max=10.0),
        # steps of several turns: the range test fails and np.mod wraps
        DynamicsParams(coupling_gain=500.0, noise_amplitude=0.01, t_max=2.0),
    ], ids=["default", "large-kc-noisy"])
    def test_every_step_wraps_like_np_mod(self, k4, monkeypatch, params):
        spans = []
        real = dynamics.wrap_phases

        def checked(theta):
            want = np.mod(theta, TWO_PI)
            spans.append((theta.min(), theta.max()))
            assert real(theta)
            assert theta.tobytes() == want.tobytes()
            return True

        monkeypatch.setattr(dynamics, "wrap_phases", checked)
        cps = run_checkpoints(k4, random_init(4, 2), params, ShilSchedule(), seed=2)
        beyond = [lo < -TWO_PI or hi >= 2 * TWO_PI for lo, hi in spans]
        assert any(beyond) == (params.coupling_gain == 500.0)
        final = cps.state.phases[-1]
        assert np.all(np.isfinite(final)) and np.all((0 <= final) & (final < TWO_PI))

    def test_non_finite_phase_names_the_seed(self, k4):
        params = DynamicsParams(coupling_gain=1e308, noise_amplitude=0.01, t_max=1.0)
        with pytest.raises(IntegrationDivergedError, match="seed 7: non-finite phase at t="):
            run_checkpoints(k4, random_init(4, seed=7), params, ShilSchedule(), seed=7)
