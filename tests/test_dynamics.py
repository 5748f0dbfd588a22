from __future__ import annotations

import dataclasses
import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pottsim import DynamicsParams, dynamics
from pottsim.graph_io import Graph
from pottsim.potts import TWO_PI, accuracy, lattice_deviation, lyapunov, quantize
from pottsim.dynamics import (
    CONVERGENCE_EPS,
    CONVERGENCE_WINDOW,
    Checkpoint,
    IntegrationDivergedError,
    _BlockEdges,
    _checkpoint,
    _rhs_core,
    integrate_block,
    random_init,
)

from conftest import load_benchmark, random_colorable_graph
from helpers import last_checkpoint, lattice_phases, run_checkpoints, velocity
from strategies import graphs

# chi-square critical value, 35 degrees of freedom, significance 0.01
CHI2_35_99 = 57.342


def gradient_fd(graph, phases, kc, ks, n_phases, h=1e-5):
    """Independent oracle: central finite differences of the Lyapunov function."""
    grad = np.zeros(len(phases))
    for i in range(len(phases)):
        up = phases.copy()
        dn = phases.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (
            lyapunov(graph, up, kc, ks, n_phases)
            - lyapunov(graph, dn, kc, ks, n_phases)
        ) / (2 * h)
    return grad


def solved_to_t_max(graph, params, seeds) -> int:
    """Runs, stepped as one block to t_max, whose final coloring is proper."""
    _, final = last_checkpoint(integrate_block(
        graph, [random_init(graph.num_vertices, s) for s in seeds], params, list(seeds)))
    return int(np.sum(accuracy(graph, final.spins) == 1.0))


class TestParamsValidation:
    def test_rejects_bad_values(self):
        for kwargs in (
            {"dt": 0.0},
            {"t_max": -1.0},
            {"n_phases": 1},
            # n_phases must be integral, even as a float that is
            {"n_phases": 3.0},
            {"n_phases": np.float64(3.0)},
            {"n_phases": 2.5},
            {"coupling_gain": -0.1},
            {"shil_gain_max": np.inf},
            {"noise_amplitude": -1.0},
            {"detuning": np.nan},
            {"dt": np.inf},
            {"dt": np.nan},
            # t_max / dt overflows to inf, so the step count is not a number
            {"dt": 1e-320},
            # t_max / dt overflows the other way: a horizon too far for the step
            {"t_max": 1e308},
            # dt * n_phases * shil_gain_max = 3.6, past RK4's real-axis limit
            {"shil_gain_max": 60.0},
        ):
            with pytest.raises(ValueError):
                DynamicsParams(**kwargs)

    def test_settings_are_stored_as_python_numbers(self):
        params = DynamicsParams(n_phases=np.int64(4), dt=np.float32(0.02), t_max=np.int64(10))
        assert [type(v) for v in dataclasses.astuple(params)] == [float, float, int] + [float] * 6
        assert params.dt == float(np.float32(0.02)) and params.t_max == 10.0
        params = DynamicsParams(t_on=np.float32(5), ramp=2)
        assert (type(params.t_on), type(params.ramp)) == (float, float)
        # a setting that is no real number is rejected, a bool among them
        for kwargs in ({"dt": "0.02"}, {"coupling_gain": None}, {"detuning": 1j}, {"ramp": "5"},
                       {"noise_amplitude": True}, {"n_phases": True}):
            with pytest.raises(TypeError, match="must be a real number"):
                DynamicsParams(**kwargs)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            DynamicsParams(t_on=-1.0)
        with pytest.raises(TypeError):
            DynamicsParams(mode="square")
        for kwargs in ({"t_on": np.nan}, {"t_on": np.inf}, {"ramp": np.nan}, {"ramp": np.inf}):
            with pytest.raises(ValueError, match="finite"):
                DynamicsParams(**kwargs)


class TestEnvelope:
    def test_ramp_profile(self):
        params = DynamicsParams(t_on=2.0, ramp=4.0)
        assert params.envelope(0.0) == 0.0
        assert params.envelope(1.99) == 0.0
        assert params.envelope(4.0) == pytest.approx(0.5)
        assert params.envelope(6.0) == 1.0
        assert params.envelope(100.0) == 1.0


class TestRhs:
    def test_lattice_is_fixed_point_without_coupling(self):
        graph = random_colorable_graph(6, 9, seed=0)
        vel = velocity(graph, lattice_phases([0, 1, 2, 0, 1, 2], 3), kc=0.0, ks=2.0, n_phases=3)
        assert np.allclose(vel, 0.0, atol=1e-12)

    def test_repulsive_pair_drifts_apart(self, single_edge):
        state = np.array([0.0, 2 * np.pi / 3])
        vel = velocity(single_edge, state, 1.0, 0.0, 3)
        root3_half = np.sqrt(3) / 2
        assert vel[0] == pytest.approx(-root3_half)
        assert vel[1] == pytest.approx(root3_half)

    def test_matches_negative_gradient(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n_phases = int(rng.integers(2, 6))
            n = int(rng.integers(2, 10))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            m = int(rng.integers(0, len(pairs) + 1))
            picked = rng.choice(len(pairs), size=m, replace=False) if m else []
            graph = Graph(n, np.array([pairs[i] for i in picked], dtype=int).reshape(-1, 2))
            state = rng.random(n) * 2 * np.pi
            kc, ks = float(rng.random() * 2), float(rng.random() * 3)
            vel = velocity(graph, state, kc, ks, n_phases)
            assert np.allclose(vel, -gradient_fd(graph, state, kc, ks, n_phases), atol=1e-6)

    @settings(max_examples=80, deadline=None)
    @given(
        graph=graphs(),
        n_phases=st.integers(min_value=2, max_value=8),
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
                                  np.array([delta]) if delta else None)
                assert np.array_equal(got[:, r], alone[:, 0])


class TestRandomInit:
    def test_deterministic(self):
        a = random_init(100, seed=5)
        b = random_init(100, seed=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, random_init(100, seed=6))

    def test_range(self):
        phases = random_init(1000, seed=1)
        assert np.all(phases >= 0.0) and np.all(phases < 2 * np.pi)

    def test_uniformity_chi_square(self):
        phases = random_init(100_000, seed=7)
        counts, _ = np.histogram(phases, bins=36, range=(0.0, 2 * np.pi))
        expected = 100_000 / 36
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < CHI2_35_99


class TestIntegrate:
    def test_zero_horizon_keeps_initial_checkpoint(self, k3):
        params = DynamicsParams(t_max=0.0)
        init = random_init(3, seed=0)
        cps = run_checkpoints(k3, init, params, seed=0)
        assert len(cps.time) == 1
        assert cps.time[0] == 0.0
        assert np.array_equal(cps.phases[0], init)

    def test_init_is_made_canonical_on_entry(self):
        # an init holding -0.0, or a phase 2*pi above its range, runs exactly
        # as its np.mod does: same records, same Checkpoint bits
        graph = random_colorable_graph(20, 40, seed=5)
        negative_zero, shifted = random_init(20, seed=1), random_init(20, seed=1)
        negative_zero[3] = -0.0
        shifted[7] += TWO_PI

        def run(init) -> list[bytes]:
            stream = integrate_block(graph, [init], DynamicsParams(t_max=15.0), [1],
                                     settle_exit=True)
            return [np.asarray(getattr(cp, f.name)).tobytes() for _, cp in stream
                    for f in dataclasses.fields(Checkpoint)]

        for init in (negative_zero, shifted):
            assert run(init) == run(np.mod(init, TWO_PI))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_init_is_rejected(self, k3, bad):
        # the checks on the inputs run at the first next()
        block = integrate_block(k3, [np.array([0.0, bad, 1.0])], DynamicsParams(t_max=1.0), [0])
        with pytest.raises(ValueError, match="non-finite initial phase"):
            next(block)

    @pytest.mark.parametrize("endpoint", [-1, 3])
    def test_out_of_range_endpoint_is_rejected(self, endpoint):
        # the gathers clamp indices, so an out-of-range endpoint must never
        # reach a block: Graph rejects it, and its edge array is read-only, so
        # it cannot be written in after the check
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 1), (1, endpoint)])
        graph = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="read-only"):
            graph.edges[1, 1] = endpoint
        assert graph.edges.tolist() == [[0, 1], [1, 2]]

    def test_block_gathers_the_checked_endpoints(self):
        # Graph checks its endpoints once and keeps them read-only, so the
        # gathers' mode="clip" never clips; the block keeps writeable contiguous
        # copies, as `take` copies a strided or read-only index on every call
        graph = Graph(3, [(0, 1), (1, 2)])
        edges = _BlockEdges(graph, 2)
        for got, want in zip((edges.u, edges.v), graph.edge_arrays()):
            assert got.flags.c_contiguous and got.flags.writeable
            assert got.tolist() == want.tolist()
        # resize allocates its planes, so a block may also grow
        edges.resize(5)
        assert edges.planes_u.shape == edges.planes_v.shape == (2, 2, 5)

    def test_k3_solves_nearly_always(self, k3):
        # the 27-state landscape has no improper local minima, so the flow
        # should land on a proper coloring from almost every start
        params = DynamicsParams(shil_gain_max=2.0, t_max=40.0, t_on=5.0, ramp=5.0)
        assert solved_to_t_max(k3, params, range(100)) >= 95

    def test_lyapunov_descends_without_noise(self):
        # gradient flow: L non-increasing while the SHIL envelope is constant
        for trial in range(20):
            n = 10 + trial
            graph = random_colorable_graph(n, 2 * n, seed=100 + trial)
            params = DynamicsParams(t_max=30.0, t_on=5.0, ramp=5.0)
            cps = run_checkpoints(graph, random_init(n, seed=trial), params, seed=trial)
            steps_per_stride = int(round((cps.time[1] - cps.time[0]) / params.dt))
            tol = 1e-6 * graph.num_edges * steps_per_stride
            a, b = cps.time[:-1], cps.time[1:]
            constant_envelope = (b <= params.t_on) | (a >= params.t_on + params.ramp)
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
        sched=st.sampled_from([dict(t_on=1.0, ramp=1.0), dict(t_on=0.0, ramp=0.0),
                               dict(t_on=1.0, ramp=0.0), dict(t_on=8.0, ramp=1.0),
                               dict(t_on=10.0, ramp=0.0)]),
        seed=st.integers(0, 1000),
    )
    def test_unflagged_flow_descends_lyapunov(self, graph, kc, ks_share, n_phases, dt, sched, seed):
        # a fixed gradient flow that is not flagged as diverged has a
        # non-increasing Lyapunov value wherever the envelope is constant,
        # within test_lyapunov_descends_without_noise's tolerance
        ks = ks_share * 2.78 / (dt * n_phases)
        params = DynamicsParams(coupling_gain=kc, shil_gain_max=ks, n_phases=n_phases,
                                dt=dt, t_max=6.0, **sched)
        # bound on the Hessian of the Lyapunov function (Gershgorin)
        degree = np.bincount(np.concatenate(graph.edge_arrays()), minlength=graph.num_vertices).max()
        stiffness = 2 * degree * kc + n_phases * ks
        try:
            cps = run_checkpoints(graph, random_init(graph.num_vertices, seed), params, seed=seed)
        except IntegrationDivergedError as err:
            assert f"seed {seed}:" in str(err)
            # a step this small against the flow's stiffness descends
            assert dt * stiffness > 0.5
            return
        # the tolerance of each interval counts its own steps
        tol = 1e-6 * graph.num_edges * np.round(np.diff(cps.time) / dt)
        constant = (cps.time[1:] < params.t_on) | (cps.time[:-1] >= params.ramp_end)
        assert np.all(cps.lyapunov[1:][constant] <= (cps.lyapunov[:-1] + tol)[constant])

    def test_well_switched_on_whole_is_not_a_rise(self):
        # with ramp 0 the envelope jumps from 0 to 1 at t_on, here a
        # checkpoint time, and once the couplings have slowed the well term
        # raises the Lyapunov value of about half the seeds there; the flow
        # itself is stable
        graph = random_colorable_graph(20, 40, seed=5)
        params = DynamicsParams(t_max=6.0, t_on=5.0, ramp=0.0)
        for seed in range(8):
            run_checkpoints(graph, random_init(20, seed), params, seed=seed)

    @pytest.mark.parametrize("sched", [
        {},
        {"t_on": 0.0, "ramp": 0.0},
        {"t_on": 20.0, "ramp": 0.0},
    ], ids=["before-t_on", "after-ramp", "never-on"])
    def test_rising_lyapunov_raises_with_seed(self, k4, sched):
        # K_c = 40 at dt = 0.05: the couplings alone overshoot every step,
        # yet the phases stay finite because they are wrapped mod 2*pi
        params = DynamicsParams(coupling_gain=40.0, dt=0.05, t_max=10.0, **sched)
        with pytest.raises(IntegrationDivergedError, match="seed 3: Lyapunov value rose"):
            run_checkpoints(k4, random_init(4, seed=3), params, seed=3)

    @pytest.mark.parametrize("params", [
        DynamicsParams(noise_amplitude=0.3, t_max=30.0),
        DynamicsParams(detuning=0.5, t_max=30.0),
    ], ids=["noise", "detuning"])
    def test_rise_check_needs_a_fixed_gradient_flow(self, params):
        # noise kicks and the rotating lattice each raise the Lyapunov value
        # of a stable run, so these runs are not checked
        graph = random_colorable_graph(20, 40, seed=5)
        cps = run_checkpoints(graph, random_init(20, 1), params, seed=1)
        assert cps.time[-1] == pytest.approx(params.t_max)
        tol = 1e-6 * graph.num_edges * int(round((cps.time[1] - cps.time[0]) / params.dt))
        after_ramp = cps.time[:-1] >= params.ramp_end
        assert np.any(cps.lyapunov[1:][after_ramp] > cps.lyapunov[:-1][after_ramp] + tol)

    def test_rise_tolerance_counts_the_steps_taken(self, k4, monkeypatch):
        # t_max = 12.3 is 615 steps: 24 strides of 25, then a last interval of 15
        params = DynamicsParams(t_max=12.3)
        real, values = dynamics.lyapunov, []

        def rising_at_the_end(graph, phases, *args):
            values.append(real(graph, phases, *args))
            if len(values) == 26:  # the checkpoint at t_max
                # a rise within 25 steps' tolerance, but beyond 15 steps'
                values[-1] = values[-2] + 1e-6 * graph.num_edges * 20
            return values[-1]

        monkeypatch.setattr(dynamics, "lyapunov", rising_at_the_end)
        with pytest.raises(IntegrationDivergedError,
                           match="seed 5: Lyapunov value rose .* between t=12 and t=12.3 cycles"):
            run_checkpoints(k4, random_init(4, seed=5), params, seed=5)
        assert len(values) == 26

    def test_rise_check_names_the_risen_rows_seed(self, k4):
        params, seeds = DynamicsParams(), [11, 12, 13]
        theta = np.stack([random_init(4, seed) for seed in seeds], axis=1)
        k1 = np.zeros_like(theta)
        first = _checkpoint(k4, params, theta, k1, 20.0, None, np.ones(3, bool), seeds, 0)
        # the same phases 25 steps later, against a value of row 2 that was 1 lower
        prev = dataclasses.replace(first, lyapunov=first.lyapunov - [0.0, 0.0, 1.0])

        def check(flows):
            return _checkpoint(k4, params, theta, k1, 20.5, prev, np.array(flows), seeds, 25)

        with pytest.raises(IntegrationDivergedError, match="seed 13: Lyapunov value rose"):
            check([True, True, True])
        cp = check([True, True, False])
        assert cp.lyapunov.tolist() == first.lyapunov.tolist()

    def test_equivariant_under_lattice_rotation(self):
        graph = random_colorable_graph(12, 24, seed=2)
        params = DynamicsParams(t_max=20.0)
        init = random_init(12, seed=3)
        shift = 2 * np.pi / 3
        rotated = init + shift
        base = run_checkpoints(graph, init, params, seed=3)
        rot = run_checkpoints(graph, rotated, params, seed=3)
        assert np.array_equal(base.time, rot.time)
        mismatch = np.angle(np.exp(1j * (rot.phases - base.phases - shift)))
        assert np.allclose(mismatch, 0.0, atol=1e-8)

    def test_lattice_configs_attract_small_perturbations(self):
        rng = np.random.default_rng(0)
        coloring = rng.integers(0, 3, 8)
        graph = Graph(8, np.empty((0, 2), dtype=int))
        start = lattice_phases(coloring, 3)
        bumped = start + rng.uniform(-0.9, 0.9, 8)  # < pi/3
        params = DynamicsParams(coupling_gain=0.0, t_max=20.0, t_on=0.0, ramp=0.0)
        cps = run_checkpoints(graph, bumped, params, seed=0)
        assert np.array_equal(cps.spins[-1], coloring)
        assert np.max(lattice_deviation(cps.phases, 3)[-1]) < 1e-6

    def test_deviation_shrinks_as_shil_dominates(self):
        graph = random_colorable_graph(20, 40, seed=3)
        devs = []
        for gain in (0.5, 1.0, 2.0, 4.0, 8.0):
            params = DynamicsParams(shil_gain_max=gain, dt=0.01, t_max=60.0)
            cps = run_checkpoints(graph, random_init(20, seed=8), params, seed=8)
            devs.append(float(np.mean(lattice_deviation(cps.phases, 3)[-1])))
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
        params = DynamicsParams(n_phases=2, t_max=50.0, t_on=5.0, ramp=15.0)
        assert solved_to_t_max(graph, params, range(100)) >= 90

    def test_noise_is_seeded(self):
        graph = random_colorable_graph(10, 20, seed=1)
        params = DynamicsParams(noise_amplitude=0.3, t_max=5.0)
        init = random_init(10, seed=4)
        a = run_checkpoints(graph, init, params, seed=4)
        b = run_checkpoints(graph, init, params, seed=4)
        c = run_checkpoints(graph, init, params, seed=5)
        assert np.array_equal(a.phases[-1], b.phases[-1])
        assert not np.array_equal(a.phases[-1], c.phases[-1])

    def test_divergence_raises_with_time(self, k3):
        params = DynamicsParams(coupling_gain=1e308, t_max=1.0)
        with pytest.raises(IntegrationDivergedError, match="t="):
            run_checkpoints(k3, random_init(3, seed=0), params, seed=0)

    def test_length_mismatch(self, k3):
        with pytest.raises(ValueError, match="length"):
            run_checkpoints(k3, random_init(4, seed=0), DynamicsParams(t_max=1.0))

    def test_stride_is_the_checkpoint_spacing(self, k3):
        # 0.5 / 0.008 = 62.5 rounds to 62 steps per checkpoint
        params = DynamicsParams(dt=0.008, t_max=2.0)
        cps = run_checkpoints(k3, random_init(3, seed=0), params, seed=0)
        assert cps.time[1] - cps.time[0] == 62 * 0.008
        assert cps.time[2] == 124 * 0.008

    @pytest.mark.parametrize("kc", [1.0, 0.0])
    def test_settle_exit_stops_at_the_settle_time(self, kc):
        # kc = 0 is the sync_only machine: its phases sit still until SHIL
        # switches on, which must not count as settling
        graph = random_colorable_graph(20, 40, seed=5)
        params = DynamicsParams(coupling_gain=kc, t_max=40.0)
        for seed in range(3):
            init = random_init(20, seed)
            early = [cp for _, cp in integrate_block(graph, [init], params, [seed],
                                                     settle_exit=True)]
            full = [cp for _, cp in integrate_block(graph, [init], params, [seed])]
            [settle] = early[-1].settled_at
            assert settle == early[-1].time == full[-1].settled_at[0]
            assert params.ramp_end <= settle < params.t_max
            # stopping early changes nothing before the exit
            assert len(early) < len(full)
            for a, b in zip(early, full):
                assert a.time == b.time and a.max_rate[0] == b.max_rate[0]
                assert np.array_equal(a.phases, b.phases)
                assert np.array_equal(a.settled_at, b.settled_at, equal_nan=True)

    @pytest.mark.parametrize("params", [
        DynamicsParams(noise_amplitude=1e-4, t_max=30.0),
        DynamicsParams(detuning=1e-5, t_max=30.0),
    ], ids=["noise", "detuning"])
    def test_settle_exit_needs_a_fixed_gradient_flow(self, params):
        graph = random_colorable_graph(20, 40, seed=5)
        _, final = last_checkpoint(integrate_block(graph, [random_init(20, 1)], params, [1],
                                                   settle_exit=True))
        assert final.time == pytest.approx(params.t_max)
        # the settle rule held well before t_max, so only the gate kept it running
        assert final.settled_at[0] < params.t_max - 5.0

    @pytest.mark.parametrize("params", [
        DynamicsParams(t_max=12.0),
        DynamicsParams(noise_amplitude=0.05, t_max=6.0, t_on=1.0, ramp=1.0),
    ], ids=["flow", "noisy"])
    def test_block_checkpoints_match_the_row_reference(self, params):
        # the block-wide Lyapunov sums and quantization give each row the
        # bits of potts.lyapunov and potts.quantize on that row alone
        graph = random_colorable_graph(30, 66, seed=4)
        seeds = [3, 4, 5, 6, 7]
        recorded = list(integrate_block(graph, [random_init(30, s) for s in seeds], params, seeds))
        alone = run_checkpoints(graph, random_init(30, 3), params, seed=3)
        # row 0 of the block is the run alone, checkpoint for checkpoint
        assert len(recorded) == len(alone.time)
        for k, (rows, a) in enumerate(recorded):
            assert rows[0] == 0
            assert ((a.time, a.lyapunov[0], a.max_rate[0])
                    == (alone.time[k], alone.lyapunov[k], alone.max_rate[k]))
            assert a.phases[0].tobytes() == alone.phases[k].tobytes()
            assert a.settled_at[0].tobytes() == alone.settled_at[k].tobytes()
            assert np.array_equal(a.spins[0], alone.spins[k])
        # every row's Lyapunov value and coloring are those of the row alone
        for cp in [cp for _, cp in recorded] + [alone]:
            times = np.broadcast_to(cp.time, cp.lyapunov.shape)
            for time, phases, lyap, spins in zip(times, cp.phases, cp.lyapunov, cp.spins,
                                                 strict=True):
                ks_now = params.shil_gain_max * params.envelope(time)
                assert lyap == lyapunov(graph, phases, params.coupling_gain, ks_now,
                                        params.n_phases)
                assert np.array_equal(spins, quantize(phases, params.n_phases))
        assert sum(len(rows) for rows, _ in recorded) == len(seeds) * len(alone.time)

    def test_yields_the_running_rows_at_strictly_increasing_times(self):
        # rows that settle leave the block, so later checkpoints hold fewer
        # rows; each row's last checkpoint is the one at which it settled
        graph = random_colorable_graph(20, 40, seed=5)
        seeds = [0, 1, 2, 3]
        recorded = list(integrate_block(graph, [random_init(20, s) for s in seeds],
                                        DynamicsParams(t_max=40.0), seeds, settle_exit=True))
        times = [cp.time for _, cp in recorded]
        assert all(b > a for a, b in zip(times, times[1:]))
        for rows, cp in recorded:
            assert (len(rows) == len(cp.phases) == len(cp.lyapunov) == len(cp.spins)
                    == len(cp.max_rate) == len(cp.settled_at))
        assert [len(rows) for rows, _ in recorded] != [len(seeds)] * len(recorded)
        for r in range(len(seeds)):
            seen = [(cp.time, cp.settled_at[list(rows).index(r)])
                    for rows, cp in recorded if r in rows]
            assert seen[-1][0] == seen[-1][1]
            assert all(np.isnan(at) for _, at in seen[:-1])

    def test_repeats_follow_each_rows_spins_across_compactions(self):
        # rows leave the block at several times, and each compaction must
        # carry every remaining row's repeat count with it
        graph, params, seeds = load_benchmark("flat_30_60-1"), DynamicsParams(), list(range(20))
        stream = integrate_block(graph, [random_init(30, s) for s in seeds], params, seeds,
                                 settle_exit=True)
        seen = {r: [] for r in seeds}
        for rows, cp in stream:
            for i, r in enumerate(rows):
                seen[r].append((cp.time, cp.spins[i], cp.repeats[i], cp.max_rate[i],
                                cp.settled_at[i]))
        assert len({states[-1][0] for states in seen.values()}) > 1
        for states in seen.values():
            run, prev = 0, None
            for time, spins, repeats, max_rate, settled_at in states:
                run = run + 1 if prev is not None and np.array_equal(spins, prev) else 0
                prev = spins
                assert repeats == run
            first = next(time for time, _, repeats, max_rate, _ in states
                         if repeats >= CONVERGENCE_WINDOW - 1 and max_rate < CONVERGENCE_EPS
                         and time >= params.ramp_end)
            # a settled flow leaves at its first settle
            assert states[-1][0] == states[-1][4] == first
            assert all(np.isnan(at) for *_, at in states[:-1])

    def test_a_suspended_block_keeps_the_callers_error_state(self, k3):
        # the block ignores overflow and invalid values in its own steps
        # only: numpy keeps that setting in a context variable, so a block
        # suspended at a checkpoint, or abandoned there, leaves the caller's
        # in force
        params = DynamicsParams(t_max=2.0)
        with np.errstate(over="raise", invalid="raise"):
            mine = np.geterr()
            block = integrate_block(k3, [random_init(3, seed=0)], params, [0])
            for _ in range(2):
                next(block)
                assert np.geterr() == mine
            del block
            gc.collect()
            assert np.geterr() == mine


def settle_times(states: list[tuple[float, list[list[int]], float]], settle_from: float) -> list:
    """Each row's first settle time (None if it never settles) when `_checkpoint`
    is called at each (time, spins, max_rate) state of a block of three-phase
    rows: its phases at their lattice points and k1 at that rate everywhere."""
    graph = Graph(3, [(0, 1), (1, 2), (0, 2)])
    params = DynamicsParams(t_on=settle_from, ramp=0.0)
    cp = None
    for time, spins, rate in states:
        theta = lattice_phases(spins, 3).T
        cp = _checkpoint(graph, params, theta, np.full(theta.shape, rate), time, cp,
                         np.zeros(len(spins), bool), list(range(len(spins))), 25)
    return [None if np.isnan(at) else at for at in cp.settled_at]


def first_settle(states: list[tuple[float, list[int], float]], settle_from: float):
    """First settle time of a one-row block at its (time, spins, max_rate) states."""
    return settle_times([(time, [spins], rate) for time, spins, rate in states], settle_from)[0]


def constant_states(spins: list[int], count: int, stride: float = 0.5) -> list:
    return [(i * stride, spins, 0.0) for i in range(count)]


class TestSettleRule:
    def test_constant_trajectory_converges_at_window(self):
        states = constant_states([0, 1, 2], count=10)
        assert first_settle(states, 0.0) == states[CONVERGENCE_WINDOW - 1][0]

    def test_flickering_coloring_never_converges(self):
        a, b = [0, 1, 2], [1, 2, 0]
        states = [(i * 0.5, a if i % 2 else b, 0.0) for i in range(10)]
        assert first_settle(states, 0.0) is None

    def test_settle_counts_from_settle_from(self):
        states = constant_states([0, 1, 2], count=30)
        assert first_settle(states, 10.0) == 10.0
        assert first_settle(states, 20.0) is None

    def test_rows_settle_on_their_own_counts(self):
        # one row holds its coloring; the other flickers, then holds from t = 2
        a, b = [0, 1, 2], [1, 2, 0]
        states = [(i * 0.5, [a, b if i % 2 and i < 5 else a], 0.0) for i in range(12)]
        assert settle_times(states, 0.0) == [(CONVERGENCE_WINDOW - 1) * 0.5,
                                             (4 + CONVERGENCE_WINDOW - 1) * 0.5]

    def test_high_rate_blocks_convergence(self):
        states = [(i * 0.5, [0, 1, 2], 1.0) for i in range(10)]
        assert first_settle(states, 0.0) is None

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
        cps = run_checkpoints(k4, random_init(4, 2), params, seed=2)
        beyond = [lo < -TWO_PI or hi >= 2 * TWO_PI for lo, hi in spans]
        assert any(beyond) == (params.coupling_gain == 500.0)
        final = cps.phases[-1]
        assert np.all(np.isfinite(final)) and np.all((0 <= final) & (final < TWO_PI))

    def test_non_finite_phase_names_the_seed(self, k4):
        params = DynamicsParams(coupling_gain=1e308, noise_amplitude=0.01, t_max=1.0)
        with pytest.raises(IntegrationDivergedError, match="seed 7: non-finite phase at t="):
            run_checkpoints(k4, random_init(4, seed=7), params, seed=7)
