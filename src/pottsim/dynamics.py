"""Phase dynamics: Kuramoto-style coupling forces plus an N-SHIL locking term.

Each vertex of the problem graph is one oscillator.  The phase vector evolves
by gradient descent of the Lyapunov function in `potts.lyapunov`:

    dtheta_i/dt = K_c * sum_j sin(theta_i - theta_j)
                  - K_s(t) * sin(N * theta_i - delta * t)

where j runs over the neighbours of i: every edge is one unit repulsive
coupling.  The SHIL gain K_s(t) follows a schedule (off until t_on, then a
linear ramp to its peak, held to the end), so the graph couplings act first
and the N-phase discretization engages afterwards.  A nonzero detuning rate
`delta` rotates the SHIL lattice, modelling a stimulus frequency slightly off
the exact N-th harmonic.  Time is measured in natural oscillator cycles.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .graph_io import Graph
from .potts import Coloring, PhaseState, TWO_PI, lyapunov, quantize, wrap_phases

# Time between checkpoints (cycles), rounded to a whole number of
# steps.
CHECKPOINT_STRIDE = 0.5
# Settle rule: the rounded coloring is unchanged over this many consecutive
# checkpoints and max |dtheta/dt| is below CONVERGENCE_EPS at the last one
# (see _settle_step).
CONVERGENCE_WINDOW = 5
CONVERGENCE_EPS = 1e-3
# RK4's stability interval on the negative real axis (Hairer & Wanner,
# Solving ODEs II, sec. IV.2).  At a lattice point with the couplings off the
# SHIL term's Jacobian is -n_phases * K_s, so a step with
# dt * n_phases * K_s beyond it is unstable for certain.
RK4_REAL_STABILITY = 2.78


class IntegrationDivergedError(RuntimeError):
    """A run went unstable: its phases became non-finite, or its Lyapunov
    value rose under a fixed gradient flow (step size too large for the gains)."""


@dataclass(frozen=True)
class DynamicsParams:
    """Gains, noise, detuning and integration grid for one machine run.

    Defaults are the documented operating point: coupling and SHIL strengths
    balanced so the SHIL neither dominates the couplings nor fails to
    discretize, dt well inside the RK4 stability region for those gains.
    """

    coupling_gain: float = 1.0
    shil_gain_max: float = 2.0
    n_phases: int = 3
    noise_amplitude: float = 0.0
    detuning: float = 0.0
    dt: float = 0.02
    t_max: float = 50.0

    def __post_init__(self):
        if self.n_phases < 2:
            raise ValueError("n_phases must be >= 2")
        for name in ("coupling_gain", "shil_gain_max", "noise_amplitude"):
            val = getattr(self, name)
            if not np.isfinite(val) or val < 0:
                raise ValueError(f"{name} must be finite and >= 0")
        if not np.isfinite(self.detuning):
            raise ValueError("detuning must be finite")
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be finite and positive")
        if self.dt * self.n_phases * self.shil_gain_max > RK4_REAL_STABILITY:
            raise ValueError(
                f"dt * n_phases * shil_gain_max = {self.dt * self.n_phases * self.shil_gain_max:g} "
                f"exceeds RK4's stability limit {RK4_REAL_STABILITY} (reduce dt or the SHIL gain)"
            )
        if not np.isfinite(self.t_max) or self.t_max < 0:
            raise ValueError("t_max must be finite and >= 0")
        if not np.isfinite(max(self.t_max, CHECKPOINT_STRIDE) / self.dt):
            raise ValueError(f"dt = {self.dt:g} is too small: the step count must be finite")


@dataclass(frozen=True)
class ShilSchedule:
    """Envelope of the SHIL stimulus: 0 until t_on, a linear ramp over `ramp`
    cycles, then 1.  A run without SHIL sets t_on beyond t_max or the gain to 0.
    """

    t_on: float = 5.0
    ramp: float = 5.0

    def __post_init__(self):
        if not (0 <= self.t_on < np.inf and 0 <= self.ramp < np.inf):
            raise ValueError("t_on and ramp must be finite and >= 0")

    @property
    def ramp_end(self) -> float:
        """Time at which the ramp ends and the envelope reaches 1."""
        return self.t_on + self.ramp

    def envelope(self, t: float) -> float:
        if t < self.t_on:
            return 0.0
        if self.ramp > 0 and t < self.ramp_end:
            return (t - self.t_on) / self.ramp
        return 1.0


@dataclass(frozen=True)
class Checkpoint:
    """A block of runs at a checkpoint: row r of `state` and `coloring` is
    run r, with entry r of the `time`, `lyapunov` and `max_rate` arrays."""

    time: np.ndarray
    state: PhaseState
    lyapunov: np.ndarray
    coloring: Coloring
    max_rate: np.ndarray


class _BlockEdges:
    """The edges of a block of runs, indexed for its (n, rows) phase array,
    with buffers for the gathered (sin, cos) planes of their endpoints.

    The buffers are allocated once, for the block's first row count (rows then
    only leave), so no call maps and faults in fresh edge-sized memory; `resize`
    takes leading C-contiguous views of them.  `take` fills them with
    mode="clip", which never clips here: the endpoints are checked once, below.
    (Under mode="raise", take buffers `out=` through a temporary.)
    """

    def __init__(self, graph: Graph, rows: int):
        self.u, self.v = graph.edge_arrays()
        if self.u.size and (min(self.u.min(), self.v.min()) < 0
                            or max(self.u.max(), self.v.max()) >= graph.num_vertices):
            raise ValueError("edge endpoint out of range")
        self._memory = np.empty((2, 2 * self.u.size * rows))
        self.resize(rows)

    def resize(self, rows: int):
        m = self.u.size
        self.planes_u, self.planes_v = (b[:2 * m * rows].reshape(2, m, rows) for b in self._memory)
        # element (e, r) of an edge plane goes to bin u_e * rows + r of the
        # flattened phases, so every bin sums its terms in edge order
        r = np.arange(rows)
        self.bins_u, self.bins_v = ((e[:, None] * rows + r).ravel() for e in (self.u, self.v))


def _rhs_core(
    theta: np.ndarray,
    t: float,
    edges: _BlockEdges,
    coupling_gain: float,
    shil_gain_now: float,
    n_phases: int,
    detuning: float | np.ndarray | None,
) -> np.ndarray:
    """Phase velocities of a block of runs: row r of the block is column r of
    the (n, rows) arrays `theta` and the result, and `edges` is sized for the
    block.

    Each row's velocities have the bits of the run on its own (a block of one
    row).  `detuning` is None when no row is detuned, else one rate per row
    (a lone run's rate may be a number).

    One transcendental pass serves the whole call: with h = tan(theta / 2),
    w = 2 / (1 + h^2) gives sin(theta) = h * w and cos(theta) = w - 1, and
    sin(N * theta) = sin(theta) * U_{N-1}(cos(theta)) by the Chebyshev
    recurrence U_k = 2 cos(theta) U_{k-1} - U_{k-2}.  One gather per edge end
    copies both planes of every row; each edge (u, v) then costs one
    sin(theta_u - theta_v) = s_u c_v - c_u s_v, added to u's bin and
    subtracted from v's.  A detuned row rotates the SHIL term by delta * t
    with one sine and cosine per row.
    """
    sc = np.empty((2, *theta.shape))
    h = np.tan(0.5 * theta)
    w = 2.0 / (1.0 + h * h)
    s = np.multiply(h, w, out=sc[0])
    c = np.subtract(w, 1.0, out=sc[1])
    pu, pv = edges.planes_u, edges.planes_v
    sc.take(edges.u, axis=1, out=pu, mode="clip")
    sc.take(edges.v, axis=1, out=pv, mode="clip")
    # (s_u c_v, c_u s_v), then their difference d in the first plane
    pu *= pv[::-1]
    d = pu[0]
    d -= pu[1]
    d = d.ravel()
    coupling = np.bincount(edges.bins_u, d, minlength=theta.size)
    coupling -= np.bincount(edges.bins_v, d, minlength=theta.size)
    out = coupling_gain * coupling.reshape(theta.shape)
    if shil_gain_now != 0.0:
        two_c = c + c
        # (U_{N-2}, U_{N-1}) from U_{-1} = 0, U_0 = 1 and U_1 = 2 cos(theta)
        u_prev, u_cur = (0.0, 1.0) if n_phases == 1 else (1.0, two_c)
        for _ in range(n_phases - 2):
            u_prev, u_cur = u_cur, two_c * u_cur - u_prev
        shil = s * u_cur
        if detuning is not None:
            # sin(N theta - delta t) = sin(N theta) cos(delta t) - cos(N theta) sin(delta t),
            # with cos(N theta) = cos(theta) U_{N-1} - U_{N-2}
            phase = detuning * t
            shil = shil * np.cos(phase) - (c * u_cur - u_prev) * np.sin(phase)
        out -= shil_gain_now * shil
    return out


def rhs(
    graph: Graph,
    state: PhaseState,
    coupling_gain: float,
    shil_gain_now: float,
    n_phases: int,
) -> np.ndarray:
    """Instantaneous phase velocities for the given gains, without detuning.

    This is exactly minus the gradient of
    ``lyapunov(graph, state, coupling_gain, shil_gain_now, n_phases)``.
    """
    if shil_gain_now < 0:
        raise ValueError("shil_gain_now must be >= 0")
    return _rhs_core(state.phases[:, None], 0.0, _BlockEdges(graph, 1), coupling_gain,
                     shil_gain_now, n_phases, None)[:, 0]


def random_init(n: int, seed: int) -> PhaseState:
    """Uniform random phases on [0, 2*pi), deterministic per seed."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng([seed, 0])
    return PhaseState(rng.random(n) * TWO_PI)


def _settle_step(counts: Optional[np.ndarray], prev_spins: Optional[np.ndarray], spins: np.ndarray,
                 max_rate: np.ndarray, t: float, settle_from: float) -> tuple[np.ndarray, np.ndarray]:
    """The settle rule at one checkpoint, for each row of a block.

    A row's count is how many checkpoints in a row, up to the previous one,
    had its current coloring, counted from t = 0 (``counts`` is None at the
    first checkpoint).  The row has settled when the count reaches
    CONVERGENCE_WINDOW - 1, its max |dtheta/dt| is below CONVERGENCE_EPS and
    t >= `settle_from`, which solve runs set to the end of the ramp (before
    it, a run whose phases have not moved yet would count as settled).
    Returns the new counts and the settled mask.
    """
    counts = (np.zeros(len(spins), dtype=np.int64) if counts is None
              else np.where((spins == prev_spins).all(axis=1), counts + 1, 0))
    return counts, (counts >= CONVERGENCE_WINDOW - 1) & (max_rate < CONVERGENCE_EPS) & (t >= settle_from)


def integrate_block(
    graph: Graph,
    inits: Sequence[PhaseState],
    params: DynamicsParams,
    schedule: ShilSchedule,
    seeds: Sequence[int],
    detunings: Optional[Sequence[float]] = None,
    settle_exit: bool = False,
    record: Optional[Callable[[np.ndarray, Checkpoint], None]] = None,
) -> tuple[Checkpoint, np.ndarray]:
    """Fixed-step RK4 integration of a block of runs in lockstep.

    Every row shares ``params`` and ``schedule``; row r starts from
    ``inits[r]`` with seed ``seeds[r]`` and rate ``detunings[r]`` (None: every
    row at ``params.detuning``).  The rows form the columns of one (n, rows)
    phase array, so each step and checkpoint is a fixed set of whole-array
    passes, and each row's every step has the bits it has when the row runs
    alone.  Noise of std ``noise_amplitude * sqrt(dt)`` per step, when
    enabled, comes from a stream derived from the row's seed.  Phases are wrapped to [0, 2*pi)
    after every step (`potts.wrap_phases`).  Checkpoints (the Lyapunov value,
    the rounded coloring and max |dtheta/dt| of every running row) are taken
    every round(CHECKPOINT_STRIDE / dt) steps and at the last step.

    A row settles at the first checkpoint that meets the settle rule
    (`_settle_step`).  Every row ends at the last step, or with ``settle_exit``
    once settled if the rest of its run is a fixed gradient flow: no noise and
    no detuning.  ``record(rows, checkpoint)``, when given, is called at each
    checkpoint with the block indices of the running rows and the Checkpoint
    of those rows.  Returns the block as one Checkpoint, row r at its last
    checkpoint, and the (rows,) settle times (NaN if unsettled).  Raises
    IntegrationDivergedError, naming the row's seed, if a phase becomes
    non-finite, or if a fixed gradient flow's Lyapunov value rises by more
    than 1e-6 per edge and step between two checkpoints over which the
    envelope is constant: a step size too large for the gains.
    """
    n = graph.num_vertices
    rates = np.full(len(seeds), params.detuning) if detunings is None else np.array(detunings, float)
    if not len(inits) == len(rates) == len(seeds) >= 1:
        raise ValueError("a block needs one init, seed and detuning per row")
    if any(len(init) != n for init in inits):
        raise ValueError("initial state length does not match graph")
    edges = _BlockEdges(graph, len(seeds))
    num_edges = graph.num_edges
    kc, ks_max, nph, dt = params.coupling_gain, params.shil_gain_max, params.n_phases, params.dt
    steps = int(round(params.t_max / dt))
    ckpt_every = max(1, int(round(CHECKPOINT_STRIDE / dt)))
    noise = params.noise_amplitude
    rngs = [np.random.default_rng([seed, 1]) for seed in seeds] if noise > 0 else None
    noise_std = noise * np.sqrt(dt)
    # rows whose run is a fixed gradient flow, which descends the Lyapunov
    # function while the envelope is constant
    flows = (rates == 0) & (noise == 0)
    exits = flows & settle_exit
    rise_tol = 1e-6 * num_edges * ckpt_every
    settled_at = np.full(len(seeds), np.nan)
    # each row's last checkpoint, filled in as the row ends
    end_time, end_lyap, end_rate = (np.empty(len(seeds)) for _ in range(3))
    end_phases = np.empty((len(seeds), n))
    end_spins = np.empty((len(seeds), n), dtype=np.int64)

    # block indices of the rows still running, in the order of the arrays below
    rows = np.arange(len(seeds))
    # one rate per running row, None if no row is detuned (only fixed
    # gradient flows leave a block early, so a detuned row stays to the end)
    detuning = rates if rates.any() else None
    theta = np.stack([init.phases for init in inits], axis=1)
    # the last checkpoint's time, and per running row its spins, settle count
    # and Lyapunov value
    t_prev = spins = counts = lyap = None

    def f(theta: np.ndarray, t: float) -> np.ndarray:
        return _rhs_core(theta, t, edges, kc, ks_max * schedule.envelope(t), nph, detuning)

    def constant(t_a: float, t_b: float) -> bool:
        """Whether the envelope is constant from t_a to t_b: it is 0 on
        [0, t_on), and at t_on it is already 1 when the ramp is 0."""
        return t_b < schedule.t_on or t_a >= schedule.ramp_end

    # overflow to inf is caught by wrap_phases, so silence the intermediate
    # numpy warnings it would spray first
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = f(theta, 0.0)
        for i in range(steps + 1):
            t = i * dt
            if i % ckpt_every == 0 or i == steps:
                # k1 is the velocity at this checkpoint; the state holds one
                # run per row, C-contiguous, so row sums have their lone bits
                state = PhaseState(theta.T)
                max_rate = np.abs(k1).max(axis=0)
                prev_spins, spins = spins, quantize(state, nph).spins
                counts, settled = _settle_step(counts, prev_spins, spins, max_rate, t,
                                               schedule.ramp_end)
                settled &= np.isnan(settled_at[rows])
                settled_at[rows[settled]] = t
                # every running row ends at the last step
                ends = settled & exits[rows] | (i == steps)
                lyap_prev, lyap = lyap, lyapunov(graph, state, kc, ks_max * schedule.envelope(t), nph)
                # a flow's Lyapunov value is checked against the last
                # checkpoint's while the envelope is constant
                if t_prev is not None and constant(t_prev, t):
                    risen = flows[rows] & (lyap > lyap_prev + rise_tol)
                    if risen.any():
                        k = np.argmax(risen)
                        raise IntegrationDivergedError(
                            f"run with seed {seeds[rows[k]]}: Lyapunov value rose from "
                            f"{lyap_prev[k]:g} to {lyap[k]:g} between t={t_prev:g} and t={t:g} "
                            "cycles (reduce dt or the gains)"
                        )
                if record is not None:
                    record(rows, Checkpoint(np.full(len(rows), t), state, lyap,
                                            Coloring(spins, nph), max_rate))
                done = rows[ends]
                end_time[done], end_lyap[done], end_rate[done] = t, lyap[ends], max_rate[ends]
                end_phases[done], end_spins[done] = state.phases[ends], spins[ends]
                t_prev = t
                if ends.all():
                    break
                if ends.any():
                    keep = ~ends
                    rows, spins, counts, lyap = (a[keep] for a in (rows, spins, counts, lyap))
                    theta, k1 = theta[:, keep], k1[:, keep]
                    detuning = None if detuning is None else detuning[keep]
                    edges.resize(len(rows))
            # the RK4 stages, in place and in the operation order of
            # theta + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4), so with its bits
            x = k1 * (0.5 * dt)
            k2 = f(np.add(x, theta, out=x), t + 0.5 * dt)
            k3 = f(np.add(np.multiply(k2, 0.5 * dt, out=x), theta, out=x), t + 0.5 * dt)
            k4 = f(np.add(np.multiply(k3, dt, out=x), theta, out=x), t + dt)
            acc = np.add(k1, np.multiply(k2, 2.0, out=k2), out=k2)
            acc += np.multiply(k3, 2.0, out=k3)
            acc += k4
            acc *= dt / 6.0
            theta += acc
            if rngs is not None:
                theta += np.stack([rngs[r].normal(0.0, noise_std, n) for r in rows], axis=1)
            if not wrap_phases(theta):
                seed = seeds[rows[np.argmin(np.isfinite(theta).all(axis=0))]]
                raise IntegrationDivergedError(
                    f"run with seed {seed}: non-finite phase at t={(i + 1) * dt:g} cycles "
                    "(reduce dt or the gains)"
                )
            # the next step's k1 is also the velocity a checkpoint there reports
            k1 = f(theta, (i + 1) * dt)
    return Checkpoint(end_time, PhaseState(end_phases), end_lyap, Coloring(end_spins, nph),
                      end_rate), settled_at
