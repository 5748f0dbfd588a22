"""Phase dynamics: Kuramoto-style coupling forces plus an N-SHIL locking term.

Each vertex of the problem graph is one oscillator.  The phase vector evolves
by gradient descent of the Lyapunov function in `potts.lyapunov`:

    dtheta_i/dt = K_c * sum_j sin(theta_i - theta_j)
                  - K_s(t) * sin(N * theta_i - delta * t)

where j runs over the neighbours of i: every edge is one unit repulsive
coupling.  The SHIL gain K_s(t) follows a schedule (off until t_on, linear
ramp, then a constant or square-wave envelope), so the graph couplings act
first and the N-phase discretization engages afterwards.  A nonzero
detuning rate `delta` rotates the SHIL lattice, modelling a stimulus
frequency slightly off the exact N-th harmonic.  Time is measured in natural
oscillator cycles.
"""
from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .graph_io import Graph
from .potts import Coloring, PhaseState, TWO_PI, lyapunov, quantize

# Time between trajectory checkpoints (cycles), rounded to a whole number of
# steps.
CHECKPOINT_STRIDE = 0.5
# Settle rule: the rounded coloring is unchanged over this many consecutive
# checkpoints and max |dtheta/dt| is below CONVERGENCE_EPS at the last one
# (see SettleDetector).
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


@dataclass(frozen=True)
class ShilSchedule:
    """Envelope of the SHIL stimulus: 0 until t_on, linear ramp, then `mode`.

    mode "constant" holds the envelope at 1 after the ramp, "square" gates it
    with a square wave of the given period and duty cycle (an annealing
    schedule), "off" disables the stimulus entirely.
    """

    t_on: float = 5.0
    ramp: float = 5.0
    mode: str = "constant"
    period: float = 0.0
    duty: float = 0.5

    def __post_init__(self):
        if not (0 <= self.t_on < np.inf and 0 <= self.ramp < np.inf):
            raise ValueError("t_on and ramp must be finite and >= 0")
        if self.mode not in ("off", "constant", "square"):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if self.mode == "square":
            if not 0 < self.period < np.inf:
                raise ValueError("square mode needs a finite period > 0")
            if not 0.0 <= self.duty <= 1.0:
                raise ValueError("duty must lie in [0, 1]")

    @property
    def ramp_end(self) -> float:
        """Time at which the ramp ends and the envelope takes its final form."""
        return self.t_on + self.ramp

    def envelope(self, t: float) -> float:
        if self.mode == "off" or t < self.t_on:
            return 0.0
        if self.ramp > 0 and t < self.ramp_end:
            return (t - self.t_on) / self.ramp
        if self.mode == "square":
            return 1.0 if (t - self.t_on - self.ramp) % self.period < self.duty * self.period else 0.0
        return 1.0


@dataclass(frozen=True)
class Checkpoint:
    time: float
    state: PhaseState
    lyapunov: float
    coloring: Coloring
    max_rate: float


@dataclass(frozen=True)
class Trajectory:
    """Sampled run history: one checkpoint per stride plus the final time.

    `stride` is the actual checkpoint spacing in cycles, a whole number of
    integrator steps.
    """

    checkpoints: tuple[Checkpoint, ...]
    stride: float

    def __post_init__(self):
        times = [c.time for c in self.checkpoints]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("checkpoint times must be strictly increasing")

    @property
    def final(self) -> Checkpoint:
        return self.checkpoints[-1]


class SettleDetector:
    """The settle rule, fed one checkpoint at a time.

    The machine has settled at a checkpoint at time >= `settle_from` when the
    rounded coloring is identical over the CONVERGENCE_WINDOW most recent
    checkpoints and max |dtheta/dt| is below CONVERGENCE_EPS at that
    checkpoint.  Solve runs pass the end of the SHIL ramp as `settle_from`:
    before it the envelope is still changing, and a run whose phases have
    not yet moved would count as settled.
    """

    def __init__(self, settle_from: float):
        self.settle_from = settle_from
        self.colorings: deque[np.ndarray] = deque(maxlen=CONVERGENCE_WINDOW)

    def push(self, cp: Checkpoint) -> bool:
        """Record the next checkpoint; True if the machine has settled at it."""
        self.colorings.append(cp.coloring.spins)
        if (cp.time < self.settle_from or cp.max_rate >= CONVERGENCE_EPS
                or len(self.colorings) < CONVERGENCE_WINDOW):
            return False
        return all(np.array_equal(s, cp.coloring.spins) for s in self.colorings)


def _rhs_core(
    theta: np.ndarray,
    t: float,
    u: np.ndarray,
    v: np.ndarray,
    coupling_gain: float,
    shil_gain_now: float,
    n_phases: int,
    detuning: float | np.ndarray | None,
) -> np.ndarray:
    """Phase velocities of one run (a vector) or of a block of runs (one per row).

    `u` and `v` index the flattened phases, so in a block each row's edges are
    offset by its row times the vertex count.  Every bincount bin then sums
    its terms in edge order, and a row's velocities have the same bits as the
    run's on its own.  `detuning` is a number, a column of one rate per row,
    or None when no row is detuned.

    One transcendental pass serves the whole call: with h = tan(theta / 2),
    w = 2 / (1 + h^2) gives sin(theta) = h * w and cos(theta) = w - 1, and
    sin(N * theta) = sin(theta) * U_{N-1}(cos(theta)) by the Chebyshev
    recurrence U_k = 2 cos(theta) U_{k-1} - U_{k-2}.  Each edge (u, v) then
    costs one sin(theta_u - theta_v) = s_u c_v - c_u s_v, added to u's bin
    and subtracted from v's.  A detuned row rotates the SHIL term by
    delta * t with one sine and cosine per row.
    """
    h = np.tan(0.5 * theta)
    w = 2.0 / (1.0 + h * h)
    s = h * w
    c = w - 1.0
    sf, cf = s.ravel(), c.ravel()
    # in place: at most three edge-length arrays are alive at once
    d = sf[u]
    d *= cf[v]
    d_minus = cf[u]
    d_minus *= sf[v]
    d -= d_minus
    coupling = np.bincount(u, d, minlength=theta.size)
    coupling -= np.bincount(v, d, minlength=theta.size)
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
    u, v = graph.edge_arrays()
    return _rhs_core(state.phases, 0.0, u, v, coupling_gain, shil_gain_now, n_phases, None)


def random_init(n: int, seed: int) -> PhaseState:
    """Uniform random phases on [0, 2*pi), deterministic per seed."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng([seed, 0])
    return PhaseState(rng.random(n) * TWO_PI)


def integrate(
    graph: Graph,
    init: PhaseState,
    params: DynamicsParams,
    schedule: ShilSchedule,
    seed: int = 0,
) -> Trajectory:
    """One run of `integrate_block` to t_max, with every checkpoint kept as
    its Trajectory."""
    checkpoints: list[Checkpoint] = []
    integrate_block(graph, [init], [params], schedule, [seed],
                    record=lambda row, cp: checkpoints.append(cp))
    return Trajectory(tuple(checkpoints), _checkpoint_steps(params.dt) * params.dt)


def _checkpoint_steps(dt: float) -> int:
    return max(1, int(round(CHECKPOINT_STRIDE / dt)))


def integrate_block(
    graph: Graph,
    inits: Sequence[PhaseState],
    params: Sequence[DynamicsParams],
    schedule: ShilSchedule,
    seeds: Sequence[int],
    settle_exit: bool = False,
    record: Optional[Callable[[int, Checkpoint], None]] = None,
) -> list[tuple[Checkpoint, Optional[float]]]:
    """Fixed-step RK4 integration of a block of runs in lockstep.

    Row r starts from ``inits[r]`` with ``params[r]`` and ``seeds[r]``; rows
    may differ only in their detuning.  The rows' phases form one (rows, n)
    array, so a step costs the same numpy calls for any number of rows, and
    each row's every step has the bits it has when the row runs alone.
    Noise of std ``noise_amplitude * sqrt(dt)`` per step, when enabled, is
    drawn from a stream derived from the row's seed.  Phases are
    canonicalized to [0, 2*pi) after every step.  Checkpoints (the Lyapunov
    value, the rounded coloring and max |dtheta/dt|) are taken every
    round(CHECKPOINT_STRIDE / dt) steps and at the last step, and passed to
    ``record(r, checkpoint)`` when given.

    A row settles at the first checkpoint that satisfies SettleDetector's
    rule from the end of the ramp.  It runs to t_max, or with
    ``settle_exit`` leaves the block once settled, provided the rest of its
    run would be a fixed gradient flow: no noise, no detuning and an
    envelope that is not a square wave.  Returns each row's last checkpoint
    and settle time (None if unsettled).  Raises IntegrationDivergedError,
    naming the row's seed, if a phase becomes non-finite, or if a fixed
    gradient flow's Lyapunov value rises by more than 1e-6 per edge and step
    between two checkpoints while the envelope is constant (before t_on, or
    from the end of the ramp on).  Both signal a step size too large for the
    gains.
    """
    n = graph.num_vertices
    if not len(inits) == len(params) == len(seeds) >= 1:
        raise ValueError("a block needs one init, params and seed per row")
    if any(len(init) != n for init in inits):
        raise ValueError("initial state length does not match graph")
    base = dataclasses.replace(params[0], detuning=0.0)
    if any(dataclasses.replace(p, detuning=0.0) != base for p in params):
        raise ValueError("the rows of a block may differ only in their detuning")
    u, v = graph.edge_arrays()
    num_edges = len(u)
    # edge endpoints of every row in the flattened (rows, n) phase array
    offsets = n * np.arange(len(seeds))[:, None]
    block_u, block_v = (u + offsets).ravel(), (v + offsets).ravel()
    kc, ks_max, nph, dt = base.coupling_gain, base.shil_gain_max, base.n_phases, base.dt
    steps = int(round(base.t_max / dt))
    ckpt_every = _checkpoint_steps(dt)
    noise = base.noise_amplitude
    rngs = [np.random.default_rng([seed, 1]) for seed in seeds] if noise > 0 else None
    noise_std = noise * np.sqrt(dt)
    # rows whose run is a fixed gradient flow, which descends the Lyapunov
    # function while the envelope is constant
    flows = [noise == 0 and p.detuning == 0 and schedule.mode != "square" for p in params]
    exits = [settle_exit and flow for flow in flows]
    rise_tol = 1e-6 * num_edges * ckpt_every
    settles = [SettleDetector(schedule.ramp_end) for _ in seeds]
    settled_at: list[Optional[float]] = [None] * len(seeds)
    last: list[Optional[Checkpoint]] = [None] * len(seeds)

    # block indices of the rows still running, in the order of the arrays below
    rows = np.arange(len(seeds))
    # only fixed gradient flows leave a block early, so a block with a
    # detuned row keeps one to the end
    detuned = any(p.detuning != 0 for p in params)
    detuning = np.array([[p.detuning] for p in params]) if detuned else None
    theta = np.stack([init.phases for init in inits])

    def f(theta: np.ndarray, t: float) -> np.ndarray:
        ks_now = ks_max * schedule.envelope(t)
        k = len(theta) * num_edges
        return _rhs_core(theta, t, block_u[:k], block_v[:k], kc, ks_now, nph, detuning)

    def checkpoint(phases: np.ndarray, t: float, rate: np.ndarray) -> Checkpoint:
        state = PhaseState(phases)
        ks_now = ks_max * schedule.envelope(t)
        return Checkpoint(
            time=t,
            state=state,
            lyapunov=lyapunov(graph, state, kc, ks_now, nph),
            coloring=quantize(state, nph),
            max_rate=float(np.max(np.abs(rate))),
        )

    def take_checkpoints(t: float, rates: np.ndarray) -> list[int]:
        """Checkpoint every running row; the positions of those that end here."""
        ends = []
        for k, r in enumerate(rows):
            prev = last[r]
            cp = last[r] = checkpoint(theta[k], t, rates[k])
            # the envelope is 0 on [0, t_on), and at t_on it is already 1
            # when the ramp is 0
            if (flows[r] and prev is not None
                    and (schedule.mode == "off" or t < schedule.t_on or prev.time >= schedule.ramp_end)
                    and cp.lyapunov > prev.lyapunov + rise_tol):
                raise IntegrationDivergedError(
                    f"run with seed {seeds[r]}: Lyapunov value rose from {prev.lyapunov:g} "
                    f"to {cp.lyapunov:g} between t={prev.time:g} and t={t:g} cycles "
                    "(reduce dt or the gains)"
                )
            if record is not None:
                record(r, cp)
            if settled_at[r] is None and settles[r].push(cp):
                settled_at[r] = t
                if exits[r]:
                    ends.append(k)
        return ends

    # overflow to inf is caught by the isfinite check below, so silence the
    # intermediate numpy warnings it would spray first
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = f(theta, 0.0)
        ends = take_checkpoints(0.0, k1)
        for i in range(steps):
            if ends:
                keep = np.ones(len(rows), dtype=bool)
                keep[ends] = False
                rows, theta, k1 = rows[keep], theta[keep], k1[keep]
                if detuned:
                    detuning = detuning[keep]
                if not len(rows):
                    break
                ends = []
            t = i * dt
            k2 = f(theta + 0.5 * dt * k1, t + 0.5 * dt)
            k3 = f(theta + 0.5 * dt * k2, t + 0.5 * dt)
            k4 = f(theta + dt * k3, t + dt)
            theta = theta + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if rngs is not None:
                theta = theta + np.stack([rngs[r].normal(0.0, noise_std, n) for r in rows])
            theta %= TWO_PI
            t_next = (i + 1) * dt
            if not np.isfinite(theta).all():
                seed = seeds[rows[np.argmin(np.isfinite(theta).all(axis=1))]]
                raise IntegrationDivergedError(
                    f"run with seed {seed}: non-finite phase at t={t_next:g} cycles "
                    "(reduce dt or the gains)"
                )
            # the next step's k1 is also the velocity a checkpoint here reports
            k1 = f(theta, t_next)
            if (i + 1) % ckpt_every == 0 or i + 1 == steps:
                ends = take_checkpoints(t_next, k1)
    return list(zip(last, settled_at))

