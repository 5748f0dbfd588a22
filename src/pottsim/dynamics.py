"""Phase dynamics: Kuramoto-style coupling forces plus an N-SHIL locking term.

Each vertex of the problem graph is one oscillator.  A run's phases follow

    dtheta_i/dt = K_c * sum_j sin(theta_i - theta_j)
                  - K_s(t) * sin(N * theta_i - delta * t)

where j runs over the neighbours of i: every edge is one unit repulsive
coupling.  The SHIL gain K_s(t) is shil_gain_max times the envelope of
`DynamicsParams` (off until t_on, then a linear ramp over `ramp` cycles to
its peak, held to the end), so the graph couplings act first and the N-phase
discretization engages afterwards.  One DynamicsParams holds every setting of
a run: gains, noise, detuning, step, horizon and envelope.  A nonzero
detuning rate `delta` rotates the SHIL lattice, modelling a stimulus
frequency slightly off the exact N-th harmonic.  Time is measured in natural
oscillator cycles.

Every run is integrated in the SHIL frame phi = theta - delta * t / N, which
rotates with the lattice:

    dphi_i/dt = K_c * sum_j sin(phi_i - phi_j) - K_s(t) * sin(N * phi_i) - delta / N,

descent of `potts.lyapunov` plus one constant drift per run.  RK4 commutes with
the change of frame, so only roundoff moves (a run with delta = 0 keeps every
bit), and phases, colorings and velocities are read against the fixed lattice.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from typing import Iterator, Optional, Sequence

import numpy as np

from .graph_io import Graph
from .potts import TWO_PI, lyapunov, phase_count, quantize, wrap_phases

# Time between checkpoints (cycles), rounded to a whole number of
# steps.
CHECKPOINT_STRIDE = 0.5
# Settle rule: the rounded coloring is unchanged over this many consecutive
# checkpoints and max |dtheta/dt| is below CONVERGENCE_EPS at the last one
# (see _checkpoint).
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
    """Gains, noise, detuning, integration grid and SHIL envelope for one machine run.

    The envelope is 0 until t_on, a linear ramp over `ramp` cycles, then 1; a
    run without SHIL sets t_on beyond t_max or the gain to 0.  Defaults are the
    documented operating point: coupling and SHIL strengths balanced so the
    SHIL neither dominates the couplings nor fails to discretize, dt well
    inside the RK4 stability region for those gains.  Each field is stored as
    a Python float (`n_phases` as an int, `potts.phase_count`), so every
    accepted value serializes.
    """

    coupling_gain: float = 1.0
    shil_gain_max: float = 2.0
    n_phases: int = 3
    noise_amplitude: float = 0.0
    detuning: float = 0.0
    dt: float = 0.02
    t_max: float = 50.0
    t_on: float = 5.0
    ramp: float = 5.0

    def __post_init__(self):
        for f in fields(self):
            val = getattr(self, f.name)
            if isinstance(val, bool) or not isinstance(val, numbers.Real):
                raise TypeError(f"{f.name} must be a real number, got {val!r}")
            val = phase_count(val) if f.name == "n_phases" else float(val)
            object.__setattr__(self, f.name, val)
        for name in ("coupling_gain", "shil_gain_max", "noise_amplitude", "t_max", "t_on", "ramp"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if not -np.inf < self.detuning < np.inf:
            raise ValueError("detuning must be finite")
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be finite and positive")
        if (stiffness := self.dt * self.n_phases * self.shil_gain_max) > RK4_REAL_STABILITY:
            raise ValueError(f"dt * n_phases * shil_gain_max = {stiffness:g} exceeds RK4's "
                             f"stability limit {RK4_REAL_STABILITY} (reduce dt or the SHIL gain)")
        if not np.isfinite(max(self.t_max, CHECKPOINT_STRIDE) / self.dt):
            raise ValueError(f"t_max = {self.t_max:g}, dt = {self.dt:g}: the step count must be finite")

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
    """The running rows of a block at time `time`: row r of the (rows, n) `phases` and
    `spins` (the rounded coloring) arrays is running row r, with entry r of the `lyapunov`,
    `max_rate` (max |dphi/dt|), `settled_at` (first settle time, NaN before) and `repeats`
    (how many checkpoints in a row before this one had the row's coloring) arrays, all in
    the SHIL frame (module docstring)."""

    time: float
    phases: np.ndarray
    lyapunov: np.ndarray
    spins: np.ndarray
    max_rate: np.ndarray
    settled_at: np.ndarray
    repeats: np.ndarray


class _BlockEdges:
    """The edges of a block of runs, indexed for its (n, rows) phase array,
    with buffers for the gathered (sin, cos) planes of their endpoints.

    `resize` allocates the planes for a row count, so no RHS call maps and
    faults in fresh edge-sized memory.  `take` fills them with mode="clip",
    which never clips: a Graph's endpoints are checked once and cannot change.
    (Under mode="raise", take buffers `out=` through a temporary.)
    """

    def __init__(self, graph: Graph, rows: int):
        # writeable contiguous copies: `take` copies a strided or read-only index per call
        self.u, self.v = (e.copy() for e in graph.edge_arrays())
        self.resize(rows)

    def resize(self, rows: int):
        self.planes_u, self.planes_v = np.empty((2, 2, self.u.size, rows))
        # element (e, r) of an edge plane goes to bin u_e * rows + r of the
        # flattened phases, so every bin sums its terms in edge order
        r = np.arange(rows)
        self.bins_u, self.bins_v = ((e[:, None] * rows + r).ravel() for e in (self.u, self.v))


def _rhs_core(
    theta: np.ndarray,
    edges: _BlockEdges,
    coupling_gain: float,
    shil_gain_now: float,
    n_phases: int,
    drift: np.ndarray | None,
) -> np.ndarray:
    """SHIL-frame phase velocities of a block of runs: row r of the block is
    column r of the (n, rows) arrays `theta` and the result, and `edges` is
    sized for the block.

    Each row's velocities have the bits of the run on its own (a block of one
    row).  `drift` is None when no row is detuned, else delta / N per row,
    subtracted from every velocity of its row.

    One transcendental pass serves the whole call: with h = tan(theta / 2),
    w = 2 / (1 + h^2) gives sin(theta) = h * w and cos(theta) = w - 1, and
    sin(N * theta) = sin(theta) * U_{N-1}(cos(theta)) by the Chebyshev
    recurrence U_k = 2 cos(theta) U_{k-1} - U_{k-2}.  One gather per edge end
    copies both planes of every row; each edge (u, v) then costs one
    sin(theta_u - theta_v) = s_u c_v - c_u s_v, added to u's bin and
    subtracted from v's.
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
        # (U_{N-2}, U_{N-1}) from U_0 = 1 and U_1 = 2 cos(theta), as N >= 2
        u_prev, u_cur = 1.0, two_c
        for _ in range(n_phases - 2):
            u_prev, u_cur = u_cur, two_c * u_cur - u_prev
        out -= shil_gain_now * (s * u_cur)
    if drift is not None:
        out -= drift
    return out


def random_init(n: int, seed: int) -> np.ndarray:
    """Uniform random phases on [0, 2*pi), deterministic per seed."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng([seed, 0])
    return rng.random(n) * TWO_PI


def _checkpoint(graph: Graph, params: DynamicsParams, theta: np.ndarray, k1: np.ndarray, t: float,
                prev: Optional[Checkpoint], flows: np.ndarray, seeds: Sequence[int],
                steps: int) -> Checkpoint:
    """The Checkpoint at time t of the running rows (phases and velocities the
    columns of `theta` and `k1`), ``steps`` steps after ``prev`` (None at the
    first).  It alone rounds a row to its coloring, tracks its repeats, takes
    its Lyapunov value and checks that for a rise.

    A row settles when its repeats reach CONVERGENCE_WINDOW - 1, max
    |dtheta/dt| is below CONVERGENCE_EPS and t >= ramp_end (before, unmoved
    phases would count as settled).  A fixed gradient flow (``flows`` set)
    whose Lyapunov value exceeds ``prev``'s by 1e-6 per edge and step while the
    envelope is constant (0 before t_on, 1 from ramp_end) raises
    IntegrationDivergedError naming its seed.
    """
    # one run per row, C-contiguous (the steps update theta in place), so row sums have their lone bits
    phases = theta.T.copy()
    max_rate = np.abs(k1).max(axis=0)
    spins = quantize(phases, params.n_phases)
    lyap = lyapunov(graph, phases, params.coupling_gain, params.shil_gain_max * params.envelope(t),
                    params.n_phases)
    if prev is None:
        repeats, settled_at = np.zeros(len(spins), dtype=np.int64), np.full(len(spins), np.nan)
    else:
        repeats = np.where((spins == prev.spins).all(axis=1), prev.repeats + 1, 0)
        settled_at = prev.settled_at
        if t < params.t_on or prev.time >= params.ramp_end:
            risen = flows & (lyap > prev.lyapunov + 1e-6 * graph.num_edges * steps)
            if risen.any():
                k = np.argmax(risen)
                raise IntegrationDivergedError(
                    f"run with seed {seeds[k]}: Lyapunov value rose from {prev.lyapunov[k]:g} to "
                    f"{lyap[k]:g} between t={prev.time:g} and t={t:g} cycles (reduce dt or the gains)")
    settled = (repeats >= CONVERGENCE_WINDOW - 1) & (max_rate < CONVERGENCE_EPS) & (t >= params.ramp_end)
    settled_at = np.where(settled & np.isnan(settled_at), t, settled_at)
    return Checkpoint(t, phases, lyap, spins, max_rate, settled_at, repeats)


def integrate_block(
    graph: Graph,
    inits: Sequence[np.ndarray],
    params: DynamicsParams,
    seeds: Sequence[int],
    detunings: Optional[Sequence[float]] = None,
    settle_exit: bool = False,
) -> Iterator[tuple[np.ndarray, Checkpoint]]:
    """Fixed-step RK4 integration of a block of runs in lockstep.  It yields
    ``(rows, checkpoint)``, the block indices of the running rows and their
    Checkpoint, every round(CHECKPOINT_STRIDE / dt) steps and at the last
    step; a row's last checkpoint is its end.

    Every row shares ``params``; row r starts from ``inits[r]`` with seed
    ``seeds[r]`` and rate ``detunings[r]`` (None: every row at
    ``params.detuning``), in the SHIL frame (module docstring), so a detuned
    row is read against the rotating lattice.  The rows form the columns of
    one (n, rows) phase array, and each row's every step has the bits it has
    alone.  The initial phases are taken mod 2*pi with np.mod's bits; a non-finite one
    raises ValueError, as every input check does, at the first ``next()``.
    Noise of std ``noise_amplitude * sqrt(dt)`` per step comes from a stream
    derived from the row's seed.  Phases are wrapped to [0, 2*pi] after every
    step (`potts.wrap_phases`).

    Each checkpoint is `_checkpoint`'s: a row settles at the first one that
    meets the settle rule, and a fixed gradient flow (no noise and no
    detuning) whose Lyapunov value rises raises IntegrationDivergedError.  A
    row ends at the last step, or with ``settle_exit`` once settled if it is
    such a flow.  A non-finite phase raises IntegrationDivergedError, naming
    the row's seed.
    """
    n = graph.num_vertices
    rates = np.full(len(seeds), params.detuning) if detunings is None else np.array(detunings, float)
    if not len(inits) == len(rates) == len(seeds) >= 1:
        raise ValueError("a block needs one init, seed and detuning per row")
    if any(len(init) != n for init in inits):
        raise ValueError("initial phases length does not match graph")
    # one run per column; + 0.0 turns -0.0 into +0.0, as np.mod does, and
    # from here every step keeps the phases canonical (see wrap_phases)
    theta = np.stack(inits, axis=1, dtype=np.float64) + 0.0
    if not wrap_phases(theta):
        raise ValueError("non-finite initial phase")
    edges = _BlockEdges(graph, len(seeds))
    kc, ks_max, nph, dt = params.coupling_gain, params.shil_gain_max, params.n_phases, params.dt
    steps = int(round(params.t_max / dt))
    ckpt_every = max(1, int(round(CHECKPOINT_STRIDE / dt)))
    rngs = [np.random.default_rng([seed, 1]) for seed in seeds] if params.noise_amplitude else None
    noise_std = params.noise_amplitude * np.sqrt(dt)
    # rows whose run is a fixed gradient flow, the rows the rise check covers
    flows = (rates == 0) & (rngs is None)

    # block indices of the rows still running, in the order of the arrays
    # below, and their last checkpoint (None before the first)
    rows, cp = np.arange(len(seeds)), None
    # the SHIL-frame drift delta / N per running row, None if no row is detuned
    # (only fixed gradient flows leave a block early, so a detuned row stays to the end)
    drift = rates / nph if rates.any() else None

    def f(theta: np.ndarray, t: float) -> np.ndarray:
        return _rhs_core(theta, edges, kc, ks_max * params.envelope(t), nph, drift)

    # overflow to inf is caught by wrap_phases, so silence numpy's warnings first; never across
    # a yield, as numpy keeps this state in a context variable that the caller shares
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = f(theta, 0.0)
    start = stop = 0
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(start, stop):
                # the RK4 stages, in place and in the operation order of
                # theta + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4), so with its bits
                t = i * dt
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
                        "(reduce dt or the gains)")
                # the next step's k1 is also the velocity a checkpoint there reports
                k1 = f(theta, (i + 1) * dt)
            # k1 is the velocity at the checkpoint
            cp = _checkpoint(graph, params, theta, k1, stop * dt, cp, flows[rows],
                             [seeds[r] for r in rows], stop - start)
        yield rows, cp
        # every running row ends at the last step; a flow that can exit has
        # not settled before, or it would have left then
        ends = (cp.settled_at == cp.time) & flows[rows] & settle_exit | (stop == steps)
        if ends.all():
            return
        if ends.any():
            keep = ~ends
            rows, theta, k1 = rows[keep], theta[:, keep], k1[:, keep]
            cp = Checkpoint(cp.time, *(getattr(cp, fld.name)[keep] for fld in fields(cp)[1:]))
            drift = None if drift is None else drift[keep]
            edges.resize(len(rows))
        start, stop = stop, min(stop + ckpt_every, steps)
