"""Phase-domain simulator of a coupled-oscillator Potts machine.

Graphs map onto networks of phase oscillators; repulsive couplings realize
the K-coloring objective and an N-th-harmonic injection-locking term
discretizes each phase onto one of N lattice values.  Multi-restart descent
of the resulting energy yields colorings with benchmark statistics.
"""
from .graph_io import DimacsError, Graph, PlantedInstance, gen_planted, parse_dimacs, planted_sidecar, write_dimacs
from .potts import (
    Coloring,
    PhaseState,
    accuracy,
    delta_energy,
    lattice_deviation,
    lattice_phase,
    lattice_state,
    lyapunov,
    quantize,
    vector_energy,
)
from .dynamics import (
    Checkpoint,
    DynamicsParams,
    IntegrationDivergedError,
    ShilSchedule,
    Trajectory,
    detect_convergence,
    integrate,
    random_init,
    rhs,
)
from .solver import (
    AblationMode,
    RunRecord,
    SolveReport,
    ablate,
    bootstrap_mean_diff,
    config_to_settings,
    detune_protocol_params,
    detune_sweep,
    effective_config,
    report_csv,
    report_json,
    solve_multi,
    solve_once,
)
from .oracle import (
    Landscape,
    count_proper_colorings,
    enumerate_landscape,
    landscape_csv,
)

__version__ = "0.1.0"
