"""Phase-domain simulator of a coupled-oscillator Potts machine.

Graphs map onto networks of phase oscillators; repulsive couplings realize
the K-coloring objective and an N-th-harmonic injection-locking term
discretizes each phase onto one of N lattice values.  Multi-restart descent
of the resulting energy yields colorings with benchmark statistics.

The package root exports the library entry points; everything else lives in
its submodule (`graph_io`, `potts`, `dynamics`, `solver`, `oracle`, `cli`).
"""
from .graph_io import gen_planted, parse_dimacs, planted_sidecar, write_dimacs
from .dynamics import DynamicsParams
from .solver import solve_multi

__version__ = "0.1.0"
