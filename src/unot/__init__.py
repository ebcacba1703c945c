"""Characterization and stabilization of approximate universal flip operations.

Subpackages split by concern: `rotation` for axis-angle algebra, `fidelity`
for closed-form (F, Delta) statistics, `circuit` for ladder realizations,
`oracle` for Monte-Carlo reference estimates, `evolve` for the
differential-evolution feedback loop, and `cli` for the experiment runner.
"""

from .circuit import (
    LadderCircuit,
    StochasticMap,
    compensated_four_gate_map,
    misaligned_three_gate_map,
    optimal_stochastic_map,
    optimal_three_qubit_circuit,
    simulate_full,
    weights_from_preps,
)
from .evolve import (
    DeConfig,
    FeedbackRun,
    GeneratorBasis,
    NoiseModel,
    channel_from_unitary,
    gell_mann_basis,
    optimal_controls,
    run_feedback,
    unitary_from_controls,
)
from .fidelity import (
    AffineBlochChannel,
    FidelityStats,
    affine_channel_stats,
    one_qubit_stats,
    stochastic_map_stats,
    three_qubit_avg_fidelity,
)
from .oracle import McEstimate, SeededSampler, mc_stats, sample_bloch, sample_unitary
from .rotation import OneQubitGate, unit_axis, unitary_from_gate

__version__ = "0.1.0"

__all__ = [
    "AffineBlochChannel",
    "DeConfig",
    "FeedbackRun",
    "FidelityStats",
    "GeneratorBasis",
    "LadderCircuit",
    "McEstimate",
    "NoiseModel",
    "OneQubitGate",
    "SeededSampler",
    "StochasticMap",
    "affine_channel_stats",
    "channel_from_unitary",
    "compensated_four_gate_map",
    "gell_mann_basis",
    "mc_stats",
    "misaligned_three_gate_map",
    "one_qubit_stats",
    "optimal_controls",
    "optimal_stochastic_map",
    "optimal_three_qubit_circuit",
    "run_feedback",
    "sample_bloch",
    "sample_unitary",
    "simulate_full",
    "stochastic_map_stats",
    "three_qubit_avg_fidelity",
    "unit_axis",
    "unitary_from_controls",
    "unitary_from_gate",
    "weights_from_preps",
]
