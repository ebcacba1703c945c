"""Characterization and stabilization of approximate universal flip operations.

Subpackages split by concern: `rotation` for axis-angle algebra, `fidelity`
for closed-form (F, Delta) statistics, `circuit` for ladder realizations,
`oracle` for Monte-Carlo reference estimates, `evolve` for the
differential-evolution feedback loop, and `cli` for the experiment runner.
"""

from .circuit import (
    compensated_four_gate_map,
    misaligned_three_gate_map,
    mixture_linear,
    optimal_three_qubit_circuit,
    weights_from_preps,
)
from .evolve import (
    DeConfig,
    FeedbackRun,
    NoiseModel,
    channel_from_unitary,
    gell_mann_basis,
    optimal_controls,
    run_feedback,
    unitary_from_controls,
)
from .fidelity import affine_stats_batch, one_qubit_stats_batch
from .oracle import McEstimate, mc_stats, sample_bloch, sample_unitary
from .rotation import rotation_batch, unitary_batch

__version__ = "0.1.0"

__all__ = [
    "DeConfig",
    "FeedbackRun",
    "McEstimate",
    "NoiseModel",
    "affine_stats_batch",
    "channel_from_unitary",
    "compensated_four_gate_map",
    "gell_mann_basis",
    "mc_stats",
    "misaligned_three_gate_map",
    "mixture_linear",
    "one_qubit_stats_batch",
    "optimal_controls",
    "optimal_three_qubit_circuit",
    "rotation_batch",
    "run_feedback",
    "sample_bloch",
    "sample_unitary",
    "unitary_batch",
    "unitary_from_controls",
    "weights_from_preps",
]
