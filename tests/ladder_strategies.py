"""Hypothesis strategies for ladder circuits, shared by the property tests.

Circuits are drawn directly rather than from a seeded generator, so
shrinking reaches edge cases such as preparations at exactly 0 or 1.  A
ladder is drawn as the arrays (preps (q - 1,), angles (q,), axes (q, 3))
that `circuit.full_unitary` takes.
"""

import numpy as np
from hypothesis import strategies as st

angles = st.floats(allow_nan=False, allow_infinity=False)
unit_axes = (
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
    .map(np.array)
    .filter(lambda v: np.linalg.norm(v) > 1e-3)
    .map(lambda v: v / np.linalg.norm(v))
)
gates = st.tuples(angles, unit_axes)


@st.composite
def ladder_circuits(draw, max_qubits=5):
    """Ladders of 1 to `max_qubits` qubits, preparations in [0, 1]."""
    count = draw(st.integers(1, max_qubits))
    preps = draw(st.lists(st.floats(0.0, 1.0), min_size=count - 1, max_size=count - 1))
    drawn = draw(st.lists(gates, min_size=count, max_size=count))
    return (
        np.array(preps, dtype=float),
        np.array([angle for angle, _ in drawn]),
        np.array([axis for _, axis in drawn]),
    )


# Bloch vectors in the closed unit ball.
bloch_vectors = (
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
    .map(np.array)
    .map(lambda v: v / max(1.0, np.linalg.norm(v)))
)
