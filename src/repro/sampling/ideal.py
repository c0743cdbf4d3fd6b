"""Ideal (direct) sampling from a fully known output distribution.

Used as the reference sampler in the paper's Figure 7: the error of Gibbs
sampling is compared against direct multinomial draws from the exact
measurement distribution.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..circuits.qubits import Qubit
from ..simulator.results import SampleResult, sample_from_probabilities


def ideal_sample_from_distribution(
    probabilities: np.ndarray,
    num_samples: int,
    qubits: Sequence[Qubit],
    rng: Optional[np.random.Generator] = None,
) -> SampleResult:
    """Draw samples directly from an exact probability distribution."""
    probabilities = np.asarray(probabilities, dtype=float)
    if probabilities.ndim != 1:
        raise ValueError("probabilities must be a flat array over basis states")
    if len(probabilities) != 2 ** len(qubits):
        raise ValueError("distribution length does not match qubit count")
    return sample_from_probabilities(
        qubits, probabilities, num_samples, rng or np.random.default_rng()
    )


def ideal_sample_from_state_vector(
    state_vector: np.ndarray,
    num_samples: int,
    qubits: Sequence[Qubit],
    rng: Optional[np.random.Generator] = None,
) -> SampleResult:
    """Draw samples from |amplitude|^2 of a state vector."""
    return ideal_sample_from_distribution(
        np.abs(np.asarray(state_vector)) ** 2, num_samples, qubits, rng
    )
