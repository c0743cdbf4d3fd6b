"""Result containers shared by all simulator backends.

Every backend ultimately produces either a dense representation of the final
state (state vector or density matrix) or a collection of measurement
samples.  These classes expose a uniform interface so tests, workloads and
the experiment harness can be written once and run against any backend.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.qubits import Qubit
from ..linalg.tensor_ops import (
    bits_to_index,
    density_measurement_probabilities,
    index_to_bits,
    indices_to_bitstrings,
    measurement_probabilities,
)


class SampleResult:
    """A collection of measurement samples over a fixed qubit order.

    Results are values: ``samples`` is not modified after construction.  One
    built from a bit matrix keeps that matrix as bytes and pickles from it
    (job journals checkpoint every row, and one bytes object pickles in a
    fraction of the time of one tuple per shot).
    """

    def __init__(self, qubits: Sequence[Qubit], samples: Iterable[Tuple[int, ...]]):
        """``samples`` is an iterable of bit rows, or a 2-D integer array of them."""
        self.qubits = list(qubits)
        self._packed: Optional[bytes] = None
        if (
            isinstance(samples, np.ndarray)
            and samples.ndim == 2
            and np.issubdtype(samples.dtype, np.integer)
        ):
            # A bit matrix converts in one call; tolist() yields Python ints.
            if samples.shape[1] != len(self.qubits):
                raise ValueError("sample length does not match number of qubits")
            self.samples: List[Tuple[int, ...]] = list(map(tuple, samples.tolist()))
            packed = samples.astype(np.uint8)
            if np.array_equal(packed, samples):
                self._packed = packed.tobytes()
            return
        self.samples = [tuple(int(b) for b in s) for s in samples]
        for sample in self.samples:
            if len(sample) != len(self.qubits):
                raise ValueError("sample length does not match number of qubits")

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def counts(self) -> Counter:
        """Histogram of observed bitstrings."""
        return Counter(self.samples)

    def bitstring_counts(self) -> Dict[str, int]:
        """Histogram keyed by '0101'-style strings (qubit order as given)."""
        return {"".join(str(b) for b in key): value for key, value in self.counts().items()}

    def empirical_distribution(self) -> np.ndarray:
        """Empirical probability over all 2^n basis states (dense array)."""
        # Imported lazily: repro.sampling.gibbs imports this module.
        from ..sampling.metrics import empirical_distribution

        return empirical_distribution(self.samples, len(self.qubits))

    def expectation_of_bit(self, position: int) -> float:
        """Mean value of the bit at ``position`` across samples."""
        if not self.samples:
            raise ValueError("no samples")
        return float(np.mean([s[position] for s in self.samples]))

    def most_common(self, n: int = 1) -> List[Tuple[Tuple[int, ...], int]]:
        return self.counts().most_common(n)

    def __repr__(self) -> str:
        return f"SampleResult(qubits={len(self.qubits)}, samples={len(self.samples)})"

    def __reduce__(self):
        packed = getattr(self, "_packed", None)  # absent on results pickled before packing
        if packed is None:
            return (SampleResult, (self.qubits, self.samples))
        return (_unpack_samples, (self.qubits, packed, len(self.samples)))


def _unpack_samples(qubits: Sequence[Qubit], packed: bytes, shots: int) -> SampleResult:
    """Rebuild a pickled :class:`SampleResult` from its packed bit matrix."""
    bits = np.frombuffer(packed, dtype=np.uint8).reshape(shots, len(qubits))
    return SampleResult(qubits, bits)


def sample_from_probabilities(
    qubits: Sequence[Qubit],
    probabilities: np.ndarray,
    repetitions: int,
    rng: np.random.Generator,
) -> SampleResult:
    """Draw ``repetitions`` shots from a dense output distribution.

    Negative entries (round-off) are clipped to zero and the rest
    normalized; one multinomial ``rng.choice`` picks the basis indices.

    Raises
    ------
    ValueError
        If ``probabilities`` is not a flat vector of length
        ``2 ** len(qubits)``, or the clipped distribution has no positive
        mass.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    if probabilities.ndim != 1:
        raise ValueError("probabilities must be a flat array over basis states")
    if len(probabilities) != 2 ** len(qubits):
        raise ValueError("distribution length does not match qubit count")
    probabilities = np.clip(probabilities, 0.0, None)
    total = probabilities.sum()
    if not total > 0:
        raise ValueError("probabilities must have positive total mass")
    indices = rng.choice(len(probabilities), size=repetitions, p=probabilities / total)
    return SampleResult(qubits, indices_to_bitstrings(indices, len(qubits)))


class StateVectorResult:
    """Final pure state of an ideal simulation."""

    def __init__(self, qubits: Sequence[Qubit], state_vector: np.ndarray):
        self.qubits = list(qubits)
        state_vector = np.asarray(state_vector, dtype=complex)
        if state_vector.shape != (2 ** len(self.qubits),):
            raise ValueError("state vector length does not match qubit count")
        self.state_vector = state_vector

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    def probabilities(self) -> np.ndarray:
        return measurement_probabilities(self.state_vector)

    def amplitude(self, bits: Sequence[int]) -> complex:
        """Amplitude of the given bitstring (qubit order as in ``self.qubits``)."""
        return complex(self.state_vector[bits_to_index(bits)])

    def density_matrix(self) -> np.ndarray:
        return np.outer(self.state_vector, self.state_vector.conj())

    def sample(self, repetitions: int, rng: Optional[np.random.Generator] = None) -> SampleResult:
        return sample_from_probabilities(
            self.qubits, self.probabilities(), repetitions, rng or np.random.default_rng()
        )

    def dirac_notation(self, decimals: int = 3, threshold: float = 1e-6) -> str:
        """Human-readable superposition string such as ``0.707|00> + 0.707|11>``."""
        terms = []
        for index, amplitude in enumerate(self.state_vector):
            if abs(amplitude) <= threshold:
                continue
            bits = "".join(str(b) for b in index_to_bits(index, self.num_qubits))
            value = np.round(amplitude, decimals)
            terms.append(f"({value.real:+g}{value.imag:+g}j)|{bits}>")
        return " + ".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"StateVectorResult(qubits={self.num_qubits})"


class DensityMatrixResult:
    """Final mixed state of a noisy simulation."""

    def __init__(self, qubits: Sequence[Qubit], density_matrix: np.ndarray):
        self.qubits = list(qubits)
        density_matrix = np.asarray(density_matrix, dtype=complex)
        dim = 2 ** len(self.qubits)
        if density_matrix.shape != (dim, dim):
            raise ValueError("density matrix shape does not match qubit count")
        self.density_matrix = density_matrix

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    def probabilities(self) -> np.ndarray:
        return density_measurement_probabilities(self.density_matrix)

    def probability_of(self, bits: Sequence[int]) -> float:
        index = bits_to_index(bits)
        return float(np.real(self.density_matrix[index, index]))

    def purity(self) -> float:
        """Tr(rho^2); equals 1 for pure states."""
        return float(np.real(np.trace(self.density_matrix @ self.density_matrix)))

    def sample(self, repetitions: int, rng: Optional[np.random.Generator] = None) -> SampleResult:
        return sample_from_probabilities(
            self.qubits, self.probabilities(), repetitions, rng or np.random.default_rng()
        )

    def __repr__(self) -> str:
        return f"DensityMatrixResult(qubits={self.num_qubits})"
