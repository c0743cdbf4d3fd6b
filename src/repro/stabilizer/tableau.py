"""Aaronson–Gottesman stabilizer tableau with vectorized row operations.

The tableau (CHP, arXiv:quant-ph/0406196) represents an ``n``-qubit
stabilizer state by ``2n`` Pauli generators — ``n`` destabilizers followed by
``n`` stabilizers — packed into one boolean ``(2n, 2n+1)`` array: columns
``0..n-1`` are the X bits, ``n..2n-1`` the Z bits, and the last column the
sign bit.  Row ``i`` encodes the Hermitian Pauli

    ``(-1)^{r_i} * prod_j  i^{x_ij z_ij} X_j^{x_ij} Z_j^{z_ij}``.

Clifford gates are O(2n) boolean *column* updates applied to every generator
at once; measurement costs one symplectic row reduction.  Two things go
beyond the textbook algorithm:

* :meth:`Tableau.sample` draws any number of full computational-basis
  measurement records **without replaying the circuit**: the outcome
  distribution of a stabilizer state is uniform over an affine subspace
  ``x0 (+) span(B)`` where ``B`` is a GF(2) basis of the stabilizer X-block's
  row space, so sampling is one matrix product over GF(2) per batch — the
  only randomness replayed is the measurement randomness;
* :meth:`Tableau.state_vector` reconstructs the dense state (for parity
  tests at small ``n``) by projecting a support basis state through every
  stabilizer, ``|psi> ∝ prod_j (I + g_j) |x0>``.

Bit convention matches the rest of the toolchain: qubit 0 is the most
significant bit of a basis-state index.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..linalg.tensor_ops import bits_to_index


def gf2_row_basis(rows: np.ndarray) -> np.ndarray:
    """Row-reduce a boolean matrix over GF(2); returns the independent rows.

    The output is in row-echelon form with ``shape (rank, n)`` and dtype
    ``uint8``.
    """
    matrix = np.ascontiguousarray(rows, dtype=np.uint8).copy()
    if matrix.ndim != 2:
        raise ValueError("gf2_row_basis expects a 2-D matrix")
    num_rows, num_cols = matrix.shape
    rank = 0
    for col in range(num_cols):
        if rank == num_rows:
            break
        pivots = np.nonzero(matrix[rank:, col])[0]
        if pivots.size == 0:
            continue
        pivot = rank + int(pivots[0])
        if pivot != rank:
            matrix[[rank, pivot]] = matrix[[pivot, rank]]
        others = np.nonzero(matrix[:, col])[0]
        others = others[others != rank]
        if others.size:
            matrix[others] ^= matrix[rank]
        rank += 1
    return matrix[:rank]


class Tableau:
    """A stabilizer/destabilizer tableau over ``num_qubits`` qubits."""

    def __init__(self, num_qubits: int, initial_bits: Optional[Sequence[int]] = None):
        n = int(num_qubits)
        if n < 1:
            raise ValueError("Tableau needs at least one qubit")
        self.n = n
        self.table = np.zeros((2 * n, 2 * n + 1), dtype=bool)
        self._support_memo: Optional[Tuple[bytes, np.ndarray, np.ndarray]] = None
        rows = np.arange(n)
        self.x[rows, rows] = True            # destabilizer i = X_i
        self.z[n + rows, rows] = True        # stabilizer i = Z_i
        if initial_bits is not None:
            bits = [int(b) & 1 for b in initial_bits]
            if len(bits) != n:
                raise ValueError("initial_bits length must equal num_qubits")
            for qubit, bit in enumerate(bits):
                if bit:
                    self.apply("X", (qubit,))

    # -- packed-array views ------------------------------------------------
    @property
    def x(self) -> np.ndarray:
        """X-bit block, shape ``(2n, n)`` (a view into the packed table)."""
        return self.table[:, : self.n]

    @property
    def z(self) -> np.ndarray:
        """Z-bit block, shape ``(2n, n)`` (a view into the packed table)."""
        return self.table[:, self.n : 2 * self.n]

    @property
    def r(self) -> np.ndarray:
        """Sign column, shape ``(2n,)`` (a view into the packed table)."""
        return self.table[:, 2 * self.n]

    def copy(self) -> "Tableau":
        duplicate = Tableau.__new__(Tableau)
        duplicate.n = self.n
        duplicate.table = self.table.copy()
        duplicate._support_memo = self._support_memo
        return duplicate

    # -- Clifford gates as column updates ----------------------------------
    def h(self, a: int) -> None:
        x, z = self.x[:, a], self.z[:, a]
        self.r[:] ^= x & z
        self.table[:, [a, self.n + a]] = self.table[:, [self.n + a, a]]

    def s(self, a: int) -> None:
        x, z = self.x[:, a], self.z[:, a]
        self.r[:] ^= x & z
        z ^= x

    def sdg(self, a: int) -> None:
        x, z = self.x[:, a], self.z[:, a]
        self.r[:] ^= x & ~z
        z ^= x

    def x_gate(self, a: int) -> None:
        self.r[:] ^= self.z[:, a]

    def y_gate(self, a: int) -> None:
        self.r[:] ^= self.x[:, a] ^ self.z[:, a]

    def z_gate(self, a: int) -> None:
        self.r[:] ^= self.x[:, a]

    def cnot(self, a: int, b: int) -> None:
        xa, za = self.x[:, a], self.z[:, a]
        xb, zb = self.x[:, b], self.z[:, b]
        self.r[:] ^= xa & zb & (xb ^ za ^ True)
        xb ^= xa
        za ^= zb

    def cz(self, a: int, b: int) -> None:
        xa, za = self.x[:, a], self.z[:, a]
        xb, zb = self.x[:, b], self.z[:, b]
        self.r[:] ^= xa & xb & (za ^ zb)
        za ^= xb
        zb ^= xa

    def swap(self, a: int, b: int) -> None:
        n = self.n
        self.table[:, [a, b, n + a, n + b]] = self.table[:, [b, a, n + b, n + a]]

    _GATES = {
        "X": "x_gate",
        "Y": "y_gate",
        "Z": "z_gate",
        "H": "h",
        "S": "s",
        "SDG": "sdg",
        "CNOT": "cnot",
        "CZ": "cz",
        "SWAP": "swap",
    }

    def apply(self, name: str, qubits: Sequence[int]) -> None:
        """Apply a named primitive (see :data:`~repro.circuits.clifford.CLIFFORD_PRIMITIVES`)."""
        try:
            method = getattr(self, self._GATES[name])
        except KeyError as exc:
            raise ValueError(f"unknown stabilizer primitive {name!r}") from exc
        method(*qubits)

    # -- Pauli-product phase bookkeeping -----------------------------------
    @staticmethod
    def _g(x1: np.ndarray, z1: np.ndarray, x2: np.ndarray, z2: np.ndarray) -> np.ndarray:
        """Aaronson–Gottesman ``g``: the i-exponent of one-qubit Pauli products.

        ``(x1, z1)`` belongs to the left factor, ``(x2, z2)`` to the right;
        inputs are boolean arrays (broadcastable), output is int8.
        """
        x1i = x1.astype(np.int8)
        z1i = z1.astype(np.int8)
        x2i = x2.astype(np.int8)
        z2i = z2.astype(np.int8)
        both = x1i * z1i * (z2i - x2i)
        x_only = x1i * (1 - z1i) * z2i * (2 * x2i - 1)
        z_only = (1 - x1i) * z1i * x2i * (1 - 2 * z2i)
        return both + x_only + z_only

    def _rowsum(self, targets: np.ndarray, source: int) -> None:
        """Left-multiply each target row by the source row (phases tracked mod 4)."""
        x1, z1 = self.x[source], self.z[source]
        x2, z2 = self.x[targets], self.z[targets]
        phase = (
            2 * self.r[targets].astype(np.int64)
            + 2 * int(self.r[source])
            + self._g(x1[None, :], z1[None, :], x2, z2).sum(axis=1, dtype=np.int64)
        ) % 4
        self.r[targets] = phase == 2
        self.x[targets] ^= x1
        self.z[targets] ^= z1

    def _product_phase(self, stabilizer_rows: np.ndarray) -> int:
        """Phase exponent (mod 4) of the product of the given stabilizer rows."""
        x_acc = np.zeros(self.n, dtype=bool)
        z_acc = np.zeros(self.n, dtype=bool)
        phase = 0
        for row in stabilizer_rows:
            phase = (
                phase
                + 2 * int(self.r[row])
                + int(self._g(self.x[row], self.z[row], x_acc, z_acc).sum(dtype=np.int64))
            ) % 4
            x_acc ^= self.x[row]
            z_acc ^= self.z[row]
        return phase

    # -- Measurement -------------------------------------------------------
    def measure(
        self,
        qubit: int,
        rng: Optional[np.random.Generator] = None,
        forced: Optional[int] = None,
    ) -> Tuple[int, bool]:
        """Measure ``qubit`` in the computational basis, collapsing the state.

        Returns ``(outcome, deterministic)``.  When the outcome is random
        (some stabilizer anticommutes with ``Z_qubit``), the result is drawn
        from ``rng`` unless ``forced`` pins it — both 0 and 1 have
        probability 1/2, so any forced value is a valid post-measurement
        branch.  ``forced`` is ignored for deterministic outcomes.
        """
        n = self.n
        anticommuting = np.nonzero(self.x[n:, qubit])[0]
        if anticommuting.size:
            pivot = n + int(anticommuting[0])
            others = np.nonzero(self.x[:, qubit])[0]
            others = others[others != pivot]
            if others.size:
                self._rowsum(others, pivot)
            self.table[pivot - n] = self.table[pivot]
            self.table[pivot] = False
            self.z[pivot, qubit] = True
            if forced is None:
                if rng is None:
                    raise ValueError("random measurement outcome requires an rng or forced value")
                outcome = int(rng.integers(0, 2))
            else:
                outcome = int(forced) & 1
            self.r[pivot] = bool(outcome)
            return outcome, False
        rows = n + np.nonzero(self.x[:n, qubit])[0]
        phase = self._product_phase(rows)
        return int(phase == 2), True

    def measure_all(
        self,
        rng: Optional[np.random.Generator] = None,
        forced: Optional[int] = None,
    ) -> np.ndarray:
        """Measure every qubit in order; returns the outcome bits (uint8)."""
        return np.array(
            [self.measure(qubit, rng=rng, forced=forced)[0] for qubit in range(self.n)],
            dtype=np.uint8,
        )

    # -- Output distribution ------------------------------------------------
    def support(self) -> Tuple[np.ndarray, np.ndarray]:
        """The affine support of the measurement distribution.

        Returns ``(x0, basis)``: one support bitstring (uint8, shape ``(n,)``)
        and a GF(2) basis (uint8, shape ``(k, n)``) such that the outcome
        distribution is uniform over ``{x0 (+) c.B : c in GF(2)^k}``.

        Memoized by the exact bytes of :attr:`table`, so any gate or
        measurement since the last call recomputes it.  The returned arrays
        are read-only.
        """
        key = self.table.tobytes()
        memo = self._support_memo
        if memo is not None and memo[0] == key:
            return memo[1], memo[2]
        x0 = self.copy().measure_all(forced=0)
        basis = gf2_row_basis(self.x[self.n :, :])
        x0.flags.writeable = False
        basis.flags.writeable = False
        self._support_memo = (key, x0, basis)
        return x0, basis

    def sample(self, repetitions: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``repetitions`` measurement records, shape ``(repetitions, n)``.

        Replays only measurement randomness: one GF(2) matrix product maps
        uniform coefficient bits through the support basis.
        """
        x0, basis = self.support()
        if basis.shape[0] == 0:
            return np.tile(x0, (repetitions, 1))
        coefficients = rng.integers(0, 2, size=(repetitions, basis.shape[0]), dtype=np.uint8)
        bits = (coefficients.astype(np.uint32) @ basis) & 1
        return bits.astype(np.uint8) ^ x0

    def support_indices(self) -> Tuple[np.ndarray, int]:
        """All support basis-state indices plus the subspace dimension ``k``.

        Enumerates ``2^k`` indices; callers should guard ``k`` (the simulator
        caps dense reconstructions at small ``n``).
        """
        x0, basis = self.support()
        shifts = self.n - 1 - np.arange(self.n)
        start = int((x0.astype(np.int64) << shifts).sum())
        indices = np.array([start], dtype=np.int64)
        for row in basis:
            translated = indices ^ int((row.astype(np.int64) << shifts).sum())
            indices = np.concatenate([indices, translated])
        return indices, basis.shape[0]

    def probabilities(self) -> np.ndarray:
        """Dense ``(2^n,)`` outcome distribution (small ``n`` only)."""
        indices, rank = self.support_indices()
        distribution = np.zeros(2 ** self.n)
        distribution[indices] = 0.5 ** rank
        return distribution

    def state_vector(self) -> np.ndarray:
        """Dense ``(2^n,)`` state vector, up to global phase (small ``n`` only).

        Projects a support basis state through every stabilizer:
        ``|psi> ∝ prod_j (I + g_j) |x0>``.
        """
        n = self.n
        dim = 2 ** n
        x0, _ = self.support()
        psi = np.zeros(dim, dtype=complex)
        psi[bits_to_index(x0)] = 1.0
        indices = np.arange(dim, dtype=np.int64)
        shifts = n - 1 - np.arange(n)
        for row in range(n, 2 * n):
            psi = 0.5 * (psi + self._apply_pauli_row(row, psi, indices, shifts))
        norm = np.linalg.norm(psi)
        if norm <= 0:  # pragma: no cover - support point guarantees overlap
            raise RuntimeError("stabilizer projection annihilated the support state")
        return psi / norm

    def _apply_pauli_row(
        self, row: int, psi: np.ndarray, indices: np.ndarray, shifts: np.ndarray
    ) -> np.ndarray:
        """Apply the row's Pauli (including sign and i^{xz} factors) to ``psi``."""
        x_bits = self.x[row].astype(np.int64)
        z_bits = self.z[row].astype(np.int64)
        x_mask = int((x_bits << shifts).sum())
        sources = indices ^ x_mask
        # parity of  b . z  for each source index b
        parity = np.zeros_like(indices)
        for qubit in np.nonzero(z_bits)[0]:
            parity ^= (sources >> int(shifts[qubit])) & 1
        constant = (-1) ** int(self.r[row]) * (1j) ** int((x_bits & z_bits).sum())
        phases = constant * np.where(parity, -1.0, 1.0)
        return phases * psi[sources]

    def __repr__(self) -> str:
        return f"Tableau(num_qubits={self.n})"
