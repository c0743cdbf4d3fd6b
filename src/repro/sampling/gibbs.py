"""Gibbs sampling from compiled arithmetic circuits (Section 3.3.2).

The sampler walks a Markov chain over the joint space of retained variables
(final qubit states and noise-branch selectors).  The stationary distribution
is proportional to the squared magnitude of the amplitude of the full
assignment, so the marginal over the qubit bits is exactly the measurement
distribution of the noisy circuit.

Each step resamples one retained *bit* from its conditional distribution.
The current state's squared amplitude is cached, so one upward pass over the
arithmetic circuit, for the state with that bit flipped, completes the
conditional: the per-step cost is linear in the size of the compiled
circuit.  An occasional independence (full-redraw) Metropolis move keeps the
chain ergodic on circuits whose amplitude distribution contains exact zeros
(Clifford-like circuits), without changing the stationary distribution.

Chain ensembles
---------------
The sampler runs an *ensemble* of independent chains in lockstep.  Chain
state lives in a ``(num_chains, num_retained_variables)`` integer matrix,
the same rows the compiled circuit's retained evidence index binds; the
sampler's free bits and forced-bit masks are that index's own arrays, so
the bit layout is decided in one place.  Every move is batched through the
arithmetic circuit's batch axis:

* the initial-state search redraws all still-zero-amplitude chains together;
* one batched upward pass over the flipped states resamples one bit per
  chain — each chain picks its *own* random bit;
* a systematic sweep flips the *same* bit on every chain per step, so it
  keeps one full pass's ``(num_nodes, num_chains)`` values and scores each
  step by recomputing only that bit's cone of the circuit; rows that keep
  their bit get their old cone values back;
* independence moves propose a full redraw for every chain at once (noise
  selectors drawn proportionally to their CAT magnitudes, with the exact
  Metropolis–Hastings correction) and reuse the cached current-state
  weights, so only the proposals need a circuit pass;
* the equilibrated ensemble persists across ``sample()`` calls, so repeated
  draws — the variational-loop usage — skip burn-in entirely.

``sample(n)`` therefore costs ``O(burn_in + n / num_chains)`` batched passes
instead of ``O(n)`` scalar ones, while each chain remains a textbook
random-scan Gibbs chain with the same stationary distribution.  There is no
separate single-chain API: one chain is an ensemble with ``num_chains=1``.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuits.parameters import ParamResolver
from ..simulator.results import SampleResult

DEFAULT_MAX_CHAINS = 64


class GibbsSampler:
    """Markov-chain Monte Carlo sampler over a compiled circuit's outputs.

    Runs ``num_chains`` independent chains in lockstep (see the module
    docstring).
    """

    def __init__(
        self,
        compiled,
        resolver: Optional[ParamResolver] = None,
        rng: Optional[np.random.Generator] = None,
        max_restart_attempts: int = 256,
        restart_probability: float = 0.1,
    ):
        self.compiled = compiled
        self.resolver = resolver
        self.rng = rng or np.random.default_rng()
        self.max_restart_attempts = max_restart_attempts
        self.restart_probability = float(restart_probability)

        self.variables = compiled.retained_variables
        self._cardinalities = np.asarray(
            [variable.cardinality for variable in self.variables], dtype=np.int64
        )
        # The compiled circuit's retained-bit layout: ``bits`` holds the CNF
        # variable of each free bit, ``_bit_columns`` / ``_bit_shifts`` its
        # state column and bit shift (so a batched pass can resample a
        # *different* bit on every chain), and the forced masks fix the
        # CNF-forced bits of each variable's value.
        index = compiled._retained_index
        self.bits = index.free_vars
        self._bit_columns = index.free_columns
        self._bit_shifts = index.free_shifts
        self._forced_clear = index.forced_clear
        self._forced_set = index.forced_set
        self._transition_count = 0
        # Warm chain ensemble carried across sample() calls (see sample()).
        self._ensemble: Optional[Tuple[np.ndarray, np.ndarray]] = None

        self._literal_batch: Optional[np.ndarray] = None
        # A sweep's (num_nodes, C) upward values, valid for its states.
        self._values: Optional[np.ndarray] = None
        self._needs_reburn = False
        self._bind_parameters(resolver)

    def rebind(self, resolver: Optional[ParamResolver]) -> None:
        """Re-bind numeric parameters without discarding the chain ensemble.

        The warm chains were equilibrated for the *previous* binding; the next
        ``sample()`` call therefore repeats its burn-in rounds before
        recording (cheap for the smooth parameter updates of a variational
        loop, where the old ensemble is already close to the new stationary
        distribution) instead of paying a full cold start.
        """
        self.resolver = resolver
        self._bind_parameters(resolver)
        self._needs_reburn = self._ensemble is not None

    def _bind_parameters(self, resolver: Optional[ParamResolver]) -> None:
        self._base_literal_values, self._constant = self.compiled.base_literal_values(resolver)
        # Rebound cache views translate caller resolvers into the compiled
        # template's canonical symbols; the proposal-weight table reads below
        # address the template's nodes directly, so they need the translated
        # resolver (plain compiles translate to the identity).
        resolver = self.compiled.effective_resolver(resolver)

        # Independence-move proposal: per-variable categorical weights over the
        # forced-consistent values.  Final qubits are proposed uniformly; noise
        # selectors are proposed proportionally to their mean squared CAT
        # magnitude (mixed with a uniform floor for ergodicity).  A uniform
        # joint proposal would need ~|support| moves to first visit the
        # dominant noise branch, which is what makes naive restarts mix slowly;
        # the Metropolis–Hastings ratio below corrects for the bias exactly.
        compiled = self.compiled
        self._proposal_log_weights: List[np.ndarray] = []
        self._proposal_cumulative: List[np.ndarray] = []
        for column, variable in enumerate(self.variables):
            size = 2 ** variable.width
            valid = np.zeros(size, dtype=bool)
            for value in range(variable.cardinality):
                if (value & self._forced_clear[column]) == self._forced_set[column]:
                    valid[value] = True
            weights = np.zeros(size, dtype=float)
            if variable.kind == "noise":
                # The selector's own CPT is structural (all ones); the Kraus
                # branch magnitudes live in the CPTs of its children (the
                # post-noise qubit-state nodes), along the parent axis that
                # corresponds to the selector.
                try:
                    branch_weights = np.ones(variable.cardinality, dtype=float)
                    for node in compiled.network.nodes:
                        if variable.node_name not in node.parents:
                            continue
                        axis = node.parents.index(variable.node_name)
                        table = np.abs(node.table(resolver)) ** 2
                        other_axes = tuple(
                            a for a in range(table.ndim) if a != axis
                        )
                        branch_weights = branch_weights * table.mean(axis=other_axes)
                    weights[: variable.cardinality] = branch_weights
                except (KeyError, TypeError, ValueError) as error:
                    warnings.warn(
                        f"could not derive independence-proposal weights for "
                        f"{variable.node_name!r} ({error}); falling back to a "
                        "uniform proposal (slower mixing, same distribution)",
                        RuntimeWarning,
                        stacklevel=2,
                    )
            weights[~valid] = 0.0
            total = weights.sum()
            uniform = valid / valid.sum()
            if total > 0.0:
                weights = 0.75 * weights / total + 0.25 * uniform
            else:
                weights = uniform
            with np.errstate(divide="ignore"):
                log_weights = np.log(weights)
            self._proposal_log_weights.append(log_weights)
            self._proposal_cumulative.append(np.cumsum(weights))

    # ------------------------------------------------------------------
    # Batched state machinery
    # ------------------------------------------------------------------
    def _literal_buffer(self, num_chains: int) -> np.ndarray:
        """Reusable ``(C, num_vars + 1, 2)`` literal-value buffer."""
        buffer = self._literal_batch
        if buffer is None or buffer.shape[0] != num_chains:
            buffer = np.empty(
                (num_chains,) + self._base_literal_values.shape, dtype=complex
            )
            self._literal_batch = buffer
        buffer[...] = self._base_literal_values
        return buffer

    def _bind_states(self, states: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Fill the literal buffer with evidence for every chain's state."""
        buffer = self._literal_buffer(states.shape[0])
        zero_rows = self.compiled.apply_evidence_batch(buffer, states)
        return buffer, zero_rows

    def _amplitudes(self, states: np.ndarray) -> np.ndarray:
        """Amplitude of each chain's full assignment (one batched pass)."""
        buffer, zero_rows = self._bind_states(states)
        return self._scaled(self.compiled.arithmetic_circuit.evaluate_batch(buffer), zero_rows)

    def _scaled(self, roots: np.ndarray, zero_rows: np.ndarray) -> np.ndarray:
        """Amplitudes from circuit roots: times the constant, zero rows zeroed."""
        roots *= self._constant
        roots[zero_rows] = 0.0
        return roots

    def _random_states(self, num_chains: int) -> np.ndarray:
        """Draw every chain's state from the independence-proposal distribution.

        CNF-forced bits are respected by construction: inconsistent values
        carry zero proposal weight.
        """
        states = np.empty((num_chains, len(self.variables)), dtype=np.int64)
        for column in range(len(self.variables)):
            cumulative = self._proposal_cumulative[column]
            draws = self.rng.random(num_chains) * cumulative[-1]
            states[:, column] = np.searchsorted(cumulative, draws, side="right")
        return states

    def _proposal_log_density(self, states: np.ndarray) -> np.ndarray:
        """log q(state) of the independence proposal, per chain."""
        log_density = np.zeros(states.shape[0], dtype=float)
        for column in range(len(self.variables)):
            log_density += self._proposal_log_weights[column][states[:, column]]
        return log_density

    def initial_states(self, num_chains: int) -> Tuple[np.ndarray, np.ndarray]:
        """Find a non-zero-probability starting assignment for every chain.

        Returns ``(states, weights)`` where ``weights`` holds each chain's
        squared amplitude; zero-probability chains are redrawn together, one
        batched pass per attempt round.
        """
        states = self._random_states(num_chains)
        weights = np.abs(self._amplitudes(states)) ** 2
        for _ in range(self.max_restart_attempts):
            stuck = weights <= 0.0
            if not stuck.any():
                return states, weights
            redrawn = self._random_states(int(stuck.sum()))
            states[stuck] = redrawn
            weights[stuck] = np.abs(self._amplitudes(redrawn)) ** 2
        raise RuntimeError(
            "could not find a non-zero-probability initial state for Gibbs sampling"
        )

    def _conditional_weights(
        self,
        states: np.ndarray,
        bit_indices: np.ndarray,
        weights: np.ndarray,
        flipped_weights: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Each chain's squared amplitude with its chosen bit set to 1 and to 0.

        ``weights`` are the current states' weights; the flipped states'
        weights come from ``flipped_weights`` or one batched upward pass.
        """
        rows = np.arange(states.shape[0])
        columns = self._bit_columns[bit_indices]
        masks = np.int64(1) << self._bit_shifts[bit_indices]
        if flipped_weights is None:
            flipped = states.copy()
            flipped[rows, columns] ^= masks
            flipped_weights = np.abs(self._amplitudes(flipped)) ** 2
        is_one = (states[rows, columns] & masks) != 0
        weight_one = np.where(is_one, weights, flipped_weights)
        return weight_one, np.where(is_one, flipped_weights, weights)

    def _resample(
        self,
        states: np.ndarray,
        bit_indices: np.ndarray,
        weights: np.ndarray,
        flipped_weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Resample one (per-chain) bit on every chain: the one accept rule.

        ``bit_indices`` selects an entry of :attr:`bits` per chain and
        ``weights`` holds the chains' current weights; a sweep passes the
        flipped states' ``flipped_weights`` from its cone pass.  Mutates
        ``states`` and ``weights`` in place and returns ``weights``.
        """
        weight_one, weight_zero = self._conditional_weights(
            states, bit_indices, weights, flipped_weights
        )
        total = weight_one + weight_zero

        probability_one = np.divide(
            weight_one, total, out=np.zeros_like(weight_one), where=total > 0.0
        )
        proposed_bits = (self.rng.random(states.shape[0]) < probability_one).astype(np.int64)

        rows = np.arange(states.shape[0])
        columns = self._bit_columns[bit_indices]
        shifts = self._bit_shifts[bit_indices]
        current = states[rows, columns]
        current_bits = (current >> shifts) & 1
        candidates = (current & ~(np.int64(1) << shifts)) | (proposed_bits << shifts)
        # Log-encoded padding values (never satisfiable) keep the old value,
        # as do chains whose conditional has no mass at all.
        valid = (total > 0.0) & (candidates < self._cardinalities[columns])
        states[rows, columns] = np.where(valid, candidates, current)

        effective_bits = np.where(valid, proposed_bits, current_bits)
        weights[...] = np.where(effective_bits == 1, weight_one, weight_zero)
        return weights

    def sweep_batch(self, states: np.ndarray) -> np.ndarray:
        """One systematic-scan sweep over every retained bit, all chains at once.

        One full upward pass fills the cached ``(num_nodes, C)`` value matrix
        and the weights.  Each step flips one bit on every chain, scores the
        flipped states by recomputing that bit's cone, accepts with
        :meth:`_resample`, and puts back the old cone values of the chains
        that kept their bit.  Mutates ``states``; returns the new weights.
        """
        circuit = self.compiled.arithmetic_circuit
        values = self._values
        if values is None or values.shape[1] != states.shape[0]:
            values = self._values = np.empty((circuit.num_nodes, len(states)), dtype=complex)
        buffer, zero_rows = self._bind_states(states)
        roots = circuit.evaluate_batch(buffer, values=values)
        weights = np.abs(self._scaled(roots, zero_rows)) ** 2
        for index, variable in enumerate(self.bits.tolist()):
            column, shift = self._bit_columns[index], self._bit_shifts[index]
            before = (states[:, column] >> shift) & 1
            roots, (cone, saved) = circuit.evaluate_cone(values, variable, 1 - before, before)
            bit_indices = np.full(states.shape[0], index, dtype=np.int64)
            flipped_weights = np.abs(self._scaled(roots, zero_rows)) ** 2
            self._resample(states, bit_indices, weights, flipped_weights)
            flipped = ((states[:, column] >> shift) & 1) != before
            values[cone] = np.where(flipped, values[cone], saved)
        return weights

    def independence_move_batch(self, states: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Metropolis–Hastings full-redraw move for every chain at once.

        Proposals are drawn from the weighted independence distribution (see
        ``__init__``); the acceptance ratio ``pi(y) q(x) / (pi(x) q(y))``
        makes the move exact.  ``weights`` must hold the chains' current
        squared amplitudes (cached by the caller), so only the proposals need
        a circuit pass.  Mutates ``states``/``weights`` in place.
        """
        proposals = self._random_states(states.shape[0])
        proposal_weights = np.abs(self._amplitudes(proposals)) ** 2
        hastings = np.exp(
            self._proposal_log_density(states) - self._proposal_log_density(proposals)
        )
        ratio = np.divide(
            proposal_weights * hastings,
            weights,
            out=np.ones_like(proposal_weights),
            where=weights > 0.0,
        )
        accept = (proposal_weights > 0.0) & (
            (weights <= 0.0) | (self.rng.random(states.shape[0]) < np.minimum(1.0, ratio))
        )
        states[accept] = proposals[accept]
        weights[accept] = proposal_weights[accept]
        return weights

    def _burn_in(self, states: np.ndarray, weights: np.ndarray, sweeps: int) -> np.ndarray:
        """``sweeps`` rounds of a systematic sweep plus (when enabled) one
        independence move: single-bit moves cannot cross zero-amplitude
        regions and independence moves cannot polish within-branch detail.
        """
        for _ in range(sweeps):
            weights = self.sweep_batch(states)
            if self.restart_probability > 0.0:
                weights = self.independence_move_batch(states, weights)
        return weights

    def _transition_batch(self, states: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """One lockstep MCMC transition across the whole ensemble.

        Every ``round(1 / restart_probability)``-th transition is an
        ensemble-wide independence move; every other transition resamples an
        independently chosen random bit on each chain.  The deterministic
        interleaving keeps the move schedule identical for every chain (one
        batched pass per transition) without the shared-coin-flip schedule
        randomness that would correlate otherwise-independent chains.
        """
        self._transition_count += 1
        if self.restart_probability > 0.0:
            interval = max(1, int(round(1.0 / self.restart_probability)))
            if self._transition_count % interval == 0:
                return self.independence_move_batch(states, weights)
        if not len(self.bits):
            return weights
        bit_indices = self.rng.integers(0, len(self.bits), size=states.shape[0])
        return self._resample(states, bit_indices, weights)

    def _encode_state(self, state: Dict[str, int]) -> np.ndarray:
        row = np.zeros((1, len(self.variables)), dtype=np.int64)
        for column, variable in enumerate(self.variables):
            # Unlike the old dict-based path there is no way to leave a
            # variable unbound (marginalized) in the ensemble state matrix,
            # so a partial state is an error rather than silent evidence 0.
            if variable.node_name not in state:
                raise ValueError(
                    f"state is missing retained variable {variable.node_name!r}"
                )
            row[0, column] = int(state[variable.node_name])
        return row

    # ------------------------------------------------------------------
    def sample(
        self,
        num_samples: int,
        burn_in_sweeps: int = 4,
        steps_per_sample: int = 1,
        initial_state: Optional[Dict[str, int]] = None,
        num_chains: Optional[int] = None,
    ) -> SampleResult:
        """Draw ``num_samples`` output bitstrings from a lockstep chain ensemble.

        ``burn_in_sweeps`` full systematic sweeps are discarded first (warm-up
        / mixing, Section 3.3.3); afterwards ``steps_per_sample`` batched
        transitions separate consecutive recording rounds, and every round
        records one sample per chain.  The default ensemble size is
        ``min(num_samples, DEFAULT_MAX_CHAINS)``; ``num_chains=1`` recovers
        a single-chain cost of one upward pass per drawn sample.

        The equilibrated ensemble persists on the sampler: a later
        ``sample()`` call with the same ``num_chains`` continues the chains
        where they left off (exactly like extending one long MCMC run) and
        skips the initial-state search and burn-in, so repeated calls — the
        variational loop's usage — pay only the recording passes.

        Args:
            num_samples: Number of output bitstrings to record
                (``<= 0`` returns an empty result).
            burn_in_sweeps: Full systematic sweeps discarded before
                recording (skipped when a warm ensemble is available).
            steps_per_sample: Batched transitions between recording rounds.
            initial_state: Optional explicit starting assignment (node name
                -> value) for every chain; forces a cold start.
            num_chains: Lockstep ensemble size (clamped to
                ``[1, num_samples]``).

        Returns:
            A :class:`SampleResult` with ``num_samples`` bitstrings over the
            circuit's final qubits.

        Raises:
            RuntimeError: If no non-zero-amplitude initial state is found
                within the restart budget (pathological distributions).
        """
        final_names = [variable.node_name for variable in self.compiled.final_variables]
        if num_samples <= 0:
            return SampleResult(self.compiled.qubits, [])
        if num_chains is None:
            num_chains = min(num_samples, DEFAULT_MAX_CHAINS)
        num_chains = max(1, min(int(num_chains), num_samples))

        warm = (
            initial_state is None
            and self._ensemble is not None
            and self._ensemble[0].shape[0] == num_chains
        )
        if warm:
            states, weights = self._ensemble
            if self._needs_reburn:
                # Parameters were re-bound (rebind()): the chains are close
                # to, but not at, the new stationary distribution — repeat
                # the burn-in rounds before recording.  Each sweep re-weighs
                # the chains with its own full pass.
                if burn_in_sweeps == 0:
                    weights = np.abs(self._amplitudes(states)) ** 2
                weights = self._burn_in(states, weights, burn_in_sweeps)
                self._needs_reburn = False
        else:
            if initial_state is not None:
                states = np.repeat(self._encode_state(initial_state), num_chains, axis=0)
                weights = np.abs(self._amplitudes(states)) ** 2
            else:
                states, weights = self.initial_states(num_chains)

            # An explicit initial_state is the caller's chosen start — skip
            # the equilibration redraws that would move the chains off it.
            if initial_state is None and num_chains > 1 and self.restart_probability > 0.0:
                # Cold-start equilibration: a chain contributes only
                # ``num_samples / num_chains`` samples, so unlike the
                # single-chain case there is no long trajectory for the
                # ergodic average to forget the initial transient over.
                # Independence rounds (one cheap upward pass each) run until
                # every chain has accepted several full redraws — a direct
                # proxy for having forgotten its initial state — bounded for
                # chains stuck in high-probability modes that rarely leave.
                accepted = np.zeros(num_chains, dtype=np.int64)
                for _ in range(16 * max(4, int(round(1.0 / self.restart_probability)))):
                    if accepted.min() >= 4:
                        break
                    previous = states.copy()
                    weights = self.independence_move_batch(states, weights)
                    accepted += np.any(states != previous, axis=1)

            weights = self._burn_in(states, weights, burn_in_sweeps)
            # The freshly built ensemble is equilibrated for the current
            # binding, so any pending rebind() re-burn is moot.
            self._needs_reburn = False

        rounds = -(-num_samples // num_chains)
        # Final qubit variables occupy the leading state columns.
        num_final = len(final_names)
        recorded: List[np.ndarray] = []
        for _ in range(rounds):
            for _ in range(max(1, steps_per_sample)):
                weights = self._transition_batch(states, weights)
            recorded.append(states[:, :num_final].copy())
        self._ensemble = (states, weights)
        stacked = np.concatenate(recorded, axis=0)[:num_samples]
        return SampleResult(self.compiled.qubits, stacked)
