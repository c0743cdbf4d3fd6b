"""The benchmark's workloads.

Every input is generated from the workload seed alone: parameter points are
a seeded random walk, never derived from sampled values, so two commits run
identical inputs.  A workload object is built once per process; ``setup``
(re)builds all of its state, ``op(i)`` runs the i-th timed op and
``check(i, result)`` validates it outside the timed region, raising
:class:`CheckFailed` on a wrong answer.  See ``DESIGN.md`` for why each
workload exists and which layers it stresses.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy.stats import chi2

from repro import device
from repro.algorithms import random_clifford_circuit
from repro.api import RetryPolicy
from repro.circuits import depolarize
from repro.densitymatrix import DensityMatrixSimulator
from repro.knowledge.cache import CompiledCircuitCache, configure_default
from repro.simulator.kc_simulator import KnowledgeCompilationSimulator
from repro.statevector import StateVectorSimulator
from repro.trajectory import TrajectorySimulator
from repro.variational import QAOACircuit, VQECircuit, random_regular_maxcut, square_grid_ising

#: Depolarizing probability after every gate (the paper's Figure 9 model).
NOISE = 0.005
#: Graph seed shared by every run: the topologies are part of the workload
#: definition, so compile and pass costs do not change with the run seed.
GRAPH_SEED = 7
#: Exact paths must agree with the dense reference to this tolerance.
EXACT_TOLERANCE = 1e-10
#: Family-wise false-alarm rate of one run's goodness-of-fit checks.
FAMILY_ALPHA = 1e-4


class CheckFailed(Exception):
    """An op returned a wrong answer."""


def _ansatz(family: str, num_qubits: int, iterations: int):
    if family == "qaoa":
        return QAOACircuit(random_regular_maxcut(num_qubits, seed=GRAPH_SEED), iterations)
    return VQECircuit(square_grid_ising(num_qubits, seed=GRAPH_SEED), iterations)


def _histogram(shots: Sequence[Sequence[int]], num_qubits: int) -> np.ndarray:
    weights = 1 << np.arange(num_qubits - 1, -1, -1)
    indices = np.asarray(shots, dtype=np.int64) @ weights
    return np.bincount(indices, minlength=2 ** num_qubits).astype(float)


def goodness_of_fit(counts: np.ndarray, probabilities: np.ndarray) -> float:
    """Chi-square p-value of ``counts`` against ``probabilities``.

    Outcomes are pooled, smallest expectation first, until every pooled bin
    expects at least five draws, the usual validity condition of the test.
    """
    expected = counts.sum() * np.asarray(probabilities, dtype=float)
    observed_bins: List[float] = []
    expected_bins: List[float] = []
    pending_observed = pending_expected = 0.0
    for index in np.argsort(expected, kind="stable"):
        pending_observed += counts[index]
        pending_expected += expected[index]
        if pending_expected >= 5.0:
            observed_bins.append(pending_observed)
            expected_bins.append(pending_expected)
            pending_observed = pending_expected = 0.0
    if expected_bins:
        observed_bins[-1] += pending_observed
        expected_bins[-1] += pending_expected
    if len(expected_bins) < 2:
        return 1.0
    observed_arr = np.asarray(observed_bins)
    expected_arr = np.asarray(expected_bins)
    statistic = float(((observed_arr - expected_arr) ** 2 / expected_arr).sum())
    return float(chi2.sf(statistic, len(expected_bins) - 1))


def _tvd(counts: np.ndarray, probabilities: np.ndarray) -> float:
    return 0.5 * float(np.abs(counts / counts.sum() - probabilities).sum())


class Workload:
    """Common shape of a workload (see the module docstring)."""

    name = ""
    #: What one op does, for the report.
    op_size = ""
    #: Ops of a traced run, alternating untraced and traced.
    trace_ops = 0
    #: Upper bound on ops per run.
    max_ops = 10_000
    #: Set-ups of a timed run, spread over it; ``setup_s`` is their median.
    setup_repeats = 3

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int):
        raise NotImplementedError

    def check(self, index: int, result) -> Dict[str, float]:
        raise NotImplementedError

    def trace_extras(self, traced: List[int], untraced: List[int], kc_p50: float) -> Dict[str, float]:
        """Workload-specific per-layer metrics of a traced run."""
        return {}


# ----------------------------------------------------------------------
class NoisyVQA(Workload):
    """Figure 9's noisy QAOA as a variational loop on the warm Gibbs path."""

    name = "noisy-vqa"
    op_size = "one seedless 1000-shot sample of noisy QAOA p=1 n=4 at a new parameter point, plus its MaxCut cost"
    trace_ops = 8
    max_ops = 1000
    #: Ops that get the goodness-of-fit test, the Bonferroni family size.
    #: Later ops keep every other check, so a faster sampler that fits
    #: more ops into a run does not weaken the test.
    fit_ops = 32
    shots = 1000

    def setup(self) -> None:
        walk = np.random.default_rng([self.seed, 1])
        steps = walk.normal(0.0, 0.05, size=(self.max_ops + 1, 2))
        self.points = np.clip(walk.uniform(0.2, 0.9, size=2) + np.cumsum(steps, axis=0), 0.05, 1.5)
        self.ansatz = _ansatz("qaoa", 4, 1)
        self.noisy = self.ansatz.circuit.with_noise(lambda: depolarize(NOISE))
        self.cache = CompiledCircuitCache()
        self.simulator = KnowledgeCompilationSimulator(seed=self.seed, cache=self.cache)
        self.compiled = self.simulator.compile_circuit(self.noisy)
        # The cold first sample: initial-state search, equilibration, burn-in.
        self.simulator.sample(self.compiled, self.shots, resolver=self.ansatz.resolver(self.points[0]))
        from repro.sampling import gibbs

        self.chains = min(self.shots, int(getattr(gibbs, "DEFAULT_MAX_CHAINS", 64)))

    def _resolver(self, index: int):
        return self.ansatz.resolver(list(self.points[index + 1]))

    def op(self, index: int):
        shots = self.simulator.sample(self.compiled, self.shots, resolver=self._resolver(index))
        return shots, self.ansatz.objective_from_samples(shots)

    def check(self, index: int, result) -> Dict[str, float]:
        shots, cost = result
        rows = list(shots)
        if len(rows) != self.shots or any(len(row) != 4 for row in rows):
            raise CheckFailed("wrong sample shape")
        if not -4.0 <= cost <= 0.0:
            raise CheckFailed(f"MaxCut cost {cost} out of range")
        stats = self.cache.stats
        if stats.misses != 1 or stats.memory_hits != 0:
            raise CheckFailed(f"an op recompiled or consulted the compile cache: {stats!r}")
        resolved = self.noisy.resolve_parameters(self._resolver(index))
        exact = DensityMatrixSimulator().simulate(resolved).probabilities()
        # The first recorded round holds one draw per chain; chains are
        # independent, consecutive rounds of one chain are not.
        per_chain = _histogram(rows[: self.chains], 4)
        if index < self.fit_ops:
            p_value = goodness_of_fit(per_chain, exact)
            if p_value < FAMILY_ALPHA / self.fit_ops:
                raise CheckFailed(f"samples do not fit the density matrix (p={p_value:.2e})")
        return {
            "gibbs.chain_tvd": _tvd(per_chain, exact),
            "gibbs.shots_tvd": _tvd(_histogram(rows, 4), exact),
        }

    def trace_extras(self, traced, untraced, kc_p50):
        """The paper's baselines, timed on this run's own parameter points."""
        density = DensityMatrixSimulator(seed=self.seed)
        trajectory = TrajectorySimulator(seed=self.seed)
        times: Dict[str, List[float]] = {"densitymatrix.op_s": [], "trajectory.op_s": []}
        for index in traced + untraced:
            resolved = self.noisy.resolve_parameters(self._resolver(index))
            for key, simulator in (("densitymatrix.op_s", density), ("trajectory.op_s", trajectory)):
                start = time.perf_counter()
                simulator.sample(resolved, self.shots, seed=self.seed + index)
                times[key].append(time.perf_counter() - start)
        extras = {key: statistics.median(values) for key, values in times.items()}
        extras["kc_over_dm"] = kc_p50 / extras["densitymatrix.op_s"]
        return extras


# ----------------------------------------------------------------------
class ApiBatch(Workload):
    """Mixed 40-item batches through device('auto'), plain then guarded."""

    name = "api-batch"
    op_size = "two 40-item Device.run(...).result() submissions (plain, then guarded) at 64 shots per item"
    trace_ops = 16
    #: A set-up takes about as long as one op, so it is cheap to repeat
    #: often enough for a steady median.
    setup_repeats = 7
    repetitions = 64
    checked_rows = 4

    def setup(self) -> None:
        # A fresh process-wide compile cache: set-up pays the compiles and
        # every op after it is served from memory.
        configure_default()
        self.walk = np.random.default_rng([self.seed, 3])
        self.ansatze = [_ansatz("qaoa", 6, 1), _ansatz("vqe", 6, 1)]
        self.points = [self.walk.uniform(0.2, 0.9, size=a.num_parameters) for a in self.ansatze]
        cliffords = [
            random_clifford_circuit(12, 12, seed=int(s)).circuit
            for s in self.walk.integers(0, 2**31, size=8)
        ]
        self.circuits: List[object] = []
        self.kinds: List[Optional[int]] = []
        for which, ansatz in enumerate(self.ansatze):
            self.circuits += [ansatz.circuit] * 16
            self.kinds += [which] * 16
        self.circuits += cliffords
        self.kinds += [None] * len(cliffords)
        order = self.walk.permutation(len(self.circuits))
        self.circuits = [self.circuits[i] for i in order]
        self.kinds = [self.kinds[i] for i in order]
        self.kind_seconds: Dict[int, Dict[str, float]] = {}
        self.batches: Dict[int, List] = {}
        # Warm-up: compile every topology the plain and guarded paths use.
        self.op(-1)
        self.batches.pop(-1)

    def _batch(self, index: int) -> List:
        """This op's parameter points: one random-walk step per item."""
        params: List = []
        for kind in self.kinds:
            if kind is None:
                params.append(None)
                continue
            ansatz = self.ansatze[kind]
            self.points[kind] = np.clip(
                self.points[kind] + self.walk.normal(0.0, 0.05, size=ansatz.num_parameters), 0.05, 1.5
            )
            params.append(ansatz.resolver(list(self.points[kind])))
        self.batches[index] = params
        return params

    def op(self, index: int):
        params = self._batch(index)
        submit = dict(observables=["samples", "probabilities"], repetitions=self.repetitions)
        journal = tempfile.mkdtemp(prefix="journal-", dir=self.workdir)
        try:
            start = time.perf_counter()
            plain = device("auto", fallback="knowledge_compilation", seed=self.seed).run(
                self.circuits, params, seed=self.seed + 2 * index + 2, **submit
            ).result()
            middle = time.perf_counter()
            guarded = device("auto", fallback="knowledge_compilation", seed=self.seed).run(
                self.circuits, params, seed=self.seed + 2 * index + 3,
                optimize="auto", retry=RetryPolicy(), checkpoint=journal, **submit
            ).result()
            end = time.perf_counter()
        finally:
            shutil.rmtree(journal, ignore_errors=True)
        self.kind_seconds[index] = {"plain": middle - start, "guarded": end - middle}
        return plain, guarded

    def check(self, index: int, result) -> Dict[str, float]:
        params = self.batches.pop(index)
        pick = np.random.default_rng([self.seed, 4, index])
        expected = ["stabilizer" if kind is None else "knowledge_compilation" for kind in self.kinds]
        kc_rows = [i for i, kind in enumerate(self.kinds) if kind is not None]
        for rows in result:
            if len(rows) != len(self.circuits):
                raise CheckFailed(f"{len(rows)} rows for {len(self.circuits)} items")
            for position, row in enumerate(rows):
                if row["backend"] != expected[position]:
                    raise CheckFailed(f"item {position} ran on {row['backend']}")
                if len(row["samples"]) != self.repetitions:
                    raise CheckFailed(f"item {position} has {len(row['samples'])} shots")
            for position in pick.choice(kc_rows, size=self.checked_rows, replace=False):
                circuit = self.circuits[position].resolve_parameters(params[position])
                reference = StateVectorSimulator().simulate(circuit).probabilities()
                error = np.abs(rows[position]["probabilities"] - reference).max()
                if not error <= EXACT_TOLERANCE:
                    raise CheckFailed(f"item {position} differs from the state vector by {error:.2e}")
        return {}

    def trace_extras(self, traced, untraced, kc_p50):
        plain = statistics.median(self.kind_seconds[i]["plain"] for i in untraced)
        guarded = statistics.median(self.kind_seconds[i]["guarded"] for i in untraced)
        return {"api.guarded_overhead_frac": guarded / plain - 1.0, "api.plain_p50_s": plain}


WORKLOADS = {workload.name: workload for workload in (NoisyVQA, ApiBatch)}
