"""repro — knowledge-compilation based simulation of noisy variational quantum algorithms.

A from-scratch reproduction of Huang, Holtzen, Millstein, Van den Broeck and
Martonosi, *"Logical Abstractions for Noisy Variational Quantum Algorithm
Simulation"* (ASPLOS 2021).

Top-level convenience imports expose the most common entry points::

    from repro import Circuit, LineQubit, H, CNOT, device

    job = device("auto").run([bell, ghz], repetitions=1000)
    for row in job.result():
        print(row["backend"], row["counts"])

The unified execution API (``device() -> Device.run() -> Job``) routes every
work item to the right backend by declared capability; the simulator classes
remain available for direct, single-backend use::

    from repro import (
        KnowledgeCompilationSimulator, StateVectorSimulator,
        DensityMatrixSimulator, TensorNetworkSimulator,
    )

Subpackages
-----------
``repro.api``            Device/Job execution API, backend registry, scheduler
``repro.errors``         typed error hierarchy (UnsupportedCircuitError, ...)
``repro.circuits``       circuit IR: qubits, gates, noise channels, parameters
``repro.statevector``    dense state-vector baseline (qsim stand-in)
``repro.densitymatrix``  dense density-matrix baseline (Cirq noisy-simulator stand-in)
``repro.tensornetwork``  tensor-network contraction baseline (qTorch stand-in)
``repro.trajectory``     batched quantum-trajectory (Monte Carlo wavefunction) backend
``repro.stabilizer``     Aaronson–Gottesman tableau backend for Clifford circuits
``repro.bayesnet``       complex-valued Bayesian networks + variable elimination
``repro.cnf``            weighted CNF encoding of Bayesian networks
``repro.knowledge``      d-DNNF compiler and arithmetic circuits
``repro.sampling``       Gibbs sampling, ideal sampling, divergence metrics
``repro.simulator``      the knowledge-compilation simulator and result types
``repro.variational``    QAOA Max-Cut, VQE Ising, Nelder-Mead optimizer
``repro.algorithms``     validation suite (Bell, Grover, Shor, QFT, ...)
``repro.experiments``    per-figure/table reproduction harness
"""

from .circuits import (
    CNOT,
    CZ,
    H,
    SWAP,
    TOFFOLI,
    X,
    Y,
    Z,
    Circuit,
    DepolarizingChannel,
    GridQubit,
    LineQubit,
    MeasurementGate,
    NamedQubit,
    ParamResolver,
    Rx,
    Ry,
    Rz,
    Symbol,
    ZZ,
    depolarize,
    measure,
)
from .circuits.passes import (
    CommutationPass,
    FusionPass,
    LightConePass,
    OptimizationResult,
    Pass,
    PassPipeline,
    PipelineStats,
    RewriteStats,
    default_pipeline,
    optimize_circuit,
)
from .api import (
    BackendCapabilities,
    BatchResult,
    Device,
    FaultInjector,
    Job,
    JobJournal,
    RetryPolicy,
    backend_capabilities,
    capability_matrix,
    device,
    list_backends,
    register_backend,
    resume_job,
)
from .api.routing import BackendDecision, select_backend
from .circuits.clifford import classify_circuit, is_clifford, is_pauli_noise
from .circuits.topology import canonicalize_circuit, circuit_topology_key
from .densitymatrix import DensityMatrixSimulator
from .errors import (
    BackendCapabilityError,
    CompilationError,
    InvalidRequestError,
    JobCancelledError,
    JobError,
    JobTimeoutError,
    MemoryBudgetError,
    MissingObservableError,
    ReproError,
    RequestTypeError,
    TransientError,
    UnsupportedCircuitError,
    WorkerCrashedError,
)
from .knowledge.cache import CompiledCircuitCache, configure_default, default_cache
from .simulator import DensityMatrixResult, SampleResult, Simulator, StateVectorResult
from .simulator.kc_simulator import CompiledCircuit, KnowledgeCompilationSimulator
from .stabilizer import StabilizerResult, StabilizerSimulator
from .statevector import StateVectorSimulator
from .tensornetwork import TensorNetworkSimulator
from .trajectory import TrajectorySimulator

__version__ = "1.2.0"

__all__ = [
    "__version__",
    "Circuit",
    "LineQubit",
    "GridQubit",
    "NamedQubit",
    "Symbol",
    "ParamResolver",
    "H",
    "X",
    "Y",
    "Z",
    "CNOT",
    "CZ",
    "SWAP",
    "TOFFOLI",
    "Rx",
    "Ry",
    "Rz",
    "ZZ",
    "measure",
    "MeasurementGate",
    "DepolarizingChannel",
    "depolarize",
    "Simulator",
    "SampleResult",
    "StateVectorResult",
    "DensityMatrixResult",
    "StateVectorSimulator",
    "DensityMatrixSimulator",
    "TensorNetworkSimulator",
    "TrajectorySimulator",
    "StabilizerSimulator",
    "StabilizerResult",
    "BackendDecision",
    "select_backend",
    "classify_circuit",
    "is_clifford",
    "is_pauli_noise",
    "KnowledgeCompilationSimulator",
    "CompiledCircuit",
    "CompiledCircuitCache",
    "default_cache",
    "configure_default",
    "canonicalize_circuit",
    "circuit_topology_key",
    "Pass",
    "PassPipeline",
    "RewriteStats",
    "PipelineStats",
    "OptimizationResult",
    "LightConePass",
    "FusionPass",
    "CommutationPass",
    "default_pipeline",
    "optimize_circuit",
    "device",
    "Device",
    "Job",
    "BatchResult",
    "BackendCapabilities",
    "backend_capabilities",
    "capability_matrix",
    "list_backends",
    "register_backend",
    "RetryPolicy",
    "FaultInjector",
    "JobJournal",
    "resume_job",
    "ReproError",
    "UnsupportedCircuitError",
    "BackendCapabilityError",
    "CompilationError",
    "MemoryBudgetError",
    "InvalidRequestError",
    "RequestTypeError",
    "MissingObservableError",
    "TransientError",
    "JobError",
    "JobCancelledError",
    "JobTimeoutError",
    "WorkerCrashedError",
]
