"""Simulator backends and shared result containers.

The knowledge-compilation simulator (the paper's contribution) lives in
:mod:`repro.simulator.kc_simulator`; the baselines live in their own
packages (:mod:`repro.statevector`, :mod:`repro.densitymatrix`,
:mod:`repro.tensornetwork`, and the batched quantum-trajectory backend
:mod:`repro.trajectory`).  All of them implement the
:class:`~repro.simulator.base.Simulator` contract: ``simulate`` /
``sample`` with identical circuit, resolver, qubit-order, initial-state
and seeding semantics.

Parameter sweeps and automatic stabilizer-vs-dense routing run through
the execution API: ``repro.device("auto")`` (see :mod:`repro.api`).
"""

from .base import Simulator
from .results import DensityMatrixResult, SampleResult, StateVectorResult

__all__ = [
    "Simulator",
    "SampleResult",
    "StateVectorResult",
    "DensityMatrixResult",
]
