"""``sample(initial_state=...)`` across every backend (satellite contract).

``simulate`` always honored ``initial_state``; ``sample`` historically did
not accept it at all.  The base contract now plumbs it through all six
backends: starting a CNOT ladder from ``|10>`` must yield ``11`` samples on
every backend, and the noisy/statevector trajectory path must start its
trajectories from the requested basis state too.
"""

import numpy as np
import pytest

from repro import (
    CNOT,
    Circuit,
    H,
    KnowledgeCompilationSimulator,
    LineQubit,
    StabilizerSimulator,
    StateVectorSimulator,
    TensorNetworkSimulator,
    device,
)
from repro.densitymatrix import DensityMatrixSimulator
from repro.trajectory import TrajectorySimulator


def auto_device(seed):
    """``device("auto")``: the backend it routes to must honor the start state."""
    return device("auto", seed=seed)


ALL_BACKENDS = [
    StateVectorSimulator,
    DensityMatrixSimulator,
    TensorNetworkSimulator,
    TrajectorySimulator,
    StabilizerSimulator,
    KnowledgeCompilationSimulator,
    auto_device,
]


@pytest.fixture
def cnot_ladder():
    q = LineQubit.range(2)
    return Circuit([CNOT(q[0], q[1])])


class TestSampleInitialState:
    @pytest.mark.parametrize("backend_cls", ALL_BACKENDS, ids=lambda c: c.__name__)
    def test_cnot_from_basis_state_10(self, backend_cls, cnot_ladder):
        samples = backend_cls(seed=0).sample(
            cnot_ladder, 20, seed=3, initial_state=0b10
        )
        assert set(samples.samples) == {(1, 1)}

    @pytest.mark.parametrize("backend_cls", ALL_BACKENDS, ids=lambda c: c.__name__)
    def test_default_initial_state_unchanged(self, backend_cls, cnot_ladder):
        samples = backend_cls(seed=0).sample(cnot_ladder, 20, seed=3)
        assert set(samples.samples) == {(0, 0)}

    def test_statevector_noisy_trajectories_honor_initial_state(self):
        from repro import depolarize

        q = LineQubit.range(2)
        noisy = Circuit([CNOT(q[0], q[1])]).with_noise(lambda: depolarize(0.02))
        samples = StateVectorSimulator(seed=0).sample(
            noisy, 200, seed=5, initial_state=0b10
        )
        # The no-jump trajectories dominate: |10> -> |11>.
        assert samples.bitstring_counts().get("11", 0) > 150

    def test_superposition_distribution_matches_simulate(self):
        q = LineQubit.range(2)
        circuit = Circuit([H(q[0]), CNOT(q[0], q[1])])
        simulator = StateVectorSimulator(seed=1)
        reference = simulator.simulate(circuit, initial_state=0b01).probabilities()
        samples = simulator.sample(circuit, 4000, seed=9, initial_state=0b01)
        empirical = samples.empirical_distribution()
        assert np.max(np.abs(empirical - reference)) < 0.05

    def test_kc_compiled_circuit_rejects_initial_state(self):
        q = LineQubit.range(2)
        circuit = Circuit([H(q[0]), CNOT(q[0], q[1])])
        simulator = KnowledgeCompilationSimulator(seed=0)
        compiled = simulator.compile_circuit(circuit)
        with pytest.raises(ValueError, match="initial state at compile time"):
            simulator.sample(compiled, 10, seed=0, initial_state=1)
