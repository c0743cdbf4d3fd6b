"""Statistical conformance of the warm Gibbs ensemble against the density matrix.

Sampler quality is judged with a goodness-of-fit test at a stated
false-alarm rate instead of a hand-tuned total-variation bound.  Only the
first recorded round of a ``sample()`` call enters the test: it holds one
draw per chain, and the chains are independent, whereas consecutive rounds
of one chain are not.
"""

import numpy as np
import pytest

from repro.circuits import depolarize
from repro.densitymatrix import DensityMatrixSimulator
from repro.simulator.kc_simulator import KnowledgeCompilationSimulator
from repro.variational import QAOACircuit, random_regular_maxcut

from goodness_of_fit import chi_square_sf, goodness_of_fit

#: Family-wise false-alarm rate of the whole test, split over its rebinds.
FAMILY_ALPHA = 1e-4
#: Independent chains, hence draws in the first recorded round.
NUM_CHAINS = 256
#: The cold sample's parameter point, then the three rebound ones.
POINTS = [(0.6, 0.5), (1.2, 0.3), (0.4, 0.3), (0.8, 0.7)]


@pytest.mark.parametrize(
    "statistic, dof, tail",
    [
        (3.0, 1, 0.08326451666355042),
        (4.2, 3, 0.24066188520961462),
        (20.0, 7, 0.005569683072945574),
        (0.5, 4, 0.9735009788392561),
        (7.5, 2, 0.023517745856009114),
        (12.0, 6, 0.06196880441665898),
    ],
)
def test_chi_square_tail_closed_form(statistic, dof, tail):
    # Reference tails from scipy.stats.chi2.sf, odd and even dof.
    assert chi_square_sf(statistic, dof) == pytest.approx(tail, rel=1e-12)


def test_warm_ensemble_first_round_fits_density_matrix():
    """Noisy QAOA p=1 n=3: each rebound first round fits the exact distribution.

    One seeded simulator compiles the circuit once, samples cold at the
    first parameter point, then re-binds the warm ensemble three times.
    Each rebind's first recorded round (``NUM_CHAINS`` independent draws)
    is chi-square tested against ``DensityMatrixSimulator`` probabilities at
    level ``FAMILY_ALPHA / 3`` (Bonferroni), so the test as a whole raises a
    false alarm with probability at most ``FAMILY_ALPHA = 1e-4``.
    """
    ansatz = QAOACircuit(random_regular_maxcut(3, seed=7), 1)
    noisy = ansatz.circuit.with_noise(lambda: depolarize(0.02))
    simulator = KnowledgeCompilationSimulator(seed=13)
    compiled = simulator.compile_circuit(noisy)
    simulator.sample(
        compiled, NUM_CHAINS, resolver=ansatz.resolver(POINTS[0]), num_chains=NUM_CHAINS
    )

    rebinds = POINTS[1:]
    weights = 1 << np.arange(2, -1, -1)
    for point in rebinds:
        resolver = ansatz.resolver(point)
        shots = simulator.sample(
            compiled, 2 * NUM_CHAINS, resolver=resolver, num_chains=NUM_CHAINS
        )
        first_round = np.asarray(list(shots)[:NUM_CHAINS], dtype=np.int64)
        counts = np.bincount(first_round @ weights, minlength=8).astype(float)
        exact = DensityMatrixSimulator().simulate(noisy.resolve_parameters(resolver))
        p_value = goodness_of_fit(counts, exact.probabilities())
        assert p_value >= FAMILY_ALPHA / len(rebinds), (point, p_value)
