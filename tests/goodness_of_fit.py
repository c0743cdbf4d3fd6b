"""Scipy-free chi-square goodness of fit for the statistical conformance tests.

Sampling tests judge a sampler with a p-value at a stated false-alarm rate
instead of a hand-tuned distance bound; these helpers compute that p-value
without scipy, which the test suite does not depend on.
"""

import math

import numpy as np


def chi_square_sf(statistic, dof):
    """Upper tail ``P(X >= statistic)`` of a chi-square law with integer ``dof``."""
    if statistic <= 0.0:
        return 1.0
    half = statistic / 2.0
    # Closed form: the even-dof Poisson sum, or erfc plus half-integer terms.
    tail, order = (0.0, 0.0) if dof % 2 == 0 else (math.erfc(math.sqrt(half)), 0.5)
    for _ in range(dof // 2):
        tail += math.exp(order * math.log(half) - half - math.lgamma(order + 1.0))
        order += 1.0
    return tail


def goodness_of_fit(counts, probabilities):
    """Chi-square p-value, outcomes pooled to at least five expected draws.

    Outcomes join the pending bin smallest expectation first; a bin closes
    once it expects five draws, and a short remainder joins the last bin.
    """
    expected = counts.sum() * np.asarray(probabilities, dtype=float)
    observed_bins, expected_bins = [], []
    pending_observed = pending_expected = 0.0
    for index in np.argsort(expected, kind="stable"):
        pending_observed += counts[index]
        pending_expected += expected[index]
        if pending_expected >= 5.0:
            observed_bins.append(pending_observed)
            expected_bins.append(pending_expected)
            pending_observed = pending_expected = 0.0
    observed_bins[-1] += pending_observed
    expected_bins[-1] += pending_expected
    assert len(expected_bins) >= 2, "too few draws for a chi-square test"
    observed_arr, expected_arr = np.asarray(observed_bins), np.asarray(expected_bins)
    statistic = float(((observed_arr - expected_arr) ** 2 / expected_arr).sum())
    return chi_square_sf(statistic, len(expected_bins) - 1)
