"""Sampling utilities: Gibbs MCMC over compiled circuits and distribution metrics."""

from .gibbs import DEFAULT_MAX_CHAINS, GibbsSampler
from .metrics import (
    chi_squared_statistic,
    empirical_distribution,
    kl_divergence,
    reverse_kl_divergence,
    total_variation_distance,
)

__all__ = [
    "DEFAULT_MAX_CHAINS",
    "GibbsSampler",
    "kl_divergence",
    "reverse_kl_divergence",
    "total_variation_distance",
    "chi_squared_statistic",
    "empirical_distribution",
]
