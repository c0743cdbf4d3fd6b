"""Circuit-rewrite optimizer passes.

See :mod:`repro.circuits.passes.base` for the framework contract and
``docs/compiler-passes.md`` for the pass catalogue and the invariants each
pass promises (enforced by ``tests/test_passes.py`` and the differential
fuzzer).
"""

from .base import (
    OptimizationResult,
    OptimizeSpec,
    Pass,
    PassPipeline,
    PipelineStats,
    RewriteStats,
    default_pipeline,
    optimize_circuit,
    resolve_pipeline,
)
from .commutation import CommutationPass
from .fusion import FusionPass
from .light_cone import LightConePass

__all__ = [
    "CommutationPass",
    "FusionPass",
    "LightConePass",
    "OptimizationResult",
    "OptimizeSpec",
    "Pass",
    "PassPipeline",
    "PipelineStats",
    "RewriteStats",
    "default_pipeline",
    "optimize_circuit",
    "resolve_pipeline",
]
