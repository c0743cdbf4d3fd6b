"""Stabilizer-tableau backend: polynomial-cost exact Clifford simulation.

See :mod:`repro.stabilizer.tableau` for the Aaronson–Gottesman
representation and :mod:`repro.stabilizer.simulator` for the
:class:`~repro.simulator.base.Simulator` implementation with Pauli-noise
sampling.  Automatic routing between this backend and the dense/KC backends
is ``repro.device("auto")`` (:func:`repro.api.routing.select_backend`).
"""

from .simulator import StabilizerResult, StabilizerSimulator
from .tableau import Tableau, gf2_row_basis

__all__ = ["StabilizerSimulator", "StabilizerResult", "Tableau", "gf2_row_basis"]
