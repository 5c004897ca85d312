"""Numerical laboratory for superselection structure of Bloch bands and
periodically driven (Floquet) systems on a ring lattice."""

__version__ = "0.1.0"

from .bloch import (
    BandStructure,
    ring_phase_samples,
    solve_bands,
    wannier_state,
    winding_number,
)
from .errors import ConfigError, InvariantViolation, NumericalFailure
from .floquet import (
    DriveSpec,
    DriveTerm,
    FloquetSolution,
    PeriodicObservableSpec,
    fold_quasienergy,
    monodromy_polynomial,
    propagate_period,
    quasienergies,
    quasienergy_distance,
    sambe_quasienergies,
    solve_floquet,
    temporal_overlap_probe,
)
from .lattice import (
    LatticeSpec,
    OperatorTable,
    PotentialSpec,
    build_hamiltonian,
    build_translation,
)
from .observables import (
    Battery,
    ObservableSpec,
    ObservableTerm,
    breaking_observable,
    check_cell_periodicity,
)
from .superselection import (
    FringeScan,
    SectorDecompositionReport,
    fringe_scan,
    sector_decomposition_report,
    wannier_mixture_residual,
)

__all__ = [
    "__version__",
    # lattice
    "LatticeSpec", "PotentialSpec", "OperatorTable",
    "build_hamiltonian", "build_translation",
    # bloch
    "BandStructure",
    "solve_bands", "winding_number", "ring_phase_samples", "wannier_state",
    # observables
    "Battery", "ObservableSpec", "ObservableTerm",
    "check_cell_periodicity", "breaking_observable",
    # superselection
    "FringeScan", "SectorDecompositionReport",
    "fringe_scan", "sector_decomposition_report",
    "wannier_mixture_residual",
    # floquet
    "DriveSpec", "DriveTerm", "PeriodicObservableSpec", "FloquetSolution",
    "propagate_period", "quasienergies", "quasienergy_distance", "fold_quasienergy",
    "solve_floquet",
    "sambe_quasienergies", "temporal_overlap_probe",
    "monodromy_polynomial",
    # errors
    "ConfigError", "NumericalFailure", "InvariantViolation",
]
