"""Numerical laboratory for superselection structure of Bloch bands and
periodically driven (Floquet) systems on a ring lattice."""

__version__ = "0.1.0"

from .bloch import (
    BandStructure,
    BlochState,
    CellPeriodicState,
    cell_periodic_part,
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
    floquet_expansion,
    fold_quasienergy,
    mode_trajectory,
    monodromy_polynomial,
    propagate_period,
    quasienergies,
    quasienergy_distance,
    sambe_quasienergies,
    solve_floquet,
    temporal_overlap_probe,
)
from .lattice import (
    HermitianOperator,
    LatticeSpec,
    PlaneWaveBasis,
    PotentialSpec,
    build_basis,
    build_hamiltonian,
    build_translation,
)
from .observables import (
    Battery,
    ObservableSpec,
    ObservableTerm,
    PeriodicityReport,
    breaking_observable,
    build_observable,
    check_cell_periodicity,
    named_observables,
    random_cell_periodic,
    standard_battery,
)
from .superselection import (
    FringeScan,
    MixtureDiagnostic,
    OverlapRecord,
    SectorDecompositionReport,
    fringe_scan,
    matrix_element,
    mixture_diagnostic,
    sector_decomposition_report,
    wannier_mixture_residual,
)

__all__ = [
    "__version__",
    # lattice
    "LatticeSpec", "PotentialSpec", "PlaneWaveBasis", "HermitianOperator",
    "build_basis", "build_hamiltonian", "build_translation",
    # bloch
    "BlochState", "CellPeriodicState", "BandStructure",
    "solve_bands", "cell_periodic_part", "winding_number", "ring_phase_samples",
    "wannier_state",
    # observables
    "Battery", "ObservableSpec", "ObservableTerm", "PeriodicityReport",
    "build_observable", "check_cell_periodicity", "random_cell_periodic",
    "breaking_observable", "named_observables", "standard_battery",
    # superselection
    "OverlapRecord", "FringeScan", "MixtureDiagnostic", "SectorDecompositionReport",
    "matrix_element", "fringe_scan", "mixture_diagnostic",
    "sector_decomposition_report", "wannier_mixture_residual",
    # floquet
    "DriveSpec", "DriveTerm", "PeriodicObservableSpec", "FloquetSolution",
    "propagate_period", "quasienergies", "quasienergy_distance", "fold_quasienergy",
    "solve_floquet",
    "sambe_quasienergies", "mode_trajectory", "temporal_overlap_probe",
    "floquet_expansion", "monodromy_polynomial",
    # errors
    "ConfigError", "NumericalFailure", "InvariantViolation",
]
