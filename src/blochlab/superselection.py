"""Cross-sector coherence measurements.

The central structural fact under test: for any cell-periodic observable O
and Bloch states with different wavevectors, the matrix element
<psi_{m k_j} | O | psi_{n k_l}> vanishes, so superpositions across
wavevector classes show no interference fringes and are indistinguishable
from the 50/50 classical mixture by every valid measurement.  Within one
class coherence is real and the fringes are there; deliberately
periodicity-breaking operators restore cross-class fringes.  Both controls
are part of the battery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import BandStructure, BlochState
from .lattice import HermitianOperator

ORTHOGONALITY_ATOL = 1e-10
DEGENERATE_NORM_ATOL = 1e-12


@dataclass(frozen=True)
class OverlapRecord:
    """One evaluated matrix element between two Bloch states."""

    bra_band: int
    bra_sector: int
    bra_wavevector: float
    ket_band: int
    ket_sector: int
    ket_wavevector: float
    observable: str
    value: complex

    @property
    def magnitude(self) -> float:
        return abs(self.value)


@dataclass(frozen=True)
class FringeScan:
    """Observable average against the relative phase of a superposition."""

    phases: np.ndarray
    averages: np.ndarray
    observable: str = ""

    def __post_init__(self):
        for name in ("phases", "averages"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def amplitude(self) -> float:
        return float(np.max(self.averages) - np.min(self.averages))

    @property
    def mean_level(self) -> float:
        return float(np.mean(self.averages))


@dataclass(frozen=True)
class MixtureDiagnostic:
    """Superposition-vs-mixture density matrices and their separability.

    ``distinguishability`` is max over the battery of
    |Tr((rho_sup - rho_mix) O)| / ||O||_max; zero means no valid measurement
    tells the equal-weight superposition from the classical mixture.
    """

    rho_superposition: np.ndarray
    rho_mixture: np.ndarray
    distinguishability: float
    per_observable: tuple[tuple[str, float], ...]

    def __post_init__(self):
        for name in ("rho_superposition", "rho_mixture"):
            arr = np.array(getattr(self, name), dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class SectorDecompositionReport:
    """Pairwise cross-class leakage, maximized over bands and battery.

    ``leakage[j][l]`` is the largest |<psi_{m k_j}|O|psi_{n k_l}>| / ||O||_max
    over all bands m, n and battery members O; the diagonal (within-sector
    coherence, which is allowed) is not computed and stays NaN.
    """

    leakage: np.ndarray
    battery_labels: tuple[str, ...]

    def __post_init__(self):
        leakage = np.array(self.leakage, dtype=float)
        leakage.setflags(write=False)
        object.__setattr__(self, "leakage", leakage)

    @property
    def max_offdiagonal(self) -> float:
        off = self.leakage[~np.isnan(self.leakage)]
        return float(np.max(off)) if off.size else 0.0


def matrix_element(
    operator: HermitianOperator, bra: BlochState, ket: BlochState
) -> OverlapRecord:
    """<bra| O |ket> in the plane-wave basis."""
    if len(bra.coeffs) != operator.dim or len(ket.coeffs) != operator.dim:
        raise ValueError("state and operator dimensions disagree")
    value = complex(bra.coeffs.conj() @ operator.matrix @ ket.coeffs)
    return OverlapRecord(
        bra_band=bra.band,
        bra_sector=bra.sector,
        bra_wavevector=bra.wavevector,
        ket_band=ket.band,
        ket_sector=ket.sector,
        ket_wavevector=ket.wavevector,
        observable=operator.label,
        value=value,
    )


def fringe_scan(
    operator: HermitianOperator,
    a: BlochState,
    b: BlochState,
    n_phases: int = 64,
) -> FringeScan:
    """Sweep the relative phase of |a> + e^{i lambda} |b> and average O.

    The unnormalized cross term is 2 |<a|O|b>| cos(lambda + Arg<a|O|b>), so a
    vanishing cross element makes the scan flat.  Raises ValueError when a
    grid point makes the superposition collapse (anti-parallel states).
    """
    if n_phases < 8:
        raise ValueError("need at least 8 phase points")
    phases = 2.0 * np.pi * np.arange(n_phases) / n_phases
    averages = np.empty(n_phases)
    o = operator.matrix
    for i, lam in enumerate(phases):
        combined = a.coeffs + np.exp(1j * lam) * b.coeffs
        norm_sq = float(np.real(combined.conj() @ combined))
        if norm_sq < DEGENERATE_NORM_ATOL:
            raise ValueError(
                f"degenerate superposition at lambda={lam:.6f}: states anti-parallel"
            )
        averages[i] = float(np.real(combined.conj() @ o @ combined)) / norm_sq
    return FringeScan(phases=phases, averages=averages, observable=operator.label)


def mixture_diagnostic(
    a: BlochState, b: BlochState, battery: list[HermitianOperator]
) -> MixtureDiagnostic:
    """Compare |a>+|b> (equal weights) against the 50/50 classical mixture.

    Requires orthogonal unit-norm inputs so the mixture weights are exactly
    one half and the superposition normalizes to <Phi|Phi> = 2.
    """
    overlap = abs(complex(a.coeffs.conj() @ b.coeffs))
    if overlap > ORTHOGONALITY_ATOL:
        raise ValueError(f"states are not orthogonal: |<a|b>| = {overlap:.3e}")
    combined = a.coeffs + b.coeffs
    norm_sq = float(np.real(combined.conj() @ combined))
    rho_sup = np.outer(combined, combined.conj()) / norm_sq
    rho_mix = 0.5 * (
        np.outer(a.coeffs, a.coeffs.conj()) + np.outer(b.coeffs, b.coeffs.conj())
    )
    delta = rho_sup - rho_mix
    per_obs = []
    for op in battery:
        value = abs(complex(np.trace(delta @ op.matrix))) / op.norm_max
        per_obs.append((op.label, float(value)))
    best = max((v for _, v in per_obs), default=0.0)
    return MixtureDiagnostic(
        rho_superposition=rho_sup,
        rho_mixture=rho_mix,
        distinguishability=best,
        per_observable=tuple(per_obs),
    )


def sector_decomposition_report(
    bands: BandStructure, battery: list[HermitianOperator]
) -> SectorDecompositionReport:
    """Maximal normalized cross-class matrix element for every class pair.

    Per battery member, Psi^* O (one row per state) meets each class's kets in
    one stacked product; entry [j, l] is maximized over both band axes.  Only
    the j < l entries (bras from the lower class) are kept and then mirrored,
    so the table is symmetric to the last bit and equals a pairwise loop over
    class pairs bit for bit.
    """
    n_sectors, n_bands, dim = bands.coeffs.shape
    bras = bands.coeffs.reshape(n_sectors * n_bands, dim).conj()
    kets = bands.coeffs.transpose(0, 2, 1)  # (ket class, d, ket band)
    worst = np.zeros((n_sectors, n_sectors))
    for op in battery:
        # (ket class, bra class * bra band, ket band) -> [ket class, bra class]
        elements = np.abs(bras @ op.matrix @ kets) / op.norm_max
        elements = elements.reshape(n_sectors, n_sectors, -1).max(axis=2)
        np.maximum(worst, elements.T, out=worst)
    upper = np.triu(worst, 1)
    leakage = upper + upper.T
    np.fill_diagonal(leakage, np.nan)
    return SectorDecompositionReport(
        leakage=leakage, battery_labels=tuple(op.label for op in battery)
    )


def _expectations(rows: np.ndarray, operator: HermitianOperator) -> np.ndarray:
    """Re <v|O|v> for every row v of ``rows``."""
    return np.real(np.sum((rows.conj() @ operator.matrix) * rows, axis=1))


def wannier_mixture_residual(
    wanniers: np.ndarray, band_coeffs: np.ndarray, operator: HermitianOperator
) -> float:
    """max_r |<w_r|O|w_r> - mean_l <psi_l|O|psi_l>| over one band's Wannier states.

    ``wanniers`` holds one home cell's Wannier vector per row and
    ``band_coeffs`` the band's Bloch states, one class per row.  Each Wannier
    state is an equal-weight phase combination of those Bloch states, so for
    cell-periodic O its expectation must equal the uniform classical average
    over the band.
    """
    band_avg = float(np.mean(_expectations(band_coeffs, operator)))
    return float(np.max(np.abs(_expectations(wanniers, operator) - band_avg)))
