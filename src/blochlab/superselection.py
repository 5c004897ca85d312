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
from typing import Iterable

import numpy as np

from .bloch import BandStructure, BlochState
from .lattice import HermitianOperator, class_shift

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


@dataclass(frozen=True)
class SectorDecompositionReport:
    """Pairwise cross-class leakage and the within-sector elements.

    ``leakage[j][l]`` is the largest |<psi_{m k_j}|O|psi_{n k_l}>| / ||O||_max
    over all bands m, n and battery members O; the diagonal (within-sector
    coherence, which is allowed) is not part of the table and stays NaN.
    ``within_sector[l, i]`` is |<psi_{0 k_l}|O_i|psi_{1 k_l}>| for battery
    member i, unnormalized: the element the positive control needs.  It is
    None when a class holds a single band.
    """

    leakage: np.ndarray
    battery_labels: tuple[str, ...]
    within_sector: np.ndarray | None = None

    def __post_init__(self):
        for name in ("leakage", "within_sector"):
            if getattr(self, name) is not None:
                arr = np.array(getattr(self, name), dtype=float)
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

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
    value = complex(bra.coeffs.conj() @ operator.apply(ket.coeffs))
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
    vanishing cross element makes the scan flat.  All superpositions are
    stacked as rows and O is applied to all of them at once.  Raises
    ValueError naming the first grid point where the superposition collapses
    (anti-parallel states).
    """
    if n_phases < 8:
        raise ValueError("need at least 8 phase points")
    phases = 2.0 * np.pi * np.arange(n_phases) / n_phases
    combined = a.coeffs + np.exp(1j * phases)[:, None] * b.coeffs  # one row per phase
    norm_sq = np.array([np.real(c.conj() @ c) for c in combined])
    degenerate = np.flatnonzero(norm_sq < DEGENERATE_NORM_ATOL)
    if degenerate.size:
        raise ValueError(
            f"degenerate superposition at lambda={phases[degenerate[0]]:.6f}: states anti-parallel"
        )
    applied = operator.apply(combined)  # row dots below, as for the norms above
    averages = np.array([np.real(oc.conj() @ c) for oc, c in zip(applied, combined)]) / norm_sq
    return FringeScan(phases=phases, averages=averages, observable=operator.label)


def sector_decomposition_report(
    bands: BandStructure, battery: Iterable[HermitianOperator]
) -> SectorDecompositionReport:
    """Cross-class leakage table on class blocks, within-sector elements by apply.

    With C_l the class-l states restricted to their d/N rows (``bands.rows``),
    <psi_{m k_j}|O|psi_{n k_l}> is entry (m, n) of C_j^* O[rows_j, rows_l] C_l^T.
    A diagonal at offset o couples class l only to l +- ``class_shift(o, N)``
    mod N, so per battery member only the cross blocks j < l it can fill
    (``HermitianOperator.class_blocks``) are multiplied, in one stacked
    product; every other block is an exact zero and is skipped, and a
    cell-periodic member takes no block at all.  Leakage entry [j, l] (bras
    from the lower class, mirrored) is maximized over both band axes and
    equals a pairwise class loop bit for bit.  ``within_sector`` needs only
    bands 0 and 1 of each class: O is applied once to the N band-1 rows, and
    each is dotted with its class's band-0 row.  ``battery`` is any iterable
    and is read once, one member at a time, so a generator that builds each
    member on demand keeps one operator alive.
    """
    n_sectors, n_bands, _ = bands.coeffs.shape
    rows = bands.rows
    compact = np.take_along_axis(bands.coeffs, rows[:, None, :], axis=2)  # (class, band, row)
    bra_class, ket_class = np.triu_indices(n_sectors, k=1)  # the cross blocks j < l
    step = (ket_class - bra_class) % n_sectors
    worst = np.zeros(len(bra_class))
    labels, within = [], []
    for op in battery:
        reach = [class_shift(s, n_sectors) for o in op.diagonals for s in (o, -o)]
        filled = np.flatnonzero(np.isin(step, reach))
        if filled.size:
            bra, ket = bra_class[filled], ket_class[filled]
            # (block, bra band, ket band)
            elements = np.abs(
                compact[bra].conj() @ op.class_blocks(rows, bra, ket)
                @ compact[ket].transpose(0, 2, 1)
            )
            worst[filled] = np.maximum(worst[filled], elements.max(axis=(1, 2)) / op.norm_max)
        labels.append(op.label)
        if n_bands >= 2:
            applied = op.apply(bands.coeffs[:, 1])  # O psi_{1 k_l}, one class per row
            within.append(np.abs(np.sum(bands.coeffs[:, 0].conj() * applied, axis=1)))
    leakage = np.full((n_sectors, n_sectors), np.nan)
    leakage[bra_class, ket_class] = worst
    leakage[ket_class, bra_class] = worst
    within_sector = (
        np.reshape(within, (len(labels), n_sectors)).T if n_bands >= 2 else None
    )
    return SectorDecompositionReport(leakage, tuple(labels), within_sector)


def wannier_mixture_residual(
    wanniers: np.ndarray, band_coeffs: np.ndarray, operator: HermitianOperator
) -> np.ndarray:
    """Per band b: max_r |<w_br|O|w_br> - mean_l <psi_bl|O|psi_bl>|.

    ``wanniers`` is (bands, home cells, d), one home cell's Wannier vector per
    row, and ``band_coeffs`` is (bands, N, d), each band's Bloch states, one
    class per row.  Each Wannier state is an equal-weight phase combination
    of its band's Bloch states, so for cell-periodic O its expectation must
    equal the uniform classical average over the band.  O is applied to all
    bands * (cells + N) rows at once, so it is read once.
    """
    n_bands, n_cells, dim = wanniers.shape
    stacked = np.concatenate((wanniers, band_coeffs), axis=1).reshape(-1, dim)
    values = np.real(np.sum(stacked.conj() * operator.apply(stacked), axis=1))  # Re <v|O|v>
    values = values.reshape(n_bands, -1)
    band_avg = np.mean(values[:, n_cells:], axis=1, keepdims=True)
    return np.max(np.abs(values[:, :n_cells] - band_avg), axis=1)
