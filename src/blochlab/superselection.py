"""Cross-sector coherence measurements.

The central structural fact under test: for any cell-periodic observable O
and Bloch states with different wavevectors, the matrix element
<psi_{m k_j} | O | psi_{n k_l}> vanishes, so superpositions across
wavevector classes show no interference fringes and are indistinguishable
from the 50/50 classical mixture by every valid measurement.  Within one
class coherence is real and the fringes are there; deliberately
periodicity-breaking operators restore cross-class fringes.  The leakage
table reads the entries between classes, which a cell-periodic O does not
store.  The battery is read as the stream of tables ``Battery.tables``
yields, once, and the states as ``BandStructure`` class blocks, or, in a
fringe scan, as plane-wave vectors read on their support: the rows the two
states occupy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import BandStructure
from .lattice import OperatorTable

DEGENERATE_NORM_ATOL = 1e-12


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
    def first_harmonic(self) -> float:
        """2 |sum_i averages_i e^{-i lambda_i}| / n: |<a|O|b>| for orthonormal a, b in any
        gauge, where ``amplitude`` can miss 2 |<a|O|b>| by 1 - cos(pi / n)."""
        return 2.0 * abs(np.sum(self.averages * np.exp(-1j * self.phases))) / len(self.phases)


@dataclass(frozen=True)
class SectorDecompositionReport:
    """Pairwise cross-class leakage and the within-sector elements.

    ``leakage[j][l]`` bounds |<psi_{m k_j}|O|psi_{n k_l}>| / ||O||_max over all
    bands m, n and battery members O (``OperatorTable.class_coupling``), and
    is 0 where no member stores an entry between the classes.  The diagonal
    (within-sector coherence, which is allowed) is not part of the table:
    ``class_coupling`` writes no entry there, so it stays 0, and the runner
    writes it as ``null`` in a report.
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
        return float(np.max(self.leakage))


def fringe_scan(
    operator: OperatorTable, a: np.ndarray, b: np.ndarray, n_phases: int = 64
) -> FringeScan:
    """Sweep the relative phase of |a> + e^{i lambda} |b> and average O, a one-member table.

    ``a`` and ``b`` are plane-wave vectors (``BandStructure.dense``).  The
    unnormalized cross term is 2 |<a|O|b>| cos(lambda + Arg<a|O|b>), so a
    vanishing cross element makes the scan flat.  The scan reads ``a`` and
    ``b`` on their support, the rows where either is nonzero: two Bloch
    states occupy their class rows alone, 2d/N rows for two classes and d/N
    for one.  All superpositions are stacked as rows on the support, and
    their <O> is one ``OperatorTable.expectation`` on those rows over their
    norms; no O v is formed.  Raises ValueError naming the first grid point
    where the superposition collapses (anti-parallel states), and for a
    table of more than one member.
    """
    (label,) = operator.labels  # one member
    if n_phases < 8:
        raise ValueError("need at least 8 phase points")
    phases = 2.0 * np.pi * np.arange(n_phases) / n_phases
    support = np.flatnonzero((a != 0) | (b != 0))  # the rows off it hold exact zeros
    combined = a[support] + np.exp(1j * phases)[:, None] * b[support]  # one row per phase
    # row dots as stacked (1, r) @ (r, 1) products: the same sums as one
    # vector product per row
    norm_sq = np.real(combined.conj()[:, None, :] @ combined[:, :, None])[:, 0, 0]
    degenerate = np.flatnonzero(norm_sq < DEGENERATE_NORM_ATOL)
    if degenerate.size:
        raise ValueError(
            f"degenerate superposition at lambda={phases[degenerate[0]]:.6f}: states anti-parallel"
        )
    (averages,) = operator.expectation(combined, support) / norm_sq
    return FringeScan(phases=phases, averages=averages, observable=label)


def sector_decomposition_report(bands: BandStructure, tables) -> SectorDecompositionReport:
    """Cross-class leakage table and within-sector elements of the tables of ``tables``.

    ``tables`` is read once, in order (``Battery.tables``), and each table is
    measured and dropped before the next is taken.  Leakage entry [j, l] is
    the largest ``OperatorTable.class_coupling(bands.rows)[:, j, l]`` over the
    members, each relative to its ||O||_max: a bound on every
    |<psi_{m k_j}|O|psi_{n k_l}>| / ||O||_max, read from the entries alone and
    exactly 0 for a cell-periodic member, which stores none.  It is a maximum
    over members, so it is the same bits however the battery is split.
    ``within_sector`` needs bands 0 and 1 of each class: one ``class_form``.
    """
    rows, blocks = bands.rows, bands.blocks  # blocks: (class, band, row)
    n_sectors, n_bands, _ = blocks.shape
    leakage = np.zeros((n_sectors, n_sectors))
    labels, within = [], []
    for table in tables:
        labels += table.labels
        coupling = table.class_coupling(rows) / table.norm_max[:, None, None]
        np.maximum(leakage, coupling.max(axis=0, initial=0.0), out=leakage)
        if n_bands >= 2:  # <psi_{0 k_l}|O|psi_{1 k_l}>, (class, member)
            within.append(np.abs(table.class_form(rows, blocks[:, 0], blocks[:, 1])).T)
    return SectorDecompositionReport(leakage, tuple(labels), np.hstack(within) if within else None)


def wannier_mixture_residual(
    wanniers: np.ndarray, band_blocks: np.ndarray, rows: np.ndarray, tables
) -> np.ndarray:
    """Per member i and band b: max_r |<w_br|O_i|w_br> - mean_l <psi_bl|O_i|psi_bl>| / s_i.

    ``wanniers`` is (bands, home cells, d), one home cell's Wannier vector per
    row, and ``band_blocks`` is (bands, N, d/N), each band's Bloch states on
    their class rows ``rows``.  ``tables`` is read once, in order, as in
    ``sector_decomposition_report``; the result is (members, bands).  Each
    Wannier state is an equal-weight phase combination of its band's Bloch
    states, so for cell-periodic O its expectation must equal the uniform
    classical average over the band; the two sides are computed apart.  Both
    round relative to the member's scale, so s_i = max(1, ||O_i||_max), as
    the free-particle check scales by max(1, ||H||_max): no residual grows,
    and a large member's verdict does not depend on its scale.  The Wannier
    side reads the dense Wannier vectors on all d rows, with every
    stored diagonal (``OperatorTable.expectation``), which BLAS rounds
    differently for one member than for several: a residual can move at
    rounding with the battery's split.  The band averages read the class
    blocks on the class diagonals alone: one ``class_form``.
    """
    w = wanniers.reshape(-1, wanniers.shape[-1])  # one Wannier vector per row
    residuals = []
    for table in tables:
        values = table.expectation(w).reshape((len(table),) + wanniers.shape[:2])
        band_avg = table.class_form(rows, band_blocks, band_blocks).real.mean(axis=-1)
        scale = np.maximum(1.0, table.norm_max)[:, None]
        residuals.append(np.abs(values - band_avg[..., None]).max(axis=-1) / scale)
    return np.concatenate(residuals)
