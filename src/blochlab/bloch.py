"""Joint diagonalization of the lattice Hamiltonian and the translation.

Because a cell-periodic Hamiltonian couples only plane waves within one
wavevector class, diagonalizing each class block yields simultaneous
eigenvectors of H and of the translation operator T: the class label l fixes
the translation eigenvalue exp(i k_l a) with k_l = 2*pi*l/(N*a), and sorting
each block's eigenvalues defines the band index n = 0, 1, ... (one state per
class and band, so every band holds N states).

Eigenvector gauge is pinned deterministically: degenerate clusters are
re-spanned by greedy pivoting of the cluster projector onto plane-wave axes
(ordered by the plane-wave index of the dominant coefficient), and every
vector is phased so its largest-magnitude coefficient is real positive; of
coefficients equal in magnitude to within PIVOT_RTOL, the first one is used,
so a tie that symmetry makes is not broken by rounding.  Repeat runs are
then bitwise comparable on one platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, NumericalFailure
from .lattice import HermitianOperator, LatticeSpec, PlaneWaveBasis, build_basis, class_shift

DEGENERACY_ATOL = 1e-10
SUPPORT_ATOL = 1e-12
PIVOT_RTOL = 1e-12  # entries this close to a column's largest magnitude tie for its pivot

# winding extraction: phase steps at or beyond this are treated as undersampled
MAX_PHASE_STEP = np.pi / 2
MIN_SAMPLE_MODULUS = 0.5


@dataclass(frozen=True)
class BlochState:
    """Simultaneous eigenstate of H and T.

    ``coeffs`` is the full-dimension coefficient vector in the plane-wave
    basis, supported only on indices m with m mod N == sector.
    """

    band: int
    sector: int
    wavevector: float
    energy: float
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=complex)  # own copy; frozen
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)


@dataclass(frozen=True)
class BandStructure:
    """Every Bloch state of the lattice as one (sector, band, d) block.

    ``coeffs[l, n]`` is psi_{n k_l} in the plane-wave basis, with literal
    zeros outside class l; ``energies[l, n]`` is its energy and
    ``k_values[l]`` its wavevector.  Bands are sorted ascending per class.
    ``rows[l]`` holds the d/N plane-wave rows of class l, ascending: the only
    rows where ``coeffs[l]`` can be nonzero.
    """

    k_values: np.ndarray
    energies: np.ndarray
    coeffs: np.ndarray
    rows: np.ndarray

    def __post_init__(self):
        for name, dtype in (
            ("k_values", float), ("energies", float), ("coeffs", complex), ("rows", int)
        ):
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def sectors(self) -> int:
        return self.energies.shape[0]

    @property
    def bands(self) -> int:
        return self.energies.shape[1]

    def state(self, sector: int, band: int) -> BlochState:
        """The Bloch state psi_{band, k_sector}."""
        return BlochState(
            band=band,
            sector=sector,
            wavevector=float(self.k_values[sector]),
            energy=float(self.energies[sector, band]),
            coeffs=self.coeffs[sector, band],
        )


def _canonicalize_cluster(vectors: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis for a degenerate eigenspace.

    Works on the basis-independent projector: repeatedly pick the axis with
    the largest remaining diagonal weight, normalize its projection, deflate.
    The resulting vectors are then ordered by the plane-wave row of their
    dominant coefficient.
    """
    size = vectors.shape[1]
    if size == 1:
        return vectors
    proj = vectors @ vectors.conj().T
    picked = []
    residual = proj.copy()
    for _ in range(size):
        pivot = int(np.argmax(np.real(np.diag(residual))))
        col = residual[:, pivot]
        nrm = np.linalg.norm(col)
        if nrm < 1e-8:
            raise NumericalFailure("degenerate-cluster pivoting lost rank")
        vec = col / nrm
        picked.append(vec)
        residual = residual - np.outer(vec, vec.conj())
    picked.sort(key=lambda v: int(np.argmax(np.abs(v))))
    return np.column_stack(picked)


def _canonical_eigenbasis(energies: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Apply cluster canonicalization and phase fixing to eigh output."""
    scale = max(1.0, float(np.max(np.abs(energies))) if energies.size else 1.0)
    atol = DEGENERACY_ATOL * scale
    out = vectors.copy()
    start = 0
    n = len(energies)
    while start < n:
        stop = start + 1
        while stop < n and energies[stop] - energies[stop - 1] < atol:
            stop += 1
        if stop - start > 1:
            out[:, start:stop] = _canonicalize_cluster(out[:, start:stop])
        start = stop
    # rotate each column so its largest-magnitude entry is real positive; entries
    # equal in magnitude up to rounding (by symmetry, say) tie, and the first
    # of them is the pivot.  Each factor is a scalar quotient (an array-wide
    # np.abs rounds some pivots apart)
    magnitudes = np.abs(out)
    tied = magnitudes >= (1.0 - PIVOT_RTOL) * magnitudes.max(axis=0, initial=0.0)
    pivots = out[np.argmax(tied, axis=0), np.arange(n)]
    out *= np.array([np.conj(z) / abs(z) if z else 1.0 for z in pivots])
    return out


def solve_bands(h: HermitianOperator, spec: LatticeSpec) -> BandStructure:
    """Diagonalize every wavevector-class block of a cell-periodic H.

    Each class's rows (``basis.class_rows``) give one (d/N, d/N) block
    (``HermitianOperator.class_blocks``); its eigenvectors are scattered back
    onto those rows of the (sector, band, d) coefficient block, and the rows
    are kept as the (N, d/N) ``rows`` table for later class blocks.

    Raises InvariantViolation if H carries weight between different classes
    (it then is not cell-periodic and has no common eigenbasis with T), and
    NumericalFailure if a block eigensolve fails.
    """
    basis = build_basis(spec)
    if h.dim != basis.dim:
        raise ValueError(f"operator dimension {h.dim} does not match basis {basis.dim}")
    _require_block_structure(h, basis)

    n_cells = spec.cells
    bands_per_class = basis.dim // n_cells
    k_values = np.array([basis.wavevector(l) for l in range(n_cells)])
    energies = np.zeros((n_cells, bands_per_class))
    coeffs = np.zeros((n_cells, bands_per_class, basis.dim), dtype=complex)
    class_rows = np.array([basis.class_rows(sector) for sector in range(n_cells)])
    blocks = h.class_blocks(class_rows, *np.diag_indices(n_cells))  # the pairs (l, l)
    for sector, (rows, block) in enumerate(zip(class_rows, blocks)):
        try:
            vals, vecs = np.linalg.eigh(block)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise NumericalFailure(f"eigensolver failed in class {sector}: {exc}") from exc
        energies[sector] = vals
        coeffs[sector][:, rows] = _canonical_eigenbasis(vals, vecs).T
    return BandStructure(k_values=k_values, energies=energies, coeffs=coeffs, rows=class_rows)


def _require_block_structure(h: HermitianOperator, basis: PlaneWaveBasis) -> None:
    off_class = [
        float(np.max(np.abs(v))) for o, v in h.diagonals.items() if class_shift(o, basis.cells)
    ]
    leakage = max(off_class, default=0.0)
    if leakage > SUPPORT_ATOL * max(h.norm_max, 1.0):
        raise InvariantViolation(
            f"operator couples different wavevector classes (leakage {leakage:.3e})"
        )


def winding_number(samples: np.ndarray) -> int:
    """Winding of a unimodular function sampled on equally spaced ring points.

    Sums nearest-branch phase increments around the closed loop and rounds
    the total to the nearest integer.  Guards: every sample must stay away
    from the origin (|f| >= 0.5), and every step must stay below pi/2,
    otherwise the sampling is too coarse to identify the branch.
    """
    z = np.asarray(samples, dtype=complex)
    if z.ndim != 1 or len(z) < 8:
        raise ValueError("need a 1-d array of at least 8 ring samples")
    moduli = np.abs(z)
    if float(np.min(moduli)) < MIN_SAMPLE_MODULUS:
        raise ValueError(
            f"degenerate input: sample modulus {np.min(moduli):.3g} below "
            f"{MIN_SAMPLE_MODULUS}; phase is ill-defined"
        )
    steps = np.angle(np.roll(z, -1) / z)
    worst = float(np.max(np.abs(steps)))
    if worst >= MAX_PHASE_STEP:
        raise ValueError(
            f"phase step {worst:.3f} rad reaches pi/2: sampling too coarse "
            "for branch tracking"
        )
    total = float(np.sum(steps)) / (2.0 * np.pi)
    nearest = int(round(total))
    if abs(total - nearest) > 0.25:
        raise NumericalFailure(f"winding sum {total:.6f} is not close to an integer")
    return nearest


def ring_phase_samples(winding: int, points: int) -> np.ndarray:
    """Samples of exp(i k_l x) on the ring; for class l this is winding l."""
    p = np.arange(points)
    return np.exp(2j * np.pi * winding * p / points)


def wannier_state(
    band: int, home_cell: int, bands: BandStructure, spec: LatticeSpec
) -> np.ndarray:
    """Localized combination of all same-band Bloch states.

    w_{n,r} = N^{-1/2} sum_l exp(-i k_l r a) psi_{n k_l}.  The inverse of the
    translation operator advances the home cell: T^dagger w_{n,r} = w_{n,r+1}
    (T itself maps w_{n,r} to w_{n,r-1}, indices mod N).  Unit norm follows
    from orthonormality of the Bloch states.
    """
    phases = np.exp(-1j * bands.k_values * (home_cell * spec.a))
    return (phases[:, None] * bands.coeffs[:, band]).sum(axis=0) / np.sqrt(spec.cells)
