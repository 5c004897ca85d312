"""Joint diagonalization of the lattice Hamiltonian and the translation.

Because a cell-periodic Hamiltonian couples only plane waves within one
wavevector class, diagonalizing each class block yields simultaneous
eigenvectors of H and of the translation operator T: the class label l fixes
the translation eigenvalue exp(i k_l a) with k_l = 2*pi*l/(N*a), and sorting
each block's eigenvalues defines the band index n = 0, 1, ... (one state per
class and band, so every band holds N states).  The class rows and the
wavevectors are read from the lattice's own grid (``LatticeSpec.class_rows``
and ``.wavevector``).  A state is kept as its class block alone;
``BandStructure.dense`` forms its plane-wave vector for a measurement that
needs one.  A real potential on a basis symmetric under m -> -m is time-
reversal even, so E_n(k_{-l}) = E_n(k_l) and psi_{n,-k} = conj(psi_{n,k}):
only classes 0..N//2 are diagonalized, and class N - l holds the time-
reversed states of class l (``OperatorTable.independent_classes`` decides).

Eigenvector gauge is pinned deterministically: degenerate clusters are
re-spanned by greedy pivoting of the cluster projector onto plane-wave axes
(ordered by the plane-wave index of the dominant coefficient), the projector
read through the cluster's own vectors and never formed, all clusters of one
size at once (``_respan``).  Every vector is phased so its largest-magnitude
coefficient is real positive; of coefficients equal in magnitude to within
PIVOT_RTOL, the first one is used, so a tie that symmetry makes is not
broken by rounding.  A class filled by time reversal carries its
partner's gauge read backwards: its rows are its partner's reversed, so its
pivot is the last of the tied entries and its clusters are ordered by
descending dominant row.  Repeat runs are then bitwise comparable on one
platform.  Parts of a state below SUBNORMAL_FLUSH are then zeroed, so no
product of two entries is subnormal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, NumericalFailure
from .lattice import LatticeSpec, OperatorTable, add_offset_diagonal

DEGENERACY_ATOL = 1e-10
SUPPORT_ATOL = 1e-12
PIVOT_RTOL = 1e-12  # entries this close to a column's largest magnitude tie for its pivot

# Real and imaginary parts of a Bloch state below this are set to zero.  It is
# about the square root of the smallest normal double (2.2e-308), so no
# product of two entries is subnormal: numpy has no flush-to-zero switch, and
# the processor's is a process-wide setting that the program does not touch.
# Subnormal operands are slow: on a lattice whose states decay far below
# 1e-154 (N = 3, d = 501, 100 bands) they took two thirds of a Wannier run.
SUBNORMAL_FLUSH = 1.5e-154

# winding extraction: phase steps at or beyond this are treated as undersampled
MAX_PHASE_STEP = np.pi / 2
MIN_SAMPLE_MODULUS = 0.5


@dataclass(frozen=True)
class BandStructure:
    """Every Bloch state of the lattice as its (sector, band, row) class block.

    ``rows[l]`` holds the b = d/N plane-wave rows of class l, ascending, and
    ``blocks[l, n]`` is psi_{n k_l} on those rows: a Bloch state is zero on
    every other row, so nothing else is stored.  ``energies[l, n]`` is its
    energy and ``k_values[l]`` its wavevector; bands are sorted ascending per
    class.  When ``solve_bands`` pairs the classes by time reversal, class
    N - l holds the time-reversed states of class l: ``blocks[N - l] ==
    conj(blocks[l])[:, ::-1]`` and the same energies, so its pivot and
    cluster-order rules read in reverse row order.  ``dense`` and ``coeffs``
    form plane-wave vectors on request.
    """

    k_values: np.ndarray
    energies: np.ndarray
    blocks: np.ndarray
    rows: np.ndarray

    def __post_init__(self):
        for name, dtype in (
            ("k_values", float), ("energies", float), ("blocks", complex), ("rows", int)
        ):
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def bands(self) -> int:
        return self.energies.shape[1]

    def dense(self, sector, band) -> np.ndarray:
        """Plane-wave vectors of psi_{band, k_sector}, zero off their class rows.

        ``sector`` and ``band`` are integer indices, broadcast together; the
        result has their shape plus (d,) and is formed anew on each call.
        """
        sector, band = np.broadcast_arrays(sector, band)
        out = np.zeros(sector.shape + (self.rows.size,), dtype=complex)
        np.put_along_axis(out, self.rows[sector], self.blocks[sector, band], axis=-1)
        return out

    @property
    def coeffs(self) -> np.ndarray:
        """Every state as a (sector, band, d) dense block, formed anew."""
        return self.dense(*np.indices(self.energies.shape))


def _canonical_eigenbasis(energies: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Cluster canonicalization and phase fixing of (..., n), (..., d, n) eigh output.

    The clusters (neighbours closer than DEGENERACY_ATOL * max(1, max |E|))
    of every system are found at once, and all clusters of one size s are
    re-spanned at once, as one (clusters, s, d) stack of their vectors
    (``_respan``).  Each column is then rotated so its largest-magnitude
    entry is real positive; entries equal in magnitude up to rounding (by
    symmetry, say) tie, and the first of them is the pivot.
    """
    *_, dim, n = vectors.shape
    e = np.reshape(energies, (-1, n))
    out = np.array(vectors, dtype=complex, order="C").reshape(-1, dim, n)
    scale = np.maximum(1.0, np.abs(e).max(axis=1, initial=0.0))
    starts = np.ones(e.shape, dtype=bool)  # a cluster starts at column 0 of each system
    starts[:, 1:] = ~(np.diff(e, axis=1) < (DEGENERACY_ATOL * scale)[:, None])
    first = np.flatnonzero(starts)  # flat (system, column) positions, row-major
    sizes = np.diff(first, append=starts.size)
    for size in sorted(set(sizes[sizes > 1].tolist())):  # np.unique would import numpy.ma
        system, col0 = np.divmod(first[sizes == size], n)
        cols = col0[:, None] + np.arange(size)  # (clusters, s)
        out[system[:, None], :, cols] = _respan(out[system[:, None], :, cols])
    magnitudes = np.abs(out)
    tied = magnitudes >= (1.0 - PIVOT_RTOL) * magnitudes.max(axis=1, keepdims=True, initial=0.0)
    pivots = out[np.arange(len(out))[:, None], tied.argmax(axis=1), np.arange(n)]  # (system, n)
    # conj(z) / |z| with |z| by hypot, as the scalar quotient forms it (an
    # array-wide np.abs rounds some pivots apart); a zero column stays zero
    radius = np.hypot(pivots.real, pivots.imag)
    out *= (pivots.conj() / np.where(radius > 0.0, radius, 1.0))[:, None, :]
    return out.reshape(vectors.shape)


def _respan(clusters: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal bases of (clusters, s, d) degenerate eigenspaces, vectors as rows.

    Greedy pivoting of each cluster's projector P = sum_j c_j c_j^H, without
    forming it: the weight diag P is the sum of |c_j|^2; the axis of largest
    remaining weight is picked, P's column there (sum_j c_j conj(c_j[p]),
    minus v conj(v[p]) for each vector v already picked) is normalized, and
    |v|^2 leaves the weight.  The picked vectors are ordered by the row of
    their dominant entry, stably.  Every sum is elementwise, along the s axis
    or along each row, so each cluster's bits do not depend on its stack.
    Raises NumericalFailure if a cluster's column has lost its rank.
    """
    count, size, _ = clusters.shape
    at = np.arange(count)
    weight = (clusters.real**2 + clusters.imag**2).sum(axis=1)  # (clusters, d)
    picked = np.empty_like(clusters)
    for t in range(size):
        pivot = np.argmax(weight, axis=1)
        col = (clusters * clusters[at, :, pivot].conj()[:, :, None]).sum(axis=1)
        for j in range(t):
            col -= picked[:, j] * picked[at, j, pivot].conj()[:, None]
        nrm = np.sqrt((col.real**2 + col.imag**2).sum(axis=1))
        if np.any(nrm < 1e-8):
            raise NumericalFailure("degenerate-cluster pivoting lost rank")
        picked[:, t] = col / nrm[:, None]
        weight -= picked[:, t].real ** 2 + picked[:, t].imag ** 2
    order = np.argsort(np.abs(picked).argmax(axis=2), axis=1, kind="stable")  # by dominant row
    return np.take_along_axis(picked, order[:, :, None], axis=1)


def solve_bands(h: OperatorTable, spec: LatticeSpec) -> BandStructure:
    """Diagonalize the wavevector-class blocks of a cell-periodic H, each time-reversal pair once.

    ``h`` is a one-member table on the spec's grid.  Each class's rows (a
    row of ``spec.class_rows``) give one (d/N, d/N) block, written onto
    zeros one class-row diagonal at a time (``OperatorTable.class_diagonals``
    and ``add_offset_diagonal``).  The first
    ``h.independent_classes(spec.class_rows)`` blocks go through one
    stacked eigensolve and one stacked gauge fix: classes 0..N//2 when H is
    time-reversal even on a mirror-symmetric basis, every class otherwise
    (a padded basis, a flux).  Class c beyond them is the time reverse of
    class N - c: its states the conjugated block with its rows reversed, its
    energies the partner's.  The eigenvectors are kept on the class rows,
    with the (N, d/N) row table as ``rows``; parts below SUBNORMAL_FLUSH are
    zeroed after the gauge, and the time-reversed classes copy the zeros.

    Raises InvariantViolation if H carries weight between different classes
    (the largest entry of ``OperatorTable.class_coupling``: H then is not
    cell-periodic and has no common eigenbasis with T), and
    NumericalFailure if the block eigensolve fails.
    """
    if h.dim != spec.dim:
        raise ValueError(f"operator dimension {h.dim} does not match basis {spec.dim}")
    rows = spec.class_rows
    _require_block_structure(h, rows)

    n, b = rows.shape
    solved = h.independent_classes(rows)
    h_blocks = np.zeros((solved, b, b), dtype=complex)
    for q, (values,) in h.class_diagonals(rows):
        add_offset_diagonal(h_blocks, q, values[:solved])
    try:
        energies, vectors = np.linalg.eigh(h_blocks)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalFailure(f"class-block eigensolver failed: {exc}") from exc
    blocks = np.empty((n, b, b), dtype=complex)  # (class, band, row)
    blocks[:solved] = _canonical_eigenbasis(energies, vectors).swapaxes(1, 2)
    for part in (blocks[:solved].real, blocks[:solved].imag):
        part[np.abs(part) < SUBNORMAL_FLUSH] = 0.0
    partners = slice(n - solved, 0, -1)  # class c >= solved reverses class N - c
    np.conjugate(blocks[partners, :, ::-1], out=blocks[solved:])
    return BandStructure(
        k_values=spec.wavevector(np.arange(n)),
        energies=np.concatenate([energies, energies[partners]]),
        blocks=blocks,
        rows=rows,
    )


def _require_block_structure(h: OperatorTable, rows: np.ndarray) -> None:
    """Raise InvariantViolation if H's ``class_coupling`` tops SUPPORT_ATOL * max(||H||_max, 1)."""
    leakage = float(np.max(h.class_coupling(rows)))
    if leakage > SUPPORT_ATOL * max(float(np.max(h.norm_max)), 1.0):
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


def wannier_state(band, home_cell, bands: BandStructure, spec: LatticeSpec) -> np.ndarray:
    """Localized combinations of all same-band Bloch states.

    w_{n,r} = N^{-1/2} sum_l exp(-i k_l r a) psi_{n k_l}.  The inverse of the
    translation operator advances the home cell: T^dagger w_{n,r} = w_{n,r+1}
    (T itself maps w_{n,r} to w_{n,r-1}, indices mod N).  Unit norm follows
    from orthonormality of the Bloch states.  ``band`` and ``home_cell`` are
    integer indices, broadcast together as in ``BandStructure.dense``; the
    result has their shape plus (d,).  The N states lie on disjoint class
    rows, so the sum is each phased block written on its own rows: the dense
    sum's values, without forming N dense vectors.
    """
    band, home_cell = np.broadcast_arrays(band, home_cell)
    phases = np.exp(-1j * bands.k_values * (home_cell[..., None] * spec.a))  # (..., class)
    out = np.zeros(band.shape + (bands.rows.size,), dtype=complex)
    out[..., bands.rows] = phases[..., None] * bands.blocks.swapaxes(0, 1)[band]
    return out / np.sqrt(spec.cells)
