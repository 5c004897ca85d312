"""Independent reference computations used to cross-check the solvers.

These deliberately avoid the plane-wave machinery under test: the band
oracle discretizes the same ring Hamiltonian on a real-space grid with a
periodic fourth-order finite-difference Laplacian and diagonalizes that.
"""

from __future__ import annotations

import numpy as np

from blochlab import LatticeSpec, PotentialSpec


def fd_ring_hamiltonian(
    spec: LatticeSpec, potential: PotentialSpec, points: int = 2048
) -> np.ndarray:
    """Dense real-space Hamiltonian on a uniform ring grid.

    Fourth-order stencil for the second derivative,
    (-f[i-2] + 16 f[i-1] - 30 f[i] + 16 f[i+1] - f[i+2]) / (12 h^2),
    wrapped periodically; the potential sits on the diagonal.
    """
    length = spec.circumference
    h = length / points
    x = np.arange(points) * h
    lap = np.zeros((points, points))
    coeffs = {-2: -1.0, -1: 16.0, 0: -30.0, 1: 16.0, 2: -1.0}
    for offset, c in coeffs.items():
        idx = np.arange(points)
        lap[idx, (idx + offset) % points] += c / (12.0 * h * h)
    kinetic = -(spec.hbar**2) / (2.0 * spec.mass) * lap
    return kinetic + np.diag(potential.value(x, a=spec.a))


def fd_ring_energies(
    spec: LatticeSpec, potential: PotentialSpec, points: int = 2048, count: int | None = None
) -> np.ndarray:
    """Lowest ``count`` eigenvalues of the real-space ring Hamiltonian."""
    ham = fd_ring_hamiltonian(spec, potential, points)
    vals = np.linalg.eigvalsh(ham)
    return vals if count is None else vals[:count]


# ---------------------------------------------------------------------------
# Row-loop builders: the plane-wave operators written out entry by entry, one
# harmonic and one row at a time.  The package places offset diagonals with
# vectorized indexing and multiplies by the diagonal momentum polynomial as a
# vector; these loops are the reference it must reproduce bit for bit.


def loop_hamiltonian(spec: LatticeSpec, potential: PotentialSpec) -> np.ndarray:
    """Kinetic diagonal plus each harmonic c_j at m - m' = j*N, conjugate mirrored."""
    momenta = 2.0 * np.pi * np.arange(-spec.cutoff, spec.cutoff + spec.pad + 1) / spec.circumference
    d = len(momenta)
    h = np.zeros((d, d), dtype=complex)
    np.fill_diagonal(h, (spec.hbar * momenta) ** 2 / (2.0 * spec.mass) + potential.v0)
    for j, c in potential.harmonics:
        dm = j * spec.cells
        for row in range(d):
            col = row - dm
            if 0 <= col < d:
                h[row, col] = h[row, col] + c
                h[col, row] = np.conj(h[row, col])
    return h


def loop_fold(harmonics) -> tuple:
    """Canonical f_harmonics of an observable term: real constant first, j<0 folded."""
    folded: dict[int, complex] = {}
    constant = 0.0
    for j, c in harmonics:
        j, c = int(j), complex(c)
        if j == 0:
            if abs(c.imag) > 0.0:
                raise ValueError("constant part of a real function must be real")
            constant += c.real
        elif j > 0:
            folded[j] = folded.get(j, 0j) + c
        else:
            folded[-j] = folded.get(-j, 0j) + np.conj(c)
    canonical = []
    if constant != 0.0:
        canonical.append((0, complex(constant)))
    canonical.extend(sorted(folded.items()))
    return tuple(canonical)


def _loop_function_matrix(f_harmonics, basis) -> np.ndarray:
    d = basis.dim
    out = np.zeros((d, d), dtype=complex)
    for j, c in f_harmonics:
        if j == 0:
            out[np.diag_indices(d)] += c
            continue
        dm = j * basis.cells
        for row in range(d):
            col = row - dm
            if 0 <= col < d:
                out[row, col] += c
                out[col, row] += np.conj(c)
    return out


def _dense_polynomial_matrix(p_poly, basis) -> np.ndarray:
    hq = basis.hbar * basis.momenta
    diag = np.zeros(basis.dim)
    for power, coeff in enumerate(p_poly):
        diag = diag + coeff * hq**power
    return np.diag(diag).astype(complex)


def loop_observable(spec, basis) -> np.ndarray:
    """Sum of terms with F and P as dense matrices; (F@P + P@F)/2 or F@P."""
    d = basis.dim
    total = np.zeros((d, d), dtype=complex)
    for term in spec.terms:
        if term.f_harmonics and term.p_poly:
            f = _loop_function_matrix(term.f_harmonics, basis)
            p = _dense_polynomial_matrix(term.p_poly, basis)
            total += 0.5 * (f @ p + p @ f) if spec.symmetrize else f @ p
        elif term.f_harmonics:
            total += _loop_function_matrix(term.f_harmonics, basis)
        else:
            total += _dense_polynomial_matrix(term.p_poly, basis)
    return total


def loop_breaking_observable(shift: int, basis) -> np.ndarray:
    """Ones at plane-wave distance +-shift."""
    d = basis.dim
    out = np.zeros((d, d), dtype=complex)
    for row in range(shift, d):
        out[row, row - shift] = 1.0
        out[row - shift, row] = 1.0
    return out
