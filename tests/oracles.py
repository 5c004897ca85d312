"""Independent reference computations used to cross-check the solvers.

These deliberately avoid the plane-wave machinery under test: the band
oracle discretizes the same ring Hamiltonian on a real-space grid with a
periodic fourth-order finite-difference Laplacian and diagonalizes that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from blochlab import LatticeSpec, PotentialSpec, fold_quasienergy
from blochlab.bloch import _canonical_eigenbasis
from blochlab.floquet import _on_grid


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


def dense_to_diagonals(matrix) -> dict:
    """The offset diagonals of a dense matrix's lower triangle: entries (m + o, m).

    This is what ``HermitianOperator`` stores; the upper triangle is implied
    as their conjugates and is not read.  All-zero diagonals are left out.
    The main diagonal is kept as given, so a complex one reaches the
    operator's Hermiticity check.
    """
    m = np.asarray(matrix)
    diagonals = {o: np.diagonal(m, -o) for o in range(len(m))}
    return {o: v for o, v in diagonals.items() if v.any()}


def dense_cell_periodicity(matrix: np.ndarray, phases: np.ndarray) -> float:
    """max |T O T^dagger - O| / max |O| over every entry of a dense O, T = diag(phases)."""
    scale = float(np.max(np.abs(matrix)))
    if scale == 0.0:
        return 0.0
    defect = phases[:, None] * matrix * phases.conj() - matrix
    return float(np.max(np.abs(defect))) / scale


# ---------------------------------------------------------------------------
# Per-state measurements: the leakage table one class pair at a time, and the
# Wannier band average one Bloch state at a time, both over lists of
# BlochState.  The package computes one Psi^* O Psi^T product per operator on
# the (sector, band, d) coefficient block; these loops are the reference it
# must reproduce.


def pairwise_leakage(states, battery) -> np.ndarray:
    """Max over bands and battery of |bras^H O kets| / ||O||_max per class pair j < l, mirrored."""
    sectors = sorted({s.sector for s in states})
    n = len(sectors)
    leakage = np.full((n, n), np.nan)
    by_sector = {l: [s for s in states if s.sector == l] for l in sectors}
    for j in sectors:
        bras = np.column_stack([s.coeffs for s in by_sector[j]])
        for l in sectors:
            if l <= j:
                continue
            kets = np.column_stack([s.coeffs for s in by_sector[l]])
            worst = 0.0
            for op in battery:
                elements = np.abs(bras.conj().T @ op.matrix @ kets) / op.norm_max
                worst = max(worst, float(np.max(elements)))
            leakage[j, l] = worst
            leakage[l, j] = worst
    return leakage


def state_mixture_residual(wannier: np.ndarray, band_states, operator) -> float:
    """|<w|O|w> - mean_l <psi_l|O|psi_l>| for one Wannier vector, band average per state."""
    w_avg = float(np.real(wannier.conj() @ operator.matrix @ wannier))
    band_avg = float(
        np.mean(
            [np.real(s.coeffs.conj() @ operator.matrix @ s.coeffs) for s in band_states]
        )
    )
    return abs(w_avg - band_avg)


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


def mixture_diagnostic(a, b, battery) -> MixtureDiagnostic:
    """Compare |a>+|b> (equal weights) against the 50/50 classical mixture, densely.

    Requires orthogonal unit-norm BlochStates, so the mixture weights are
    exactly one half and the superposition normalizes to <Phi|Phi> = 2.  For
    such a, b the difference under O is Re<a|O|b>, which the leakage table
    bounds.
    """
    overlap = abs(complex(a.coeffs.conj() @ b.coeffs))
    if overlap > 1e-10:
        raise ValueError(f"states are not orthogonal: |<a|b>| = {overlap:.3e}")
    combined = a.coeffs + b.coeffs
    norm_sq = float(np.real(combined.conj() @ combined))
    rho_sup = np.outer(combined, combined.conj()) / norm_sq
    rho_mix = 0.5 * (np.outer(a.coeffs, a.coeffs.conj()) + np.outer(b.coeffs, b.coeffs.conj()))
    delta = rho_sup - rho_mix
    per_obs = tuple(
        (op.label, abs(complex(np.trace(delta @ op.matrix))) / op.norm_max) for op in battery
    )
    best = max((v for _, v in per_obs), default=0.0)
    return MixtureDiagnostic(rho_sup, rho_mix, best, per_obs)


# ---------------------------------------------------------------------------
# Floquet stepping one step at a time: H(t) summed term by term at one time,
# one 2-D eigendecomposition per midpoint factor, RK4 stages applied to the
# running U, and the running product kept at every ``every``-th step.  The
# package evaluates H on a whole array of times, builds a chunk of step
# matrices at once and multiplies them in aligned blocks; both loops are
# references it must reproduce to rounding (the RK4 loop groups the same
# arithmetic per stage on U rather than into one step matrix).  The running
# product of given step matrices, in float64 or in extended precision, is
# the reference for the accuracy of the block product itself.


def termwise_trig_series(static: np.ndarray, terms, omega: float, t: float) -> np.ndarray:
    """static + sum trig(h omega t) V at one time, one term after another."""
    out = np.array(static)
    for term in terms:
        phase = term.harmonic * omega * t
        factor = np.cos(phase) if term.kind == "cos" else np.sin(phase)
        out = out + factor * term.matrix
    return out


def stepwise_midpoint_snapshots(spec, steps: int, every: int) -> np.ndarray:
    """U(t_i, 0) at every ``every``-th of ``steps`` midpoint steps, U(0, 0) first."""
    dt = spec.period / steps
    u = np.eye(spec.dim, dtype=complex)
    snapshots = [u]
    for s in range(steps):
        h = termwise_trig_series(spec.h0, spec.drives, spec.omega, (s + 0.5) * dt)
        vals, vecs = np.linalg.eigh(h)
        u = ((vecs * np.exp(-1j * vals * dt / spec.hbar)) @ vecs.conj().T) @ u
        if (s + 1) % every == 0:
            snapshots.append(u)
    return np.array(snapshots)


def running_product(factors: np.ndarray, marks, dtype=complex) -> np.ndarray:
    """factors[s - 1] ... factors[0] at each step index s of the ascending ``marks``.

    The step matrices are multiplied one at a time in ``dtype``: complex for
    the per-step loop, np.clongdouble for a reference whose own rounding is
    far below float64's.
    """
    u = np.eye(factors.shape[-1], dtype=dtype)
    out = np.empty((len(marks),) + u.shape, dtype=dtype)
    taken = 0
    for s in range(len(factors) + 1):
        if s:
            u = factors[s - 1].astype(dtype) @ u
        while taken < len(marks) and marks[taken] == s:
            out[taken] = u
            taken += 1
    return out


def stepwise_rk4_monodromy(spec, steps: int) -> np.ndarray:
    """Classical RK4 on U' = -(i/hbar) H(t) U over one period, no re-unitarization."""
    dt = spec.period / steps
    scale = -1j / spec.hbar
    u = np.eye(spec.dim, dtype=complex)
    for s in range(steps):
        h0, hm, h1 = (
            termwise_trig_series(spec.h0, spec.drives, spec.omega, x)
            for x in (s * dt, s * dt + 0.5 * dt, s * dt + dt)
        )
        k1 = scale * (h0 @ u)
        k2 = scale * (hm @ (u + 0.5 * dt * k1))
        k3 = scale * (hm @ (u + 0.5 * dt * k2))
        k4 = scale * (h1 @ (u + dt * k3))
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


# ---------------------------------------------------------------------------
# Floquet modes from the complex Schur form U = Z T Z^H, whose T is diagonal
# for a unitary U.  The package extracts the modes with numpy alone, through
# the Hermitian Cayley transform of U; this route is the reference for its
# quasienergies, modes and orthonormality.


def schur_quasienergies(monodromy, omega: float, hbar: float = 1.0):
    """Sorted folded quasienergies and canonical modes from scipy.linalg.schur.

    Degenerate clusters are found on the circle of circumference hbar*omega,
    so a cluster that straddles the zone edge is canonicalized whole.
    """
    t, z = scipy.linalg.schur(np.asarray(monodromy, dtype=complex), output="complex")
    lams = np.diag(t)
    residual = float(np.max(np.abs(t - np.diag(lams))))
    if residual > 1e-8:
        raise AssertionError(f"Schur form of monodromy not diagonal: {residual:.3e}")
    period = 2.0 * np.pi / omega
    eps = fold_quasienergy(-(hbar / period) * np.angle(lams), omega, hbar)
    order = np.argsort(eps, kind="stable")
    eps, z = eps[order], z[:, order]
    # clusters on the circle: cut at the widest gap, the part below it moved up a zone
    x = eps / max(hbar * omega, 1e-300)
    cut = int(np.argmax(np.append(np.diff(x), x[0] + 1.0 - x[-1]))) + 1
    if cut < len(x):
        turned = np.hstack((z[:, cut:], z[:, :cut]))
        modes = _canonical_eigenbasis(np.append(x[cut:], x[:cut] + 1.0), turned)
        return eps, np.hstack((modes[:, len(x) - cut:], modes[:, : len(x) - cut]))
    return eps, _canonical_eigenbasis(x, z)


# ---------------------------------------------------------------------------
# Temporal-probe averages re-evaluated period by period: both modes advanced by
# U(T), propagated through every grid snapshot and contracted with O(t_i) on
# the whole grid once per period.  The package forms the Heisenberg stack
# U(t_i)^dagger O(t_i) U(t_i) once and takes one bilinear form per period; this
# loop is the reference its K-period averages must reproduce to rounding.


def loop_period_averages(solution, observable, pair, periods, grid_points) -> dict:
    """{K: |average of F(t) over [0, K T]|} for F(t) = <phi_j(t)|O(t)|phi_j'(t)>."""
    j, jp = pair
    snapshots, offsets = _on_grid(solution, grid_points)
    snapshots = snapshots[:-1]  # t < T
    spec, modes = solution.spec, solution.modes
    u_period = solution.monodromy

    times = np.arange(grid_points) * spec.period / grid_points + offsets[:-1]
    obs_grid = observable.value(times, spec.omega)

    phi_j0, phi_jp0 = modes[:, j], modes[:, jp]

    def overlaps(vec_j: np.ndarray, vec_jp: np.ndarray) -> np.ndarray:
        left = snapshots @ vec_j  # [grid, d]
        right = snapshots @ vec_jp
        return np.einsum("id,idk,ik->i", left.conj(), obs_grid, right)

    # running averages over [0, K T]: modes advanced period by period
    running = 0j
    averages: dict[int, float] = {}
    vec_j, vec_jp = phi_j0, phi_jp0
    for k in range(1, max(periods) + 1):
        running += np.sum(overlaps(vec_j, vec_jp))
        if k in periods:
            averages[k] = float(abs(running / (k * grid_points)))
        vec_j = u_period @ vec_j
        vec_jp = u_period @ vec_jp
    return averages
