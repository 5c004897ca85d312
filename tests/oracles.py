"""Independent reference computations used to cross-check the solvers.

These deliberately avoid the plane-wave machinery under test: the band
oracle discretizes the same ring Hamiltonian on a real-space grid with a
periodic fourth-order finite-difference Laplacian and diagonalizes that.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from blochlab import (
    Battery,
    LatticeSpec,
    NumericalFailure,
    OperatorTable,
    PotentialSpec,
    fold_quasienergy,
)
from blochlab.bloch import DEGENERACY_ATOL, PIVOT_RTOL
from blochlab.floquet import _nearest_steps
from blochlab.observables import MAX_POLY_DEGREE, NORM_WINDOW, ObservableSpec, ObservableTerm


# ---------------------------------------------------------------------------
# Single operators and per-member views.  Every lattice operator is an
# OperatorTable, and a single operator is a one-member table; these build
# the single members the tests measure with the package's own table builders
# (``Battery.tables``, ``Battery.member`` and ``OperatorTable.assemble``) and
# join members into one table.  A row re-assembled onto zeros keeps its
# bits, so ``join`` moves no entry.


def plane_wave_grid(spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference (indices, momenta, class rows) of a LatticeSpec, formed from its fields.

    m runs over -M..M + pad, q_m = 2 pi m / (N a), and class l's rows are
    searched one class at a time: the rows whose m mod N is l.  The spec's
    own ``indices``, ``momenta`` and ``class_rows`` must equal these bit for
    bit.
    """
    indices = np.arange(-spec.cutoff, spec.cutoff + spec.pad + 1, dtype=int)
    momenta = 2.0 * np.pi * indices / spec.circumference
    rows = np.array([np.nonzero(indices % spec.cells == l)[0] for l in range(spec.cells)])
    return indices, momenta, rows


def row_of(spec: LatticeSpec, m: int) -> int:
    """The row of plane wave ``m`` on the spec's grid."""
    (row,) = np.flatnonzero(spec.indices == m)
    return int(row)


def operator(dim: int, diagonals: dict, label: str = "") -> OperatorTable:
    """The one-member table of ``diagonals`` (offset -> values)."""
    return OperatorTable.assemble(dim, [((label,), diagonals)])


def named(name: str, lattice: LatticeSpec) -> OperatorTable:
    """The named battery member ``name`` as a one-member table."""
    (table,) = Battery(lattice, seeds=0, named=(name,)).tables()
    return table


def seeded(
    seed: int, lattice: LatticeSpec, max_harmonic: int = 1, degree: int = 2
) -> OperatorTable:
    """The battery's seeded member ``seed`` (label seed:<seed>) as a one-member table."""
    battery = Battery(lattice, seeds=seed, max_harmonic=max_harmonic, degree=degree, named=())
    return battery.member(seed - 1)


def custom(spec, lattice: LatticeSpec) -> OperatorTable:
    """The custom battery member of an ObservableSpec (label custom:0) as a one-member table."""
    (table,) = Battery(lattice, seeds=0, named=(), custom=(spec,)).tables()
    return table


def member_labels(battery: Battery) -> tuple[str, ...]:
    """The battery's member labels in order, without building a member: named, seeds, custom."""
    seeds = tuple(f"seed:{seed}" for seed in range(1, battery.seeds + 1))
    return battery.named + seeds + tuple(f"custom:{i}" for i in range(len(battery.custom)))


def members(battery: Battery) -> list[OperatorTable]:
    """Every member of ``battery``, in order, as a one-member table (``Battery.member``)."""
    return [battery.member(i) for i in range(len(battery))]


def join(tables) -> OperatorTable:
    """One table of the members of ``tables``, in order."""
    tables = list(tables)
    d = tables[0].dim
    return OperatorTable.assemble(
        d,
        [(t.labels, {o: t.values[:, k, : d - o] for k, o in enumerate(t.offsets)}) for t in tables],
    )


def diagonals(op: OperatorTable) -> dict:
    """The nonzero diagonals of a one-member table, offset -> values."""
    (row,) = op.values
    return {o: row[k, : op.dim - o] for k, o in enumerate(op.offsets) if row[k].any()}


def dense(table: OperatorTable) -> np.ndarray:
    """The dense (members, d, d) matrices of ``table``: each member applied to the identity.

    Column c of a member is O e_c, so the matrix is ``apply`` of the unit
    vectors, transposed.  Each stored entry is added onto zeros once, beside
    exact zeros from the other diagonals, so every entry holds its stored
    bits and every other entry is +0.0.
    """
    return table.apply(np.eye(table.dim)).swapaxes(-1, -2)


def matrix_element(op: OperatorTable, bra: np.ndarray, ket: np.ndarray) -> complex:
    """<bra|O|ket> of a one-member table between two plane-wave vectors, through ``apply``."""
    if len(bra) != op.dim or len(ket) != op.dim:
        raise ValueError("state and operator dimensions disagree")
    (applied,) = op.apply(ket)
    return complex(bra.conj() @ applied)


def potential_value(potential: PotentialSpec, x: np.ndarray, a: float = 1.0) -> np.ndarray:
    """V(x) = v0 + sum_j 2 Re(c_j exp(i 2 pi j x / a)) of a PotentialSpec on a grid."""
    x = np.asarray(x, dtype=float)
    out = np.full_like(x, potential.v0)
    for j, c in potential.harmonics:
        out += 2.0 * np.real(c * np.exp(2j * np.pi * j * x / a))
    return out


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
    return kinetic + np.diag(potential_value(potential, x, a=spec.a))


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


def _loop_function_matrix(f_harmonics, lattice) -> np.ndarray:
    d = lattice.dim
    out = np.zeros((d, d), dtype=complex)
    for j, c in f_harmonics:
        if j == 0:
            out[np.diag_indices(d)] += c
            continue
        dm = j * lattice.cells
        for row in range(d):
            col = row - dm
            if 0 <= col < d:
                out[row, col] += c
                out[col, row] += np.conj(c)
    return out


def _dense_polynomial_matrix(p_poly, lattice) -> np.ndarray:
    hq = lattice.hbar * lattice.momenta
    diag = np.zeros(lattice.dim)
    for power, coeff in enumerate(p_poly):
        diag = diag + coeff * hq**power
    return np.diag(diag).astype(complex)


def loop_observable(spec, lattice, symmetrized: bool = True) -> np.ndarray:
    """Sum of terms with F and P as dense matrices; (F@P + P@F)/2, or F@P unsymmetrized.

    The battery forms every term as (F*P + P*F)/2.  F@P is Hermitian, and
    the same operator, only when F or P is constant in each term; taking it
    here shows that no such operator is lost.
    """
    d = lattice.dim
    total = np.zeros((d, d), dtype=complex)
    for term in spec.terms:
        if term.f_harmonics and term.p_poly:
            f = _loop_function_matrix(term.f_harmonics, lattice)
            p = _dense_polynomial_matrix(term.p_poly, lattice)
            total += 0.5 * (f @ p + p @ f) if symmetrized else f @ p
        elif term.f_harmonics:
            total += _loop_function_matrix(term.f_harmonics, lattice)
        else:
            total += _dense_polynomial_matrix(term.p_poly, lattice)
    return total


def loop_breaking_observable(shift: int, lattice) -> np.ndarray:
    """Ones at plane-wave distance +-shift."""
    d = lattice.dim
    out = np.zeros((d, d), dtype=complex)
    for row in range(shift, d):
        out[row, row - shift] = 1.0
        out[row - shift, row] = 1.0
    return out


def dense_to_diagonals(matrix) -> dict:
    """The offset diagonals of a dense matrix's lower triangle: entries (m + o, m).

    This is what an ``OperatorTable`` row stores; the upper triangle is implied
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
# The eigenvector gauge one eigensystem and one degenerate cluster at a time.
# The package finds the clusters of a whole stack of eigensystems at once,
# re-spans all clusters of one size in one stacked pass and fixes every phase
# in one array-wide pass; this loop is the reference it must reproduce bit for
# bit.


def _canonicalize_cluster(vectors: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis for one degenerate eigenspace (d, s).

    Greedy pivoting of the basis-independent projector P = sum_j c_j c_j^H,
    one picked vector at a time and without forming P: pick the axis with
    the largest remaining weight (diag P, less |v|^2 per picked v), normalize
    P's column there less v conj(v[p]) per picked v; then order the vectors
    by the row of their dominant coefficient.  The sums are the package's:
    along the cluster's s vectors, in order, and along each vector.
    """
    size = vectors.shape[1]
    if size == 1:
        return vectors
    rows = vectors.T.copy()  # the cluster's vectors as C-ordered rows: sums over s run in order
    weight = (rows.real**2 + rows.imag**2).sum(axis=0)
    picked = []
    for _ in range(size):
        pivot = int(np.argmax(weight))
        col = (rows * rows[:, pivot].conj()[:, None]).sum(axis=0)
        for v in picked:
            col -= v * v[pivot].conj()
        nrm = np.sqrt((col.real**2 + col.imag**2).sum())
        if nrm < 1e-8:
            raise NumericalFailure("degenerate-cluster pivoting lost rank")
        vec = col / nrm
        picked.append(vec)
        weight -= vec.real**2 + vec.imag**2
    picked.sort(key=lambda v: int(np.argmax(np.abs(v))))
    return np.column_stack(picked)


def loop_canonical_eigenbasis(energies: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """The gauge of one eigensystem (n,), (d, n): cluster by cluster, then phase by phase."""
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
    magnitudes = np.abs(out)
    tied = magnitudes >= (1.0 - PIVOT_RTOL) * magnitudes.max(axis=0, initial=0.0)
    pivots = out[np.argmax(tied, axis=0), np.arange(n)]
    out *= np.array([np.conj(z) / abs(z) if z else 1.0 for z in pivots])
    return out


def loop_solve_bands(h, rows) -> tuple[np.ndarray, np.ndarray]:
    """Energies (N, b) and class blocks (N, b, b): one eigh and one gauge per class.

    When the dense H read backwards is its conjugate (time reversal on a
    basis symmetric under m -> -m) and row r of class l mirrors to row
    d - 1 - r of class N - l, the classes past N // 2 are their partners'
    blocks conjugated with the rows reversed, with the partners' energies.
    """
    (matrix,) = dense(h)
    n, d = len(rows), len(matrix)
    mirrored = np.array_equal(matrix[::-1, ::-1], matrix.conj()) and all(
        np.array_equal(rows[-l % n][::-1], d - 1 - rows[l]) for l in range(n)
    )
    energies, blocks = [], []
    for l in range(n):
        if mirrored and l > n // 2:
            energies.append(energies[n - l])
            blocks.append(blocks[n - l][:, ::-1].conj())
            continue
        vals, vecs = np.linalg.eigh(matrix[np.ix_(rows[l], rows[l])])
        energies.append(vals)
        blocks.append(loop_canonical_eigenbasis(vals, vecs).T)
    return np.array(energies), np.array(blocks)


# ---------------------------------------------------------------------------
# Battery members built alone.  The package builds each battery table in one
# pass, every term of its members one row of a stack, and the seeds' streams
# at once; the builders it had before are the references it must reproduce
# bit for bit: the scalar generator (``Lcg``), the diagonals of a stack of
# one-term members (``term_diagonals``), a named or custom member summed term
# by term (``observable_diagonals``), and the seeded members of a table
# (``seeded_diagonals``), each drawn one scalar at a time.


_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


class Lcg:
    """Deterministic 64-bit linear congruential generator (MMIX constants)."""

    def __init__(self, seed: int):
        self.state = (int(seed) * 0x9E3779B97F4A7C15 + 1) & _LCG_MASK

    def next_uint(self) -> int:
        self.state = (_LCG_MULT * self.state + _LCG_INC) & _LCG_MASK
        return self.state

    def uniform(self, lo: float = -1.0, hi: float = 1.0) -> float:
        u = (self.next_uint() >> 11) / float(1 << 53)  # 53-bit mantissa in [0, 1)
        return lo + (hi - lo) * u


def term_diagonals(lattice: LatticeSpec, harmonics, poly) -> dict:
    """The offset diagonals of a stack of one-term members (F*P + P*F)/2, one row each.

    ``harmonics`` pairs each j >= 0 with the members' coefficients of
    exp(i 2 pi j x / a), and ``poly`` is (members, degree + 1), each row the
    real coefficients of P in hbar*q, constant term first.  P is diagonal
    (its vector p) and harmonic j of F is offset k = j*N, so the entry at
    (m + k, m) is 0.5*(c*p[m] + p[m + k]*c); a harmonic whose offset reaches
    past the basis is dropped.  Overflow warns: a caller whose inputs can
    overflow silences it.
    """
    poly = np.asarray(poly)
    if poly.shape[1] > MAX_POLY_DEGREE + 1:
        raise ValueError(f"degree {poly.shape[1] - 1} exceeds cap {MAX_POLY_DEGREE}")
    hq, d = lattice.hbar * lattice.momenta, lattice.dim
    p = np.zeros((len(poly), d))
    for power in range(poly.shape[1]):
        p = p + poly[:, power, None] * hq**power
    diagonals = {}
    for j, c in harmonics:
        k, c = j * lattice.cells, np.asarray(c)[:, None]
        if k < d:
            diagonals[k] = 0.5 * (c * p[:, : d - k] + p[:, k:] * c)
    return diagonals


@np.errstate(over="ignore", invalid="ignore")  # OperatorTable rejects what overflows
def observable_diagonals(spec: ObservableSpec, lattice: LatticeSpec) -> dict:
    """The offset diagonals of an ObservableSpec, one row, its terms summed in order.

    Each term is one ``term_diagonals`` row.  A term without function part
    is F = 1 and one without polynomial P = 1: both exact, as 0.5*(x + x) = x.
    """
    diagonals: dict = {}
    for term in spec.terms:
        if not term.f_harmonics and not term.p_poly:
            raise ValueError("observable term needs a function part or a polynomial part")
        harmonics = [(j, [c]) for j, c in term.f_harmonics or ((0, 1.0),)]
        for k, values in term_diagonals(lattice, harmonics, [term.p_poly or (1.0,)]).items():
            diagonals[k] = diagonals.get(k, 0.0) + values
    return diagonals


def seeded_diagonals(seeds, lattice: LatticeSpec, max_harmonic: int, degree: int) -> dict:
    """The offset diagonals of the seeded members, one row per seed, formed at once.

    Each seed's LCG stream draws, in order, the real constant, the complex
    coefficients of harmonics 1..max_harmonic and the momentum-polynomial
    coefficients; power p is pre-damped by the lattice's momentum scale to the
    p-th power, to keep the window rescaling mild (and |p| <= degree + 1,
    so nothing overflows).  The draws are one stack of
    ``term_diagonals`` rows; each member is rescaled to max-entry norm 1 if
    its raw norm falls outside the window [0.5, 50].
    """
    if max_harmonic < 0 or max_harmonic * lattice.cells > lattice.cutoff:
        raise ValueError(
            f"max_harmonic {max_harmonic} unreachable: need j*N <= cutoff "
            f"({lattice.cells}*j <= {lattice.cutoff})"
        )
    q_scale = max(1.0, float(np.max(np.abs(lattice.hbar * lattice.momenta))))
    harmonics, poly = [], []  # the draws stay scalar Python: one stream per seed
    for seed in seeds:
        rng = Lcg(seed)
        harmonics.append(
            [complex(rng.uniform())]
            + [complex(rng.uniform(), rng.uniform()) for _ in range(max_harmonic)]
        )
        poly.append([rng.uniform() / q_scale**power for power in range(degree + 1)])
    harmonics = np.array(harmonics)
    diagonals = term_diagonals(lattice, enumerate(harmonics.T), poly)
    norm = np.max([np.max(np.abs(v), axis=1) for v in diagonals.values()], axis=0)[:, None]
    outside = ~((NORM_WINDOW[0] <= norm) & (norm <= NORM_WINDOW[1]))
    for v in diagonals.values():
        np.divide(v, norm, out=v, where=outside)
    return diagonals


# ---------------------------------------------------------------------------
# Per-member and per-state measurements.  The package measures a whole table
# in one pass; the seeded member built from its own ObservableSpec, the
# class form and the sector elements one member at a time are the references
# it must reproduce bit for bit.  The leakage table one class pair at a time
# and the Wannier band average one Bloch state at a time, over dense
# plane-wave vectors, are the references it must reproduce to rounding.


def loop_class_form(operator, rows, bra, ket) -> np.ndarray:
    """The (..., N) forms <bra_l|O|ket_l> of a one-member table, nonzero diagonal by diagonal.

    The per-member reference of ``OperatorTable.class_form``: the diagonal at
    offset qN is offset q on the class rows, with values values[rows[:, :b-q]],
    contracted in one (N, 1, b - q) @ (N, b - q, K) product with the (N, b - q, K)
    bra-ket products conj(bra[i + q]) ket[i], and for q > 0 its conjugate with
    conj(bra[i]) ket[i + q].
    """
    n, b = rows.shape
    bra, ket = np.broadcast_arrays(np.conj(bra), ket)
    lead = bra.shape[:-2]
    bra_t = np.moveaxis(bra.reshape(-1, n, b), 0, -1).copy()  # (N, b, K)
    ket_t = np.moveaxis(ket.reshape(-1, n, b), 0, -1).copy()
    form = np.zeros((n, 1, bra_t.shape[-1]), dtype=complex)
    for q, values in ((o // n, v) for o, v in diagonals(operator).items() if o % n == 0):
        v = values[rows[:, : b - q]]
        form += v[:, None, :] @ (bra_t[:, q:] * ket_t[:, : b - q])
        if q:
            form += v.conj()[:, None, :] @ (bra_t[:, : b - q] * ket_t[:, q:])
    return np.moveaxis(form[:, 0], 0, -1).reshape(lead + (n,))


def loop_class_coupling(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The (N, N) block bounds of one dense matrix, one class pair at a time.

    The per-member reference of ``OperatorTable.class_coupling``: block (j, l)
    is sliced from the matrix, its entries are grouped by their plane-wave
    offset r - c (a diagonal at +o and its mirror at -o apart), and the
    largest |entry| of each group is summed, groups in the order +1, -1, +2,
    -2, ...  The diagonal blocks are left at 0.
    """
    n = len(rows)
    out = np.zeros((n, n))
    for j, l in itertools.permutations(range(n), 2):
        block = np.abs(matrix[np.ix_(rows[j], rows[l])])
        offset = rows[j][:, None] - rows[l][None, :]
        for o in sorted(set(offset.ravel().tolist()), key=lambda o: (abs(o), -o)):
            out[j, l] += block[offset == o].max()
    return out


def member_sector_elements(bands, battery) -> tuple[np.ndarray, np.ndarray]:
    """Leakage table and (class, member) within-sector elements, one member at a time.

    Per member (one-member tables): the ``loop_class_coupling`` of its dense
    matrix over its ||O||_max, maximized over members (the diagonal blocks
    stay 0), and its ``loop_class_form`` on bands 0 and 1.
    """
    rows, blocks = bands.rows, bands.blocks
    leakage = np.zeros((len(rows), len(rows)))
    within = []
    for op in battery:
        (matrix,) = dense(op)
        np.maximum(leakage, loop_class_coupling(matrix, rows) / op.norm_max[0], out=leakage)
        within.append(np.abs(loop_class_form(op, rows, blocks[:, 0], blocks[:, 1])))
    return leakage, np.array(within).T


def loop_seeded_diagonals(seed: int, lattice, max_harmonic: int = 1, degree: int = 2) -> dict:
    """One seeded battery member's offset diagonals, as its own ObservableSpec.

    The per-member reference of the battery's seeded rows: the seed's LCG
    draws (constant, harmonics 1..max_harmonic, polynomial coefficients damped
    by the momentum scale) as one term of its own ObservableSpec, assembled
    by ``observable_diagonals`` (one ``term_diagonals`` row, where
    ``seeded_diagonals`` forms every seed of a table in one stack) and
    rescaled to max-entry norm 1 outside NORM_WINDOW, each diagonal summed onto
    zeros as an ``OperatorTable`` row stores it.
    """
    rng = Lcg(seed)
    harmonics = [(0, complex(rng.uniform()))]
    for j in range(1, max_harmonic + 1):
        harmonics.append((j, complex(rng.uniform(), rng.uniform())))
    q_scale = max(1.0, float(np.max(np.abs(lattice.hbar * lattice.momenta))))
    poly = tuple(rng.uniform() / q_scale**power for power in range(degree + 1))
    spec = ObservableSpec(terms=(ObservableTerm(f_harmonics=tuple(harmonics), p_poly=poly),))
    diagonals = observable_diagonals(spec, lattice)
    norm = max(float(np.max(np.abs(v))) for v in diagonals.values())
    if not NORM_WINDOW[0] <= norm <= NORM_WINDOW[1]:
        diagonals = {offset: v / norm for offset, v in diagonals.items()}
    return {o: np.zeros(lattice.dim - o, complex) + v for o, v in diagonals.items()}


def pairwise_leakage(states: np.ndarray, battery) -> np.ndarray:
    """Max over bands and battery of |bras^H O kets| / ||O||_max per class pair j < l, mirrored.

    ``states`` is (sector, band, d): each class's states as dense plane-wave rows.
    """
    n = len(states)
    matrices = [(dense(op)[0], op.norm_max[0]) for op in battery]
    leakage = np.full((n, n), np.nan)
    for j in range(n):
        bras = np.column_stack(list(states[j]))  # one state per column
        for l in range(j + 1, n):
            kets = np.column_stack(list(states[l]))
            worst = 0.0
            for matrix, norm in matrices:
                elements = np.abs(bras.conj().T @ matrix @ kets) / norm
                worst = max(worst, float(np.max(elements)))
            leakage[j, l] = worst
            leakage[l, j] = worst
    return leakage


def state_mixture_residual(wannier: np.ndarray, band_states, operator) -> float:
    """|<w|O|w> - mean_l <psi_l|O|psi_l>| for one Wannier vector, band average per state vector."""
    (matrix,) = dense(operator)
    w_avg = float(np.real(wannier.conj() @ matrix @ wannier))
    band_avg = float(np.mean([np.real(psi.conj() @ matrix @ psi) for psi in band_states]))
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

    Requires orthogonal unit-norm plane-wave vectors, so the mixture weights are
    exactly one half and the superposition normalizes to <Phi|Phi> = 2.  For
    such a, b the difference under O is Re<a|O|b>, which the leakage table
    bounds.
    """
    overlap = abs(complex(a.conj() @ b))
    if overlap > 1e-10:
        raise ValueError(f"states are not orthogonal: |<a|b>| = {overlap:.3e}")
    combined = a + b
    norm_sq = float(np.real(combined.conj() @ combined))
    rho_sup = np.outer(combined, combined.conj()) / norm_sq
    rho_mix = 0.5 * (np.outer(a, a.conj()) + np.outer(b, b.conj()))
    delta = rho_sup - rho_mix
    per_obs = tuple(
        (op.labels[0], abs(complex(np.trace(delta @ dense(op)[0]))) / op.norm_max[0])
        for op in battery
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


def taylor_deviation(h: np.ndarray, theta: float, terms: int = 60) -> np.ndarray:
    """exp(-i H theta) - I for a stack of H, summed as its Taylor series in clongdouble.

    sum_{n >= 1} (-i theta H)^n / n!, with no 1 added or subtracted; for
    ||H theta|| <= 4 sixty terms leave a remainder far below float64 rounding.
    """
    a = -1j * np.asarray(h, dtype=np.clongdouble) * np.longdouble(theta)
    term = a
    out = a.copy()
    for n in range(2, terms + 1):
        term = term @ a / np.longdouble(n)
        out += term
    return out


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
        modes = loop_canonical_eigenbasis(np.append(x[cut:], x[:cut] + 1.0), turned)
        return eps, np.hstack((modes[:, len(x) - cut:], modes[:, : len(x) - cut]))
    return eps, loop_canonical_eigenbasis(x, z)


# ---------------------------------------------------------------------------
# Temporal-probe averages re-evaluated period by period: both modes advanced by
# U(T), propagated through every grid snapshot and contracted with O(t_i) on
# the whole grid once per period.  The package forms the Heisenberg stack
# U(t_i)^dagger O(t_i) U(t_i) once and takes one bilinear form per period; this
# loop is the reference its K-period averages must reproduce to rounding.


def loop_period_averages(solution, observable, pair, periods) -> dict:
    """{K: |average of F(t) over [0, K T]|} for F(t) = <phi_j(t)|O(t)|phi_j'(t)>."""
    j, jp = pair
    grid_points = len(solution.snapshots) - 1
    snapshots = solution.snapshots[:-1]  # t < T
    spec, modes, steps = solution.spec, solution.modes, solution.steps
    u_period = solution.monodromy

    # each kept step s_i sits s_i dt - i T / grid off its grid time
    marks = _nearest_steps(steps, grid_points)[:-1]
    offsets = (marks * grid_points - np.arange(grid_points) * steps) * (
        spec.period / (steps * grid_points)
    )
    times = np.arange(grid_points) * spec.period / grid_points + offsets
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
