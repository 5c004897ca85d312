"""Plane-wave basis and operators for a particle on a ring lattice.

The configuration space is a ring of circumference L = N*a (N unit cells of
lattice constant a, periodic boundary conditions).  Everything is expanded in
the orthonormal plane waves exp(i*q_m*x)/sqrt(L) with q_m = 2*pi*m/L, so all
operators are dense complex matrices indexed by the integer m.

Because the potential only carries harmonics of 2*pi/a = 2*pi*N/L, the
Hamiltonian couples m to m' only when N divides (m - m'): the basis splits
into N wavevector classes c(m) = m mod N, and every class is an invariant
block.  Matrix entries between different classes are written as literal
zeros, never as computed sums, so the block structure is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

MAX_DIMENSION = 512  # dense desk-scale problems only

_HERMITICITY_RTOL = 1e-12
_HERMITICITY_SLAB = 64  # rows per slab of the Hermiticity scan


def _freeze(matrix: np.ndarray) -> np.ndarray:
    matrix.setflags(write=False)
    return matrix


def hermiticity_defect(m: np.ndarray) -> float:
    """max |m - m^H| over the entries of a square complex matrix.

    |m - m^H| is symmetric, so only the upper triangle is formed, one slab of
    rows against the matching columns at a time: the transposed read then
    stays within a cache-sized block instead of striding over the whole
    matrix.  Each entry is the same subtraction and abs as in the direct
    formula, so the value is bit for bit the same.
    """
    s = _HERMITICITY_SLAB
    slabs = [
        np.max(np.abs(m[i : i + s, i:] - m[i:, i : i + s].conj().T)) for i in range(0, len(m), s)
    ]
    return float(np.max(slabs))


@dataclass(frozen=True)
class LatticeSpec:
    """Ring geometry and basis resolution.

    Parameters
    ----------
    cells : int
        Number of unit cells N (>= 2).
    cutoff : int
        Plane-wave cutoff M (>= 1); the symmetric index set is {-M..M}.
    a : float
        Lattice constant.
    mass, hbar : float
        Particle mass and reduced Planck constant (dimensionless units).
    pad_basis : bool
        If True, extend the index set to {-M..M+r} with the smallest r
        making the dimension divisible by N.  Required for even N, where
        the symmetric dimension 2M+1 is odd and can never divide.
    """

    cells: int
    cutoff: int
    a: float = 1.0
    mass: float = 1.0
    hbar: float = 1.0
    pad_basis: bool = False

    def __post_init__(self):
        if self.cells < 2:
            raise ValueError(f"need at least 2 unit cells, got {self.cells}")
        if self.cutoff < 1:
            raise ValueError(f"plane-wave cutoff must be >= 1, got {self.cutoff}")
        if self.a <= 0 or self.mass <= 0 or self.hbar <= 0:
            raise ValueError("a, mass and hbar must be positive")
        if not self.pad_basis and (2 * self.cutoff + 1) % self.cells != 0:
            raise ValueError(
                f"basis dimension {2 * self.cutoff + 1} is not divisible by "
                f"{self.cells} cells; choose a matching cutoff or set pad_basis=True"
            )
        if self.dim > MAX_DIMENSION:
            raise ValueError(f"basis dimension {self.dim} exceeds cap {MAX_DIMENSION}")

    @property
    def circumference(self) -> float:
        return self.cells * self.a

    @property
    def pad(self) -> int:
        """Extra indices appended above +M so that N divides the dimension."""
        base = 2 * self.cutoff + 1
        return (-base) % self.cells if self.pad_basis else 0

    @property
    def dim(self) -> int:
        return 2 * self.cutoff + 1 + self.pad


@dataclass(frozen=True)
class PlaneWaveBasis:
    """Momentum grid and wavevector-class bookkeeping for a LatticeSpec."""

    spec: LatticeSpec
    indices: np.ndarray  # integer m values, ascending
    momenta: np.ndarray  # q_m = 2*pi*m/L

    def __post_init__(self):
        _freeze(self.indices)
        _freeze(self.momenta)

    @property
    def dim(self) -> int:
        return len(self.indices)

    @property
    def cells(self) -> int:
        return self.spec.cells

    @property
    def hbar(self) -> float:
        return self.spec.hbar

    def row_of(self, m: int) -> int:
        row = int(m) + self.spec.cutoff
        if not 0 <= row < self.dim or self.indices[row] != m:
            raise ValueError(f"plane-wave index {m} outside basis")
        return row

    def class_rows(self, sector: int) -> np.ndarray:
        """Row positions of all plane waves in wavevector class ``sector``."""
        return np.nonzero(self.indices % self.spec.cells == sector % self.spec.cells)[0]

    def class_members(self, sector: int) -> list[int]:
        return [int(self.indices[r]) for r in self.class_rows(sector)]

    def wavevector(self, sector: int) -> float:
        """k_l = 2*pi*l / (N*a) for class label l."""
        return 2.0 * np.pi * sector / self.spec.circumference


def fold_harmonics(harmonics) -> tuple[tuple[int, complex], ...]:
    """Sorted (j, c) pairs of a real function: j < 0 becomes conj(c) at |j|.

    Entries on the same index are summed in input order.  Index 0 passes
    through untouched; each caller applies its own policy to it.
    """
    folded: dict[int, complex] = {}
    for j, c in harmonics:
        j, c = int(j), complex(c)
        if j < 0:
            j, c = -j, np.conj(c)
        folded[j] = folded.get(j, 0j) + c
    return tuple(sorted(folded.items()))


def add_offset_diagonal(matrix: np.ndarray, offset: int, c: complex) -> None:
    """Add c at (m + offset, m) and conj(c) at (m, m + offset) for every valid m.

    Harmonic j of a cell-periodic function sits at offset j*N; nothing is
    written when offset >= dim.  ``offset`` must be positive.
    """
    m = np.arange(matrix.shape[0] - offset)
    matrix[m + offset, m] += c
    matrix[m, m + offset] += np.conj(c)


@dataclass(frozen=True)
class PotentialSpec:
    """Real periodic potential given by its Fourier data.

    V(x) = v0 + sum_j ( c_j exp(i 2 pi j x / a) + conj(c_j) exp(-i 2 pi j x / a) )

    ``harmonics`` maps positive integers j to complex c_j.  Input entries with
    negative j are folded onto their conjugate positive partner so the implied
    function is always real-valued.
    """

    harmonics: tuple[tuple[int, complex], ...] = ()
    v0: float = 0.0

    def __post_init__(self):
        if any(int(j) == 0 for j, _ in self.harmonics):
            raise ValueError("harmonic index 0 is the constant offset; use v0")
        object.__setattr__(self, "harmonics", fold_harmonics(self.harmonics))
        object.__setattr__(self, "v0", float(self.v0))

    @classmethod
    def from_cosines(cls, terms: Sequence[tuple[int, float]], v0: float = 0.0) -> "PotentialSpec":
        """Build V(x) = v0 + sum A_j cos(2 pi j x / a) from (j, A_j) pairs."""
        return cls(harmonics=tuple((j, amp / 2.0) for j, amp in terms), v0=v0)

    @property
    def is_free(self) -> bool:
        return not self.harmonics and self.v0 == 0.0

    def value(self, x: np.ndarray, a: float = 1.0) -> np.ndarray:
        """Evaluate V on a grid (used by real-space cross-checks)."""
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, self.v0)
        for j, c in self.harmonics:
            out += 2.0 * np.real(c * np.exp(2j * np.pi * j * x / a))
        return out


@dataclass(frozen=True)
class HermitianOperator:
    """Dense self-adjoint operator in the plane-wave basis.

    ``periodicity`` records the declared cell-periodicity status:
    'cell-periodic' for operators invariant under conjugation by the unit-cell
    translation, 'breaking' for deliberate counterexamples, 'unverified'
    otherwise.  The operator and its matrix are frozen after validation, so
    the ``norm_max`` stored then cannot go stale.
    """

    matrix: np.ndarray
    periodicity: str = "unverified"
    label: str = ""
    _norm_max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)  # own copy; frozen below
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {m.shape}")
        scale = float(np.max(np.abs(m))) if m.size else 0.0
        if scale > 0.0:
            defect = hermiticity_defect(m)
            if defect > _HERMITICITY_RTOL * scale:
                raise ValueError(
                    f"matrix is not Hermitian: defect {defect:.3e} exceeds "
                    f"{_HERMITICITY_RTOL:.0e} * scale {scale:.3e}"
                )
        object.__setattr__(self, "matrix", _freeze(m))
        object.__setattr__(self, "_norm_max", scale)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def norm_max(self) -> float:
        """Largest entry magnitude; the scale used by relative tolerances."""
        return self._norm_max


def build_basis(spec: LatticeSpec) -> PlaneWaveBasis:
    """Construct the plane-wave basis for a valid LatticeSpec.

    The momenta are q_m = 2*pi*m/(N*a); class membership is m mod N.
    Divisibility of the dimension by N is enforced by LatticeSpec itself.
    """
    m_lo, m_hi = -spec.cutoff, spec.cutoff + spec.pad
    indices = np.arange(m_lo, m_hi + 1, dtype=int)
    momenta = 2.0 * np.pi * indices / spec.circumference
    return PlaneWaveBasis(spec=spec, indices=indices, momenta=momenta)


def build_hamiltonian(spec: LatticeSpec, potential: PotentialSpec) -> HermitianOperator:
    """Kinetic-plus-periodic-potential Hamiltonian, exact block structure.

    Diagonal: hbar^2 q_m^2 / (2 mass) + v0.  Off-diagonal: the potential
    harmonic c_j lands at every (m, m') with m - m' = j*N; the conjugate is
    written explicitly at the mirrored position, so the matrix is Hermitian
    by construction (exactly, not to rounding).
    """
    basis = build_basis(spec)
    d = basis.dim
    h = np.zeros((d, d), dtype=complex)
    kinetic = (spec.hbar * basis.momenta) ** 2 / (2.0 * spec.mass)
    np.fill_diagonal(h, kinetic + potential.v0)
    for j, c in potential.harmonics:
        add_offset_diagonal(h, j * spec.cells, c)
    return HermitianOperator(matrix=h, periodicity="cell-periodic", label="hamiltonian")


def build_translation(spec: LatticeSpec) -> np.ndarray:
    """Unit-cell translation operator, diagonal in the plane-wave basis.

    T shifts wavefunction arguments by +a, so T e_m = exp(i q_m a) e_m with
    q_m a = 2*pi*m/N.  Returned as a plain (frozen) unitary matrix; it is not
    Hermitian, so it does not use the HermitianOperator container.
    """
    basis = build_basis(spec)
    phases = np.exp(2j * np.pi * basis.indices / spec.cells)
    return _freeze(np.diag(phases))


def build_momentum(spec: LatticeSpec) -> HermitianOperator:
    """Momentum operator hbar*q_m, diagonal hence commuting exactly with T."""
    basis = build_basis(spec)
    return HermitianOperator(
        matrix=np.diag(spec.hbar * basis.momenta).astype(complex),
        periodicity="cell-periodic",
        label="momentum",
    )
