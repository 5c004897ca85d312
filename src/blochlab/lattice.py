"""Plane-wave basis and operators for a particle on a ring lattice.

The configuration space is a ring of circumference L = N*a (N unit cells of
lattice constant a, periodic boundary conditions).  Everything is expanded in
the orthonormal plane waves exp(i*q_m*x)/sqrt(L) with q_m = 2*pi*m/L, so an
operator is a complex matrix indexed by the integer m.

Because the potential only carries harmonics of 2*pi/a = 2*pi*N/L, the
Hamiltonian couples m to m' only when N divides (m - m'): the basis splits
into N wavevector classes c(m) = m mod N, and every class is an invariant
block.  A cell-periodic operator is therefore a few offset diagonals at
multiples of N, and ``HermitianOperator`` holds every lattice operator as
its offset diagonals only (the DIA sparse format): entries between classes
are never stored, so the block structure is exact.  The translation is
diagonal and is held as its phase vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

MAX_DIMENSION = 512  # desk scale: operators are O(d), but all Bloch states form a d x d block

_HERMITICITY_RTOL = 1e-12


def _freeze(matrix: np.ndarray) -> np.ndarray:
    matrix.setflags(write=False)
    return matrix


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


def add_offset_diagonal(matrix: np.ndarray, offset: int, values) -> None:
    """Add ``values`` at (m + offset, m) and their conjugates at (m, m + offset).

    ``values`` is a scalar or one entry per m < dim - offset.  Offset 0 is the
    main diagonal, written once as given; offset >= dim writes nothing.
    """
    m = np.arange(matrix.shape[0] - offset)
    matrix[m + offset, m] += values
    if offset:
        matrix[m, m + offset] += np.conj(values)


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
    """Self-adjoint operator in the plane-wave basis, held as its offset diagonals.

    ``diagonals[o]`` holds the entries at (m + o, m), m = 0 .. dim - o - 1,
    for offsets 0 <= o < dim: a scalar for a constant diagonal or one value
    per entry.  The entries at (m, m + o) are their conjugates and are not
    stored, and every other entry is zero, so an off-diagonal entry cannot be
    non-Hermitian.  The main diagonal must be real: it is rejected when
    max |m_ii - conj(m_ii)| exceeds 1e-12 of the largest entry.  The values
    are copied to frozen complex arrays, so later writes to the inputs never
    reach the operator, and ``norm_max`` cannot go stale.

    Callers use ``apply`` (O v) and ``class_blocks`` (O[rows_j, rows_l]);
    ``matrix`` forms the dense d x d matrix on request.
    """

    dim: int
    diagonals: Mapping[int, np.ndarray]
    label: str = ""
    _norm_max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dim, diagonals = self.dim, {}
        for offset, values in sorted(dict(self.diagonals).items()):
            if not 0 <= offset < dim:
                raise ValueError(f"diagonal offset {offset} outside 0..{dim - 1}")
            if np.shape(values) not in ((), (dim - offset,)):
                raise ValueError(f"diagonal {offset} must have {dim - offset} entries")
            # summed onto zeros, as a dense matrix is assembled: +0.0, never -0.0
            diagonals[offset] = _freeze(np.zeros(dim - offset, complex) + values)
        scale = max((float(np.max(np.abs(v))) for v in diagonals.values()), default=0.0)
        main = diagonals.get(0, np.zeros(1))
        defect = float(np.max(np.abs(main - main.conj())))
        if defect > _HERMITICITY_RTOL * scale:
            raise ValueError(
                f"matrix is not Hermitian: defect {defect:.3e} exceeds "
                f"{_HERMITICITY_RTOL:.0e} * scale {scale:.3e}"
            )
        object.__setattr__(self, "diagonals", MappingProxyType(diagonals))
        object.__setattr__(self, "_norm_max", scale)

    @property
    def norm_max(self) -> float:
        """Largest entry magnitude; the scale used by relative tolerances."""
        return self._norm_max

    @property
    def matrix(self) -> np.ndarray:
        """The dense d x d matrix, formed anew on each request and read-only."""
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for offset, values in self.diagonals.items():
            add_offset_diagonal(m, offset, values)
        return _freeze(m)

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        """O v for every vector v along the last axis of ``vectors``."""
        v = np.asarray(vectors)
        out = np.zeros(v.shape, dtype=complex)
        for offset, values in self.diagonals.items():
            n = self.dim - offset
            out[..., offset:] += values * v[..., :n]
            if offset:
                out[..., :n] += values.conj() * v[..., offset:]
        return out

    def class_blocks(self, rows, bra_class, ket_class) -> np.ndarray:
        """The (pairs, b, b) stack of blocks O[rows[bra_class[p]], rows[ket_class[p]]].

        ``rows`` is a (classes, b) table of plane-wave rows, one class per row
        (``BandStructure.rows``).  Each entry is gathered from its diagonal
        (its conjugate above the main diagonal), so the blocks are bit for
        bit the entries of ``matrix``.
        """
        rows = np.asarray(rows, dtype=np.int32)  # int32 indices: half the index traffic
        bra, ket = rows[bra_class][:, :, None], rows[ket_class][:, None, :]
        k = len(self.diagonals)
        table = np.zeros((2 * k + 1, self.dim), dtype=complex)  # the last row stays zero
        slot = np.full(2 * self.dim - 1, 2 * k, dtype=np.int32)  # table row of offset r - c
        for i, (offset, values) in enumerate(self.diagonals.items()):
            table[i, : self.dim - offset] += values
            table[k + i, : self.dim - offset] += values.conj()  # zeros + conj, as ``matrix``
            slot[self.dim - 1 - offset] = k + i
            slot[self.dim - 1 + offset] = i
        # entry (r, c) is column min(r, c) of the table row of offset r - c
        index = np.take(slot, bra - ket + (self.dim - 1)) * self.dim + np.minimum(bra, ket)
        return np.take(table, index)


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

    Main diagonal: hbar^2 q_m^2 / (2 mass) + v0.  The potential harmonic c_j
    is the diagonal at offset j*N (its conjugate mirror is implied), so the
    operator is Hermitian by construction; a harmonic whose offset reaches
    past the basis has no entry.
    """
    basis = build_basis(spec)
    kinetic = (spec.hbar * basis.momenta) ** 2 / (2.0 * spec.mass)
    diagonals = {0: kinetic + potential.v0}
    for j, c in potential.harmonics:
        if j * spec.cells < basis.dim:
            diagonals[j * spec.cells] = c
    return HermitianOperator(basis.dim, diagonals, label="hamiltonian")


def build_translation(spec: LatticeSpec) -> np.ndarray:
    """Unit-cell translation T as its diagonal: the phase vector t.

    T shifts wavefunction arguments by +a, so T e_m = t_m e_m with
    t_m = exp(i q_m a) = exp(2 pi i m / N).  T v is ``t * v`` and T^dagger v
    is ``t.conj() * v``; the returned vector is frozen.
    """
    basis = build_basis(spec)
    return _freeze(np.exp(2j * np.pi * basis.indices / spec.cells))
