"""The ring lattice, its plane-wave grid, and operators on it.

The configuration space is a ring of circumference L = N*a (N unit cells of
lattice constant a, periodic boundary conditions).  Everything is expanded in
the orthonormal plane waves exp(i*q_m*x)/sqrt(L) with q_m = 2*pi*m/L, so an
operator is a complex matrix indexed by the integer m.  ``LatticeSpec`` is
the one lattice type: its fields fix the geometry and the cutoff, and it
carries the grid they imply (indices m, momenta q_m, the rows of each
class), formed once per spec.

Because the potential only carries harmonics of 2*pi/a = 2*pi*N/L, the
Hamiltonian couples m to m' only when N divides (m - m'): the basis splits
into N wavevector classes c(m) = m mod N, and every class is an invariant
block.  A cell-periodic operator is therefore a few offset diagonals at
multiples of N, and every lattice operator is an ``OperatorTable``: a stack
of members held as their offset diagonals only (the DIA sparse format), one
member for the Hamiltonian or a single observable, many for a battery; no
dense operator is formed.
A cell-periodic operator stores no entry between classes, so its block
structure is exact: a class block is the diagonals at offsets qN on its rows
(``OperatorTable.class_diagonals``), any other diagonal bounds blocks between
classes (``class_coupling``), and this rule, "N divides the offset", lives
here alone.  So does the mirror rule: on a basis symmetric under m -> -m,
row r and row d - 1 - r hold m and -m, class l meets class N - l, and an
operator whose every stored diagonal is a palindrome is time-reversal even,
so class N - l's block is class l's, conjugated and read in reverse
(``OperatorTable.independent_classes``).  The translation is diagonal and is
held as its phase vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

MAX_DIMENSION = 512  # desk scale: operators are O(d), but all Bloch states form a d x d block

_HERMITICITY_RTOL = 1e-12


def _freeze(matrix: np.ndarray) -> np.ndarray:
    matrix.setflags(write=False)
    return matrix


@dataclass(frozen=True)
class LatticeSpec:
    """Ring geometry, basis resolution and the plane-wave grid they fix.

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

    The grid (``indices``, ``momenta``, ``class_rows``) is formed on first
    use, once per spec, and is read-only; equality, hashing and repr see
    the six fields alone.
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

    @cached_property
    def indices(self) -> np.ndarray:
        """The plane-wave indices m, ascending: -M..M + pad, row r holding m = r - M."""
        return _freeze(np.arange(-self.cutoff, self.cutoff + self.pad + 1))

    @cached_property
    def momenta(self) -> np.ndarray:
        """q_m = 2*pi*m/(N*a), one per row."""
        return _freeze(2.0 * np.pi * self.indices / self.circumference)

    @cached_property
    def class_rows(self) -> np.ndarray:
        """The (N, d/N) class-row table: entry l holds the rows with m mod N = l, ascending."""
        classes = self.indices % self.cells
        return _freeze(np.argsort(classes, kind="stable").reshape(self.cells, -1))

    def wavevector(self, sector: int) -> float:
        """k_l = 2*pi*l / (N*a) for class label l."""
        return 2.0 * np.pi * sector / self.circumference


def fold_harmonics(harmonics) -> tuple[tuple[int, complex], ...]:
    """Sorted (j, c) pairs of a real function: j < 0 becomes conj(c) at |j|.

    Entries on the same index are summed in input order.  Index 0 passes
    through untouched; each caller applies its own policy to it.
    """
    folded: dict[int, complex] = {}
    for j, c in harmonics:
        j, c = int(j), complex(c)
        if j < 0:
            j, c = -j, c.conjugate()  # Python complex: an overflowing sum does not warn
        folded[j] = folded.get(j, 0j) + c
    return tuple(sorted(folded.items()))


def _as_slice(index: np.ndarray):
    """An ascending, distinct ``index`` as a slice when its entries are consecutive.

    Both select the same entries; the slice reads them as a view, not a copy.
    """
    if index[-1] - index[0] + 1 == index.size:
        return slice(index[0], index[-1] + 1)
    return index


def add_offset_diagonal(matrix: np.ndarray, offset: int, values) -> None:
    """Add ``values`` at (m + offset, m) and their conjugates at (m, m + offset).

    ``matrix`` is one (d, d) matrix or a stack of them, C-contiguous in its
    last two axes, and ``values`` a scalar or one entry per m < d - offset
    (per matrix of the stack).  Offset 0 is the main diagonal, written once
    as given; offset >= d writes nothing.  Both diagonals are strided views of
    the flattened last two axes: (m + offset, m) at offset * d + m (d + 1),
    and its mirror at offset + m (d + 1).
    """
    d = matrix.shape[-1]
    flat = matrix.reshape(matrix.shape[:-2] + (d * d,))
    if not np.may_share_memory(flat, matrix):
        raise ValueError("matrix must be C-contiguous in its last two axes")
    flat[..., offset * d :: d + 1] += values
    if offset:
        flat[..., offset : max(d - offset, 0) * d : d + 1] += np.conj(values)


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

    @property
    def is_free(self) -> bool:
        return not self.harmonics and self.v0 == 0.0


@dataclass(frozen=True, eq=False)
class OperatorTable:
    """A stack of Hermitian operators on one basis, held as one array of offset diagonals.

    ``values[i, k, :dim - offsets[k]]`` holds member i's entries at (m + o, m)
    for o = ``offsets[k]`` (sorted, 0 <= o < dim); the rest of each row is
    zero, and so is the diagonal of a member that has none at o.  The
    entries at (m, m + o) are their conjugates and are not stored, and every
    other entry is zero, so an off-diagonal entry cannot be non-Hermitian.
    Member i is ``labels[i]`` and its largest entry magnitude ``norm_max[i]``,
    the scale used by relative tolerances.  A single operator is a
    one-member table.

    The table is checked once for all members: every entry finite and no
    member zero (ValueError naming the first member that fails), and each
    main diagonal real (rejected when max |m_ii - conj(m_ii)| exceeds 1e-12
    of its member's largest entry).  ``values`` and ``norm_max`` are frozen.
    Other modules read a table through its methods, each for every member at
    once: ``diagonals``, ``class_diagonals`` (on the class rows),
    ``class_coupling`` (a bound on each block between classes), ``apply``
    (O v), and ``expectation`` (of vectors on a set of rows) and
    ``class_form``, which contract each stored diagonal with the bra-ket
    products it meets and form no O v.  No method forms a dense operator.
    """

    labels: tuple[str, ...]
    offsets: tuple[int, ...]
    values: np.ndarray
    norm_max: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _freeze(self.values)
        scale = np.max(np.abs(self.values), axis=(1, 2), initial=0.0)  # one per member
        bad = np.flatnonzero(~np.isfinite(scale))
        if bad.size:
            raise ValueError(f"member {self.labels[bad[0]]!r} has a non-finite entry")
        main = self.values[:, 0] if self.offsets[:1] == (0,) else np.zeros((len(scale), 1))
        defect = np.max(np.abs(main - main.conj()), axis=-1)
        bad = np.flatnonzero(defect > _HERMITICITY_RTOL * scale)
        if bad.size:
            raise ValueError(
                f"matrix is not Hermitian: defect {defect[bad[0]]:.3e} exceeds "
                f"{_HERMITICITY_RTOL:.0e} * scale {scale[bad[0]]:.3e}"
            )
        zero = np.flatnonzero(scale == 0.0)
        if zero.size:
            raise ValueError(f"member {self.labels[zero[0]]!r} is the zero operator on this basis")
        object.__setattr__(self, "norm_max", _freeze(scale))

    @classmethod
    def assemble(cls, dim: int, parts) -> "OperatorTable":
        """One table from ``parts``, (labels, diagonals) pairs written into consecutive rows.

        ``diagonals`` maps offsets 0 <= o < dim to values that broadcast onto
        the part's (len(labels), dim - o) entries: a scalar, one diagonal, or
        one diagonal per label.  Each is summed onto zeros, as a dense matrix
        is assembled: +0.0, never -0.0.  The values are copied, so later
        writes to the inputs never reach the table.
        """
        parts = list(parts)
        labels = tuple(label for names, _ in parts for label in names)
        offsets = tuple(sorted({int(o) for _, diagonals in parts for o in diagonals}))
        if offsets and not 0 <= offsets[0] <= offsets[-1] < dim:
            raise ValueError(f"diagonal offsets {offsets} outside 0..{dim - 1}")
        slot = {o: k for k, o in enumerate(offsets)}
        values = np.zeros((len(labels), len(offsets), dim), dtype=complex)
        row = 0
        for names, diagonals in parts:
            for offset, v in diagonals.items():
                values[row : row + len(names), slot[offset], : dim - offset] += v
            row += len(names)
        return cls(labels, offsets, values)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.values.shape[2]

    def diagonals(self):
        """(o, the (members, dim - o) read-only entries at (m + o, m)) per stored diagonal."""
        for k, offset in enumerate(self.offsets):
            yield offset, self.values[:, k, : self.dim - offset]

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        """O_i v for every member i and every vector v along the last axis of ``vectors``.

        The result has shape (members,) + vectors.shape: out[..., o:] += v
        x[..., :d - o] and out[..., :d - o] += conj(v) x[..., o:] per stored
        diagonal v at offset o.  A member's zero diagonal adds exact zeros, so
        each member's O v is the one it has alone, bit for bit.  A run reaches
        it only in the bands run's eigenvector residual, and it is kept for
        that check: it reads the stored diagonals, not the ``class_diagonals``
        that ``solve_bands`` builds its blocks from, so a fault in that
        reading fails the residual; a residual formed on the class blocks
        would share the fault and pass.  A measurement takes ``expectation``
        or ``class_form``.
        """
        x = np.asarray(vectors)
        out = np.zeros((len(self),) + x.shape, dtype=complex)
        lead = (1,) * (x.ndim - 1)  # the vectors' leading axes
        for offset, values in self.diagonals():
            n = values.shape[-1]
            values = values.reshape((len(self),) + lead + (n,))
            out[..., offset:] += values * x[..., :n]
            if offset:
                out[..., :n] += values.conj() * x[..., offset:]
        return out

    def expectation(self, vectors: np.ndarray, rows=None) -> np.ndarray:
        """Re<x|O_i|x> for every member i and every row x of the (K, r) ``vectors``.

        Each vector holds its entries on the r ascending plane-wave ``rows``
        (all d rows when None) and is zero on every other row.  The result is
        real, (members, K).  Per stored diagonal v at offset o, only the
        pairs (m, m + o) with both rows in ``rows`` meet nonzero entries:
        sum_m v[m] conj(x[m + o]) x[m] over them is one (members, pairs) @
        (pairs, K) product, weighted 1 for o = 0 and 2 for its mirror
        otherwise, and a diagonal that meets no pair is skipped; no O x is
        formed.  BLAS rounds a product of several members differently from
        one member's, so a member's value can move at rounding with the table
        it sits in.
        """
        x = np.asarray(vectors)
        d = self.dim
        rows = np.arange(d) if rows is None else np.asarray(rows)
        at = np.full(2 * d, -1)  # each row's position in ``rows``, -1 off them and past d
        at[rows] = np.arange(rows.size)
        out = np.zeros((len(self), len(x)))
        for k, offset in enumerate(self.offsets):
            upper = at[rows + offset]  # the position of m + o for each m of ``rows``, or -1
            lower = np.flatnonzero(upper >= 0)  # the positions of the m whose m + o is there
            if lower.size:
                m, upper, lower = (_as_slice(i) for i in (rows[lower], upper[lower], lower))
                pairs = x[:, upper].conj() * x[:, lower]  # conj(x[m + o]) x[m]
                out += (2.0 if offset else 1.0) * (self.values[:, k, m] @ pairs.T).real
        return out

    def _class_shape(self, rows) -> tuple[int, int]:
        """(N, b) of a class-row table, which must hold every one of the d rows.

        N is read from the table's own shape, so a slice of it (the first k
        classes) would read the wrong class of every offset: ValueError.
        """
        if rows.size != self.dim:
            raise ValueError(
                f"class-row table of shape {rows.shape} does not hold the {self.dim} rows"
            )
        return rows.shape

    def class_diagonals(self, rows):
        """(q, values) for each stored diagonal that reads as offset q on the class rows.

        ``rows`` is the full (N, b) table of class rows (``LatticeSpec.class_rows``),
        ascending in steps of N, so the diagonal at offset qN is offset q on
        them, with the (members, N, b - q) values read at ``rows[:, :b-q]``.
        Every other diagonal couples different classes and is skipped.  A
        table that does not hold all d rows raises ValueError.
        """
        n, b = self._class_shape(rows)
        for o, values in self.diagonals():
            if o % n == 0:
                yield o // n, values[:, rows[:, : b - o // n]]

    def class_coupling(self, rows) -> np.ndarray:
        """Per member, a (N, N) bound on the blocks between the classes of the (N, b) ``rows``.

        A diagonal at an offset o that N does not divide is one shifted
        diagonal of block (l + o, l) for each class l, and its mirror one of
        block (l, l + o).  Entry [j, l] sums their largest |entry| in block
        (j, l), so |<u|O|v>| <= [j, l] for unit states u on class j, v on l.
        A table that does not hold all d rows raises ValueError.
        """
        n, _ = self._class_shape(rows)
        out = np.zeros((len(self), n, n))
        column = np.arange(n)
        for o, values in self.diagonals():
            if o % n:  # |entry| at (m + o, m) on all d rows, maximized per class of m
                largest = np.pad(np.abs(values), ((0, 0), (0, o)))[:, rows].max(axis=-1)
                out[:, (column + o) % n, column] += largest
                out[:, column, (column + o) % n] += largest  # the mirror
        return out

    def independent_classes(self, rows) -> int:
        """How many leading classes of the (N, b) ``rows`` fix every class block.

        N // 2 + 1 when time reversal pairs the classes: the rows are mirror
        symmetric (row r <-> d - 1 - r maps class l onto class N - l, in
        reverse order, as on a basis symmetric under m -> -m) and every stored
        diagonal of every member is a palindrome, which is exactly O(-m', -m)
        = conj O(m', m).  Class N - l's block is then class l's conjugated,
        rows and columns reversed, for 0 < l < N - N // 2.  Otherwise N: every
        class is its own.  O(d) per stored diagonal.
        """
        n, _ = self._class_shape(rows)
        mirrored = np.array_equal(rows[-np.arange(n) % n, ::-1], self.dim - 1 - rows)
        if mirrored and all(np.array_equal(v, v[:, ::-1]) for _, v in self.diagonals()):
            return n // 2 + 1
        return n

    def class_form(self, rows, bra, ket) -> np.ndarray:
        """The (members, ..., N) forms <bra_l|O|ket_l> of (..., N, b) states on the rows (N, b).

        Only ``class_diagonals`` enter: every other diagonal meets class-
        supported states in exact zeros.  Per class diagonal v at offset q,
        the bra-ket products conj(bra[i + q]) ket[i] (and for q > 0 their
        mirror conj(bra[i]) ket[i + q], against conj(v)) are formed once, as
        (N, b - q, K) with K the states' leading size, and contracted with
        every member at once, the members a batch axis of one matmul: each
        member's form is the one it has alone, bit for bit, and a member with
        no class diagonal reads exact zeros.  No O ket is formed.
        """
        bra, ket = np.broadcast_arrays(np.conj(bra), ket)
        lead = bra.shape[:-2]
        n, b = rows.shape
        bra, ket = (np.moveaxis(s.reshape(-1, n, b), 0, -1).copy() for s in (bra, ket))  # (N, b, K)
        out = np.zeros((len(self), n, 1, bra.shape[-1]), dtype=complex)  # (members, N, 1, K)
        for q, values in self.class_diagonals(rows):
            out += values[:, :, None, :] @ (bra[:, q:] * ket[:, : b - q])
            if q:
                out += values.conj()[:, :, None, :] @ (bra[:, : b - q] * ket[:, q:])
        return np.moveaxis(out[:, :, 0], 1, -1).reshape((len(self),) + lead + (n,))


def build_hamiltonian(spec: LatticeSpec, potential: PotentialSpec) -> OperatorTable:
    """Kinetic-plus-periodic-potential Hamiltonian, exact block structure.

    A one-member table, labelled hamiltonian.  Main diagonal:
    hbar^2 q_m^2 / (2 mass) + v0.  The potential harmonic c_j is the diagonal
    at offset j*N (its conjugate mirror is implied), so the operator is
    Hermitian by construction; a harmonic whose offset reaches past the
    basis has no entry.  A Hamiltonian that is zero on the basis (a kinetic
    energy that underflows, and no potential) raises ValueError.
    """
    kinetic = (spec.hbar * spec.momenta) ** 2 / (2.0 * spec.mass)
    diagonals = {0: kinetic + potential.v0}
    for j, c in potential.harmonics:
        if j * spec.cells < spec.dim:
            diagonals[j * spec.cells] = c
    return OperatorTable.assemble(spec.dim, [(("hamiltonian",), diagonals)])


def build_translation(spec: LatticeSpec) -> np.ndarray:
    """Unit-cell translation T as its diagonal: the phase vector t.

    T shifts wavefunction arguments by +a, so T e_m = t_m e_m with
    t_m = exp(i q_m a) = exp(2 pi i m / N).  T v is ``t * v`` and T^dagger v
    is ``t.conj() * v``; the returned vector is frozen.
    """
    return _freeze(np.exp(2j * np.pi * spec.indices / spec.cells))
