"""Cell-periodic observables and deliberate counterexamples.

A valid observable of the ring-lattice problem must be invariant under
conjugation by the unit-cell translation T.  Operators assembled from
periodic functions of position (harmonics of 2*pi/a) and polynomials in the
momentum satisfy this structurally: position harmonics couple plane waves
only within a wavevector class, and momentum is diagonal.  Every term, named,
seeded or custom, is the symmetrized product (F*P + P*F)/2, Hermitian by
construction, and one builder (``_term_diagonals``) forms it for a stack of
members straight onto its offset diagonals: harmonic j at offset j*N, the
momentum polynomial as a vector along them, so no dense F or P is formed.
``check_cell_periodicity`` returns the relative violation itself.  The
battery is built one table at a time, or one member alone to rebuild it.

The randomized battery uses a small integer recurrence (64-bit MMIX linear
congruential generator, x -> 6364136223846793005*x + 1442695040888963407
mod 2^64, top 53 bits mapped to [0, 1)) rather than a library RNG so that the
seed -> operator map is reproducible across platforms and library versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .lattice import LatticeSpec, OperatorTable, fold_harmonics

MAX_POLY_DEGREE = 6  # numerical-range guard on momentum polynomials

# Bound on each battery member's largest entry, as MAX_HAMILTONIAN_ENTRY bounds
# H's.  Every measurement of a member sums at most 2 d^2 <= 5.3e5 of its
# entries, each times two unit-state amplitudes, so it stays below 1e156, and
# the band averages, fringe averages and the differences and ratios formed of
# them stay finite.  A member of entries near the float range (8e307) passed
# every check on the table and overflowed those sums to inf.
MAX_MEMBER_ENTRY = 1e150

PERIODICITY_RTOL = 1e-12

# target window for the max-entry norm of generated battery operators
NORM_WINDOW = (0.5, 50.0)

# entries (complex128) of one battery table: 4 MiB.  Members of two diagonals
# (the named ones, seeds at max_harmonic 1) fill one table up to d = 512 and
# 256 members, so the default battery is one table on every lattice.
_TABLE_ENTRIES = 1 << 18

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


@dataclass(frozen=True)
class ObservableTerm:
    """One term: periodic function F times momentum polynomial P.

    ``f_harmonics`` maps integer j to the coefficient of exp(i 2 pi j x / a);
    j = 0 entries must be real (constant part), negative j are folded onto
    the conjugate positive partner.  ``p_poly`` holds real coefficients of
    the polynomial in (hbar q), constant term first.
    """

    f_harmonics: tuple[tuple[int, complex], ...] = ()
    p_poly: tuple[float, ...] = ()

    def __post_init__(self):
        if any(int(j) == 0 and complex(c).imag != 0.0 for j, c in self.f_harmonics):
            raise ValueError("constant part of a real function must be real")
        folded = fold_harmonics(self.f_harmonics)
        if folded and folded[0] == (0, 0j):
            folded = folded[1:]  # a constant that sums to zero is no term
        object.__setattr__(self, "f_harmonics", folded)
        poly = tuple(float(p) for p in self.p_poly)
        if len(poly) > MAX_POLY_DEGREE + 1:
            raise ValueError(
                f"momentum polynomial degree {len(poly) - 1} exceeds cap {MAX_POLY_DEGREE}"
            )
        object.__setattr__(self, "p_poly", poly)


@dataclass(frozen=True)
class ObservableSpec:
    """Sum of ObservableTerms, each the Hermitian symmetrized product (F*P + P*F)/2."""

    terms: tuple[ObservableTerm, ...]


def _term_diagonals(lattice: LatticeSpec, harmonics, poly) -> dict:
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
def _observable_diagonals(spec: ObservableSpec, lattice: LatticeSpec) -> dict:
    """The offset diagonals of an ObservableSpec, one row, its terms summed in order.

    Each term is one ``_term_diagonals`` row.  A term without function part
    is F = 1 and one without polynomial P = 1: both exact, as 0.5*(x + x) = x.
    """
    diagonals: dict = {}
    for term in spec.terms:
        if not term.f_harmonics and not term.p_poly:
            raise ValueError("observable term needs a function part or a polynomial part")
        harmonics = [(j, [c]) for j, c in term.f_harmonics or ((0, 1.0),)]
        for k, values in _term_diagonals(lattice, harmonics, [term.p_poly or (1.0,)]).items():
            diagonals[k] = diagonals.get(k, 0.0) + values
    return diagonals


def check_cell_periodicity(table: OperatorTable, translation: np.ndarray) -> float:
    """|| T O T^dagger - O ||_max / ||O||_max, the largest over the table's members.

    The table is cell-periodic when this is below PERIODICITY_RTOL (a NaN is
    not).  ``translation`` is T's phase vector t (``build_translation``), so
    T O T^dagger scales the entry (m + o, m) of each stored diagonal
    (``OperatorTable.diagonals``) by t[m + o] conj(t[m]); the mirrored
    entries are their conjugates and are not visited.  For support at
    plane-wave distance dm that factor is exp(2 pi i dm / N), so entries with
    dm not divisible by N show up scaled by at least 2 sin(pi/N).
    """
    t, d = np.asarray(translation), table.dim
    if t.shape != (d,):
        raise ValueError(f"dimension mismatch: operator {d} vs translation {t.shape}")
    worst = np.zeros(len(table))  # per member
    for offset, values in table.diagonals():
        defect = t[offset:] * values * t[: d - offset].conj() - values
        np.maximum(worst, np.max(np.abs(defect), axis=1), out=worst)
    return float(np.max(worst / table.norm_max))


def _seeded_diagonals(seeds, lattice: LatticeSpec, max_harmonic: int, degree: int) -> dict:
    """The offset diagonals of the seeded members, one row per seed, formed at once.

    Each seed's LCG stream draws, in order, the real constant, the complex
    coefficients of harmonics 1..max_harmonic and the momentum-polynomial
    coefficients; power p is pre-damped by the lattice's momentum scale to the
    p-th power, to keep the window rescaling mild (and |p| <= degree + 1,
    so nothing overflows).  The draws are one stack of
    ``_term_diagonals`` rows; each member is rescaled to max-entry norm 1 if
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
    diagonals = _term_diagonals(lattice, enumerate(harmonics.T), poly)
    norm = np.max([np.max(np.abs(v), axis=1) for v in diagonals.values()], axis=0)[:, None]
    outside = ~((NORM_WINDOW[0] <= norm) & (norm <= NORM_WINDOW[1]))
    for v in diagonals.values():
        np.divide(v, norm, out=v, where=outside)
    return diagonals


def breaking_observable(shift: int, lattice: LatticeSpec) -> OperatorTable:
    """Hermitian counterexample coupling plane waves at distance +-shift, as a one-member table.

    With shift not a multiple of N this couples class l to class (l + shift)
    mod N and fails the cell-periodicity check by construction; it is the
    negative control showing that non-periodic self-adjoint operators do see
    cross-sector coherence.  The shift lies in [1, d - 1], the offsets a
    d-row basis holds (on a padded basis d - 1 exceeds 2 * cutoff).
    """
    n = lattice.cells
    if shift % n == 0:
        raise ValueError(f"shift {shift} is a multiple of {n}: operator would be cell-periodic")
    if not 1 <= shift <= lattice.dim - 1:
        raise ValueError(f"shift must lie in [1, {lattice.dim - 1}], got {shift}")
    return OperatorTable.assemble(lattice.dim, [((f"breaking:s={shift}",), {shift: 1.0})])


_NAMED_SPECS = {
    "identity": ObservableSpec(terms=(ObservableTerm(p_poly=(1.0,)),)),
    "cos_a": ObservableSpec(terms=(ObservableTerm(f_harmonics=((1, 0.5 + 0j),)),)),
    "sin_a": ObservableSpec(terms=(ObservableTerm(f_harmonics=((1, -0.5j),)),)),
    "momentum": ObservableSpec(terms=(ObservableTerm(p_poly=(0.0, 1.0)),)),
    "momentum_sq": ObservableSpec(terms=(ObservableTerm(p_poly=(0.0, 0.0, 1.0)),)),
}

NAMED_OBSERVABLES = tuple(_NAMED_SPECS)


@dataclass(frozen=True, eq=False)
class Battery:
    """The observable battery, built as stacked tables of its members.

    Members are the ``named`` ones in order, then seeds 1..seeds
    (``_seeded_diagonals``, label seed:<s>), then ``custom`` (label
    custom:<i>); the tables carry the labels.  ``tables`` builds the
    members in this order as ``OperatorTable``s: named and custom members
    term by term, the seeded members of a table in one pass.  A table holds
    at most _TABLE_ENTRIES entries (at least one member), so a caller that
    drops each table before taking the next holds one table, not the whole
    battery.  An empty battery raises ValueError.  Leakage is measured
    relative to each member's max-entry norm, so building a table raises
    ValueError naming a member that is zero on this basis (say a harmonic
    whose offset j*N reaches past it), and one naming a member whose largest
    entry exceeds MAX_MEMBER_ENTRY or is not finite.
    """

    lattice: LatticeSpec
    seeds: int = 20
    max_harmonic: int = 1
    degree: int = 2
    named: tuple[str, ...] = NAMED_OBSERVABLES
    custom: tuple[ObservableSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "named", tuple(self.named))
        object.__setattr__(self, "custom", tuple(self.custom))
        if not len(self):
            raise ValueError("battery is empty: no named, seeded or custom members")

    def __len__(self) -> int:
        return len(self.named) + self.seeds + len(self.custom)

    def tables(self) -> Iterator[OperatorTable]:
        """The members in order, as consecutive tables built one at a time."""
        specs = [_NAMED_SPECS[name] for name in self.named] + list(self.custom)
        reach = max(
            [self.max_harmonic if self.seeds else 0]
            + [j for spec in specs for term in spec.terms for j, _ in term.f_harmonics]
        )
        d = self.lattice.dim
        width = min(reach, (d - 1) // self.lattice.cells) + 1  # offsets j*N < d a member can fill
        per_table = max(1, _TABLE_ENTRIES // (width * d))
        for start in range(0, len(self), per_table):
            yield self._table(start, min(start + per_table, len(self)))

    def member(self, i: int) -> OperatorTable:
        """Member ``i`` (in member order) alone, as a one-member table built anew."""
        return self._table(i, i + 1)

    def _table(self, start: int, stop: int) -> OperatorTable:
        """Members start..stop-1 as one table."""
        first_seed, first_custom = len(self.named), len(self.named) + self.seeds
        seeds = range(1, self.seeds + 1)[max(start - first_seed, 0) : max(stop - first_seed, 0)]
        custom = range(len(self.custom))[max(start - first_custom, 0) : max(stop - first_custom, 0)]
        parts = [
            ((name,), _observable_diagonals(_NAMED_SPECS[name], self.lattice))
            for name in self.named[start:stop]
        ]
        if seeds:
            diagonals = _seeded_diagonals(seeds, self.lattice, self.max_harmonic, self.degree)
            parts.append((tuple(f"seed:{seed}" for seed in seeds), diagonals))
        parts += [
            ((f"custom:{i}",), _observable_diagonals(self.custom[i], self.lattice)) for i in custom
        ]
        table = OperatorTable.assemble(self.lattice.dim, parts)
        large = np.flatnonzero(table.norm_max > MAX_MEMBER_ENTRY)
        if large.size:
            raise ValueError(
                f"member {table.labels[large[0]]!r} has an entry of magnitude "
                f"{table.norm_max[large[0]]:.3g}, beyond {MAX_MEMBER_ENTRY:.0e}"
            )
        return table
