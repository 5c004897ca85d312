"""Cell-periodic observables and deliberate counterexamples.

A valid observable of the ring-lattice problem must be invariant under
conjugation by the unit-cell translation T.  Operators assembled from
periodic functions of position (harmonics of 2*pi/a) and polynomials in the
momentum satisfy this structurally: position harmonics couple plane waves
only within a wavevector class, and momentum is diagonal.  Every term, named,
seeded or custom, is the symmetrized product (F*P + P*F)/2, Hermitian by
construction.  A battery table is built in one pass (``Battery._table``),
every term of its members one row of a stack formed straight onto the offset
diagonals, so no dense F or P is formed.  ``check_cell_periodicity`` returns
the relative violation itself.

The randomized battery uses a small integer recurrence (64-bit MMIX linear
congruential generator, x -> 6364136223846793005*x + 1442695040888963407
mod 2^64, top 53 bits mapped to [0, 1)) rather than a library RNG so that the
seed -> operator map is reproducible across platforms and library versions;
``_draws`` forms the streams of a table's seeds at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
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


def _draws(seeds, count: int) -> np.ndarray:
    """(len(seeds), count) uniform draws in [-1, 1), row i the start of seed i's stream.

    Seed s starts at x = s * 0x9E3779B97F4A7C15 + 1 and draw i reads x after
    i + 1 steps, which is mult_i * s + inc_i (mod 2^64): the coefficients are
    composed in Python integers, and the draws of every seed are one uint64
    product and sum, which wrap mod 2^64 as the generator does.
    """
    mult, inc, steps = 0x9E3779B97F4A7C15, 1, []  # x = mult * s + inc, from the start on
    for _ in range(count):
        mult, inc = mult * _LCG_MULT & _LCG_MASK, (inc * _LCG_MULT + _LCG_INC) & _LCG_MASK
        steps.append((mult, inc))
    mult, inc = np.array(steps, dtype=np.uint64).reshape(count, 2).T
    x = np.array(seeds, dtype=np.uint64)[:, None] * mult + inc
    return -1.0 + (x >> 11) * 2.0**-52  # -1 + 2 (x / 2^53), exact


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

    Members are the ``named`` ones in order, then seeds 1..seeds (label
    seed:<s>), then ``custom`` (label custom:<i>); the tables carry the
    labels.  ``tables`` builds the members in this order as
    ``OperatorTable``s, each in one pass over its members' terms
    (``_table``), and ``member`` one member alone.  A table holds
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

    @np.errstate(over="ignore", invalid="ignore")  # the table refuses a member that overflows
    def _table(self, start: int, stop: int) -> OperatorTable:
        """Members start..stop-1 as one table, every term of theirs one row of a stack.

        A row holds the coefficients c_j of the harmonics its term gives (a
        zero one still counts; F = 1 if none), its momentum polynomial P (P = 1
        if none) and its member.  A seed's row is its stream (``_draws``): the
        real constant, harmonics 1..max_harmonic, then P, power k divided by
        the momentum scale to the k-th power (so |P| <= degree + 1).  For all
        rows at once, with p the diagonal of P, each offset k = j*N < d that a
        row gives holds 0.5*(c_j p[m] + p[m + k] c_j) at (m + k, m).  A member's
        rows are summed in term order; a seeded member whose max-entry norm is
        outside NORM_WINDOW is rescaled to norm 1.
        """
        lattice, named, d = self.lattice, self.named[start:stop], self.lattice.dim
        first_seed, first_custom = len(self.named), len(self.named) + self.seeds
        seeds = range(1, self.seeds + 1)[max(start - first_seed, 0) : max(stop - first_seed, 0)]
        custom = range(len(self.custom))[max(start - first_custom, 0) : max(stop - first_custom, 0)]
        labels = (*named, *(f"seed:{seed}" for seed in seeds), *(f"custom:{i}" for i in custom))
        harmonic, degree = (self.max_harmonic, self.degree) if seeds else (0, -1)
        if seeds and (harmonic < 0 or harmonic * lattice.cells > lattice.cutoff):
            raise ValueError(
                f"max_harmonic {harmonic} unreachable: need j*N <= cutoff "
                f"({lattice.cells}*j <= {lattice.cutoff})"
            )
        if degree > MAX_POLY_DEGREE:
            raise ValueError(f"degree {degree} exceeds cap {MAX_POLY_DEGREE}")
        members = [_NAMED_SPECS[name].terms for name in named] + [(None,)] * len(seeds)
        members += [self.custom[i].terms for i in custom]
        rows = [(m, term) for m, terms in enumerate(members) for term in terms]  # a seed's is None
        seeded = slice(len(named), len(named) + len(seeds))  # rows and members: named are one term
        terms = [(row, term) for row, (_, term) in enumerate(rows) if term]
        reach = max([harmonic] + [j for _, term in terms for j, _ in term.f_harmonics])
        coef = np.zeros((len(rows), reach + 1), dtype=complex)
        poly = np.zeros((len(rows), max([degree + 1] + [len(t.p_poly) or 1 for _, t in terms])))
        given = set(range(harmonic + 1 if seeds else 0))  # the harmonics some row gives
        for row, term in terms:  # F = 1 and P = 1 where a term has no such part
            if not term.f_harmonics and not term.p_poly:
                raise ValueError("observable term needs a function part or a polynomial part")
            poly[row, : len(term.p_poly) or 1] = term.p_poly or 1.0
            for j, c in term.f_harmonics or ((0, 1.0),):
                coef[row, j] = c
                given.add(j)
        hq = lattice.hbar * lattice.momenta
        if seeds:
            draws = _draws(seeds, 2 * harmonic + degree + 2)
            coef[seeded, 0] = draws[:, 0]
            coef[seeded, 1 : harmonic + 1].real = draws[:, 1 : 2 * harmonic + 1 : 2]
            coef[seeded, 1 : harmonic + 1].imag = draws[:, 2 : 2 * harmonic + 1 : 2]
            q_scale = max(1.0, float(np.max(np.abs(hq))))
            powers = [q_scale**power for power in range(degree + 1)]  # Python floats
            poly[seeded, : degree + 1] = draws[:, 2 * harmonic + 1 :] / powers
        p = np.zeros((len(rows), d))
        for power in range(poly.shape[1]):
            p = p + poly[:, power, None] * hq**power
        diagonals = {}
        for k in sorted(j * lattice.cells for j in given if j * lattice.cells < d):
            c = coef[:, k // lattice.cells, None]
            diagonals[k] = 0.5 * (c * p[:, : d - k] + p[:, k:] * c)
        member = [m for m, _ in rows]
        if member != [*range(len(labels))]:  # a member of several terms: its rows in term order
            for k, v in diagonals.items():
                diagonals[k] = np.zeros((len(labels), d - k), complex)
                np.add.at(diagonals[k], member, v)
        if seeds:
            norm = reduce(np.maximum, [np.abs(v[seeded]).max(axis=1) for v in diagonals.values()])
            outside = ~((NORM_WINDOW[0] <= norm) & (norm <= NORM_WINDOW[1]))[:, None]
            for v in diagonals.values():
                np.divide(v[seeded], norm[:, None], out=v[seeded], where=outside)
        table = OperatorTable.assemble(d, [(labels, diagonals)])
        large = np.flatnonzero(table.norm_max > MAX_MEMBER_ENTRY)
        if large.size:
            raise ValueError(
                f"member {table.labels[large[0]]!r} has an entry of magnitude "
                f"{table.norm_max[large[0]]:.3g}, beyond {MAX_MEMBER_ENTRY:.0e}"
            )
        return table
