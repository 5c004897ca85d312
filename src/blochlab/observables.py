"""Cell-periodic observables and deliberate counterexamples.

A valid observable of the ring-lattice problem must be invariant under
conjugation by the unit-cell translation T.  Operators assembled from
periodic functions of position (harmonics of 2*pi/a) and polynomials in the
momentum satisfy this structurally: position harmonics couple plane waves
only within a wavevector class, and momentum is diagonal.  Self-adjointness
of mixed terms is restored by the symmetrized product (F*P + P*F)/2.  Every
term is assembled straight onto its offset diagonals: harmonic j at offset
j*N, the momentum polynomial as a vector along them, so no dense F or P is
formed.

The randomized battery uses a small integer recurrence (64-bit MMIX linear
congruential generator, x -> 6364136223846793005*x + 1442695040888963407
mod 2^64, top 53 bits mapped to [0, 1)) rather than a library RNG so that the
seed -> operator map is reproducible across platforms and library versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import InvariantViolation
from .lattice import HermitianOperator, PlaneWaveBasis, fold_harmonics

MAX_POLY_DEGREE = 6  # numerical-range guard on momentum polynomials
PERIODICITY_RTOL = 1e-12

# target window for the max-entry norm of generated battery operators
NORM_WINDOW = (0.5, 50.0)

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
    """Sum of ObservableTerms, symmetrized into a Hermitian operator."""

    terms: tuple[ObservableTerm, ...]
    symmetrize: bool = True


@dataclass(frozen=True)
class PeriodicityReport:
    """Outcome of the translation-conjugation check."""

    max_violation: float
    is_cell_periodic: bool
    tolerance: float = PERIODICITY_RTOL


def _polynomial_diagonal(term: ObservableTerm, basis: PlaneWaveBasis) -> np.ndarray:
    """Diagonal of P: the polynomial in hbar*q_m, one real entry per plane wave."""
    hq = basis.hbar * basis.momenta
    diag = np.zeros(basis.dim)
    for power, coeff in enumerate(term.p_poly):
        diag = diag + coeff * hq**power
    return diag


def build_observable(
    spec: ObservableSpec, basis: PlaneWaveBasis, label: str = ""
) -> HermitianOperator:
    """Realize an ObservableSpec as a Hermitian operator (see ``_observable_diagonals``)."""
    return HermitianOperator(basis.dim, _observable_diagonals(spec, basis), label=label)


def _observable_diagonals(spec: ObservableSpec, basis: PlaneWaveBasis) -> dict:
    """The offset diagonals of an ObservableSpec, summed term by term.

    P is diagonal (its vector p) and harmonic (j, c) of F is offset k = j*N,
    so a term's entry at (m + k, m) is c without polynomial, 0.5*(c*p[m] +
    p[m + k]*c) for (F*P + P*F)/2 and c*p[m] for F*P; terms that share an
    offset are added in order.  A term without function part is p itself.
    Unsymmetrized, F*P must already be Hermitian (constant F or P): when its
    entry at (m, m + k), conj(c)*p[m + k], is off the conjugate of (m + k, m)
    by more than 1e-12 of the term's largest entry, InvariantViolation is raised.
    """
    d = basis.dim
    diagonals: dict = {}
    for term in spec.terms:
        if not term.f_harmonics and not term.p_poly:
            raise ValueError("observable term needs a function part or a polynomial part")
        p = _polynomial_diagonal(term, basis)
        if not term.f_harmonics:
            diagonals[0] = diagonals.get(0, 0.0) + p
            continue
        defect, scale = 0.0, 1e-300
        for j, c in term.f_harmonics:
            k = j * basis.cells
            if k >= d:
                continue  # the harmonic reaches past the basis
            if not term.p_poly:
                values = c
            elif spec.symmetrize:
                values = 0.5 * (c * p[: d - k] + p[k:] * c)
            else:
                values, mirror = c * p[: d - k], c * p[k:]  # mirror: conj of F*P at (m, m + k)
                defect = max(defect, float(np.max(np.abs(values - mirror))))
                scale = max(scale, float(np.max(np.abs(values))), float(np.max(np.abs(mirror))))
            diagonals[k] = diagonals.get(k, 0.0) + values
        if defect > 1e-12 * scale:
            raise InvariantViolation("unsymmetrized F*P term is not Hermitian; enable symmetrize")
    return diagonals


def check_cell_periodicity(
    operator: HermitianOperator, translation: np.ndarray
) -> PeriodicityReport:
    """Measure || T O T^dagger - O ||_max / ||O||_max.

    ``translation`` is T's phase vector t (``build_translation``), so
    T O T^dagger scales the entry (m + o, m) of each stored diagonal by
    t[m + o] conj(t[m]); the mirrored entries are their conjugates and are
    not visited.  For operators with support at plane-wave distance dm that
    factor is exp(2 pi i dm / N); entries with dm not divisible by N
    therefore show up scaled by at least 2 sin(pi/N) in the violation.
    """
    t = np.asarray(translation)
    if t.shape != (operator.dim,):
        raise ValueError(f"dimension mismatch: operator {operator.dim} vs translation {t.shape}")
    scale = operator.norm_max
    if scale == 0.0:
        return PeriodicityReport(max_violation=0.0, is_cell_periodic=True)
    worst = 0.0
    for offset, values in operator.diagonals.items():
        defect = t[offset:] * values * t[: operator.dim - offset].conj() - values
        worst = max(worst, float(np.max(np.abs(defect))))
    violation = worst / scale
    return PeriodicityReport(
        max_violation=violation, is_cell_periodic=violation < PERIODICITY_RTOL
    )


def random_cell_periodic(
    seed: int, basis: PlaneWaveBasis, max_harmonic: int = 1, degree: int = 2
) -> HermitianOperator:
    """Seeded cell-periodic observable; pure function of its arguments.

    Draws harmonic coefficients and momentum-polynomial coefficients from the
    documented LCG stream, symmetrizes, and rescales to max-entry norm 1 if
    the raw norm falls outside the window [0.5, 50].  Higher powers of the
    momentum are pre-damped by the basis momentum scale to keep the window
    rescaling mild.
    """
    if max_harmonic < 0 or max_harmonic * basis.cells > basis.spec.cutoff:
        raise ValueError(
            f"max_harmonic {max_harmonic} unreachable: need j*N <= cutoff "
            f"({basis.cells}*j <= {basis.spec.cutoff})"
        )
    if degree > MAX_POLY_DEGREE:
        raise ValueError(f"degree {degree} exceeds cap {MAX_POLY_DEGREE}")
    rng = Lcg(seed)
    harmonics = [(0, complex(rng.uniform()))]
    for j in range(1, max_harmonic + 1):
        harmonics.append((j, complex(rng.uniform(), rng.uniform())))
    q_scale = max(1.0, float(np.max(np.abs(basis.hbar * basis.momenta))))
    poly = tuple(rng.uniform() / q_scale**power for power in range(degree + 1))
    spec = ObservableSpec(
        terms=(ObservableTerm(f_harmonics=tuple(harmonics), p_poly=poly),),
        symmetrize=True,
    )
    diagonals = _observable_diagonals(spec, basis)
    norm = max(float(np.max(np.abs(v))) for v in diagonals.values())
    if not NORM_WINDOW[0] <= norm <= NORM_WINDOW[1]:
        diagonals = {offset: v / norm for offset, v in diagonals.items()}
    return HermitianOperator(basis.dim, diagonals, label=f"seed:{seed}")


def breaking_observable(shift: int, basis: PlaneWaveBasis) -> HermitianOperator:
    """Hermitian counterexample coupling plane waves at distance +-shift.

    With shift not a multiple of N this couples class l to class (l + shift)
    mod N and fails the cell-periodicity check by construction; it is the
    negative control showing that non-periodic self-adjoint operators do see
    cross-sector coherence.
    """
    n = basis.cells
    if shift % n == 0:
        raise ValueError(f"shift {shift} is a multiple of {n}: operator would be cell-periodic")
    if not 1 <= shift <= 2 * basis.spec.cutoff:
        raise ValueError(f"shift must lie in [1, {2 * basis.spec.cutoff}], got {shift}")
    return HermitianOperator(basis.dim, {shift: 1.0}, label=f"breaking:s={shift}")


_NAMED_SPECS = {
    "identity": ObservableSpec(terms=(ObservableTerm(p_poly=(1.0,)),)),
    "cos_a": ObservableSpec(terms=(ObservableTerm(f_harmonics=((1, 0.5 + 0j),)),)),
    "sin_a": ObservableSpec(terms=(ObservableTerm(f_harmonics=((1, -0.5j),)),)),
    "momentum": ObservableSpec(terms=(ObservableTerm(p_poly=(0.0, 1.0)),)),
    "momentum_sq": ObservableSpec(terms=(ObservableTerm(p_poly=(0.0, 0.0, 1.0)),)),
}

NAMED_OBSERVABLES = tuple(_NAMED_SPECS)


def named_observables(basis: PlaneWaveBasis) -> dict[str, HermitianOperator]:
    """The five fixed battery members: identity, cos, sin, p, p^2."""
    return {name: build_observable(spec, basis, label=name) for name, spec in _NAMED_SPECS.items()}


@dataclass(frozen=True, eq=False)
class Battery:
    """The observable battery, each member built on demand by index.

    Members are the ``named`` ones in order, then seeds 1..seeds
    (``random_cell_periodic``, label seed:<s>), then ``custom`` (label
    custom:<i>); ``labels`` lists them without building any.  Iterating
    builds one member at a time, so a caller that drops each member before
    taking the next holds one member, not the whole battery.  An empty
    battery raises ValueError.  Leakage is measured relative to each member's
    max-entry norm, so ``member`` raises ValueError naming a member that is
    zero on this basis (say a harmonic whose offset j*N reaches past it).
    """

    basis: PlaneWaveBasis
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

    @property
    def labels(self) -> tuple[str, ...]:
        seeded = tuple(f"seed:{seed}" for seed in range(1, self.seeds + 1))
        return self.named + seeded + tuple(f"custom:{i}" for i in range(len(self.custom)))

    def member(self, index: int) -> HermitianOperator:
        """Build member ``index`` (0-based, in ``labels`` order)."""
        if not 0 <= index < len(self):
            raise IndexError(f"battery member {index} outside 0..{len(self) - 1}")
        seeded = index - len(self.named)
        if seeded < 0:
            name = self.named[index]
            op = build_observable(_NAMED_SPECS[name], self.basis, label=name)
        elif seeded < self.seeds:
            op = random_cell_periodic(
                seeded + 1, self.basis, max_harmonic=self.max_harmonic, degree=self.degree
            )
        else:
            i = seeded - self.seeds
            op = build_observable(self.custom[i], self.basis, label=f"custom:{i}")
        if op.norm_max == 0.0:
            raise ValueError(f"battery member {op.label!r} is the zero operator on this basis")
        return op

    def __iter__(self) -> Iterator[HermitianOperator]:
        return (self.member(i) for i in range(len(self)))


def standard_battery(
    basis: PlaneWaveBasis, seeds: int = 20, max_harmonic: int = 1, degree: int = 2,
    named: tuple[str, ...] = NAMED_OBSERVABLES, custom: tuple[ObservableSpec, ...] = (),
) -> list[HermitianOperator]:
    """Every member of ``Battery(...)``, built at once; its errors are Battery's."""
    return list(Battery(basis, seeds, max_harmonic, degree, named, custom))
