"""Cell-periodic observables and deliberate counterexamples.

A valid observable of the ring-lattice problem must be invariant under
conjugation by the unit-cell translation T.  Operators assembled from
periodic functions of position (harmonics of 2*pi/a) and polynomials in the
momentum satisfy this structurally: position harmonics couple plane waves
only within a wavevector class, and momentum is diagonal.  Self-adjointness
of mixed terms is restored by the symmetrized product (F*P + P*F)/2.

The randomized battery uses a small integer recurrence (64-bit MMIX linear
congruential generator, x -> 6364136223846793005*x + 1442695040888963407
mod 2^64, top 53 bits mapped to [0, 1)) rather than a library RNG so that the
seed -> operator map is reproducible across platforms and library versions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .lattice import HermitianOperator, PlaneWaveBasis, add_offset_diagonal, fold_harmonics

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

    @property
    def has_function(self) -> bool:
        return bool(self.f_harmonics)

    @property
    def has_polynomial(self) -> bool:
        return bool(self.p_poly)


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


def _function_matrix(term: ObservableTerm, basis: PlaneWaveBasis) -> np.ndarray:
    d = basis.dim
    out = np.zeros((d, d), dtype=complex)
    for j, c in term.f_harmonics:
        if j == 0:
            out[np.diag_indices(d)] += c
        else:
            add_offset_diagonal(out, j * basis.cells, c)
    return out


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
    """Realize an ObservableSpec as a dense Hermitian matrix.

    Mixed terms use (F*P + P*F)/2 when ``symmetrize`` is set; with it off the
    plain product F*P is kept and must already be Hermitian (constant F or P),
    otherwise InvariantViolation is raised.  P is diagonal, so it is held as
    its diagonal vector p: F*P scales the columns of F by p and P*F its rows.
    """
    d = basis.dim
    total = np.zeros((d, d), dtype=complex)
    for term in spec.terms:
        if not term.has_function and not term.has_polynomial:
            raise ValueError("observable term needs a function part or a polynomial part")
        if term.has_function and term.has_polynomial:
            f = _function_matrix(term, basis)
            p = _polynomial_diagonal(term, basis)
            if spec.symmetrize:
                total += 0.5 * (f * p + p[:, None] * f)
            else:
                prod = f * p
                defect = float(np.max(np.abs(prod - prod.conj().T)))
                scale = max(float(np.max(np.abs(prod))), 1e-300)
                if defect > 1e-12 * scale:
                    raise InvariantViolation(
                        "unsymmetrized F*P term is not Hermitian; enable symmetrize"
                    )
                total += prod
        elif term.has_function:
            total += _function_matrix(term, basis)
        else:
            total += np.diag(_polynomial_diagonal(term, basis))
    return HermitianOperator(matrix=total, periodicity="cell-periodic", label=label)


def check_cell_periodicity(
    operator: HermitianOperator | np.ndarray, translation: np.ndarray
) -> PeriodicityReport:
    """Measure || T O T^dagger - O ||_max / ||O||_max.

    The translation T is diagonal in the plane-wave basis (``build_translation``),
    so T O T^dagger scales entry (m, m') by t_m conj(t_m') and needs no matrix
    product; a T with any off-diagonal entry is rejected.  For operators with
    support at plane-wave distance dm that factor is exp(2 pi i dm / N);
    entries with dm not divisible by N therefore show up scaled by at least
    2 sin(pi/N) in the violation.
    """
    o = operator.matrix if isinstance(operator, HermitianOperator) else np.asarray(operator)
    if o.shape != translation.shape:
        raise ValueError(f"dimension mismatch: {o.shape} vs {translation.shape}")
    phases = np.diagonal(translation)
    if np.any(translation != np.diag(phases)):
        raise ValueError("translation must be diagonal in the plane-wave basis")
    scale = float(np.max(np.abs(o)))
    if scale == 0.0:
        return PeriodicityReport(max_violation=0.0, is_cell_periodic=True)
    defect = phases[:, None] * o  # T O T^dagger - O, built in place
    defect *= phases.conj()
    defect -= o
    violation = float(np.max(np.abs(defect))) / scale
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
    op = build_observable(spec, basis, label=f"seed:{seed}")
    norm = op.norm_max
    if not NORM_WINDOW[0] <= norm <= NORM_WINDOW[1]:
        op = HermitianOperator(
            matrix=op.matrix / norm, periodicity="cell-periodic", label=op.label
        )
    return op


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
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    add_offset_diagonal(out, shift, 1.0)
    return HermitianOperator(matrix=out, periodicity="breaking", label=f"breaking:s={shift}")


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


def standard_battery(
    basis: PlaneWaveBasis, seeds: int = 20, max_harmonic: int = 1, degree: int = 2,
    named: tuple[str, ...] = NAMED_OBSERVABLES, custom: tuple[ObservableSpec, ...] = (),
) -> list[HermitianOperator]:
    """``named`` members in order, then seeds 1..seeds, then ``custom`` (custom:<i>).

    An empty battery raises ValueError.  Leakage is measured relative to each
    member's max-entry norm, so a member that is zero on this basis (say a
    harmonic whose offset j*N reaches past it) raises ValueError naming it.
    """
    built = named_observables(basis)
    battery = [built[name] for name in named]
    battery.extend(
        random_cell_periodic(seed, basis, max_harmonic=max_harmonic, degree=degree)
        for seed in range(1, seeds + 1)
    )
    battery.extend(
        build_observable(spec, basis, label=f"custom:{i}") for i, spec in enumerate(custom)
    )
    if not battery:
        raise ValueError("battery is empty: no named, seeded or custom members")
    for op in battery:
        if op.norm_max == 0.0:
            raise ValueError(f"battery member {op.label!r} is the zero operator on this basis")
    return battery
