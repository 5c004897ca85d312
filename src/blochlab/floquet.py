"""Periodically driven finite-dimensional systems.

A T-periodic Hamiltonian H(t) defines the monodromy U(T) (time-ordered
product over one period).  Its eigenpairs give the quasienergies
eps = -(hbar/T) arg(lambda), defined modulo hbar*omega and folded to the
principal zone [-hbar*omega/2, hbar*omega/2), and the Floquet modes phi(0).
Trajectories phi(t) = U(t,0) phi(0) factor into exp(-i eps t/hbar) times a
T-periodic part v(t), the temporal analogue of a cell-periodic Bloch factor.
The lab reports v(T) - v(0) = exp(i eps T/hbar) U(T) phi(0) - phi(0) alone,
which is the modes' eigen-residual of the monodromy.

Two independent routes are kept deliberately: the propagator is the
midpoint-exponential product (every factor exactly unitary), cross-checked
by a classical fourth-order Runge-Kutta integrator with re-unitarization
off, and the propagator quasienergies are cross-checked against the
time-Fourier block eigenproblem on the extended space, from its eigenvalues
alone.  The two integrators share only the ordered product of their step
matrices: exact exponentials of H sampled once per step for the midpoint
rule, a degree-4 polynomial in A = -iH/hbar sampled three times for RK4
(U' = A U is linear).  A step and every block of steps is held as its
deviation D from I, never as I + D, so no low bits are rounded away next to
the unit diagonal.  The dimension alone picks how steps are built and
multiplied: at d = 2 the midpoint step is the su(2) closed form and the
2 x 2 products are written out entry by entry; above, one stacked eigh per
chunk and matmul.  The product is associative, so it is taken in aligned
blocks of 2^k steps (one stacked numpy call per level, as in a parallel
prefix scan): n - 1 matrix products per chunk of n steps, like the step
loop, in log2 n calls.

The temporal-overlap probe reports three quantities for a pair of modes with
quasienergy splitting Delta: the one-period phase relation
F(t+T) = exp(i Delta T/hbar) F(t) of F(t) = <phi_j(t)|O(t)|phi_j'(t)>, the
K-period running average of F against the geometric-sum bound, and the
element at t=0 for a Hermitian polynomial in U(T) and its adjoint (it
commutes with the monodromy, so the element vanishes; its odd term makes
the element see the modes' error also when the eigenphases are +-theta).
Since U(t + nT) = U(t) U(T)^n, every F value is a bilinear form of the
Heisenberg stack U(t_i)^dagger O(t_i) U(t_i), formed once on the grid.
For exact modes avg_K is the geometric sum itself, so the bound tests mode
accuracy, not the decay.  Instantaneous vanishing for generic periodic
observables is NOT claimed: for those the suppression shows up as the
averaged decay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import _canonical_eigenbasis  # same gauge rules as the lattice solver
from .errors import NumericalFailure

MIN_DIM, MAX_DIM = 2, 16
MIN_STEPS = 64
HERMITICITY_ATOL = 1e-12
UNITARITY_LIMIT = 1e-6  # propagation aborts beyond this drift
DEGENERATE_SPLITTING = 1e-8
MONODROMY_POLYNOMIAL = (0.4, 0.3, 0.2)  # c0, c1, c2 of ``monodromy_polynomial``

_VALID_KINDS = ("cos", "sin")
_FACTOR_CHUNK = 4096  # step matrices are built this many steps at a time


def _require_hermitian(matrix: np.ndarray, what: str) -> np.ndarray:
    m = np.array(matrix, dtype=complex)  # own copy; frozen below
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be a square matrix")
    scale = max(float(np.max(np.abs(m))), 1.0)
    if float(np.max(np.abs(m - m.conj().T))) > HERMITICITY_ATOL * scale:
        raise ValueError(f"{what} is not Hermitian")
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class DriveTerm:
    """One harmonic drive: matrix times cos or sin of (harmonic * omega * t)."""

    harmonic: int
    kind: str
    matrix: np.ndarray

    def __post_init__(self):
        if self.harmonic < 1:
            raise ValueError("drive harmonic must be >= 1")
        if self.kind not in _VALID_KINDS:
            raise ValueError(f"drive kind must be one of {_VALID_KINDS}")
        object.__setattr__(self, "matrix", _require_hermitian(self.matrix, "drive matrix"))


def _trig_series(
    static: np.ndarray, terms: tuple[DriveTerm, ...], omega: float, t: float | np.ndarray
) -> np.ndarray:
    """static + sum_i trig(h_i omega t) V_i at a time or, stacked, at an array of times.

    A new writable array, also when there are no terms; the terms are added
    in place, in order.
    """
    out = np.empty(np.shape(t) + static.shape, dtype=complex)
    out[...] = static
    for term in terms:
        phase = term.harmonic * omega * np.asarray(t)
        factor = np.cos(phase) if term.kind == "cos" else np.sin(phase)
        out += np.multiply.outer(factor, term.matrix)
    return out


@dataclass(frozen=True)
class DriveSpec:
    """T-periodic Hamiltonian H(t) = H0 + sum_i trig(h_i omega t) V_i."""

    h0: np.ndarray
    omega: float
    drives: tuple[DriveTerm, ...] = ()
    hbar: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "h0", _require_hermitian(self.h0, "static Hamiltonian"))
        if not MIN_DIM <= self.dim <= MAX_DIM:
            raise ValueError(f"dimension must lie in [{MIN_DIM}, {MAX_DIM}]")
        if self.omega <= 0 or self.hbar <= 0:
            raise ValueError("omega and hbar must be positive")
        for term in self.drives:
            if term.matrix.shape != self.h0.shape:
                raise ValueError("drive matrix dimension differs from H0")

    @property
    def dim(self) -> int:
        return self.h0.shape[0]

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega

    def hamiltonian(self, t: float | np.ndarray) -> np.ndarray:
        """H(t); an array of times gives the stack of H values on axis 0."""
        return _trig_series(self.h0, self.drives, self.omega, t)

    def fourier_blocks(self) -> dict[int, np.ndarray]:
        """Components H_q of H(t) = sum_q H_q exp(i q omega t)."""
        d = self.dim
        blocks: dict[int, np.ndarray] = {0: np.array(self.h0, dtype=complex)}
        for term in self.drives:
            plus = blocks.setdefault(term.harmonic, np.zeros((d, d), dtype=complex))
            minus = blocks.setdefault(-term.harmonic, np.zeros((d, d), dtype=complex))
            if term.kind == "cos":
                plus += 0.5 * term.matrix
                minus += 0.5 * term.matrix
            else:
                plus += -0.5j * term.matrix
                minus += 0.5j * term.matrix
        return blocks


@dataclass(frozen=True)
class PeriodicObservableSpec:
    """T-periodic observable O(t) = O0 + sum trig(h omega t) V, Hermitian at all t."""

    static: np.ndarray
    harmonics: tuple[DriveTerm, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "static", _require_hermitian(self.static, "static part"))
        for term in self.harmonics:
            if term.matrix.shape != self.static.shape:
                raise ValueError("harmonic matrix dimension differs from static part")

    def value(self, t: float | np.ndarray, omega: float) -> np.ndarray:
        """O(t); an array of times gives the stack of O values on axis 0."""
        return _trig_series(self.static, self.harmonics, omega, t)


@dataclass(frozen=True)
class FloquetSolution:
    """Quasienergies and modes, and the midpoint product they came from.

    ``snapshots`` holds U(s_i T / steps, 0) at the steps s_i nearest the probe
    grid times i T / grid, i = 0 .. grid, and ``times`` the kept steps' times
    s_i T / steps for i < grid; ``temporal_overlap_probe`` reads its grid from
    them.
    """

    spec: DriveSpec
    steps: int
    quasienergies: np.ndarray
    modes: np.ndarray  # columns phi_j(0), orthonormal
    snapshots: np.ndarray  # [grid point, row, column], read-only
    times: np.ndarray  # [grid point], t < T

    @property
    def monodromy(self) -> np.ndarray:
        return self.snapshots[-1]

    @property
    def unitarity_defect(self) -> float:
        return _unitarity_defect(self.monodromy)

    @property
    def periodicity_residuals(self) -> np.ndarray:
        """|| v_j(T) - v_j(0) || = || exp(i eps_j T/hbar) U(T) phi_j - phi_j || per mode.

        This restates the monodromy eigen-residual that ``quasienergies``
        already bounds by 1e-8; it is no independent evidence of periodicity.
        """
        spec = self.spec
        phase = np.exp(1j * np.outer(self.quasienergies, [spec.period]) / spec.hbar)
        return np.linalg.norm((self.monodromy @ self.modes).T * phase - self.modes.T, axis=1)


@dataclass(frozen=True)
class TemporalOverlapReport:
    """The three honest quantities probed for a mode pair (j, jp)."""

    pair: tuple[int, int]
    splitting: float  # eps_j - eps_jp
    grid_points: int
    phase_relation_residual: float
    period_averages: tuple[tuple[int, float], ...]  # (K, |avg over [0, K T]|)
    geometric_bounds: tuple[tuple[int, float], ...]
    bound_coefficient: float  # fitted C with |avg_K| <= C / K
    max_overlap: float  # max_t |F(t)| over the first period's grid: the averages' scale
    monodromy_commuting_element: float  # |F(0)| for the U(T)-polynomial observable


def _su2_deviation(h: np.ndarray, theta: float) -> np.ndarray:
    """exp(-i H theta) - I for a stack of 2 x 2 H, in closed form and in place on ``h``.

    With H = a I + h.sigma and b = |h| (Sakurai & Napolitano, Modern Quantum
    Mechanics, ch. 3), exp(-i H theta) = exp(-i a theta) [cos(b theta) I -
    i sin(b theta) / b (H - a I)].  With E = expm1(-i a theta), its deviation
    from I is [E cos(b theta) - 2 sin^2(b theta / 2)] I - i (1 + E) theta
    sinc(b theta / pi) (H - a I): no 1 is added and subtracted, and b = 0
    needs no branch.  H is read as eigh reads it, from the lower triangle and
    the real part of the diagonal.
    """
    h00, h11 = h[:, 0, 0].real, h[:, 1, 1].real
    a, z, x = 0.5 * (h00 + h11), 0.5 * (h00 - h11), h[:, 1, 0]
    b = np.hypot(z, np.abs(x))
    e = np.expm1(-1j * a * theta)
    diagonal = e * np.cos(b * theta) - 2.0 * np.sin(0.5 * b * theta) ** 2
    rotation = -1j * (1.0 + e) * (theta * np.sinc(b * theta / np.pi))
    h[:, 0, 0] = diagonal + rotation * z
    h[:, 1, 1] = diagonal - rotation * z
    h[:, 0, 1] = rotation * x.conj()  # before x, a view of h[:, 1, 0], is overwritten
    h[:, 1, 0] = rotation * x
    return h


def _midpoint_factors(spec: DriveSpec, s: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i H((s + 1/2) dt) dt / hbar) - I per step s.

    At d = 2 the su(2) closed form (``_su2_deviation``); above, one stacked
    eigh gives V and theta = E dt / hbar for the whole chunk, and the
    deviation is V expm1(-i theta) V^dagger.
    """
    h = spec.hamiltonian((s + 0.5) * dt)
    if spec.dim == 2:
        return _su2_deviation(h, dt / spec.hbar)
    vals, vecs = np.linalg.eigh(h)
    phases = np.expm1(-1j * vals * dt / spec.hbar)[:, None, :]
    return (vecs * phases) @ vecs.conj().transpose(0, 2, 1)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The stacked matrix product a @ b, with its four entries written out at d = 2.

    At d = 2 the written-out entries take a tenth of matmul's time on a
    4096-step chunk; at d = 3 no written-out form beats matmul by much, so
    larger matrices take matmul.
    """
    if a.shape[-1] != 2:
        return a @ b
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    for i in range(2):
        for j in range(2):
            out[..., i, j] = a[..., i, 0] * b[..., 0, j] + a[..., i, 1] * b[..., 1, j]
    return out


def _rk4_factors(spec: DriveSpec, s: np.ndarray, dt: float) -> np.ndarray:
    """RK4 step matrix minus I per step s for U' = A(t) U, A = -(i/hbar) H; never re-unitarized.

    U' is linear in U, so the step from t = s dt is U -> (I + D) U with
    D = dt/6 (K1 + 2 K2 + 2 K3 + K4), K1 = A(t), K2 = A(t + dt/2) + dt/2 A(t + dt/2) K1,
    K3 = A(t + dt/2) + dt/2 A(t + dt/2) K2 and K4 = A(t + dt) + dt A(t + dt) K3.
    Built in place, with A(t + dt) made after A(t + dt/2) is dropped, so that
    at most four chunk-sized stacks are alive at once.
    """
    scale = -1j / spec.hbar
    t = s * dt
    m = k = scale * spec.hamiltonian(t)  # m: K1, then the sum K1 + 2 K2 + 2 K3 + K4
    a_mid = scale * spec.hamiltonian(t + 0.5 * dt)
    for _ in range(2):  # K2, then K3
        k = _product(a_mid, k)  # a new stack: on the first pass k is m
        k *= 0.5 * dt
        k += a_mid
        m += 2.0 * k
    del a_mid
    a_end = scale * spec.hamiltonian(t + dt)
    k = _product(a_end, k)
    k *= dt
    m += k + a_end  # K4
    m *= dt / 6.0
    return m


def _aligned_blocks(deviations: np.ndarray) -> list[np.ndarray]:
    """Products of a chunk's step matrices I + deviations[s] over aligned blocks.

    I + levels[k][i] is the product over steps [i 2^k, (i + 1) 2^k), later
    steps on the left; level k + 1 takes the pairs of level k in one stacked
    call, n - 1 products in log2 n calls.  Like a step, a block is kept as its
    deviation from I, (I + a)(I + b) = I + (a b + a + b): the small part of a
    product of near-identity matrices keeps its relative precision, where
    rounding next to the unit diagonal would add up over neighbouring steps.
    """
    levels = [deviations]
    while len(levels[-1]) > 1:
        pairs = len(levels[-1]) // 2 * 2
        a, b = levels[-1][1:pairs:2], levels[-1][0:pairs:2]
        block = _product(a, b)
        block += a
        block += b
        levels.append(block)
    return levels


def _ordered_product(spec: DriveSpec, steps: int, marks, method: str) -> np.ndarray:
    """U(s dt, 0), dt = T / steps, at each step index s of the ascending ``marks``.

    A mark may repeat, and mark 0 is the identity.  The ``method``'s factor
    builder (``_FACTOR_BUILDERS``), called as ``factors(spec, s, dt)``, builds
    the steps' deviations from I, _FACTOR_CHUNK step indices s at a time,
    which bounds the memory at the step cap; ``_aligned_blocks`` multiplies
    them in log-depth stacked calls.  U at a mark inside the chunk,
    and at the chunk end (carried into the next chunk), is the carried U times
    the blocks of its offset's binary digits, highest digit first, in one
    stacked call per digit over the marks that have it.  So each snapshot's
    rounding depends on its own step index only, never on which other marks
    were asked for.  Raises ValueError below MIN_STEPS, and NumericalFailure
    naming the method and the step count when U(T, 0) drifts off the unitary
    group by more than 1e-6 or is not finite.
    """
    if steps < MIN_STEPS:
        raise ValueError(f"need at least {MIN_STEPS} steps, got {steps}")
    factors = _FACTOR_BUILDERS[method]
    marks = np.asarray(marks)
    dt = spec.period / steps
    snapshots = np.empty((len(marks), spec.dim, spec.dim), dtype=complex)
    u = np.eye(spec.dim, dtype=complex)
    snapshots[marks == 0] = u
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends in NaN, caught below
        for start in range(0, steps, _FACTOR_CHUNK):
            stop = min(start + _FACTOR_CHUNK, steps)
            levels = _aligned_blocks(factors(spec, np.arange(start, stop), dt))
            inside = (marks > start) & (marks <= stop)
            offsets, where = np.unique(
                np.append(marks[inside] - start, stop - start), return_inverse=True
            )
            prefix = np.repeat(u[None], len(offsets), axis=0)
            for k in reversed(range(len(levels))):
                digit = np.flatnonzero((offsets >> k) & 1)
                if digit.size:
                    block = levels[k][(offsets[digit] >> k) - 1]
                    prefix[digit] += _product(block, prefix[digit])
            snapshots[inside] = prefix[where[:-1]]
            u = prefix[-1].copy()  # U(stop dt, 0): the chunk end is the last offset
            del levels, prefix  # dropped before the next chunk's factors are built
        drift = _unitarity_defect(u)
    if not drift <= UNITARITY_LIMIT:  # NaN compares False, so a NaN product fails too
        raise NumericalFailure(
            f"{method} monodromy unitarity drift {drift:.3e} exceeds {UNITARITY_LIMIT:.0e} "
            f"over {steps} steps; increase steps or reduce the drive's scale"
        )
    return snapshots


def _nearest_steps(steps: int, grid: int) -> np.ndarray:
    """The step index nearest each grid time i T / grid, i = 0 .. grid (halves round up)."""
    return (np.arange(grid + 1) * steps + grid // 2) // grid


_FACTOR_BUILDERS = {"midpoint-exponential": _midpoint_factors, "fourth-order": _rk4_factors}


def _unitarity_defect(u: np.ndarray) -> float:
    """max |U^dagger U - I|."""
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def propagate_period(
    spec: DriveSpec, steps: int = 4096, method: str = "midpoint-exponential"
) -> np.ndarray:
    """Monodromy U(T) by the chosen integrator: "midpoint-exponential" or "fourth-order".

    Raises NumericalFailure, naming the method and the step count, when the
    result drifts off the unitary group by more than 1e-6.
    """
    if method not in _FACTOR_BUILDERS:
        raise ValueError(f"unknown method {method!r}")
    return _ordered_product(spec, steps, [steps], method)[-1]


def fold_quasienergy(value: float | np.ndarray, omega: float, hbar: float = 1.0):
    """Map quasienergies to the principal zone [-hbar*omega/2, hbar*omega/2)."""
    zone = hbar * omega
    return ((np.asarray(value) + 0.5 * zone) % zone) - 0.5 * zone


def _unitary_eigenpairs(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and an orthonormal eigenbasis of a unitary matrix, numpy only.

    U is normal, so it shares its eigenvectors with the Hermitian Cayley
    transform C = i (I - V)(I + V)^-1 of V = exp(i phi) U (Golub & Van Loan,
    Matrix Computations, 4th ed.).  phi turns the middle of the widest gap
    between U's eigenphases, at least 2 pi / d wide, onto -1, which keeps
    I + V well conditioned.  eigh of C's Hermitian part gives an orthonormal
    basis, also inside degenerate clusters.  C's eigenvalue tan(theta / 2)
    grows with V's eigenphase theta, so eigh's column order is the order of
    U's eigenphases counted from the gap; the eigenvalues from ``eigvals``
    (the diagonal of U's complex Schur form, the same Hessenberg QR) are
    paired with the columns in that order.
    """
    eye = np.eye(u.shape[0])
    lams = np.linalg.eigvals(u)
    phases = np.angle(lams)
    ordered = np.sort(phases)
    gaps = np.diff(ordered, append=ordered[0] + 2.0 * np.pi)
    widest = int(np.argmax(gaps))
    middle = ordered[widest] + 0.5 * gaps[widest]
    v = np.exp(1j * (np.pi - middle)) * u
    c = 1j * np.linalg.solve(eye + v, eye - v)
    _, z = np.linalg.eigh(0.5 * (c + c.conj().T))
    return lams[np.argsort((phases - middle) % (2.0 * np.pi), kind="stable")], z


def quasienergies(
    monodromy: np.ndarray, omega: float, hbar: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Quasienergies and Floquet modes of a monodromy matrix.

    The modes are the eigenvectors of the monodromy's Hermitian Cayley
    transform (see ``_unitary_eigenpairs``), so they come out orthonormal
    even inside degenerate clusters.  Raises ValueError for a matrix that is
    not unitary, and NumericalFailure when the eigensolve fails or its
    residual max |U Z - Z Lambda| exceeds 1e-8.  Output is sorted by
    ascending quasienergy; degenerate clusters, found on the circle of
    circumference hbar*omega so that one straddling the zone edge is whole,
    are canonicalized and every mode is phased with its largest coefficient
    real positive, making the result deterministic.
    """
    u = np.asarray(monodromy, dtype=complex)
    defect = _unitarity_defect(u)
    if defect > 1e-8:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
    try:
        lams, z = _unitary_eigenpairs(u)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"monodromy eigensolve failed: {exc}") from exc
    residual = float(np.max(np.abs(u @ z - z * lams)))
    if not residual <= 1e-8:
        raise NumericalFailure(f"monodromy eigenbasis residual {residual:.3e} exceeds 1e-8")
    period = 2.0 * np.pi / omega
    eps = fold_quasienergy(-(hbar / period) * np.angle(lams), omega, hbar)
    order = np.argsort(eps, kind="stable")
    eps = eps[order]
    # clusters live on the quasienergy circle: scan them from just after the
    # widest gap, with the values before it unwrapped by one zone
    x = eps / max(hbar * omega, 1e-300)
    start = (int(np.argmax(np.diff(x, append=x[0] + 1.0))) + 1) % len(x)
    x = np.concatenate((x[start:], x[:start] + 1.0))
    modes = _canonical_eigenbasis(x, np.roll(z[:, order], -start, axis=1))
    return eps, np.roll(modes, start, axis=1)


def solve_floquet(spec: DriveSpec, steps: int = 4096, grid: int = 256) -> FloquetSolution:
    """One midpoint product over the period, then the quasienergy extraction.

    The product is kept at the step nearest each probe grid time i T / grid,
    i = 0 .. grid (a step repeats when grid > steps), as a read-only stack that
    ``temporal_overlap_probe`` reads.  The monodromy is the last snapshot, bit
    for bit the one ``propagate_period`` gives.
    """
    if grid < 1:
        raise ValueError(f"the grid needs at least one interval, got {grid}")
    marks = _nearest_steps(steps, grid)
    snapshots = _ordered_product(spec, steps, marks, "midpoint-exponential")
    snapshots.setflags(write=False)
    # the kept steps' time offsets s_i dt - i T / grid: 0.0 where a grid time is a step
    offsets = (marks * grid - np.arange(grid + 1) * steps) * (spec.period / (steps * grid))
    times = np.arange(grid) * spec.period / grid + offsets[:-1]
    times.setflags(write=False)
    eps, modes = quasienergies(snapshots[-1], spec.omega, spec.hbar)
    return FloquetSolution(spec, steps, eps, modes, snapshots, times)


def sambe_quasienergies(spec: DriveSpec, h_max: int = 12) -> np.ndarray:
    """Quasienergies from the time-Fourier block eigenproblem (Shirley, Phys. Rev. 138, B979).

    Builds K[(h),(h')] = H_{h-h'} + delta_{hh'} h hbar omega on the extended
    space truncated at |h| <= h_max, one block assignment per Fourier
    component, and takes its eigenvalues alone.  In the converged middle of
    the truncated spectrum the eigenvalues repeat every hbar omega, d of them
    per zone, so the d sorted eigenvalues at indices h_max d ... h_max d + d - 1
    hold one replica of every quasienergy, degenerate ones included.  They
    come back folded to the principal zone and sorted ascending, and converge
    to the propagator quasienergies as h_max grows; the propagator is never
    consulted.
    """
    if h_max < 4:
        raise ValueError("need h_max >= 4")
    d = spec.dim
    n_blocks = 2 * h_max + 1
    index = np.arange(n_blocks)  # block h is at index h + h_max
    big = np.zeros((n_blocks, d, n_blocks, d), dtype=complex)
    for q, block in spec.fourier_blocks().items():  # H_q on the blocks (h, h - q)
        rows = index[max(q, 0) : n_blocks + min(q, 0)]
        big[rows, :, rows - q, :] = block
    big[index, :, index, :] += (index - h_max)[:, None, None] * spec.hbar * spec.omega * np.eye(d)
    vals = np.linalg.eigvalsh(big.reshape(n_blocks * d, n_blocks * d))
    return np.sort(fold_quasienergy(vals[h_max * d : (h_max + 1) * d], spec.omega, spec.hbar))


def quasienergy_distance(a: np.ndarray, b: np.ndarray, omega: float, hbar: float = 1.0) -> float:
    """Largest gap between two quasienergy spectra of equal size, matched on the circle.

    Quasienergies live on a circle of circumference hbar*omega, so a value
    just below +hbar*omega/2 and one just above -hbar*omega/2 are neighbours.
    Both spectra are sorted and matched by the cyclic shift with the smallest
    largest gap; each gap is taken modulo hbar*omega.  Without wrap-around
    this is max|sort(a) - sort(b)|, digit for digit.
    """
    zone = hbar * omega
    a, b = np.sort(a), np.sort(b)
    gaps = (a - np.roll(b, shift) for shift in range(len(b)))
    return min(float(np.max(np.abs(g - zone * np.round(g / zone)))) for g in gaps)


def monodromy_polynomial(monodromy: np.ndarray) -> np.ndarray:
    """Hermitian observable c0 I + sum_r c_r (U^r + U^dagger^r) + 0.3 i (U - U^dagger).

    By construction it commutes with U(T), so its matrix elements between
    Floquet modes of distinct monodromy eigenvalues vanish identically.  The
    even terms read an eigenphase theta as cos(r theta) alone, so on a
    two-level drive with eigenphases +-theta (a traceless one) they are a
    multiple of I and give 0 on any orthonormal pair, exact modes or not; the
    fixed odd term, -0.6 sin(theta_j) on mode j, makes the element measure
    the modes' error.
    """
    d = monodromy.shape[0]
    out = MONODROMY_POLYNOMIAL[0] * np.eye(d, dtype=complex)
    power = np.eye(d, dtype=complex)
    for c in MONODROMY_POLYNOMIAL[1:]:
        power = power @ monodromy
        out = out + c * (power + power.conj().T)
    return out + 0.3j * (monodromy - monodromy.conj().T)


def _pair_form(h: np.ndarray, vecs: np.ndarray):
    """vecs[:, 0]^dagger h vecs[:, 1], for one matrix h or a stack of them."""
    return (h @ vecs[:, 1]) @ vecs[:, 0].conj()


def temporal_overlap_probe(
    solution: FloquetSolution,
    observable: PeriodicObservableSpec,
    pair: tuple[int, int] = (0, 1),
    periods: tuple[int, ...] = (8, 16, 32, 64),
) -> TemporalOverlapReport:
    """Probe the cross-quasienergy overlap F(t) = <phi_j(t)|O(t)|phi_j'(t)>.

    See the module docstring for the three reported quantities.  The grid
    points are the midpoint steps nearest t_i = i T / grid that
    ``solve_floquet`` kept, and O is evaluated at those steps' times.  The
    pair must be non-degenerate modulo hbar*omega (beyond 1e-8), otherwise
    the splitting phase is undefined and the probe is rejected.
    """
    j, jp = pair
    if j == jp:
        raise ValueError("need two distinct mode indices")
    if not periods:
        raise ValueError("need at least one period count")
    grid_points = len(solution.snapshots) - 1
    if grid_points < 8:
        raise ValueError("need at least 8 grid points per period")
    snapshots = solution.snapshots[:-1]  # t < T
    spec, eps, modes = solution.spec, solution.quasienergies, solution.modes
    u_period = solution.monodromy
    delta = float(eps[j] - eps[jp])
    folded = float(np.abs(fold_quasienergy(delta, spec.omega, spec.hbar)))
    if folded <= DEGENERATE_SPLITTING:
        raise ValueError(
            f"modes {pair} are quasienergy-degenerate modulo hbar*omega "
            f"(splitting {folded:.3e})"
        )

    # H_i = U(t_i)^dagger O(t_i) U(t_i) as conj(U^T conj(O U)): no conjugate copy of U
    heisenberg = observable.value(solution.times, spec.omega) @ snapshots
    np.conj(heisenberg, out=heisenberg)
    heisenberg = snapshots.transpose(0, 2, 1) @ heisenberg
    np.conj(heisenberg, out=heisenberg)

    vecs = modes[:, [j, jp]]  # the pair, advanced by U(T) once per period below
    f_first = _pair_form(heisenberg, vecs)
    f_second = _pair_form(heisenberg, u_period @ vecs)
    z = np.exp(1j * delta * spec.period / spec.hbar)
    phase_residual = float(np.max(np.abs(f_second - z * f_first)))

    # running averages over [0, K T]: one bilinear form of sum_i H_i per period
    total, sums = heisenberg.sum(axis=0), []
    for _ in range(max(periods)):
        sums.append(_pair_form(total, vecs))
        vecs = u_period @ vecs
    running = np.cumsum(sums)
    averages = {k: float(abs(running[k - 1] / (k * grid_points))) for k in periods}

    mean_first = abs(complex(np.mean(f_first)))
    bounds = {k: float(abs((1.0 - z**k) / (1.0 - z)) * mean_first / k) for k in periods}
    f0 = complex(modes[:, j].conj() @ monodromy_polynomial(solution.monodromy) @ modes[:, jp])

    return TemporalOverlapReport(
        pair=(j, jp),
        splitting=delta,
        grid_points=grid_points,
        phase_relation_residual=phase_residual,
        period_averages=tuple(sorted(averages.items())),
        geometric_bounds=tuple(sorted(bounds.items())),
        bound_coefficient=float(max(k * averages[k] for k in periods)),
        max_overlap=float(np.max(np.abs(f_first))),
        monodromy_commuting_element=abs(f0),
    )
