"""Monodromy, quasienergies, Sambe cross-validation and temporal probes."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blochlab as bl
from blochlab import floquet
from blochlab.config import validate_config
from blochlab.errors import NumericalFailure
from blochlab.runner import _default_probe_observable
from conftest import random_hermitian
from oracles import loop_period_averages, schur_quasienergies

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
DEGENERATE_H0 = np.zeros((4, 4), dtype=complex)  # levels 2 and 3 stay at 0
DEGENERATE_H0[0, 1] = DEGENERATE_H0[1, 0] = 0.25
EDGE_Q = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0)
EDGE_PAIR_H0 = EDGE_Q @ np.diag([0.5, 1.5]) @ EDGE_Q.conj().T  # U(T) = -I at omega = 1
SHIPPED_DRIVE = Path(__file__).resolve().parents[1] / "configs" / "floquet_two_level.json"


def no_drive(eps):
    return bl.DriveSpec(h0=eps * SZ, omega=1.0)


def test_drive_spec_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        bl.DriveSpec(h0=np.array([[0, 1], [0, 0]], dtype=complex), omega=1.0)
    with pytest.raises(ValueError, match="dimension"):
        bl.DriveSpec(h0=np.zeros((1, 1), dtype=complex), omega=1.0)
    with pytest.raises(ValueError, match="positive"):
        bl.DriveSpec(h0=SZ, omega=-1.0)
    with pytest.raises(ValueError, match="harmonic"):
        bl.DriveTerm(harmonic=0, kind="cos", matrix=SX)
    with pytest.raises(ValueError, match="kind"):
        bl.DriveTerm(harmonic=1, kind="tan", matrix=SX)


def test_no_drive_monodromy_is_static_exponential():
    sol = bl.propagate_period(no_drive(0.3), steps=256)
    expected = np.diag([np.exp(-0.6j * np.pi), np.exp(0.6j * np.pi)])
    assert np.allclose(sol.monodromy, expected, atol=1e-12)


def test_no_drive_quasienergies_below_folding():
    eps, _ = bl.quasienergies(
        bl.propagate_period(no_drive(0.3), steps=256).monodromy, omega=1.0
    )
    assert np.allclose(eps, [-0.3, 0.3], atol=1e-12)


def test_folding_wraps_larger_energies():
    eps, _ = bl.quasienergies(
        bl.propagate_period(no_drive(0.7), steps=256).monodromy, omega=1.0
    )
    assert np.allclose(eps, [-0.3, 0.3], atol=1e-12)


def test_folding_idempotent_and_in_zone():
    values = np.array([0.5, -0.5, 1.7, -2.3, 0.0, 0.49999])
    folded = bl.fold_quasienergy(values, omega=1.0)
    assert np.all(folded >= -0.5) and np.all(folded < 0.5)
    assert np.allclose(bl.fold_quasienergy(folded, omega=1.0), folded, atol=0)
    assert bl.fold_quasienergy(0.5, omega=1.0) == pytest.approx(-0.5)


def test_quasienergies_require_unitary_input():
    with pytest.raises(ValueError, match="unitary"):
        bl.quasienergies(np.diag([2.0, 0.5]).astype(complex), omega=1.0)


def test_cross_method_agreement(two_level_drive, two_level_solution):
    other = bl.propagate_period(two_level_drive, steps=4096, method="fourth-order")
    assert float(np.max(np.abs(two_level_solution.monodromy - other.monodromy))) < 1e-6


def test_monodromy_unitarity_at_default_steps(two_level_solution):
    assert two_level_solution.unitarity_defect < 1e-10


def test_midpoint_is_second_order(two_level_drive):
    ref = bl.propagate_period(two_level_drive, steps=2048).monodromy
    err_coarse = np.max(np.abs(bl.propagate_period(two_level_drive, steps=256).monodromy - ref))
    err_fine = np.max(np.abs(bl.propagate_period(two_level_drive, steps=512).monodromy - ref))
    assert 3.0 < err_coarse / err_fine < 5.0


def test_rk4_is_fourth_order(two_level_drive):
    # a wrong coefficient in the step matrix can leave cross_method within
    # 1e-6 while dropping the order to two (ratio 4)
    def monodromy(steps):
        return bl.propagate_period(two_level_drive, steps=steps, method="fourth-order").monodromy

    ref = monodromy(8192)
    err_coarse = np.max(np.abs(monodromy(128) - ref))
    err_fine = np.max(np.abs(monodromy(256) - ref))
    assert 12.0 < err_coarse / err_fine < 20.0


def test_unitarity_drift_raises_with_advice():
    rough = bl.DriveSpec(
        h0=0.3 * SZ, omega=1.0, drives=(bl.DriveTerm(harmonic=1, kind="sin", matrix=2.0 * SX),)
    )
    with pytest.raises(NumericalFailure, match="steps"):
        bl.propagate_period(rough, steps=64, method="fourth-order")
    with pytest.raises(ValueError, match="steps"):
        bl.propagate_period(rough, steps=32)
    with pytest.raises(ValueError, match="unknown method"):
        bl.propagate_period(rough, steps=64, method="rk4")


def test_sambe_no_drive_reproduces_folded_spectrum():
    values = bl.sambe_quasienergies(no_drive(0.7), h_max=6)
    assert np.allclose(values, [-0.3, 0.3], atol=1e-12)


def test_sambe_matches_propagator(two_level_drive, two_level_solution):
    sambe = bl.sambe_quasienergies(two_level_drive, h_max=12)
    diff = np.max(np.abs(np.sort(two_level_solution.quasienergies) - sambe))
    assert diff < 1e-6


def test_sambe_truncation_converges_monotonically(two_level_drive):
    # against a deep reference; at the acceptance drive the truncation error
    # drops below the propagator error already near h_max = 6
    reference = bl.sambe_quasienergies(two_level_drive, h_max=24)
    errors = [
        float(np.max(np.abs(bl.sambe_quasienergies(two_level_drive, h_max=h) - reference)))
        for h in (4, 5, 6)
    ]
    assert errors[0] > errors[1] > errors[2]
    strong = bl.DriveSpec(
        h0=0.3 * SZ, omega=1.0, drives=(bl.DriveTerm(harmonic=1, kind="sin", matrix=2.5 * SX),)
    )
    deep = bl.sambe_quasienergies(strong, h_max=30)
    strong_errors = [
        float(np.max(np.abs(bl.sambe_quasienergies(strong, h_max=h) - deep)))
        for h in (4, 6, 8, 10)
    ]
    assert all(a > b for a, b in zip(strong_errors, strong_errors[1:]))


@given(
    dim=st.integers(2, 16),
    seed=st.integers(0, 2**32 - 1),
    width=st.floats(1.0, 3.0),  # ||H0||_2 / (hbar omega): the spectrum spans 2-6 zones
    strength=st.floats(0.05, 0.8),  # ||V||_2 / (hbar omega)
    omega=st.floats(0.5, 2.0),
    second_harmonic=st.booleans(),
)
# a drive on which picking replicas by weight alone returned 15 distinct values
@example(dim=16, seed=5, width=1.5, strength=0.4, omega=1.0, second_harmonic=False)
@settings(max_examples=20, deadline=None, derandomize=True)
def test_sambe_matches_propagator_on_wide_spectrum_drives(
    dim, seed, width, strength, omega, second_harmonic
):
    rng = np.random.default_rng(seed)
    h0 = random_hermitian(rng, dim, width * omega)
    drives = [bl.DriveTerm(1, "cos", random_hermitian(rng, dim, strength * omega))]
    if second_harmonic:
        drives.append(bl.DriveTerm(2, "sin", random_hermitian(rng, dim, strength * omega / 2)))
    spec = bl.DriveSpec(h0=h0, omega=omega, drives=tuple(drives))
    solution = bl.solve_floquet(spec, steps=4096)
    sambe = bl.sambe_quasienergies(spec, h_max=12)
    assert len(sambe) == dim
    assert bl.quasienergy_distance(solution.quasienergies, sambe, omega) < 1e-6


def test_sambe_keeps_degenerate_quasienergies():
    # 0.2 and 1.2 fold onto one quasienergy: one cluster of multiplicity 3
    spec = bl.DriveSpec(h0=np.diag([0.2, 0.2, 1.2]).astype(complex), omega=1.0)
    assert np.allclose(bl.sambe_quasienergies(spec, h_max=6), [0.2, 0.2, 0.2], atol=1e-12)


def test_quasienergy_distance_matches_across_the_zone_edge():
    a = np.array([-0.4999, 0.1])
    b = np.array([0.1, 0.4999])  # 0.4999 and -0.4999 are 2e-4 apart on the circle
    assert bl.quasienergy_distance(a, b, omega=1.0) == pytest.approx(2e-4, abs=1e-15)
    assert float(np.max(np.abs(np.sort(a) - np.sort(b)))) > 0.5  # sorted lines misread it
    c = np.array([0.1 + 3e-9, -0.2])
    assert bl.quasienergy_distance(c, [-0.2, 0.1], omega=1.0) == float(
        np.max(np.abs(np.sort(c) - np.array([-0.2, 0.1])))
    )


def test_sambe_requires_enough_blocks(two_level_drive):
    with pytest.raises(ValueError, match="h_max"):
        bl.sambe_quasienergies(two_level_drive, h_max=3)


def test_mode_trajectory_stationary_for_no_drive():
    sol = bl.solve_floquet(no_drive(0.3), steps=256, grids=(64,))
    sol = bl.mode_trajectory(sol, n_t=65)
    # eps equals the unfolded eigenvalue, so v(t) is constant
    spread = np.max(np.abs(sol.periodic_parts - sol.periodic_parts[:, :1, :]))
    assert spread < 1e-10
    assert np.max(sol.periodicity_residuals) < 1e-10


def test_mode_trajectory_driven_config(two_level_drive, two_level_solution):
    sol = bl.mode_trajectory(two_level_solution, n_t=257)
    assert np.max(sol.periodicity_residuals) < 1e-8
    norms = np.linalg.norm(sol.trajectories, axis=2)
    assert np.max(np.abs(norms - 1.0)) < 1e-9


def test_floquet_expansion_reconstructs(two_level_drive, two_level_solution):
    modes = two_level_solution.modes
    coeffs = modes.conj().T @ modes[:, 0]
    assert np.allclose(coeffs, [1.0, 0.0], atol=1e-12)
    rng = np.random.default_rng(5)
    state = rng.normal(size=2) + 1j * rng.normal(size=2)
    state /= np.linalg.norm(state)
    c = modes.conj().T @ state
    assert np.sum(np.abs(c) ** 2) == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.norm(two_level_solution.modes @ c - state) < 1e-10


def test_expansion_coefficients_evolve_by_quasienergy_phase(
    two_level_drive, two_level_solution
):
    rng = np.random.default_rng(11)
    state = rng.normal(size=2) + 1j * rng.normal(size=2)
    state /= np.linalg.norm(state)
    c0 = two_level_solution.modes.conj().T @ state
    u = two_level_solution.monodromy
    direct = u @ (u @ (u @ state))
    period = two_level_drive.period
    evolved = two_level_solution.modes @ (
        c0 * np.exp(-3j * two_level_solution.quasienergies * period)
    )
    assert np.linalg.norm(direct - evolved) < 1e-7


def test_probe_static_observable_no_drive():
    spec = no_drive(0.3)
    sol = bl.solve_floquet(spec, steps=256, grids=(128,))
    probe = bl.temporal_overlap_probe(
        sol, bl.PeriodicObservableSpec(static=SX), pair=(0, 1),
        periods=(8, 16, 32, 64), grid_points=128,
    )
    # F oscillates at the splitting; the K-period average obeys both the
    # geometric bound and the cruder (1.1/K) * max|F| envelope here
    averages = dict(probe.period_averages)
    bounds = dict(probe.geometric_bounds)
    for k in (8, 16, 32, 64):
        assert averages[k] <= 1.1 * bounds[k]
        assert averages[k] < 1.1 / k  # max |F| = |<0|sx|1>| = 1
    assert probe.phase_relation_residual < 1e-7
    assert probe.monodromy_commuting_element < 1e-10


def test_probe_driven_config(two_level_drive, two_level_solution):
    obs = bl.PeriodicObservableSpec(
        static=SX, harmonics=(bl.DriveTerm(harmonic=1, kind="cos", matrix=0.3 * SZ),)
    )
    probe = bl.temporal_overlap_probe(
        two_level_solution, obs, pair=(0, 1),
        periods=(8, 16, 32, 64), grid_points=256,
    )
    assert probe.phase_relation_residual < 1e-7
    averages = dict(probe.period_averages)
    bounds = dict(probe.geometric_bounds)
    assert all(averages[k] <= 1.1 * bounds[k] for k in averages)
    assert probe.monodromy_commuting_element < 1e-10
    assert probe.bound_coefficient == pytest.approx(
        max(k * averages[k] for k in averages)
    )


# (h0, drive terms) from a seeded generator: the shipped two-level drive, the
# commensurate drive whose splitting makes every 8-period sum vanish, and a
# random d = 8 drive
PROBE_ORACLE_DRIVES = {
    "shipped": lambda rng: (0.3 * SZ, (bl.DriveTerm(harmonic=1, kind="sin", matrix=0.5 * SX),)),
    "commensurate": lambda rng: (
        SZ / 16, (bl.DriveTerm(harmonic=1, kind="cos", matrix=0.01 * SZ),)
    ),
    "random_d8": lambda rng: (
        random_hermitian(rng, 8, 0.3),
        (bl.DriveTerm(harmonic=1, kind="cos", matrix=random_hermitian(rng, 8, 0.3)),),
    ),
}


@pytest.mark.parametrize("name", sorted(PROBE_ORACLE_DRIVES))
def test_probe_averages_match_the_per_period_loop(name):
    h0, drives = PROBE_ORACLE_DRIVES[name](np.random.default_rng(3))
    spec = bl.DriveSpec(h0=h0, omega=1.0, drives=drives)
    solution = bl.solve_floquet(spec, steps=4096, grids=(256,))
    observable = _default_probe_observable(spec.dim)
    periods = (1, 8, 16, 32, 64, 1024)
    probe = bl.temporal_overlap_probe(solution, observable, periods=periods, grid_points=256)
    reference = loop_period_averages(solution, observable, (0, 1), periods, 256)
    assert [k for k, _ in probe.period_averages] == sorted(reference)
    # an average far below max |F| carries rounding of order eps max |F|
    floor = 1e-15 * probe.max_overlap
    for k, average in probe.period_averages:
        assert abs(average - reference[k]) <= max(1e-13 * reference[k], floor), (k, average)


def test_consecutive_grid_snapshots_are_read_as_a_view():
    # the shipped config's trajectory and probe grids are one 256-interval
    # grid, whose steps are all the kept marks: both read a view of the stack.
    # An extra 255-interval grid interleaves its marks, so the same steps are
    # gathered as a copy; the results must not tell the two apart.
    fl = validate_config(json.loads(SHIPPED_DRIVE.read_text())).floquet
    grids = (fl.trajectory_points - 1, fl.probe.grid)
    viewed = bl.solve_floquet(fl.drive, steps=fl.steps, grids=grids)
    gathered = bl.solve_floquet(fl.drive, steps=fl.steps, grids=(*grids, 255))
    observable = fl.probe.observable or _default_probe_observable(fl.drive.dim)
    for grid in grids:
        view, offsets = floquet._on_grid(viewed, grid)
        copy, copy_offsets = floquet._on_grid(gathered, grid)
        assert np.shares_memory(view, viewed.snapshots) and not view.flags.writeable
        assert not np.shares_memory(copy, gathered.snapshots)
        assert np.array_equal(view, copy) and np.array_equal(offsets, copy_offsets)

    a = bl.mode_trajectory(viewed, fl.trajectory_points)
    b = bl.mode_trajectory(gathered, fl.trajectory_points)
    for name in ("times", "trajectories", "periodic_parts", "periodicity_residuals"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    probes = [
        bl.temporal_overlap_probe(
            solution, observable, pair=fl.probe.pair, periods=fl.probe.periods,
            grid_points=fl.probe.grid,
        )
        for solution in (viewed, gathered)
    ]
    assert probes[0] == probes[1]


def test_probe_rejects_bad_pairs(two_level_drive, two_level_solution):
    obs = bl.PeriodicObservableSpec(static=SX)
    with pytest.raises(ValueError, match="distinct"):
        bl.temporal_overlap_probe(two_level_solution, obs, pair=(1, 1))
    degenerate = bl.DriveSpec(h0=0.0 * SZ, omega=1.0)
    sol = bl.solve_floquet(degenerate, steps=128)
    with pytest.raises(ValueError, match="degenerate"):
        bl.temporal_overlap_probe(sol, obs, pair=(0, 1))


def test_monodromy_eigenrelation_and_mode_orthonormality(
    two_level_drive, two_level_solution
):
    sol = two_level_solution
    gram = sol.modes.conj().T @ sol.modes
    assert float(np.max(np.abs(gram - np.eye(2)))) < 1e-12
    for j in range(2):
        lam = np.exp(-1j * sol.quasienergies[j] * two_level_drive.period)
        residual = np.linalg.norm(sol.monodromy @ sol.modes[:, j] - lam * sol.modes[:, j])
        assert residual < 1e-9


def test_degenerate_monodromy_modes_stay_orthonormal():
    # a drive whose monodromy has a degenerate eigenphase pair: the Cayley
    # transform's eigh must still hand back an orthonormal mode set
    spec = bl.DriveSpec(h0=DEGENERATE_H0, omega=1.0)
    eps, modes = bl.quasienergies(
        bl.propagate_period(spec, steps=128).monodromy, omega=1.0
    )
    assert float(np.max(np.abs(modes.conj().T @ modes - np.eye(4)))) < 1e-12
    assert eps[1] == pytest.approx(eps[2], abs=1e-12)  # the two decoupled levels


def assert_matches_schur(u, omega):
    """quasienergies(U) against the complex Schur route, at preset tolerances."""
    eps, modes = bl.quasienergies(u, omega)
    ref_eps, ref_modes = schur_quasienergies(u, omega)
    assert float(np.max(np.abs(eps - ref_eps))) <= 1e-14 * omega
    assert float(np.max(np.abs(modes - ref_modes))) <= 1e-12
    assert float(np.max(np.abs(modes.conj().T @ modes - np.eye(len(eps))))) < 1e-13


@given(
    dim=st.sampled_from([2, 3, 8, 16]),
    seed=st.integers(0, 2**32 - 1),
    cluster=st.integers(1, 16),  # size of one degenerate eigenphase cluster
    omega=st.floats(0.5, 2.0),
)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_quasienergies_match_the_schur_route(dim, seed, cluster, omega):
    # U = Q diag(exp(i theta)) Q^H with a random unitary Q; distinct levels are
    # at least 0.05 rad apart, so no mode is ill-conditioned beyond 1e-14
    rng = np.random.default_rng(seed)
    cluster = min(cluster, dim)
    levels = dim - cluster + 1
    gaps = 0.05 + rng.dirichlet(np.ones(levels)) * (2.0 * np.pi - 0.05 * levels)
    theta = rng.uniform(-np.pi, np.pi) + np.cumsum(gaps)
    theta = np.concatenate((np.repeat(theta[:1], cluster - 1), theta))
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    assert_matches_schur((q * np.exp(1j * theta)) @ q.conj().T, omega)


@pytest.mark.parametrize(
    "h0",
    [
        0.2 * np.eye(3),  # a 3-fold cluster: U is a multiple of I
        DEGENERATE_H0,  # two decoupled levels
        np.diag([0.5, 0.1]),  # quasienergy 0.5 sits on the zone edge
        EDGE_PAIR_H0,  # a degenerate pair on the zone edge, folded to both ends
    ],
    ids=["scalar", "degenerate_pair", "zone_edge", "zone_edge_pair"],
)
def test_quasienergies_match_the_schur_route_on_degenerate_and_edge_drives(h0):
    spec = bl.DriveSpec(h0=np.asarray(h0, dtype=complex), omega=1.0)
    assert_matches_schur(bl.propagate_period(spec, steps=128).monodromy, 1.0)


def test_zone_edge_pair_gets_the_canonical_basis_whatever_eigh_returns(monkeypatch):
    # U = Q diag(exp(-i pi (1 -+ delta))) Q^dagger, a few ulps either side of
    # -I: one quasienergy folds to just above -hbar*omega/2 and the other to
    # just below +hbar*omega/2, so the pair straddles the zone edge by
    # construction.  On the circle they are one cluster, so the modes are its
    # canonical basis (e_0, e_1 in cluster order, which starts at
    # +hbar*omega/2), not eigh's basis.
    delta = 4 * np.finfo(float).eps
    phases = np.exp(-1j * np.pi * np.array([1.0 - delta, 1.0 + delta]))
    u = (EDGE_Q * phases) @ EDGE_Q.conj().T
    eps, modes = bl.quasienergies(u, omega=1.0)
    assert -0.5 < eps[0] < -0.5 + 1e-12 and 0.5 - 1e-12 < eps[1] < 0.5
    assert float(np.max(np.abs(modes - np.eye(2)[:, ::-1]))) < 1e-12

    eigh = np.linalg.eigh
    rotation = np.array([[np.cos(0.7), -1j * np.sin(0.7)], [-1j * np.sin(0.7), np.cos(0.7)]])

    def rotated(a):
        w, v = eigh(a)
        return w, v @ rotation

    monkeypatch.setattr(np.linalg, "eigh", rotated)
    rotated_eps, rotated_modes = bl.quasienergies(u, omega=1.0)
    assert np.array_equal(rotated_eps, eps)
    assert float(np.max(np.abs(rotated_modes - modes))) < 1e-12


def test_monodromy_eigensolve_failure_is_numerical(monkeypatch):
    def singular(_):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", singular)
    with pytest.raises(NumericalFailure, match="eigensolve"):
        bl.quasienergies(np.eye(2, dtype=complex), omega=1.0)


def test_monodromy_polynomial_commutes(two_level_solution):
    u = two_level_solution.monodromy
    obs = bl.monodromy_polynomial(u)
    assert float(np.max(np.abs(obs - obs.conj().T))) < 1e-12
    assert float(np.max(np.abs(obs @ u - u @ obs))) < 1e-12


def test_traceless_quasienergy_sum_vanishes():
    eps, _ = bl.quasienergies(
        bl.propagate_period(no_drive(0.3), steps=128).monodromy, omega=1.0
    )
    assert float(np.sum(eps)) == pytest.approx(0.0, abs=1e-10)


def test_periodic_observable_hermitian_at_all_times():
    obs = bl.PeriodicObservableSpec(
        static=SX, harmonics=(bl.DriveTerm(harmonic=2, kind="sin", matrix=0.4 * SZ),)
    )
    for t in np.linspace(0.0, 2 * np.pi, 17):
        o = obs.value(t, omega=1.0)
        assert float(np.max(np.abs(o - o.conj().T))) < 1e-12
        assert np.allclose(obs.value(t + 2 * np.pi, omega=1.0), o, atol=1e-12)
