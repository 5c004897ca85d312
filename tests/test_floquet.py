"""Monodromy, quasienergies, Sambe cross-validation and temporal probes."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blochlab as bl
from blochlab.errors import NumericalFailure
from conftest import random_hermitian

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


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
    sol = bl.solve_floquet(no_drive(0.3), steps=256)
    sol = bl.mode_trajectory(no_drive(0.3), sol, n_t=65)
    # eps equals the unfolded eigenvalue, so v(t) is constant
    spread = np.max(np.abs(sol.periodic_parts - sol.periodic_parts[:, :1, :]))
    assert spread < 1e-10
    assert np.max(sol.periodicity_residuals) < 1e-10


def test_mode_trajectory_driven_config(two_level_drive, two_level_solution):
    sol = bl.mode_trajectory(two_level_drive, two_level_solution, n_t=257)
    assert np.max(sol.periodicity_residuals) < 1e-8
    norms = np.linalg.norm(sol.trajectories, axis=2)
    assert np.max(np.abs(norms - 1.0)) < 1e-9


def test_floquet_expansion_reconstructs(two_level_drive, two_level_solution):
    coeffs = bl.floquet_expansion(two_level_solution.modes[:, 0], two_level_solution)
    assert np.allclose(coeffs, [1.0, 0.0], atol=1e-12)
    rng = np.random.default_rng(5)
    state = rng.normal(size=2) + 1j * rng.normal(size=2)
    state /= np.linalg.norm(state)
    c = bl.floquet_expansion(state, two_level_solution)
    assert np.sum(np.abs(c) ** 2) == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.norm(two_level_solution.modes @ c - state) < 1e-10


def test_expansion_coefficients_evolve_by_quasienergy_phase(
    two_level_drive, two_level_solution
):
    rng = np.random.default_rng(11)
    state = rng.normal(size=2) + 1j * rng.normal(size=2)
    state /= np.linalg.norm(state)
    c0 = bl.floquet_expansion(state, two_level_solution)
    u = two_level_solution.monodromy
    direct = u @ (u @ (u @ state))
    period = two_level_drive.period
    evolved = two_level_solution.modes @ (
        c0 * np.exp(-3j * two_level_solution.quasienergies * period)
    )
    assert np.linalg.norm(direct - evolved) < 1e-7


def test_probe_static_observable_no_drive():
    spec = no_drive(0.3)
    sol = bl.solve_floquet(spec, steps=256)
    probe = bl.temporal_overlap_probe(
        spec, sol, bl.PeriodicObservableSpec(static=SX), pair=(0, 1),
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
        two_level_drive, two_level_solution, obs, pair=(0, 1),
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


def test_probe_rejects_bad_pairs(two_level_drive, two_level_solution):
    obs = bl.PeriodicObservableSpec(static=SX)
    with pytest.raises(ValueError, match="distinct"):
        bl.temporal_overlap_probe(two_level_drive, two_level_solution, obs, pair=(1, 1))
    degenerate = bl.DriveSpec(h0=0.0 * SZ, omega=1.0)
    sol = bl.solve_floquet(degenerate, steps=128)
    with pytest.raises(ValueError, match="degenerate"):
        bl.temporal_overlap_probe(degenerate, sol, obs, pair=(0, 1))


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
    # a drive whose monodromy has a degenerate eigenphase pair: the complex
    # Schur route must still hand back an orthonormal mode set
    h0 = np.zeros((4, 4), dtype=complex)
    h0[0, 1] = h0[1, 0] = 0.25
    spec = bl.DriveSpec(h0=h0, omega=1.0)
    eps, modes = bl.quasienergies(
        bl.propagate_period(spec, steps=128).monodromy, omega=1.0
    )
    assert float(np.max(np.abs(modes.conj().T @ modes - np.eye(4)))) < 1e-12
    assert eps[1] == pytest.approx(eps[2], abs=1e-12)  # the two decoupled levels


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
