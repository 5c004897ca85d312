"""Band solver, cell-periodic parts, winding numbers and Wannier states."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blochlab as bl
from blochlab.bloch import PIVOT_RTOL, _canonical_eigenbasis
from blochlab.observables import Lcg
from conftest import every_state
from oracles import dense, fd_ring_energies, row_of

# measured once against the 2048-point oracle: with cutoff M=4 the plane-wave
# truncation floor on the lowest three bands sits at ~1.5e-4 relative (the
# band-1 states at |q| = 4pi/3 lose their coupling to the |m| = 5 shell)
M4_TRUNCATION_FLOOR = (1e-4, 2e-4)


def test_free_particle_band_heads(free_solution):
    _, structure = free_solution
    assert structure.bands == 3  # D/N = 9/3
    assert structure.energies[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert structure.energies[1, 0] == pytest.approx((2 * np.pi / 3) ** 2 / 2, rel=1e-12)
    assert structure.energies[2, 0] == pytest.approx((2 * np.pi / 3) ** 2 / 2, rel=1e-12)


def test_free_particle_closed_form(lattice_n3, free_solution):
    # every energy must be some hbar^2 q_m^2 / (2 mass), essentially exactly
    _, structure = free_solution
    for sector in range(3):
        kinetic = np.sort(lattice_n3.momenta[lattice_n3.class_rows[sector]] ** 2 / 2.0)
        assert np.max(np.abs(structure.energies[sector] - kinetic)) < 1e-12


@pytest.fixture(scope="module")
def fd_oracle_energies(lattice_n3, mathieu_potential):
    return fd_ring_energies(lattice_n3, mathieu_potential, points=2048, count=9)


def test_band_energies_match_real_space_oracle_when_converged(
    mathieu_potential, fd_oracle_energies
):
    # cutoff 13 leaves plane-wave truncation far below the comparison scale
    spec = bl.LatticeSpec(cells=3, cutoff=13)
    structure = bl.solve_bands(bl.build_hamiltonian(spec, mathieu_potential), spec)
    lowest = np.sort(structure.energies.ravel())[:9]
    rel = np.abs(lowest - fd_oracle_energies) / np.abs(fd_oracle_energies)
    assert float(np.max(rel)) < 1e-6


def test_m4_truncation_floor_against_oracle(mathieu_solution, fd_oracle_energies):
    # regression guard: at M=4 the same comparison is limited by basis
    # truncation, not by the solver; the floor was measured and frozen
    _, structure = mathieu_solution
    lowest = np.sort(structure.energies.ravel())
    rel = float(np.max(np.abs(lowest - fd_oracle_energies) / np.abs(fd_oracle_energies)))
    assert M4_TRUNCATION_FLOOR[0] < rel < M4_TRUNCATION_FLOOR[1]


def test_simultaneous_eigenvector_property(lattice_n3, mathieu_solution):
    h, bands = mathieu_solution
    t = np.diag(bl.build_translation(lattice_n3))
    for l, n, psi in every_state(bands):
        energy = bands.energies[l, n]
        assert np.linalg.norm(dense(h)[0] @ psi - energy * psi) < 1e-9 * h.norm_max[0]
        phase = np.exp(1j * bands.k_values[l] * lattice_n3.a)
        assert np.linalg.norm(t @ psi - phase * psi) < 1e-10


def test_states_form_orthonormal_set(mathieu_solution):
    _, bands = mathieu_solution
    psi = np.column_stack([v for _, _, v in every_state(bands)])
    gram = psi.conj().T @ psi
    assert float(np.max(np.abs(gram - np.eye(psi.shape[1])))) < 1e-10


def test_solver_is_bitwise_deterministic(lattice_n3, mathieu_potential):
    h = bl.build_hamiltonian(lattice_n3, mathieu_potential)
    first = bl.solve_bands(h, lattice_n3)
    second = bl.solve_bands(h, lattice_n3)
    assert np.array_equal(first.coeffs, second.coeffs)
    assert np.array_equal(first.energies, second.energies)


def test_gauge_fixing_makes_dominant_coefficient_real_positive(free_solution):
    _, bands = free_solution
    for _, _, psi in every_state(bands):
        pivot = psi[np.argmax(np.abs(psi))]
        assert pivot.imag == pytest.approx(0.0, abs=1e-14)
        assert pivot.real > 0.0


def test_gauge_pivot_is_the_first_of_entries_tied_to_rounding():
    # (1, -i)/sqrt(2): a tie in magnitude, as symmetry makes them; whichever
    # entry rounding makes a few ulps larger, the first one is the pivot
    tied = np.array([1.0, -1.0j]) / np.sqrt(2.0)
    for bumped in (0, 1):
        v = tied.copy()
        v[bumped] *= 1.0 + 4.0 * np.finfo(float).eps
        out = _canonical_eigenbasis(np.zeros(1), v[:, None])[:, 0]
        assert abs(out[0].imag) < 1e-15 and out[0].real > 0.0
    # beyond PIVOT_RTOL the larger entry is the pivot
    v = tied * np.array([1.0, 1.0 + 100.0 * PIVOT_RTOL])
    out = _canonical_eigenbasis(np.zeros(1), v[:, None])[:, 0]
    assert abs(out[1].imag) < 1e-15 and out[1].real > 0.0


def test_cluster_gauge_does_not_depend_on_the_basis_the_cluster_comes_in():
    # the gauge reads a cluster through its projector alone, so a basis turned
    # by a random unitary U gives the same vectors to rounding, orthonormal and
    # spanning the cluster.  No reference of the same arithmetic is involved.
    # Measured over these 200 clusters (sizes 2-4, d = 8-63): at most 5.0e-16
    # apart, 8.9e-16 from orthonormal, 5.6e-16 from the cluster's projector
    rng = np.random.default_rng(30)
    for _ in range(200):
        size, dim = int(rng.integers(2, 5)), int(rng.integers(8, 64))
        basis, _ = np.linalg.qr(rng.normal(size=(dim, size)) + 1j * rng.normal(size=(dim, size)))
        turn, _ = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
        got = _canonical_eigenbasis(np.zeros(size), basis)
        assert np.max(np.abs(_canonical_eigenbasis(np.zeros(size), basis @ turn) - got)) < 1e-14
        assert np.max(np.abs(got.conj().T @ got - np.eye(size))) < 1e-14
        assert np.max(np.abs(got @ got.conj().T - basis @ basis.conj().T)) < 1e-14


def test_cluster_of_lower_rank_than_its_size_is_a_numerical_failure():
    # a zero column spans nothing: after the first pick the projector's
    # column is rounding, and the re-span refuses it rather than normalize it
    v = np.array([0.6, 0.8j, 0.0])
    with pytest.raises(bl.NumericalFailure, match="lost rank"):
        _canonical_eigenbasis(np.zeros(2), np.column_stack([v, np.zeros(3)]))


def test_degenerate_free_pair_resolved_by_plane_wave_pivot(free_solution, lattice_n3):
    # class 0 bands 1 and 2 are degenerate at |m| = 3; the canonical basis
    # pins them to the m = -3 and m = +3 axes, in that order
    _, bands = free_solution
    b1, b2 = bands.dense(0, 1), bands.dense(0, 2)
    assert abs(b1[row_of(lattice_n3, -3)]) == pytest.approx(1.0, abs=1e-12)
    assert abs(b2[row_of(lattice_n3, 3)]) == pytest.approx(1.0, abs=1e-12)


def test_solver_rejects_class_coupling_operator(lattice_n3):
    broken = bl.breaking_observable(1, lattice_n3)
    with pytest.raises(bl.InvariantViolation, match="couples"):
        bl.solve_bands(broken, lattice_n3)


# --- winding numbers --------------------------------------------------------


def test_winding_of_translation_eigenphase_factors():
    assert bl.winding_number(bl.ring_phase_samples(0, 64)) == 0
    assert bl.winding_number(bl.ring_phase_samples(2, 64)) == 2  # k_2 on N=5 ring
    assert bl.winding_number(bl.ring_phase_samples(-3, 64)) == -3


def test_winding_additivity_of_products():
    f = bl.ring_phase_samples(1, 64)
    g = bl.ring_phase_samples(2, 64)
    assert bl.winding_number(f * g) == 3


def test_winding_guards():
    samples = bl.ring_phase_samples(1, 64).copy()
    samples[5] = 0.1
    with pytest.raises(ValueError, match="degenerate"):
        bl.winding_number(samples)
    with pytest.raises(ValueError, match="coarse"):
        bl.winding_number(bl.ring_phase_samples(5, 16))  # steps hit pi/2 exactly
    with pytest.raises(ValueError):
        bl.winding_number(bl.ring_phase_samples(1, 4))


@given(
    l1=st.integers(min_value=-6, max_value=6),
    l2=st.integers(min_value=-6, max_value=6),
    wobble=st.floats(min_value=0.0, max_value=0.3),
)
@settings(max_examples=60, deadline=None)
def test_winding_additivity_with_smooth_modulation(l1, l2, wobble):
    p = np.arange(256) / 256.0
    f = np.exp(1j * (2 * np.pi * l1 * p + wobble * np.sin(2 * np.pi * p)))
    g = np.exp(1j * (2 * np.pi * l2 * p - wobble * np.cos(2 * np.pi * p)))
    assert bl.winding_number(f) == l1
    assert bl.winding_number(g) == l2
    assert bl.winding_number(f * g) == l1 + l2


# --- Wannier states ---------------------------------------------------------


def test_wannier_free_band0_is_equal_weight_combination(
    lattice_n3, free_solution
):
    # direct-summation oracle: band 0 states are the phase-fixed plane waves
    # m = 0, 1, -1, so w at home cell 0 weights them equally
    _, bands = free_solution
    w = bl.wannier_state(0, 0, bands, lattice_n3)
    expected = np.zeros(9, dtype=complex)
    for m in (0, 1, -1):
        expected[row_of(lattice_n3, m)] = 1.0 / np.sqrt(3.0)
    assert np.allclose(w, expected, atol=1e-12)


def test_wannier_unit_norm(mathieu_solution, lattice_n3):
    _, bands = mathieu_solution
    for band in (0, 1):
        for cell in range(3):
            w = bl.wannier_state(band, cell, bands, lattice_n3)
            assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)


def test_wannier_translation_covariance(mathieu_solution, lattice_n3):
    # the translation that moves wavepackets forward by one cell is the
    # adjoint of build_translation's T (which shifts arguments by +a), so
    # T^dagger advances the home cell and T itself lowers it
    _, bands = mathieu_solution
    t = np.diag(bl.build_translation(lattice_n3))
    w0 = bl.wannier_state(0, 0, bands, lattice_n3)
    w1 = bl.wannier_state(0, 1, bands, lattice_n3)
    w2 = bl.wannier_state(0, 2, bands, lattice_n3)
    assert np.linalg.norm(t.conj().T @ w0 - w1) < 1e-10
    assert np.linalg.norm(t @ w0 - w2) < 1e-10  # r-1 mod 3 = 2


def test_wannier_direct_summation_oracle(mathieu_solution, lattice_n3):
    _, bands = mathieu_solution
    r = 2
    expected = sum(
        np.exp(-1j * bands.k_values[l] * r * lattice_n3.a) * bands.dense(l, 1)
        for l in range(3)
    ) / np.sqrt(3.0)
    assert np.allclose(bl.wannier_state(1, r, bands, lattice_n3), expected, atol=1e-15)


def test_wannier_states_broadcast_their_indices(mathieu_solution, lattice_n3):
    # band and home cell broadcast as in BandStructure.dense: the stack holds
    # the scalar calls' vectors, bit for bit
    _, bands = mathieu_solution
    band_index, cells = np.array([[1], [0]]), np.array([2, 0, 1])
    stacked = bl.wannier_state(band_index, cells, bands, lattice_n3)
    assert stacked.shape == (2, 3, lattice_n3.dim)
    for i, band in enumerate((1, 0)):
        for j, cell in enumerate((2, 0, 1)):
            alone = bl.wannier_state(band, cell, bands, lattice_n3)
            assert alone.shape == (lattice_n3.dim,)
            assert stacked[i, j].tobytes() == alone.tobytes(), (band, cell)


def test_lcg_stream_is_stable():
    # documented generator: first draws from seed 1 are fixed for all time
    rng = Lcg(1)
    first = [rng.uniform() for _ in range(3)]
    rng2 = Lcg(1)
    assert first == [rng2.uniform() for _ in range(3)]
    assert Lcg(1).next_uint() != Lcg(2).next_uint()
