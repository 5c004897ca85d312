"""Cross-sector matrix elements, fringe scans and mixture diagnostics."""

import numpy as np
import pytest

import blochlab as bl
from conftest import every_state

# frozen from a direct computation on the 0.5*cos lattice (cells=3, cutoff=4):
# distinguishability of the (band0, band1) pair at k=0 over the 25-member battery
MATHIEU_K0_DISTINGUISHABILITY = 0.3193521445398395


def test_identity_elements(mathieu_solution, basis_n3):
    _, bands = mathieu_solution
    identity = bl.named_observables(basis_n3)["identity"]
    same = bl.matrix_element(identity, bands.state(0, 0), bands.state(0, 0))
    assert same.value == pytest.approx(1.0, abs=1e-12)
    other_band = bl.matrix_element(identity, bands.state(0, 0), bands.state(0, 1))
    assert other_band.magnitude < 1e-12


def test_cross_sector_elements_vanish_for_seeded_observable(
    mathieu_solution, basis_n3
):
    _, bands = mathieu_solution
    op = bl.random_cell_periodic(7, basis_n3)
    for low, high in ((0, 0), (0, 1), (2, 1)):
        rec = bl.matrix_element(op, bands.state(0, low), bands.state(1, high))
        assert rec.magnitude < 1e-12 * op.norm_max


def test_superselection_invariant_full_battery(mathieu_solution, battery_n3):
    _, bands = mathieu_solution
    worst = 0.0
    for op in battery_n3:
        for bra in every_state(bands):
            for ket in every_state(bands):
                if bra.sector == ket.sector:
                    continue
                worst = max(worst, bl.matrix_element(op, bra, ket).magnitude / op.norm_max)
    assert worst < 1e-12


def test_fringe_scan_flat_across_sectors(mathieu_solution, battery_n3):
    _, bands = mathieu_solution
    scan = bl.fringe_scan(battery_n3[1], bands.state(0, 0), bands.state(1, 0), 64)
    assert scan.amplitude < 1e-10


def test_fringe_scan_within_sector_matches_element(mathieu_solution, basis_n3):
    _, bands = mathieu_solution
    a, b = bands.state(1, 0), bands.state(1, 1)
    op = bl.named_observables(basis_n3)["cos_a"]
    element = bl.matrix_element(op, a, b)
    assert element.magnitude > 1e-4
    scan = bl.fringe_scan(op, a, b, 64)
    assert scan.amplitude == pytest.approx(2.0 * element.magnitude, rel=1e-2)
    # analytic shape: averages = const + |c| cos(lambda + arg c)
    expected = (
        np.real(a.coeffs.conj() @ op.matrix @ a.coeffs)
        + np.real(b.coeffs.conj() @ op.matrix @ b.coeffs)
        + 2.0 * element.magnitude * np.cos(scan.phases + np.angle(element.value))
    ) / 2.0
    assert np.allclose(scan.averages, expected, atol=1e-12)


def test_fringe_scan_same_state_is_constant(mathieu_solution, basis_n3):
    _, bands = mathieu_solution
    a = bands.state(1, 0)
    op = bl.named_observables(basis_n3)["momentum"]
    scan = bl.fringe_scan(op, a, a, 9)  # odd grid avoids lambda = pi
    level = float(np.real(a.coeffs.conj() @ op.matrix @ a.coeffs))
    assert np.allclose(scan.averages, level, atol=1e-12)
    with pytest.raises(ValueError, match="degenerate"):
        bl.fringe_scan(op, a, a, 8)  # even grid hits the anti-parallel point


def test_fringe_scan_needs_enough_points(mathieu_solution, battery_n3):
    _, bands = mathieu_solution
    with pytest.raises(ValueError, match="phase points"):
        bl.fringe_scan(battery_n3[0], bands.state(0, 0), bands.state(1, 0), 4)


def test_breaking_observable_restores_cross_sector_fringes(
    mathieu_solution, basis_n3
):
    _, bands = mathieu_solution
    op = bl.breaking_observable(1, basis_n3)
    rec = bl.matrix_element(op, bands.state(0, 0), bands.state(1, 0))
    assert rec.magnitude > 1e-6
    scan = bl.fringe_scan(op, bands.state(0, 0), bands.state(1, 0), 64)
    assert scan.amplitude > 1e-6


def test_free_particle_breaking_ground_pair_element(free_solution, basis_n3):
    _, bands = free_solution
    rec = bl.matrix_element(bl.breaking_observable(1, basis_n3), bands.state(0, 0), bands.state(1, 0))
    assert rec.magnitude == pytest.approx(1.0, abs=1e-12)


def test_mixture_cross_sector_is_indistinguishable(mathieu_solution, battery_n3):
    _, bands = mathieu_solution
    diag = bl.mixture_diagnostic(bands.state(0, 0), bands.state(1, 0), battery_n3)
    assert diag.distinguishability < 1e-10
    assert np.trace(diag.rho_superposition).real == pytest.approx(1.0, abs=1e-12)
    assert np.trace(diag.rho_mixture).real == pytest.approx(1.0, abs=1e-12)


def test_mixture_within_sector_is_distinguishable(mathieu_solution, battery_n3):
    _, bands = mathieu_solution
    diag = bl.mixture_diagnostic(bands.state(0, 0), bands.state(0, 1), battery_n3)
    assert diag.distinguishability > 1e-4
    assert diag.distinguishability == pytest.approx(
        MATHIEU_K0_DISTINGUISHABILITY, rel=1e-9
    )


def test_mixture_identity_battery_cannot_distinguish(mathieu_solution, basis_n3):
    _, bands = mathieu_solution
    identity = bl.named_observables(basis_n3)["identity"]
    diag = bl.mixture_diagnostic(bands.state(0, 0), bands.state(2, 1), [identity])
    assert diag.distinguishability < 1e-14


def test_mixture_rejects_non_orthogonal_states(mathieu_solution, battery_n3):
    _, bands = mathieu_solution
    a = bands.state(0, 0)
    with pytest.raises(ValueError, match="orthogonal"):
        bl.mixture_diagnostic(a, a, battery_n3)


def test_sector_decomposition_structurally_clean(free_solution, battery_n3):
    _, bands = free_solution
    report = bl.sector_decomposition_report(bands, battery_n3)
    assert report.leakage.shape == (3, 3)
    assert np.all(np.isnan(np.diag(report.leakage)))
    assert report.max_offdiagonal < 1e-12


def test_sector_decomposition_lights_up_with_breaking_member(
    free_solution, battery_n3, basis_n3
):
    _, bands = free_solution
    extended = battery_n3 + [bl.breaking_observable(1, basis_n3)]
    report = bl.sector_decomposition_report(bands, extended)
    for pair in ((0, 1), (1, 2), (2, 0)):
        assert report.leakage[pair] > 1e-6


def test_wannier_expectation_equals_band_average(
    mathieu_solution, battery_n3, lattice_n3
):
    _, bands = mathieu_solution
    for band in (0, 1):
        wanniers = np.array([bl.wannier_state(band, cell, bands, lattice_n3) for cell in range(3)])
        for op in battery_n3:
            assert bl.wannier_mixture_residual(wanniers, bands.coeffs[:, band], op) < 1e-10


def test_superselection_survives_on_padded_even_lattice():
    # even cell counts use the asymmetric padded basis; the block structure
    # and the cross-sector zeros must be just as exact there
    spec = bl.LatticeSpec(cells=4, cutoff=4, pad_basis=True)
    basis = bl.build_basis(spec)
    h = bl.build_hamiltonian(spec, bl.PotentialSpec.from_cosines([(1, 0.5)]))
    bands = bl.solve_bands(h, spec)
    battery = bl.standard_battery(basis, seeds=10)
    report = bl.sector_decomposition_report(bands, battery)
    assert report.leakage.shape == (4, 4)
    assert report.max_offdiagonal < 1e-12
    best = max(bl.matrix_element(op, bands.state(1, 0), bands.state(1, 1)).magnitude for op in battery)
    assert best > 1e-4


def test_every_adjacent_band_pair_has_coherence(mathieu_solution, battery_n3):
    # within-sector coherence is real for all adjacent bands, not just 0-1
    _, bands = mathieu_solution
    for sector in range(3):
        for low, high in ((0, 1), (1, 2)):
            best = max(
                bl.matrix_element(op, bands.state(sector, low), bands.state(sector, high)).magnitude
                for op in battery_n3
            )
            assert best > 1e-4, (sector, low, high)


@pytest.mark.parametrize("beta", [np.pi / 7, np.pi / 3, 1.0])
def test_phase_redefinition_covariance(mathieu_solution, basis_n3, beta):
    # rotating the ket by e^{i beta} shifts the element's argument by +beta
    # (the bra side, being conjugate-linear, shifts it by -beta); magnitudes
    # never move
    _, bands = mathieu_solution
    a, b = bands.state(1, 0), bands.state(1, 1)
    op = bl.named_observables(basis_n3)["cos_a"]
    base = bl.matrix_element(op, a, b)

    def rotated(state, phase):
        return bl.BlochState(
            band=state.band, sector=state.sector, wavevector=state.wavevector,
            energy=state.energy, coeffs=np.exp(1j * phase) * state.coeffs,
        )

    ket_shift = bl.matrix_element(op, a, rotated(b, beta))
    bra_shift = bl.matrix_element(op, rotated(a, beta), b)
    wrap = lambda x: (x + np.pi) % (2 * np.pi) - np.pi
    assert wrap(np.angle(ket_shift.value) - np.angle(base.value)) == pytest.approx(
        beta, abs=1e-12
    )
    assert wrap(np.angle(bra_shift.value) - np.angle(base.value)) == pytest.approx(
        -beta, abs=1e-12
    )
    assert ket_shift.magnitude == pytest.approx(base.magnitude, abs=1e-14)
    assert bra_shift.magnitude == pytest.approx(base.magnitude, abs=1e-14)
