"""Cross-sector matrix elements, fringe scans and mixture diagnostics."""

import numpy as np
import pytest

import blochlab as bl
from blochlab.config import validate_config
from blochlab.runner import run_scenario
from conftest import every_state
from oracles import (
    custom,
    dense,
    join,
    loop_breaking_observable,
    loop_observable,
    matrix_element,
    members,
    mixture_diagnostic,
    named,
    seeded,
)
from test_state_block_oracles import LATTICES, POTENTIAL

# frozen from a direct computation on the 0.5*cos lattice (cells=3, cutoff=4):
# distinguishability of the (band0, band1) pair at k=0 over the 25-member battery
MATHIEU_K0_DISTINGUISHABILITY = 0.3193521445398395


def test_identity_elements(mathieu_solution, lattice_n3):
    _, bands = mathieu_solution
    identity = named("identity", lattice_n3)
    same = matrix_element(identity, bands.dense(0, 0), bands.dense(0, 0))
    assert same == pytest.approx(1.0, abs=1e-12)
    other_band = matrix_element(identity, bands.dense(0, 0), bands.dense(0, 1))
    assert abs(other_band) < 1e-12


def test_cross_sector_elements_vanish_for_seeded_observable(
    mathieu_solution, lattice_n3
):
    _, bands = mathieu_solution
    op = seeded(7, lattice_n3)
    for low, high in ((0, 0), (0, 1), (2, 1)):
        element = matrix_element(op, bands.dense(0, low), bands.dense(1, high))
        assert abs(element) < 1e-12 * op.norm_max[0]


def test_superselection_invariant_full_battery(mathieu_solution, battery_n3):
    _, bands = mathieu_solution
    worst = 0.0
    for op in battery_n3:
        for bra_sector, _, bra in every_state(bands):
            for ket_sector, _, ket in every_state(bands):
                if bra_sector == ket_sector:
                    continue
                worst = max(worst, abs(matrix_element(op, bra, ket)) / op.norm_max[0])
    assert worst < 1e-12


def test_fringe_scan_flat_across_sectors(mathieu_solution, battery_n3):
    _, bands = mathieu_solution
    scan = bl.fringe_scan(battery_n3[1], bands.dense(0, 0), bands.dense(1, 0), 64)
    assert scan.amplitude < 1e-10


def test_fringe_scan_within_sector_matches_element(mathieu_solution, lattice_n3):
    _, bands = mathieu_solution
    a, b = bands.dense(1, 0), bands.dense(1, 1)
    op = named("cos_a", lattice_n3)
    element = matrix_element(op, a, b)
    assert abs(element) > 1e-4
    scan = bl.fringe_scan(op, a, b, 64)
    assert scan.amplitude == pytest.approx(2.0 * abs(element), rel=1e-2)
    # analytic shape: averages = const + |c| cos(lambda + arg c)
    (matrix,) = dense(op)
    expected = (
        np.real(a.conj() @ matrix @ a)
        + np.real(b.conj() @ matrix @ b)
        + 2.0 * abs(element) * np.cos(scan.phases + np.angle(element))
    ) / 2.0
    assert np.allclose(scan.averages, expected, atol=1e-12)


def test_fringe_scan_same_state_is_constant(mathieu_solution, lattice_n3):
    _, bands = mathieu_solution
    a = bands.dense(1, 0)
    op = named("momentum", lattice_n3)
    scan = bl.fringe_scan(op, a, a, 9)  # odd grid avoids lambda = pi
    level = float(np.real(a.conj() @ dense(op)[0] @ a))
    assert np.allclose(scan.averages, level, atol=1e-12)
    with pytest.raises(ValueError, match="degenerate"):
        bl.fringe_scan(op, a, a, 8)  # even grid hits the anti-parallel point


@pytest.mark.parametrize("spec", LATTICES, ids=lambda spec: f"N{spec.cells}_d{spec.dim}")
def test_scans_read_on_the_support_match_the_dense_reference(spec):
    # the cross, within-class and breaker scans of the superselect run, each
    # against <v|O|v> / <v|v> of the dense superposition and the loop-built O
    bands = bl.solve_bands(bl.build_hamiltonian(spec, POTENTIAL), spec)
    cos_a = bl.observables._NAMED_SPECS["cos_a"]
    scans = {
        "cross": (named("cos_a", spec), loop_observable(cos_a, spec), (0, 0), (1, 0)),
        "within": (named("cos_a", spec), loop_observable(cos_a, spec), (0, 0), (0, 1)),
        "breaker": (
            bl.breaking_observable(1, spec), loop_breaking_observable(1, spec), (0, 0), (1, 0)
        ),
    }
    for name, (op, matrix, first, second) in scans.items():
        a, b = bands.dense(*first), bands.dense(*second)
        scan = bl.fringe_scan(op, a, b, 64)
        v = a + np.exp(1j * scan.phases)[:, None] * b  # one dense superposition per row
        reference = np.einsum("pi,ij,pj->p", v.conj(), matrix, v).real / (np.abs(v) ** 2).sum(1)
        assert np.abs(scan.averages - reference).max() <= 1e-13 * op.norm_max[0], name


def test_fringe_scan_needs_enough_points(mathieu_solution, battery_n3):
    _, bands = mathieu_solution
    with pytest.raises(ValueError, match="phase points"):
        bl.fringe_scan(battery_n3[0], bands.dense(0, 0), bands.dense(1, 0), 4)
    with pytest.raises(ValueError):  # a scan measures one member
        bl.fringe_scan(join(battery_n3[:2]), bands.dense(0, 0), bands.dense(1, 0), 64)


def test_breaking_observable_restores_cross_sector_fringes(
    mathieu_solution, lattice_n3
):
    _, bands = mathieu_solution
    op = bl.breaking_observable(1, lattice_n3)
    assert abs(matrix_element(op, bands.dense(0, 0), bands.dense(1, 0))) > 1e-6
    scan = bl.fringe_scan(op, bands.dense(0, 0), bands.dense(1, 0), 64)
    assert scan.amplitude > 1e-6


def test_free_particle_breaking_ground_pair_element(free_solution, lattice_n3):
    _, bands = free_solution
    breaker = bl.breaking_observable(1, lattice_n3)
    element = matrix_element(breaker, bands.dense(0, 0), bands.dense(1, 0))
    assert abs(element) == pytest.approx(1.0, abs=1e-12)


def test_mixture_cross_sector_is_indistinguishable(mathieu_solution, battery_n3):
    _, bands = mathieu_solution
    diag = mixture_diagnostic(bands.dense(0, 0), bands.dense(1, 0), battery_n3)
    assert diag.distinguishability < 1e-10
    assert np.trace(diag.rho_superposition).real == pytest.approx(1.0, abs=1e-12)
    assert np.trace(diag.rho_mixture).real == pytest.approx(1.0, abs=1e-12)


def test_mixture_within_sector_is_distinguishable(mathieu_solution, battery_n3):
    _, bands = mathieu_solution
    diag = mixture_diagnostic(bands.dense(0, 0), bands.dense(0, 1), battery_n3)
    assert diag.distinguishability > 1e-4
    assert diag.distinguishability == pytest.approx(
        MATHIEU_K0_DISTINGUISHABILITY, rel=1e-9
    )


def test_mixture_identity_battery_cannot_distinguish(mathieu_solution, lattice_n3):
    _, bands = mathieu_solution
    identity = named("identity", lattice_n3)
    diag = mixture_diagnostic(bands.dense(0, 0), bands.dense(2, 1), [identity])
    assert diag.distinguishability < 1e-14


def test_mixture_rejects_non_orthogonal_states(mathieu_solution, battery_n3):
    _, bands = mathieu_solution
    a = bands.dense(0, 0)
    with pytest.raises(ValueError, match="orthogonal"):
        mixture_diagnostic(a, a, battery_n3)


def test_sector_decomposition_structurally_clean(free_solution, battery_n3):
    _, bands = free_solution
    report = bl.sector_decomposition_report(bands, [join(battery_n3)])
    assert report.leakage.shape == (3, 3)
    # class_coupling writes no entry within a class: the diagonal stays 0
    assert not np.diag(report.leakage).any()
    assert report.max_offdiagonal < 1e-12
    # no entry is dropped from the maximum, so a NaN reaches it
    leaked = report.leakage.copy()
    leaked[0, 1] = np.nan
    assert np.isnan(bl.SectorDecompositionReport(leaked, report.battery_labels).max_offdiagonal)


def test_sector_decomposition_lights_up_with_breaking_member(
    free_solution, battery_n3, lattice_n3
):
    _, bands = free_solution
    extended = battery_n3 + [bl.breaking_observable(1, lattice_n3)]
    report = bl.sector_decomposition_report(bands, [join(extended)])
    for pair in ((0, 1), (1, 2), (2, 0)):
        assert report.leakage[pair] > 1e-6


def test_wannier_expectation_equals_band_average(
    mathieu_solution, battery_n3, lattice_n3
):
    _, bands = mathieu_solution
    wanniers = np.array(
        [[bl.wannier_state(band, cell, bands, lattice_n3) for cell in range(3)] for band in (0, 1)]
    )
    band_blocks = bands.blocks[:, [0, 1]].swapaxes(0, 1)
    table = join(battery_n3)
    residuals = bl.wannier_mixture_residual(wanniers, band_blocks, bands.rows, [table])
    assert residuals.shape == (len(battery_n3), 2)
    assert np.all(residuals < 1e-10)


def test_wannier_residual_is_relative_to_the_member_scale(mathieu_solution, lattice_n3):
    # both sides of the identity round relative to ||O||_max, so a member
    # scaled by 1e8 must pass the 1e-10 check as the unscaled one does
    _, bands = mathieu_solution
    wanniers = np.array([[bl.wannier_state(0, cell, bands, lattice_n3) for cell in range(3)]])
    band_blocks = bands.blocks[:, [0]].swapaxes(0, 1)
    term = bl.ObservableTerm(f_harmonics=((1, 0.3e8 - 0.2e8j),), p_poly=(1.0, 0.5))
    table = custom(bl.ObservableSpec(terms=(term,)), lattice_n3)
    (residual,) = bl.wannier_mixture_residual(wanniers, band_blocks, bands.rows, [table])
    assert table.norm_max[0] > 1e7 and residual[0] < 1e-10


def test_wannier_residual_reads_a_stream_of_tables(mathieu_solution, battery_n3, lattice_n3):
    # one row per member in stream order, each the residual of its table alone
    _, bands = mathieu_solution
    wanniers = np.array([[bl.wannier_state(0, cell, bands, lattice_n3) for cell in range(3)]])
    band_blocks = bands.blocks[:, [0]].swapaxes(0, 1)
    stream = bl.wannier_mixture_residual(wanniers, band_blocks, bands.rows, iter(battery_n3))
    alone = [bl.wannier_mixture_residual(wanniers, band_blocks, bands.rows, [op]) for op in battery_n3]
    assert stream.shape == (len(battery_n3), 1)
    assert stream.tobytes() == np.concatenate(alone).tobytes()


def test_superselection_survives_on_padded_even_lattice():
    # even cell counts use the asymmetric padded basis; the block structure
    # and the cross-sector zeros must be just as exact there
    spec = bl.LatticeSpec(cells=4, cutoff=4, pad_basis=True)
    h = bl.build_hamiltonian(spec, bl.PotentialSpec(harmonics=((1, 0.25),)))
    bands = bl.solve_bands(h, spec)
    (table,) = bl.Battery(spec, seeds=10).tables()
    report = bl.sector_decomposition_report(bands, [table])
    assert report.leakage.shape == (4, 4)
    assert report.max_offdiagonal < 1e-12
    a, b = bands.dense(1, 0), bands.dense(1, 1)
    best = max(abs(matrix_element(op, a, b)) for op in members(bl.Battery(spec, seeds=10)))
    assert best > 1e-4


def test_every_adjacent_band_pair_has_coherence(mathieu_solution, battery_n3):
    # within-sector coherence is real for all adjacent bands, not just 0-1
    _, bands = mathieu_solution
    for sector in range(3):
        for low, high in ((0, 1), (1, 2)):
            best = max(
                abs(matrix_element(op, bands.dense(sector, low), bands.dense(sector, high)))
                for op in battery_n3
            )
            assert best > 1e-4, (sector, low, high)


@pytest.mark.parametrize("beta", [np.pi / 7, np.pi / 3, 1.0])
def test_phase_redefinition_covariance(mathieu_solution, lattice_n3, beta):
    # rotating the ket by e^{i beta} shifts the element's argument by +beta
    # (the bra side, being conjugate-linear, shifts it by -beta); magnitudes
    # never move
    _, bands = mathieu_solution
    a, b = bands.dense(1, 0), bands.dense(1, 1)
    op = named("cos_a", lattice_n3)
    base = matrix_element(op, a, b)

    ket_shift = matrix_element(op, a, np.exp(1j * beta) * b)
    bra_shift = matrix_element(op, np.exp(1j * beta) * a, b)
    wrap = lambda x: (x + np.pi) % (2 * np.pi) - np.pi
    assert wrap(np.angle(ket_shift) - np.angle(base)) == pytest.approx(beta, abs=1e-12)
    assert wrap(np.angle(bra_shift) - np.angle(base)) == pytest.approx(-beta, abs=1e-12)
    assert abs(ket_shift) == pytest.approx(abs(base), abs=1e-14)
    assert abs(bra_shift) == pytest.approx(abs(base), abs=1e-14)


def test_superselect_run_reads_no_operator_dense(monkeypatch):
    # N = 15, d = 495 with the default battery: every member is cell-periodic,
    # so no cross block is formed; H's class blocks and the battery's class
    # form read the class-row diagonals, once each
    read_on_rows = []
    class_diagonals = bl.OperatorTable.class_diagonals

    def recording(self, rows):
        read_on_rows.append(self.labels)
        return class_diagonals(self, rows)

    monkeypatch.setattr(bl.OperatorTable, "class_diagonals", recording)
    cfg = validate_config(
        {
            "kind": "superselect",
            "lattice": {"cells": 15, "cutoff": 247},
            "potential": {"harmonics": [{"j": 1, "re": 0.2, "im": 0.1}]},
            "negative_control": {"s": 1},
        }
    )
    report = run_scenario(cfg)
    assert report["passed"], report["checks"]
    assert read_on_rows == [("hamiltonian",), tuple(report["results"]["battery"])]
