"""The (sector, band, d) coefficient block against per-state reference loops.

The leakage table must equal the pairwise class loop bit for bit.  The
battery carries a periodicity-breaking member: on cell-periodic members every
cross-class entry is a literal 0.0, which no reshape or mirroring error could
change.
"""

import itertools

import numpy as np
import pytest

import blochlab as bl
from conftest import every_state
from oracles import pairwise_leakage, state_mixture_residual

POTENTIAL = bl.PotentialSpec(harmonics=((1, 0.25 + 0.1j), (2, 0.1 - 0.05j)))
LATTICES = (
    bl.LatticeSpec(cells=3, cutoff=4),
    bl.LatticeSpec(cells=5, cutoff=7),
    bl.LatticeSpec(cells=7, cutoff=10),
    bl.LatticeSpec(cells=4, cutoff=4, pad_basis=True),
)


@pytest.fixture(scope="module", params=LATTICES, ids=lambda s: f"N{s.cells}_d{s.dim}")
def solved(request):
    spec = request.param
    basis = bl.build_basis(spec)
    bands = bl.solve_bands(bl.build_hamiltonian(spec, POTENTIAL), spec)
    battery = list(bl.Battery(basis, seeds=5)) + [
        bl.breaking_observable(1, basis),
        bl.breaking_observable(2, basis),
    ]
    return spec, bands, battery


def test_leakage_table_equals_pairwise_loop_bit_for_bit(solved):
    _, bands, battery = solved
    report = bl.sector_decomposition_report(bands, battery)
    expected = pairwise_leakage(every_state(bands), battery)
    assert np.array_equal(report.leakage, expected, equal_nan=True)
    # the breaking members light up the neighbouring classes, so the
    # comparison is not between two tables of zeros
    n = bands.sectors
    assert all(expected[l, (l + 1) % n] > 1e-6 for l in range(n))


def test_leakage_report_reads_a_generator_like_the_list(solved):
    # members built one at a time on demand give the same report bit for bit
    spec, bands, battery = solved
    basis = bl.build_basis(spec)
    streamed = itertools.chain(
        bl.Battery(basis, seeds=5), (bl.breaking_observable(s, basis) for s in (1, 2))
    )
    got = bl.sector_decomposition_report(bands, streamed)
    expected = bl.sector_decomposition_report(bands, battery)
    assert got.battery_labels == expected.battery_labels
    assert np.array_equal(got.leakage, expected.leakage, equal_nan=True)
    assert np.array_equal(got.within_sector, expected.within_sector)


def test_wannier_mixture_residual_matches_per_state_loop(solved):
    # one stacked call per member gives every band's residual; the breaking
    # members are not cell-periodic, so their residuals are far from zero and
    # the comparison is not between zeros
    spec, bands, battery = solved
    band_list = [0, 1]
    wanniers = np.array(
        [[bl.wannier_state(band, cell, bands, spec) for cell in range(spec.cells)] for band in band_list]
    )
    band_coeffs = bands.coeffs[:, band_list].transpose(1, 0, 2)
    for op in battery:
        got = bl.wannier_mixture_residual(wanniers, band_coeffs, op)
        assert got.shape == (len(band_list),)
        for i, band in enumerate(band_list):
            band_states = [bands.state(l, band) for l in range(bands.sectors)]
            expected = max(state_mixture_residual(w, band_states, op) for w in wanniers[i])
            assert abs(got[i] - expected) < 1e-14
            if op.label.startswith("breaking:"):
                assert expected > 1e-6, (op.label, band)


def test_within_sector_elements_match_matrix_element(solved):
    _, bands, battery = solved
    within = bl.sector_decomposition_report(bands, battery).within_sector
    assert within.shape == (bands.sectors, len(battery))
    for l in range(bands.sectors):
        for i, op in enumerate(battery):
            ref = bl.matrix_element(op, bands.state(l, 0), bands.state(l, 1)).magnitude
            if ref > 1e-12 * op.norm_max:
                assert abs(within[l, i] - ref) <= 1e-14 * ref
            else:  # a parity-forced zero: both values are rounding noise
                assert abs(within[l, i] - ref) <= 1e-15 * op.norm_max


def test_row_table_is_frozen_and_matches_class_rows(solved):
    spec, bands, _ = solved
    basis = bl.build_basis(spec)
    assert bands.rows.shape == (spec.cells, spec.dim // spec.cells)
    for l in range(spec.cells):
        assert np.array_equal(bands.rows[l], basis.class_rows(l))
        outside = np.setdiff1d(np.arange(spec.dim), bands.rows[l])
        assert not np.any(bands.coeffs[l][:, outside])
    with pytest.raises(ValueError):
        bands.rows[0, 0] = 1


def test_one_band_lattice_has_no_within_sector_elements():
    spec = bl.LatticeSpec(cells=3, cutoff=1)  # d = 3: one band per class
    bands = bl.solve_bands(bl.build_hamiltonian(spec, bl.PotentialSpec()), spec)
    battery = list(bl.Battery(bl.build_basis(spec), seeds=2, max_harmonic=0, named=()))
    report = bl.sector_decomposition_report(bands, battery)
    assert report.within_sector is None
    assert report.leakage.shape == (3, 3)
