"""The (sector, band, d) coefficient block against per-state reference loops.

The leakage table must equal the pairwise class loop bit for bit.  The
battery carries a periodicity-breaking member: on cell-periodic members every
cross-class entry is a literal 0.0, which no reshape or mirroring error could
change.
"""

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
    battery = bl.standard_battery(basis, seeds=5) + [
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


def test_wannier_mixture_residual_matches_per_state_loop(solved):
    spec, bands, battery = solved
    for band in range(2):
        band_states = [bands.state(l, band) for l in range(bands.sectors)]
        wanniers = np.array(
            [bl.wannier_state(band, cell, bands, spec) for cell in range(spec.cells)]
        )
        for op in battery:
            expected = max(state_mixture_residual(w, band_states, op) for w in wanniers)
            got = bl.wannier_mixture_residual(wanniers, bands.coeffs[:, band], op)
            assert abs(got - expected) < 1e-14
