"""Metamorphic relations of the band structure: symmetries the paper's argument uses.

A symmetry relation needs no oracle: it compares two runs of the lab, so it
holds for any lattice and potential, and hypothesis draws them.  The
lattices are unpadded (N odd, d = 2M + 1 = N b with b odd) up to the
dimension cap; each potential is v0 plus one to three complex harmonics, so
it has no mirror symmetry.  Energies are compared class by class and band
by band, within 1e-12 of max(1, max |E|).

- Time reversal.  V is real, so H commutes with complex conjugation, which
  maps plane wave m to -m and class l to -l mod N: E_n(k_l) = E_n(k_{-l}).
  ``solve_bands`` uses this relation itself (classes 0..N//2 are solved, the
  rest are filled by it), so a run compared with itself shows nothing.  The
  test takes two routes: the half-zone solve, against a solve of every
  class on its own (``OperatorTable.independent_classes`` patched to N), read
  at -l.  Caught mutation: a flux through the ring, the kinetic term of
  ``lattice.build_hamiltonian`` built from q_m + 0.1 instead of q_m; its H
  is not time-reversal even, so it takes the every-class route.
- Translation.  Shifting the potential by x0 (c_j -> c_j e^{-2 pi i j x0},
  x0 in units of a) is the unitary e^{-i q_m x0} on the plane waves, which
  keeps every class: every energy stays in place.  Caught mutation:
  ``build_hamiltonian`` writing c.real at offset j*N instead of c.
"""

from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import blochlab as bl
from blochlab.lattice import MAX_DIMENSION

BOUND = 1e-12


@st.composite
def lattices(draw):
    """An unpadded lattice within the caps: N odd and b = d/N odd."""
    cells = 2 * draw(st.integers(1, 15)) + 1
    bands = 2 * draw(st.integers(0, (MAX_DIMENSION // cells - 1) // 2)) + 1
    return bl.LatticeSpec(
        cells=cells,
        cutoff=(cells * bands - 1) // 2,
        a=draw(st.sampled_from([1.0, 2.0])),
        mass=draw(st.sampled_from([1.0, 0.7])),
        hbar=draw(st.sampled_from([1.0, 1.3])),
    )


coefficients = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
potentials = st.builds(
    bl.PotentialSpec,
    harmonics=st.lists(st.tuples(st.integers(1, 4), coefficients), min_size=1, max_size=3),
    v0=st.floats(-10.0, 10.0),
)


def energies(spec, potential):
    return bl.solve_bands(bl.build_hamiltonian(spec, potential), spec).energies


def assert_same_energies(e, other):
    scale = max(1.0, float(np.max(np.abs(e))))
    assert float(np.max(np.abs(e - other))) <= BOUND * scale


@given(spec=lattices(), potential=potentials)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_time_reversal_pairs_class_l_with_minus_l(spec, potential):
    half_zone = energies(spec, potential)
    with patch.object(bl.OperatorTable, "independent_classes", lambda self, rows: len(rows)):
        every_class = energies(spec, potential)
    assert_same_energies(half_zone, every_class[-np.arange(spec.cells) % spec.cells])


@given(spec=lattices(), potential=potentials, x0=st.floats(0.0, 1.0))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_translating_the_potential_leaves_every_energy_in_place(spec, potential, x0):
    shifted = bl.PotentialSpec(
        harmonics=tuple((j, c * np.exp(-2j * np.pi * j * x0)) for j, c in potential.harmonics),
        v0=potential.v0,
    )
    assert_same_energies(energies(spec, potential), energies(spec, shifted))
