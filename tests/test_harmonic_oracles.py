"""Offset-diagonal builders against the row-loop references in oracles.py."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import blochlab as bl
from blochlab.observables import ObservableSpec, ObservableTerm

from oracles import (
    dense_cell_periodicity,
    loop_breaking_observable,
    loop_fold,
    loop_hamiltonian,
    loop_observable,
)

LATTICES = {
    "odd_n3": bl.LatticeSpec(cells=3, cutoff=4),
    "odd_n5_a2": bl.LatticeSpec(cells=5, cutoff=7, a=2.0, mass=0.7, hbar=1.3),
    "even_n4_padded": bl.LatticeSpec(cells=4, cutoff=5, pad_basis=True),
    "even_n2_padded": bl.LatticeSpec(cells=2, cutoff=3, pad_basis=True),
    "small_n3_d3": bl.LatticeSpec(cells=3, cutoff=1),  # harmonic 1 sits at offset 3 = d
}


def assert_bitwise(new: np.ndarray, ref: np.ndarray) -> None:
    assert new.dtype == ref.dtype and new.shape == ref.shape
    assert new.tobytes() == ref.tobytes()


def assert_exact(new: np.ndarray, ref: np.ndarray) -> None:
    # equal as IEEE values, so +0.0 and -0.0 count as the same entry
    assert new.dtype == ref.dtype and new.shape == ref.shape
    assert np.array_equal(new, ref)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_hamiltonian_matches_row_loop(name):
    spec = LATTICES[name]
    potential = bl.PotentialSpec(
        harmonics=((1, 0.25), (-2, 0.1 - 0.05j), (3, 0.02j), (40, 1.0)), v0=-0.3
    )
    ref = loop_hamiltonian(spec, potential)
    # the row loop assigns the mirrored entry as conj(h[row, col]), which
    # turns a zero imaginary part into -0.0; the shared helper adds conj(c)
    # onto a zero entry, which gives +0.0.  Every value is identical.
    assert_exact(bl.build_hamiltonian(spec, potential).matrix, ref)


def test_offset_at_or_past_dimension_writes_nothing():
    matrix = np.zeros((3, 3), dtype=complex)
    for offset in (3, 4, 40):
        bl.lattice.add_offset_diagonal(matrix, offset, 1.0 + 2.0j)
    assert not matrix.any()
    bl.lattice.add_offset_diagonal(matrix, 2, 1.0 + 2.0j)
    assert matrix[2, 0] == 1.0 + 2.0j and matrix[0, 2] == 1.0 - 2.0j
    assert np.count_nonzero(matrix) == 2


OBSERVABLE_SPECS = {
    "constant_only": ObservableSpec(terms=(ObservableTerm(f_harmonics=((0, 0.7),)),)),
    "negative_j": ObservableSpec(terms=(ObservableTerm(f_harmonics=((-1, 0.3 + 0.2j),)),)),
    "mixed_symmetrized": ObservableSpec(
        terms=(
            ObservableTerm(
                f_harmonics=((0, 0.3), (-1, 0.2 + 0.1j), (1, 0.05 - 0.4j), (2, 0.1j)),
                p_poly=(0.1, -0.02, 0.001),
            ),
            ObservableTerm(p_poly=(0.0, 0.5)),
        )
    ),
    "unsymmetrized_constant_p": ObservableSpec(
        terms=(ObservableTerm(f_harmonics=((-1, 0.5), (0, 1.5)), p_poly=(2.0,)),),
        symmetrize=False,
    ),
    "unsymmetrized_constant_f": ObservableSpec(
        terms=(ObservableTerm(f_harmonics=((0, -0.25),), p_poly=(0.0, 1.0, -0.5)),),
        symmetrize=False,
    ),
    "reach_past_basis": ObservableSpec(
        terms=(ObservableTerm(f_harmonics=((1, 0.5), (30, 2.0)), p_poly=(1.0, 0.1)),)
    ),
}


@pytest.mark.parametrize("lattice", sorted(LATTICES))
@pytest.mark.parametrize("name", sorted(OBSERVABLE_SPECS))
def test_build_observable_matches_row_loop(lattice, name):
    basis = bl.build_basis(LATTICES[lattice])
    spec = OBSERVABLE_SPECS[name]
    built = bl.build_observable(spec, basis).matrix
    assert_bitwise(built, loop_observable(spec, basis))


def test_offset_diagonal_takes_one_value_per_entry():
    matrix = np.zeros((4, 4), dtype=complex)
    bl.lattice.add_offset_diagonal(matrix, 2, np.array([1.0 + 1.0j, 2.0 - 3.0j]))
    bl.lattice.add_offset_diagonal(matrix, 0, np.arange(4.0))  # main diagonal, written once
    expected = np.diag(np.arange(4.0)).astype(complex)
    expected[2, 0], expected[3, 1] = 1.0 + 1.0j, 2.0 - 3.0j
    expected[0, 2], expected[1, 3] = 1.0 - 1.0j, 2.0 + 3.0j
    assert_exact(matrix, expected)


# the shipped lattices plus the largest lattice of the benchmark sweeps
DRAWN_LATTICES = {**LATTICES, "n15_d495": bl.LatticeSpec(cells=15, cutoff=247)}

real_coefficients = st.floats(-10.0, 10.0, allow_nan=False)
complex_coefficients = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


@st.composite
def observable_specs(draw, basis):
    """One to three terms F*P on this basis.

    F mixes real j = 0 constants with harmonics of either sign, up to an
    offset j*N past the basis; P has degree up to 6.  An unsymmetrized spec
    keeps F or P constant in each term, so that F*P is Hermitian.
    """
    reach = basis.dim // basis.cells + 1  # offset reach*N lies past the basis
    constants = st.tuples(st.just(0), real_coefficients.map(complex))
    harmonics = st.tuples(st.integers(-reach, reach).filter(bool), complex_coefficients)
    symmetrize = draw(st.booleans())
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        constant = None if symmetrize else draw(st.sampled_from(["f", "p"]))
        f = draw(st.lists(constants if constant == "f" else constants | harmonics, max_size=5))
        p = draw(st.lists(real_coefficients, max_size=1 if constant == "p" else 7))
        term = ObservableTerm(f_harmonics=tuple(f), p_poly=tuple(p))
        assume(term.f_harmonics or term.p_poly)
        terms.append(term)
    return ObservableSpec(terms=tuple(terms), symmetrize=symmetrize)


@pytest.mark.parametrize("lattice", sorted(DRAWN_LATTICES))
@given(data=st.data())
@settings(max_examples=15, deadline=None, derandomize=True)
def test_build_observable_matches_row_loop_on_drawn_specs(lattice, data):
    basis = bl.build_basis(DRAWN_LATTICES[lattice])
    spec = data.draw(observable_specs(basis))
    assert_bitwise(bl.build_observable(spec, basis).matrix, loop_observable(spec, basis))


def test_named_battery_matches_row_loop():
    basis = bl.build_basis(LATTICES["odd_n5_a2"])
    battery = bl.standard_battery(basis, seeds=5)
    named = [op for op in battery if not op.label.startswith("seed:")]
    assert [op.label for op in named] == list(bl.observables.NAMED_OBSERVABLES)
    for op, spec in zip(named, bl.observables._NAMED_SPECS.values()):
        assert_bitwise(op.matrix, loop_observable(spec, basis))


@pytest.mark.parametrize("lattice", sorted(LATTICES))
def test_breaking_observable_matches_row_loop(lattice):
    basis = bl.build_basis(LATTICES[lattice])
    for shift in range(1, 2 * basis.spec.cutoff + 1):
        if shift % basis.cells:
            built = bl.breaking_observable(shift, basis).matrix
            assert_bitwise(built, loop_breaking_observable(shift, basis))


@st.composite
def operator_diagonals(draw, basis):
    """Offset diagonals on this basis: multiples of N and others, scalars and vectors.

    The main diagonal is real, every other diagonal real or complex (a real
    one has conjugates that differ only in the sign of a zero).  Magnitudes
    span six decades, so small diagonals sit beside large ones.
    """
    d, n = basis.dim, basis.cells
    periodic = st.sampled_from(range(0, d, n))
    breaking = st.integers(0, d - 1).filter(lambda o: o % n)
    offsets = draw(st.sets(periodic | breaking, min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    diagonals = {}
    for offset in sorted(offsets):
        scale = 10.0 ** draw(st.integers(-3, 3))
        shape = () if draw(st.booleans()) else (d - offset,)
        values = scale * (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))
        diagonals[offset] = values.real if offset == 0 or draw(st.booleans()) else values
    return diagonals


@pytest.mark.parametrize("lattice", sorted(DRAWN_LATTICES))
@given(data=st.data())
@settings(max_examples=15, deadline=None, derandomize=True)
def test_operator_matches_its_dense_view(lattice, data):
    spec = DRAWN_LATTICES[lattice]
    basis = bl.build_basis(spec)
    d, n = basis.dim, basis.cells
    diagonals = data.draw(operator_diagonals(basis))
    op = bl.HermitianOperator(d, diagonals, label="drawn")
    dense = op.matrix
    # later writes to the inputs do not reach the operator
    for values in diagonals.values():
        if np.ndim(values):
            values[...] = 99.0
    assert_bitwise(op.matrix, dense)

    rows = np.array([basis.class_rows(l) for l in range(n)])
    bra, ket = (axis.ravel() for axis in np.indices((n, n)))
    blocks = op.class_blocks(rows, bra, ket)
    for block, j, l in zip(blocks, bra, ket):
        assert_bitwise(block, dense[np.ix_(rows[j], rows[l])])

    rng = np.random.default_rng(d)
    vectors = rng.uniform(-1, 1, (3, d)) + 1j * rng.uniform(-1, 1, (3, d))
    error = float(np.max(np.abs(op.apply(vectors) - vectors @ dense.T)))
    assert error <= 1e-14 * op.norm_max

    t = bl.build_translation(spec)
    violation = bl.check_cell_periodicity(op, t).max_violation
    assert abs(violation - dense_cell_periodicity(dense, t)) <= 1e-15

    length = d - max(op.diagonals)
    for bad in ({-1: 1.0}, {d: 1.0}, {max(op.diagonals): np.ones(length + 1)}, {0: 1j}):
        with pytest.raises(ValueError):
            bl.HermitianOperator(d, bad)


harmonic_entries = st.lists(
    st.tuples(
        st.integers(-4, 4),
        st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    ),
    max_size=8,
)


@given(entries=harmonic_entries)
@settings(max_examples=60, deadline=None)
def test_fold_matches_reference(entries):
    try:
        expected = loop_fold(entries)
    except ValueError:
        with pytest.raises(ValueError, match="real"):
            ObservableTerm(f_harmonics=tuple(entries))
        return
    assert ObservableTerm(f_harmonics=tuple(entries)).f_harmonics == expected
    nonzero = [(j, c) for j, c in entries if j != 0]
    assert bl.PotentialSpec(harmonics=tuple(nonzero)).harmonics == expected[
        1 if expected and expected[0][0] == 0 else 0:
    ]
