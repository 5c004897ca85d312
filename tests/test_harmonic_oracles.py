"""Offset-diagonal builders against the row-loop references in oracles.py."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import blochlab as bl
from blochlab.observables import ObservableSpec, ObservableTerm

from oracles import (
    custom,
    dense,
    dense_cell_periodicity,
    loop_breaking_observable,
    loop_fold,
    loop_hamiltonian,
    loop_observable,
    members,
    operator,
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
    assert_exact(dense(bl.build_hamiltonian(spec, potential))[0], ref)


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
    ),
    "unsymmetrized_constant_f": ObservableSpec(
        terms=(ObservableTerm(f_harmonics=((0, -0.25),), p_poly=(0.0, 1.0, -0.5)),),
    ),
    "reach_past_basis": ObservableSpec(
        terms=(ObservableTerm(f_harmonics=((1, 0.5), (30, 2.0)), p_poly=(1.0, 0.1)),)
    ),
}


# F or P is constant in every term of these, so the battery's (F*P + P*F)/2 is
# the unsymmetrized F@P too, bit for bit: dropping F@P loses no operator
UNSYMMETRIZED = {"unsymmetrized_constant_p", "unsymmetrized_constant_f"}


def assert_built_matches(spec, lattice, symmetrized: bool = True) -> None:
    """The spec's battery member is the row loop bit for bit; one that is zero raises."""
    ref = loop_observable(spec, lattice, symmetrized)
    if not ref.any():  # a table refuses a zero member
        with pytest.raises(ValueError, match="'custom:0' is the zero operator"):
            custom(spec, lattice)
        return
    assert_bitwise(dense(custom(spec, lattice))[0], ref)


@pytest.mark.parametrize("lattice", sorted(LATTICES))
@pytest.mark.parametrize("name", sorted(OBSERVABLE_SPECS))
def test_build_observable_matches_row_loop(lattice, name):
    ring = LATTICES[lattice]
    spec = OBSERVABLE_SPECS[name]
    assert_built_matches(spec, ring)
    if name in UNSYMMETRIZED:
        assert_built_matches(spec, ring, symmetrized=False)


def test_offset_diagonal_refuses_a_matrix_it_cannot_write_in_place():
    # the diagonals are strided views of the flattened last two axes; a
    # transposed matrix has no such view, and a copy would drop the writes
    matrix = np.zeros((4, 4), dtype=complex)
    with pytest.raises(ValueError, match="C-contiguous"):
        bl.lattice.add_offset_diagonal(matrix.T, 1, 1.0)
    assert not matrix.any()
    stack = np.zeros((3, 4, 4), dtype=complex)
    bl.lattice.add_offset_diagonal(stack[::2], 1, 2.0j)  # strided stack, contiguous matrices
    assert np.count_nonzero(stack) == 12 and not stack[1].any()
    assert stack[2, 3, 2] == 2.0j and stack[2, 2, 3] == -2.0j


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
def observable_specs(draw, lattice):
    """One to three terms F*P on this basis, and whether F@P is the reference.

    F mixes real j = 0 constants with harmonics of either sign, up to an
    offset j*N past the basis; P has degree up to 6.  An unsymmetrized draw
    keeps F or P constant in each term, so that F@P is Hermitian and equals
    the battery's (F*P + P*F)/2.
    """
    reach = lattice.dim // lattice.cells + 1  # offset reach*N lies past the basis
    constants = st.tuples(st.just(0), real_coefficients.map(complex))
    harmonics = st.tuples(st.integers(-reach, reach).filter(bool), complex_coefficients)
    symmetrized = draw(st.booleans())
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        constant = None if symmetrized else draw(st.sampled_from(["f", "p"]))
        f = draw(st.lists(constants if constant == "f" else constants | harmonics, max_size=5))
        p = draw(st.lists(real_coefficients, max_size=1 if constant == "p" else 7))
        term = ObservableTerm(f_harmonics=tuple(f), p_poly=tuple(p))
        assume(term.f_harmonics or term.p_poly)
        terms.append(term)
    return ObservableSpec(terms=tuple(terms)), symmetrized


@pytest.mark.parametrize("lattice", sorted(DRAWN_LATTICES))
@given(data=st.data())
@settings(max_examples=15, deadline=None, derandomize=True)
def test_build_observable_matches_row_loop_on_drawn_specs(lattice, data):
    ring = DRAWN_LATTICES[lattice]
    spec, symmetrized = data.draw(observable_specs(ring))
    assert_built_matches(spec, ring, symmetrized)


def test_named_battery_matches_row_loop():
    lattice = LATTICES["odd_n5_a2"]
    battery = members(bl.Battery(lattice, seeds=5))
    named = [op for op in battery if not op.labels[0].startswith("seed:")]
    assert [op.labels[0] for op in named] == list(bl.observables.NAMED_OBSERVABLES)
    for op, spec in zip(named, bl.observables._NAMED_SPECS.values()):
        assert_bitwise(dense(op)[0], loop_observable(spec, lattice))


@pytest.mark.parametrize("lattice", sorted(LATTICES))
def test_breaking_observable_matches_row_loop(lattice):
    ring = LATTICES[lattice]
    for shift in range(1, 2 * ring.cutoff + 1):
        if shift % ring.cells:
            built = dense(bl.breaking_observable(shift, ring))[0]
            assert_bitwise(built, loop_breaking_observable(shift, ring))


@st.composite
def operator_diagonals(draw, lattice):
    """Offset diagonals on this lattice: multiples of N and others, scalars and vectors.

    The main diagonal is real, every other diagonal real or complex (a real
    one has conjugates that differ only in the sign of a zero).  Magnitudes
    span six decades, so small diagonals sit beside large ones.
    """
    d, n = lattice.dim, lattice.cells
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
    d, n = spec.dim, spec.cells
    diagonals = data.draw(operator_diagonals(spec))
    op = operator(d, diagonals, label="drawn")
    # the reference, one entry at a time from the drawn diagonals, added onto
    # zeros; ``dense`` is ``apply`` of the unit vectors, so checking ``apply``
    # against it alone would check ``apply`` against itself
    reference = np.zeros((d, d), dtype=complex)
    for offset, values in diagonals.items():
        for m, v in enumerate(np.broadcast_to(values, (d - offset,))):
            reference[m + offset, m] += v
            if offset:
                reference[m, m + offset] += np.conj(v)
    # later writes to the inputs do not reach the operator
    for values in diagonals.values():
        if np.ndim(values):
            values[...] = 99.0
    assert_bitwise(dense(op)[0], reference)

    # each diagonal at offset qN is the q-th subdiagonal of every dense class
    # block, and written onto zeros those diagonals are the whole block
    rows = spec.class_rows
    on_rows = list(op.class_diagonals(rows))
    assert [q for q, _ in on_rows] == [o // n for o in op.offsets if o % n == 0]
    for l, class_rows in enumerate(rows):
        block = reference[np.ix_(class_rows, class_rows)]
        written = np.zeros_like(block)
        for q, (values,) in on_rows:
            assert_bitwise(values[l], np.diagonal(block, -q))
            bl.lattice.add_offset_diagonal(written, q, values[l])
        assert_bitwise(written, block)

    rng = np.random.default_rng(d)
    vectors = rng.uniform(-1, 1, (3, d)) + 1j * rng.uniform(-1, 1, (3, d))
    error = float(np.max(np.abs(op.apply(vectors)[0] - vectors @ reference.T)))
    assert error <= 1e-14 * op.norm_max[0]

    t = bl.build_translation(spec)
    violation = bl.check_cell_periodicity(op, t)
    assert abs(violation - dense_cell_periodicity(reference, t)) <= 1e-15

    last = max(op.offsets)
    for bad, message in (
        ({-1: 1.0}, "outside 0.."),
        ({d: 1.0}, "outside 0.."),
        ({last: np.ones(d - last + 1)}, "broadcast"),
        ({0: 1j}, "matrix is not Hermitian"),
    ):
        with pytest.raises(ValueError, match=message):
            bl.OperatorTable.assemble(d, [(("bad",), bad)])


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
