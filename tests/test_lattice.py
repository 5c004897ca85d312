"""Basis construction, Hamiltonian assembly and translation-operator structure."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blochlab as bl

from oracles import dense_to_diagonals


def test_basis_n3_m4_layout():
    spec = bl.LatticeSpec(cells=3, cutoff=4)
    basis = bl.build_basis(spec)
    assert basis.dim == 9
    assert basis.momenta[basis.row_of(1)] == pytest.approx(2.0 * np.pi / 3.0)
    assert basis.class_members(0) == [-3, 0, 3]
    assert basis.class_members(1) == [-2, 1, 4]
    assert basis.class_members(2) == [-4, -1, 2]


def test_basis_rejects_indivisible_dimension():
    with pytest.raises(ValueError, match="not divisible"):
        bl.LatticeSpec(cells=4, cutoff=4)


def test_basis_a2_n5_m7():
    spec = bl.LatticeSpec(cells=5, cutoff=7, a=2.0)
    basis = bl.build_basis(spec)
    assert basis.dim == 15
    assert basis.momenta[basis.row_of(1)] == pytest.approx(2.0 * np.pi / 10.0)


def test_basis_validation_errors():
    with pytest.raises(ValueError):
        bl.LatticeSpec(cells=1, cutoff=4)
    with pytest.raises(ValueError):
        bl.LatticeSpec(cells=3, cutoff=0)
    with pytest.raises(ValueError, match="cap"):
        bl.LatticeSpec(cells=3, cutoff=400)


def test_padded_basis_for_even_cells():
    # 2M+1 is odd, so even N can never divide it; the padded index set
    # {-M .. M+r} restores equal class sizes
    spec = bl.LatticeSpec(cells=4, cutoff=4, pad_basis=True)
    basis = bl.build_basis(spec)
    assert basis.dim == 12
    assert list(basis.indices[:2]) == [-4, -3] and list(basis.indices[-2:]) == [6, 7]
    assert all(len(basis.class_rows(l)) == 3 for l in range(4))


def test_free_hamiltonian_is_kinetic_diagonal():
    spec = bl.LatticeSpec(cells=3, cutoff=4)
    h = bl.build_hamiltonian(spec, bl.PotentialSpec())
    basis = bl.build_basis(spec)
    assert h.matrix[basis.row_of(0), basis.row_of(0)] == 0.0
    assert h.matrix[basis.row_of(1), basis.row_of(1)] == pytest.approx(
        (2.0 * np.pi / 3.0) ** 2 / 2.0
    )
    assert np.all(h.matrix == np.diag(np.diag(h.matrix)))


def test_cosine_coupling_placement():
    # V(x) = 2 v cos(2 pi x / a) stores the single harmonic c_1 = v
    v = 0.37
    spec = bl.LatticeSpec(cells=3, cutoff=4)
    basis = bl.build_basis(spec)
    h = bl.build_hamiltonian(spec, bl.PotentialSpec(harmonics=((1, v),)))
    for m in basis.indices:
        for mp in basis.indices:
            entry = h.matrix[basis.row_of(m), basis.row_of(mp)]
            if abs(m - mp) == 3:
                assert entry == pytest.approx(v)
            elif m != mp:
                assert entry == 0.0  # literal zero, never a computed sum


def test_hamiltonian_exactly_hermitian_and_block_structured(basis_n3, mathieu_solution):
    h, _ = mathieu_solution
    assert float(np.max(np.abs(h.matrix - h.matrix.conj().T))) == 0.0
    classes = basis_n3.indices % 3
    off = classes[:, None] != classes[None, :]
    assert np.all(h.matrix[off] == 0.0)


def test_translation_is_unitary_diagonal_with_unit_roots():
    spec = bl.LatticeSpec(cells=3, cutoff=4)
    basis = bl.build_basis(spec)
    t = np.diag(bl.build_translation(spec))
    assert t[basis.row_of(3), basis.row_of(3)] == pytest.approx(1.0)
    assert t[basis.row_of(1), basis.row_of(1)] == pytest.approx(-0.5 + 0.8660254j, abs=1e-6)
    assert float(np.max(np.abs(t.conj().T @ t - np.eye(9)))) < 1e-14


def test_translation_commutes_with_hamiltonian(mathieu_solution):
    # direct matrix-product oracle for the symmetry relation
    h, _ = mathieu_solution
    spec = bl.LatticeSpec(cells=3, cutoff=4)
    t = np.diag(bl.build_translation(spec))
    assert float(np.max(np.abs(h.matrix @ t - t @ h.matrix))) < 1e-12
    assert float(np.max(np.abs(t.conj().T @ h.matrix @ t - h.matrix))) < 1e-12 * h.norm_max


def test_momentum_commutes_with_translation_exactly():
    spec = bl.LatticeSpec(cells=3, cutoff=4)
    p = bl.Battery(bl.build_basis(spec), seeds=0, named=("momentum",)).member(0)
    t = np.diag(bl.build_translation(spec))
    assert float(np.max(np.abs(p.matrix @ t - t @ p.matrix))) == 0.0


def test_potential_canonicalization_folds_negative_harmonics():
    # j=-1 with coefficient c is the same function as j=+1 with conj(c)
    c = 0.2 - 0.1j
    direct = bl.PotentialSpec(harmonics=((1, np.conj(c)),))
    folded = bl.PotentialSpec(harmonics=((-1, c),))
    assert direct.harmonics == folded.harmonics
    x = np.linspace(0.0, 3.0, 7)
    assert np.allclose(direct.value(x), folded.value(x))
    with pytest.raises(ValueError):
        bl.PotentialSpec(harmonics=((0, 1.0),))


def test_potential_value_matches_cosine_sum():
    pot = bl.PotentialSpec.from_cosines([(1, 0.5), (2, 0.2)], v0=0.3)
    x = np.linspace(0.0, 2.0, 11)
    expected = 0.3 + 0.5 * np.cos(2 * np.pi * x) + 0.2 * np.cos(4 * np.pi * x)
    assert np.allclose(pot.value(x), expected, atol=1e-15)


def test_hermitian_operator_rejects_non_hermitian():
    # off the main diagonal the stored type cannot be non-Hermitian; a
    # complex main diagonal can
    bad = np.array([[0.0, 1.0], [1.0, 0.5j]])
    with pytest.raises(ValueError, match="Hermitian"):
        bl.HermitianOperator(2, dense_to_diagonals(bad))


def _hermitian_base():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1], m[1, 0] = 3.0j, -3.0j
    m[2, 2] = 1.0
    return m


@pytest.mark.parametrize(
    "make",
    [
        lambda base: base[:, :],  # a view
        lambda base: base.T,  # a Fortran-ordered view (the transpose is Hermitian too)
        lambda base: np.asfortranarray(base),  # an owning Fortran-ordered array
        lambda base: base.tolist(),  # a list
    ],
    ids=["view", "transposed_view", "fortran", "list"],
)
def test_hermitian_operator_copies_what_it_does_not_own(make):
    # the diagonals handed over are read-only views into the source when it
    # is an array; the operator keeps its own copies
    base = _hermitian_base()
    source = make(base)
    op = bl.HermitianOperator(4, dense_to_diagonals(source))
    norm = op.norm_max
    before = op.matrix.copy()
    assert all(v.dtype == np.complex128 and v.flags.c_contiguous for v in op.diagonals.values())
    if isinstance(source, np.ndarray):
        assert not any(np.shares_memory(v, source) for v in op.diagonals.values())
    assert base.flags.writeable
    base[:] = 7.0
    assert np.array_equal(op.matrix, before)
    assert op.norm_max == norm == 3.0


def test_hermitian_operator_copies_a_real_array():
    real = np.array([1.0, -2.0, 0.5])
    op = bl.HermitianOperator(3, {0: real})
    assert op.diagonals[0].dtype == np.complex128 and op.matrix.dtype == np.complex128
    assert not np.shares_memory(op.diagonals[0], real) and real.flags.writeable
    real[1] = 9.0
    assert op.matrix[1, 1] == -2.0 and op.norm_max == 2.0


def test_rejected_matrix_is_left_writable():
    main = np.array([0.0, 0.25j])
    with pytest.raises(ValueError, match="matrix is not Hermitian: defect 5.000e-01"):
        bl.HermitianOperator(2, {0: main, 1: 1.0})
    assert main.flags.writeable and main[1] == 0.25j


@pytest.mark.parametrize("dim", [1, 2, 63, 64, 65, 130, 495])
def test_hermiticity_defect_is_the_direct_formula_bit_for_bit(dim):
    # only the main diagonal can be non-Hermitian, so the constructor's
    # defect max |d - conj(d)| on it is max |m - m^H| over the dense matrix
    rng = np.random.default_rng(dim)
    for imag in (1.0, 1e-13, 0.0):
        diagonals = {
            o: rng.normal(size=dim - o) + 1j * rng.normal(size=dim - o) for o in {0, dim // 2}
        }
        main = diagonals[0] = diagonals[0].real + 1j * imag * rng.normal(size=dim)
        dense = np.zeros((dim, dim), dtype=complex)
        for offset, values in diagonals.items():
            bl.lattice.add_offset_diagonal(dense, offset, values)
        direct = float(np.max(np.abs(dense - dense.conj().T)))
        assert float(np.max(np.abs(main - main.conj()))) == direct
        scale = float(np.max(np.abs(dense)))
        if imag == 1.0:
            with pytest.raises(ValueError, match=re.escape(f"defect {direct:.3e} exceeds")):
                bl.HermitianOperator(dim, diagonals)
        else:
            assert bl.HermitianOperator(dim, diagonals).norm_max == scale


def test_operator_matrices_are_frozen(mathieu_solution):
    h, _ = mathieu_solution
    with pytest.raises(ValueError):
        h.matrix[0, 0] = 99.0


def test_operator_norm_max_is_stored_and_cannot_go_stale(mathieu_solution):
    h, _ = mathieu_solution
    assert h.norm_max == float(np.max(np.abs(h.matrix)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        h.matrix = np.zeros_like(h.matrix)
    assert h.norm_max == float(np.max(np.abs(h.matrix)))


@st.composite
def lattice_and_potential(draw):
    cells = draw(st.sampled_from([2, 3, 4, 5]))
    blocks = draw(st.integers(min_value=1, max_value=3))
    if cells % 2 == 1 and blocks % 2 == 1:
        cutoff = (cells * blocks - 1) // 2
        spec = bl.LatticeSpec(cells=cells, cutoff=cutoff)
    else:
        cutoff = draw(st.integers(min_value=2, max_value=6))
        spec = bl.LatticeSpec(cells=cells, cutoff=cutoff, pad_basis=True)
    coeff = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    harmonics = tuple(
        (j, draw(coeff)) for j in draw(st.sets(st.integers(1, 2), max_size=2))
    )
    v0 = draw(st.floats(-1.0, 1.0))
    return spec, bl.PotentialSpec(harmonics=harmonics, v0=v0)


@given(lattice_and_potential())
@settings(max_examples=40, deadline=None)
def test_construction_invariants_hold_for_random_inputs(case):
    spec, pot = case
    basis = bl.build_basis(spec)
    assert basis.dim % spec.cells == 0
    h = bl.build_hamiltonian(spec, pot)
    t = np.diag(bl.build_translation(spec))
    assert float(np.max(np.abs(h.matrix - h.matrix.conj().T))) == 0.0
    assert float(np.max(np.abs(t.conj().T @ t - np.eye(basis.dim)))) < 1e-14
    scale = max(h.norm_max, 1.0)
    assert float(np.max(np.abs(t.conj().T @ h.matrix @ t - h.matrix))) < 1e-12 * scale
    classes = basis.indices % spec.cells
    off = classes[:, None] != classes[None, :]
    if off.any():
        assert np.all(h.matrix[off] == 0.0)
