"""The lattice's plane-wave grid, Hamiltonian assembly and translation-operator structure."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blochlab as bl

from oracles import (
    dense,
    dense_to_diagonals,
    named,
    operator,
    plane_wave_grid,
    potential_value,
    row_of,
)


def test_basis_n3_m4_layout():
    spec = bl.LatticeSpec(cells=3, cutoff=4)
    assert spec.dim == 9
    assert spec.momenta[row_of(spec, 1)] == pytest.approx(2.0 * np.pi / 3.0)
    assert spec.indices[spec.class_rows[0]].tolist() == [-3, 0, 3]
    assert spec.indices[spec.class_rows[1]].tolist() == [-2, 1, 4]
    assert spec.indices[spec.class_rows[2]].tolist() == [-4, -1, 2]


GRID_LATTICES = [
    bl.LatticeSpec(cells=3, cutoff=4),
    bl.LatticeSpec(cells=5, cutoff=7, a=2.0, hbar=0.7),
    bl.LatticeSpec(cells=4, cutoff=4, pad_basis=True),
    bl.LatticeSpec(cells=2, cutoff=255, pad_basis=True),
    bl.LatticeSpec(cells=15, cutoff=247, a=0.3),
]


@pytest.mark.parametrize("spec", GRID_LATTICES, ids=repr)
def test_grid_matches_the_reference_bit_for_bit(spec):
    indices, momenta, rows = plane_wave_grid(spec)
    assert np.array_equal(spec.indices, indices) and spec.indices.dtype == indices.dtype
    assert spec.momenta.tobytes() == momenta.tobytes()
    assert spec.class_rows.shape == (spec.cells, spec.dim // spec.cells)
    assert np.array_equal(spec.class_rows, rows)
    labels = np.arange(spec.cells)
    expected = 2.0 * np.pi * labels / spec.circumference
    assert spec.wavevector(labels).tobytes() == expected.tobytes()


def test_grid_is_formed_once_and_refuses_writes():
    spec = bl.LatticeSpec(cells=3, cutoff=4)
    for name in ("indices", "momenta", "class_rows"):
        arr = getattr(spec, name)
        assert getattr(spec, name) is arr  # cached: the same array on every read
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, name, arr.copy())


def test_spec_with_a_formed_grid_equals_and_hashes_like_a_fresh_one():
    formed = bl.LatticeSpec(cells=4, cutoff=4, a=1.5, pad_basis=True)
    assert formed.class_rows.shape == (4, 3) and formed.momenta.shape == (12,)
    assert {"indices", "momenta", "class_rows"} <= set(vars(formed))  # the grid is formed
    fresh = bl.LatticeSpec(cells=4, cutoff=4, a=1.5, pad_basis=True)
    assert formed == fresh and hash(formed) == hash(fresh)
    assert repr(formed) == repr(fresh) and "momenta" not in repr(formed)
    assert {formed: 1}[fresh] == 1
    assert formed != dataclasses.replace(fresh, a=2.0)


def test_basis_rejects_indivisible_dimension():
    with pytest.raises(ValueError, match="not divisible"):
        bl.LatticeSpec(cells=4, cutoff=4)


def test_basis_a2_n5_m7():
    spec = bl.LatticeSpec(cells=5, cutoff=7, a=2.0)
    assert spec.dim == 15
    assert spec.momenta[row_of(spec, 1)] == pytest.approx(2.0 * np.pi / 10.0)


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
    assert spec.dim == 12
    assert list(spec.indices[:2]) == [-4, -3] and list(spec.indices[-2:]) == [6, 7]
    assert spec.class_rows.shape == (4, 3)


def test_free_hamiltonian_is_kinetic_diagonal():
    spec = bl.LatticeSpec(cells=3, cutoff=4)
    (h,) = dense(bl.build_hamiltonian(spec, bl.PotentialSpec()))
    assert h[row_of(spec, 0), row_of(spec, 0)] == 0.0
    assert h[row_of(spec, 1), row_of(spec, 1)] == pytest.approx((2.0 * np.pi / 3.0) ** 2 / 2.0)
    assert np.all(h == np.diag(np.diag(h)))


def test_cosine_coupling_placement():
    # V(x) = 2 v cos(2 pi x / a) stores the single harmonic c_1 = v
    v = 0.37
    spec = bl.LatticeSpec(cells=3, cutoff=4)
    (h,) = dense(bl.build_hamiltonian(spec, bl.PotentialSpec(harmonics=((1, v),))))
    for m in spec.indices:
        for mp in spec.indices:
            entry = h[row_of(spec, m), row_of(spec, mp)]
            if abs(m - mp) == 3:
                assert entry == pytest.approx(v)
            elif m != mp:
                assert entry == 0.0  # literal zero, never a computed sum


def test_hamiltonian_exactly_hermitian_and_block_structured(lattice_n3, mathieu_solution):
    (h,) = dense(mathieu_solution[0])
    assert float(np.max(np.abs(h - h.conj().T))) == 0.0
    classes = lattice_n3.indices % 3
    off = classes[:, None] != classes[None, :]
    assert np.all(h[off] == 0.0)


def test_translation_is_unitary_diagonal_with_unit_roots():
    spec = bl.LatticeSpec(cells=3, cutoff=4)
    t = np.diag(bl.build_translation(spec))
    assert t[row_of(spec, 3), row_of(spec, 3)] == pytest.approx(1.0)
    assert t[row_of(spec, 1), row_of(spec, 1)] == pytest.approx(-0.5 + 0.8660254j, abs=1e-6)
    assert float(np.max(np.abs(t.conj().T @ t - np.eye(9)))) < 1e-14


def test_translation_commutes_with_hamiltonian(mathieu_solution):
    # direct matrix-product oracle for the symmetry relation
    op, _ = mathieu_solution
    (h,) = dense(op)
    spec = bl.LatticeSpec(cells=3, cutoff=4)
    t = np.diag(bl.build_translation(spec))
    assert float(np.max(np.abs(h @ t - t @ h))) < 1e-12
    assert float(np.max(np.abs(t.conj().T @ h @ t - h))) < 1e-12 * op.norm_max[0]


def test_momentum_commutes_with_translation_exactly():
    spec = bl.LatticeSpec(cells=3, cutoff=4)
    (p,) = dense(named("momentum", spec))
    t = np.diag(bl.build_translation(spec))
    assert float(np.max(np.abs(p @ t - t @ p))) == 0.0


def test_potential_canonicalization_folds_negative_harmonics():
    # j=-1 with coefficient c is the same function as j=+1 with conj(c)
    c = 0.2 - 0.1j
    direct = bl.PotentialSpec(harmonics=((1, np.conj(c)),))
    folded = bl.PotentialSpec(harmonics=((-1, c),))
    assert direct.harmonics == folded.harmonics
    x = np.linspace(0.0, 3.0, 7)
    assert np.allclose(potential_value(direct, x), potential_value(folded, x))
    with pytest.raises(ValueError):
        bl.PotentialSpec(harmonics=((0, 1.0),))


def test_potential_value_matches_cosine_sum():
    pot = bl.PotentialSpec(harmonics=((1, 0.25), (2, 0.1)), v0=0.3)
    x = np.linspace(0.0, 2.0, 11)
    expected = 0.3 + 0.5 * np.cos(2 * np.pi * x) + 0.2 * np.cos(4 * np.pi * x)
    assert np.allclose(potential_value(pot, x), expected, atol=1e-15)


def test_operator_table_rejects_non_hermitian():
    # off the main diagonal the stored type cannot be non-Hermitian; a
    # complex main diagonal can
    bad = np.array([[0.0, 1.0], [1.0, 0.5j]])
    with pytest.raises(ValueError, match="Hermitian"):
        bl.OperatorTable.assemble(2, [(("bad",), dense_to_diagonals(bad))])


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
def test_operator_table_copies_what_it_does_not_own(make):
    # the diagonals handed over are read-only views into the source when it
    # is an array; the table keeps its own copies
    base = _hermitian_base()
    source = make(base)
    op = operator(4, dense_to_diagonals(source))
    norm = op.norm_max[0]
    before = dense(op).copy()
    assert op.values.dtype == np.complex128 and op.values.flags.c_contiguous
    if isinstance(source, np.ndarray):
        assert not np.shares_memory(op.values, source)
    assert base.flags.writeable
    base[:] = 7.0
    assert np.array_equal(dense(op), before)
    assert op.norm_max[0] == norm == 3.0


def test_operator_table_copies_a_real_array():
    real = np.array([1.0, -2.0, 0.5])
    op = operator(3, {0: real})
    assert op.values.dtype == np.complex128 and dense(op).dtype == np.complex128
    assert not np.shares_memory(op.values, real) and real.flags.writeable
    real[1] = 9.0
    assert dense(op)[0, 1, 1] == -2.0 and op.norm_max[0] == 2.0


def test_rejected_matrix_is_left_writable():
    main = np.array([0.0, 0.25j])
    with pytest.raises(ValueError, match="matrix is not Hermitian: defect 5.000e-01"):
        bl.OperatorTable.assemble(2, [(("m",), {0: main, 1: 1.0})])
    assert main.flags.writeable and main[1] == 0.25j


@pytest.mark.parametrize("dim", [1, 2, 63, 64, 65, 130, 495])
def test_hermiticity_defect_is_the_direct_formula_bit_for_bit(dim):
    # only the main diagonal can be non-Hermitian, so the table's defect
    # max |d - conj(d)| on it is max |m - m^H| over the dense matrix
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
                operator(dim, diagonals)
        else:
            assert operator(dim, diagonals).norm_max[0] == scale


def test_operator_matrices_are_frozen(mathieu_solution):
    h, _ = mathieu_solution
    with pytest.raises(ValueError):
        h.values[0, 0, 0] = 99.0


def test_operator_norm_max_is_stored_and_cannot_go_stale(mathieu_solution):
    h, _ = mathieu_solution
    assert h.norm_max[0] == float(np.max(np.abs(dense(h))))
    with pytest.raises(dataclasses.FrozenInstanceError):
        h.values = np.zeros_like(h.values)
    with pytest.raises(ValueError):
        h.norm_max[0] = 0.0
    assert h.norm_max[0] == float(np.max(np.abs(dense(h))))


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
    assert spec.dim % spec.cells == 0
    op = bl.build_hamiltonian(spec, pot)
    (h,) = dense(op)
    t = np.diag(bl.build_translation(spec))
    assert float(np.max(np.abs(h - h.conj().T))) == 0.0
    assert float(np.max(np.abs(t.conj().T @ t - np.eye(spec.dim)))) < 1e-14
    scale = max(op.norm_max[0], 1.0)
    assert float(np.max(np.abs(t.conj().T @ h @ t - h))) < 1e-12 * scale
    classes = spec.indices % spec.cells
    off = classes[:, None] != classes[None, :]
    if off.any():
        assert np.all(h[off] == 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("offset", [0, 2])
def test_non_finite_entry_is_rejected(bad, offset):
    # NaN fails every comparison, so the Hermiticity test alone let it
    # through; a NaN on a later diagonal also hid from max() over the peaks
    diagonals = {0: np.ones(4, complex), 2: np.ones(2, complex)}
    diagonals[offset][1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        bl.OperatorTable.assemble(4, [(("m",), diagonals)])
