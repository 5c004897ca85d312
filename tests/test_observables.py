"""Observable construction, the periodicity check, batteries and counterexamples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blochlab as bl
from blochlab.observables import PERIODICITY_RTOL, ObservableSpec, ObservableTerm

from oracles import (
    custom,
    dense,
    dense_to_diagonals,
    members,
    named,
    operator,
    row_of,
    seeded,
)

# frozen regression values for the documented LCG battery (computed once)
SEED1_ENTRY_00 = -0.014689191527796948
SEED1_ENTRY_30 = -0.1934387847366229 + 0.11129520784170528j
SEED1_VS_SEED2_DIFF = 1.4439066824722269


@pytest.fixture(scope="module")
def translation_n3(lattice_n3):
    return bl.build_translation(lattice_n3)


def test_cosine_observable_placement(lattice_n3):
    spec = ObservableSpec(terms=(ObservableTerm(f_harmonics=((1, 0.5),)),))
    (matrix,) = dense(custom(spec, lattice_n3))
    for m in lattice_n3.indices:
        for mp in lattice_n3.indices:
            entry = matrix[row_of(lattice_n3, m), row_of(lattice_n3, mp)]
            expected = 0.5 if abs(m - mp) == 3 else 0.0
            assert entry == pytest.approx(expected)


def test_momentum_square_is_diagonal(lattice_n3):
    spec = ObservableSpec(terms=(ObservableTerm(p_poly=(0.0, 0.0, 1.0)),))
    (matrix,) = dense(custom(spec, lattice_n3))
    assert np.allclose(matrix, np.diag(lattice_n3.momenta**2))


def test_symmetrized_mixed_term_against_product_oracle(lattice_n3):
    # build F and P densely and take (F P + P F)/2 directly
    f = np.zeros((9, 9), dtype=complex)
    for m in lattice_n3.indices:
        for mp in lattice_n3.indices:
            if abs(m - mp) == 3:
                f[row_of(lattice_n3, m), row_of(lattice_n3, mp)] = 0.5
    p = np.diag(lattice_n3.momenta).astype(complex)
    oracle = 0.5 * (f @ p + p @ f)
    spec = ObservableSpec(
        terms=(ObservableTerm(f_harmonics=((1, 0.5),), p_poly=(0.0, 1.0)),)
    )
    (matrix,) = dense(custom(spec, lattice_n3))
    assert np.allclose(matrix, oracle, atol=1e-15)
    # closed form: entries 0.25 hbar (q_m + q_m') at |dm| = 3
    q = lattice_n3.momenta
    for m in lattice_n3.indices:
        for mp in lattice_n3.indices:
            if abs(m - mp) == 3:
                i, j = row_of(lattice_n3, m), row_of(lattice_n3, mp)
                assert matrix[i, j] == pytest.approx(0.25 * (q[i] + q[j]))


def test_polynomial_degree_guard(lattice_n3):
    with pytest.raises(ValueError, match="degree"):
        ObservableTerm(p_poly=(0.0,) * 8)
    with pytest.raises(ValueError, match="degree"):
        next(bl.Battery(lattice_n3, seeds=1, degree=7).tables())


def test_term_canonicalization():
    # negative harmonics fold onto conjugate partners; j=0 must be real
    folded = ObservableTerm(f_harmonics=((-1, 0.25 - 0.5j), (1, 0.1j)))
    assert folded.f_harmonics == ((1, 0.25 + 0.6j),)
    with pytest.raises(ValueError, match="real"):
        ObservableTerm(f_harmonics=((0, 1.0j),))
    with pytest.raises(ValueError, match="function part or a polynomial"):
        custom(
            ObservableSpec(terms=(ObservableTerm(),)), bl.LatticeSpec(cells=3, cutoff=4)
        )


def test_battery_builds_only_the_named_members_it_returns(lattice_n3, monkeypatch):
    # named members are written into their table rows from their specs' diagonals
    built = []
    diagonals = bl.observables._observable_diagonals
    names = {id(spec): name for name, spec in bl.observables._NAMED_SPECS.items()}

    def counting(spec, lattice):
        built.append(names.get(id(spec)))
        return diagonals(spec, lattice)

    monkeypatch.setattr(bl.observables, "_observable_diagonals", counting)
    (table,) = bl.Battery(lattice_n3, seeds=2, named=("cos_a",)).tables()
    assert table.labels == ("cos_a", "seed:1", "seed:2")
    assert built == ["cos_a"]


def test_built_observables_pass_periodicity(lattice_n3, battery_n3, translation_n3):
    for op in battery_n3:
        violation = bl.check_cell_periodicity(op, translation_n3)
        assert violation < PERIODICITY_RTOL
        assert violation < 1e-14


def test_ring_harmonic_fails_periodicity(translation_n3):
    # exp(2 pi i x / L) + h.c. has period L, not a: entries sit at |dm| = 1
    d = 9
    ring = np.zeros((d, d), dtype=complex)
    for row in range(1, d):
        ring[row, row - 1] = 1.0
        ring[row - 1, row] = 1.0
    op = operator(d, dense_to_diagonals(ring))
    violation = bl.check_cell_periodicity(op, translation_n3)
    assert not violation < PERIODICITY_RTOL
    # conjugation scales the entries by exp(2 pi i/3), so the violation is
    # |exp(2 pi i/3) - 1| = sqrt(3)
    assert violation == pytest.approx(np.sqrt(3.0), rel=1e-12)
    assert violation > 0.5


def test_identity_passes_periodicity(translation_n3):
    identity = operator(9, dense_to_diagonals(np.eye(9)))
    violation = bl.check_cell_periodicity(identity, translation_n3)
    assert violation < PERIODICITY_RTOL
    assert violation < 1e-15  # |phase|^2 rounding only


def test_periodicity_check_rejects_translation_of_wrong_shape(translation_n3):
    identity = operator(9, {0: 1.0})
    for wrong in (np.diag(translation_n3), translation_n3[:-1], translation_n3[None]):
        with pytest.raises(ValueError, match="dimension mismatch"):
            bl.check_cell_periodicity(identity, wrong)


def test_random_battery_is_deterministic(lattice_n3):
    a = seeded(1, lattice_n3)
    b = seeded(1, lattice_n3)
    assert np.array_equal(dense(a), dense(b))


def test_random_battery_regression_values(lattice_n3):
    (matrix,) = dense(seeded(1, lattice_n3))
    assert matrix[0, 0] == pytest.approx(SEED1_ENTRY_00, rel=1e-12)
    assert matrix[3, 0] == pytest.approx(SEED1_ENTRY_30, rel=1e-12)
    (other,) = dense(seeded(2, lattice_n3))
    diff = float(np.max(np.abs(matrix - other)))
    assert diff == pytest.approx(SEED1_VS_SEED2_DIFF, rel=1e-12)
    assert diff > 0.0


def test_rescaled_random_member_is_built_once(lattice_n3, monkeypatch):
    built = []
    post_init = bl.OperatorTable.__post_init__

    def counting(self):
        built.append(self.labels)
        post_init(self)

    monkeypatch.setattr(bl.OperatorTable, "__post_init__", counting)
    # seed 1's raw max-entry norm is outside NORM_WINDOW
    (table,) = bl.Battery(lattice_n3, seeds=1, named=()).tables()
    assert table.norm_max[0] == pytest.approx(1.0, rel=1e-15)
    assert built == [("seed:1",)]


def test_random_battery_structure(lattice_n3):
    classes = lattice_n3.indices % 3
    off = classes[:, None] != classes[None, :]
    (table,) = bl.Battery(lattice_n3, seeds=20, named=()).tables()
    for matrix, norm in zip(dense(table), table.norm_max):
        assert float(np.max(np.abs(matrix - matrix.conj().T))) < 1e-14
        assert np.all(matrix[off] == 0.0)
        assert 0.5 <= norm <= 50.0


def test_random_battery_harmonic_reach_guard(lattice_n3):
    with pytest.raises(ValueError, match="unreachable"):
        next(bl.Battery(lattice_n3, seeds=1, max_harmonic=2).tables())  # 2*3 > 4


def test_breaking_observable_couples_adjacent_classes(lattice_n3, translation_n3):
    op = bl.breaking_observable(1, lattice_n3)
    (matrix,) = dense(op)
    coupled = set()
    for i in range(9):
        for j in range(9):
            if matrix[i, j] != 0.0:
                coupled.add((int(lattice_n3.indices[i] % 3), int(lattice_n3.indices[j] % 3)))
    assert coupled == {(0, 1), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2)}
    assert not bl.check_cell_periodicity(op, translation_n3) < PERIODICITY_RTOL


def test_breaking_observable_rejects_cell_periodic_shift(lattice_n3):
    with pytest.raises(ValueError, match="multiple"):
        bl.breaking_observable(3, lattice_n3)
    with pytest.raises(ValueError, match="lie in"):
        bl.breaking_observable(11, lattice_n3)


def test_battery_composition(lattice_n3):
    (table,) = bl.Battery(lattice_n3, seeds=4).tables()
    labels = list(table.labels)
    assert labels[:5] == ["identity", "cos_a", "sin_a", "momentum", "momentum_sq"]
    assert labels[5:] == ["seed:1", "seed:2", "seed:3", "seed:4"]


def test_battery_lists_its_members_and_builds_them_in_order(lattice_n3, monkeypatch):
    # the tables hold the members in order: named, seeds, custom, however
    # the battery is split
    spec = bl.ObservableSpec(terms=(bl.ObservableTerm(p_poly=(0.5, 1.0)),))
    battery = bl.Battery(lattice_n3, seeds=3, named=("sin_a", "identity"), custom=(spec,))
    expected = ("sin_a", "identity", "seed:1", "seed:2", "seed:3", "custom:0")
    assert len(battery) == len(expected)
    (table,) = battery.tables()
    assert table.labels == expected
    monkeypatch.setattr(bl.observables, "_TABLE_ENTRIES", 1)  # one member per table
    alone = list(battery.tables())
    assert [op.labels for op in alone] == [(label,) for label in expected]
    for i, op in enumerate(alone):
        assert np.array_equal(dense(op)[0], dense(table)[i])
    assert np.array_equal(dense(custom(spec, lattice_n3))[0], dense(table)[-1])
    with pytest.raises(ValueError, match="empty"):
        bl.Battery(lattice_n3, seeds=0, named=())


def test_zero_battery_member_raises_when_its_table_is_built(monkeypatch):
    # cells=3, cutoff=1: cos_a's offset 3 reaches past the 3-dim basis
    lattice = bl.LatticeSpec(cells=3, cutoff=1)
    battery = bl.Battery(lattice, seeds=1, max_harmonic=0, named=("identity", "cos_a"))
    monkeypatch.setattr(bl.observables, "_TABLE_ENTRIES", 1)  # one member per table
    tables = battery.tables()
    assert next(tables).labels == ("identity",)
    with pytest.raises(ValueError, match="'cos_a' is the zero operator"):
        next(tables)


def test_named_observables_match_their_functions(lattice_n3):
    assert np.allclose(dense(named("identity", lattice_n3))[0], np.eye(9))
    assert np.allclose(dense(named("momentum", lattice_n3))[0], np.diag(lattice_n3.momenta))
    # sin must be Hermitian with +-i/2 couplings
    (sin,) = dense(named("sin_a", lattice_n3))
    assert sin[row_of(lattice_n3, 3), row_of(lattice_n3, 0)] == pytest.approx(-0.5j)
    assert sin[row_of(lattice_n3, 0), row_of(lattice_n3, 3)] == pytest.approx(0.5j)


@given(seed_a=st.integers(1, 50), seed_b=st.integers(1, 50))
@settings(max_examples=30, deadline=None)
def test_algebra_closure_under_sum_and_symmetrized_product(seed_a, seed_b):
    # sums and symmetrized products of passing operators pass again
    spec = bl.LatticeSpec(cells=3, cutoff=4)
    t = bl.build_translation(spec)
    (a,) = dense(seeded(seed_a, spec))
    (b,) = dense(seeded(seed_b, spec))
    total = operator(9, dense_to_diagonals(a + b))
    sym = operator(9, dense_to_diagonals(0.5 * (a @ b + b @ a)))
    assert bl.check_cell_periodicity(total, t) < PERIODICITY_RTOL
    assert bl.check_cell_periodicity(sym, t) < PERIODICITY_RTOL


def test_periodicity_pass_implies_small_off_class_entries(lattice_n3, translation_n3):
    # numerical validity theorem: a pass at 1e-12 bounds off-class weight by
    # violation / (2 sin(pi/N)); built operators have the entries exactly zero
    classes = lattice_n3.indices % 3
    off = classes[:, None] != classes[None, :]
    for op in members(bl.Battery(lattice_n3, seeds=10)):
        violation = bl.check_cell_periodicity(op, translation_n3)
        assert violation < PERIODICITY_RTOL
        bound = violation * op.norm_max[0] / (2.0 * np.sin(np.pi / 3.0))
        assert float(np.max(np.abs(dense(op)[0][off]))) <= bound
