"""Observable construction, the periodicity check, batteries and counterexamples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blochlab as bl
from blochlab.observables import ObservableSpec, ObservableTerm

from oracles import dense_to_diagonals

# frozen regression values for the documented LCG battery (computed once)
SEED1_ENTRY_00 = -0.014689191527796948
SEED1_ENTRY_30 = -0.1934387847366229 + 0.11129520784170528j
SEED1_VS_SEED2_DIFF = 1.4439066824722269


@pytest.fixture(scope="module")
def translation_n3(lattice_n3):
    return bl.build_translation(lattice_n3)


def test_cosine_observable_placement(basis_n3):
    spec = ObservableSpec(terms=(ObservableTerm(f_harmonics=((1, 0.5),)),))
    op = bl.build_observable(spec, basis_n3)
    for m in basis_n3.indices:
        for mp in basis_n3.indices:
            entry = op.matrix[basis_n3.row_of(m), basis_n3.row_of(mp)]
            expected = 0.5 if abs(m - mp) == 3 else 0.0
            assert entry == pytest.approx(expected)


def test_momentum_square_is_diagonal(basis_n3):
    spec = ObservableSpec(terms=(ObservableTerm(p_poly=(0.0, 0.0, 1.0)),))
    op = bl.build_observable(spec, basis_n3)
    assert np.allclose(op.matrix, np.diag(basis_n3.momenta**2))


def test_symmetrized_mixed_term_against_product_oracle(basis_n3):
    # build F and P densely and take (F P + P F)/2 directly
    f = np.zeros((9, 9), dtype=complex)
    for m in basis_n3.indices:
        for mp in basis_n3.indices:
            if abs(m - mp) == 3:
                f[basis_n3.row_of(m), basis_n3.row_of(mp)] = 0.5
    p = np.diag(basis_n3.momenta).astype(complex)
    oracle = 0.5 * (f @ p + p @ f)
    spec = ObservableSpec(
        terms=(ObservableTerm(f_harmonics=((1, 0.5),), p_poly=(0.0, 1.0)),)
    )
    op = bl.build_observable(spec, basis_n3)
    assert np.allclose(op.matrix, oracle, atol=1e-15)
    # closed form: entries 0.25 hbar (q_m + q_m') at |dm| = 3
    q = basis_n3.momenta
    for m in basis_n3.indices:
        for mp in basis_n3.indices:
            if abs(m - mp) == 3:
                i, j = basis_n3.row_of(m), basis_n3.row_of(mp)
                assert op.matrix[i, j] == pytest.approx(0.25 * (q[i] + q[j]))


def test_unsymmetrized_mixed_term_requires_commuting_factors(basis_n3):
    spec = ObservableSpec(
        terms=(ObservableTerm(f_harmonics=((1, 0.5),), p_poly=(0.0, 1.0)),),
        symmetrize=False,
    )
    with pytest.raises(bl.InvariantViolation, match="symmetrize"):
        bl.build_observable(spec, basis_n3)
    # constant polynomial commutes, so the flag is fine there
    ok = ObservableSpec(
        terms=(ObservableTerm(f_harmonics=((1, 0.5),), p_poly=(2.0,)),), symmetrize=False
    )
    built = bl.build_observable(ok, basis_n3)
    assert built.norm_max == pytest.approx(1.0)


def test_polynomial_degree_guard(basis_n3):
    with pytest.raises(ValueError, match="degree"):
        ObservableTerm(p_poly=(0.0,) * 8)
    with pytest.raises(ValueError, match="degree"):
        bl.random_cell_periodic(1, basis_n3, degree=7)


def test_term_canonicalization():
    # negative harmonics fold onto conjugate partners; j=0 must be real
    folded = ObservableTerm(f_harmonics=((-1, 0.25 - 0.5j), (1, 0.1j)))
    assert folded.f_harmonics == ((1, 0.25 + 0.6j),)
    with pytest.raises(ValueError, match="real"):
        ObservableTerm(f_harmonics=((0, 1.0j),))
    with pytest.raises(ValueError, match="function part or a polynomial"):
        bl.build_observable(
            ObservableSpec(terms=(ObservableTerm(),)), bl.build_basis(bl.LatticeSpec(cells=3, cutoff=4))
        )


def test_battery_builds_only_the_named_members_it_returns(basis_n3, monkeypatch):
    built = []
    build = bl.observables.build_observable

    def counting(spec, basis, label=""):
        built.append(label)
        return build(spec, basis, label)

    monkeypatch.setattr(bl.observables, "build_observable", counting)
    battery = bl.standard_battery(basis_n3, seeds=2, named=("cos_a",))
    assert [op.label for op in battery] == ["cos_a", "seed:1", "seed:2"]
    assert [label for label in built if label in bl.observables.NAMED_OBSERVABLES] == ["cos_a"]


def test_built_observables_pass_periodicity(basis_n3, battery_n3, translation_n3):
    for op in battery_n3:
        report = bl.check_cell_periodicity(op, translation_n3)
        assert report.is_cell_periodic
        assert report.max_violation < 1e-14


def test_ring_harmonic_fails_periodicity(translation_n3):
    # exp(2 pi i x / L) + h.c. has period L, not a: entries sit at |dm| = 1
    d = 9
    ring = np.zeros((d, d), dtype=complex)
    for row in range(1, d):
        ring[row, row - 1] = 1.0
        ring[row - 1, row] = 1.0
    op = bl.HermitianOperator(d, dense_to_diagonals(ring))
    report = bl.check_cell_periodicity(op, translation_n3)
    assert not report.is_cell_periodic
    # conjugation scales the entries by exp(2 pi i/3), so the violation is
    # |exp(2 pi i/3) - 1| = sqrt(3)
    assert report.max_violation == pytest.approx(np.sqrt(3.0), rel=1e-12)
    assert report.max_violation > 0.5


def test_identity_passes_periodicity(translation_n3):
    identity = bl.HermitianOperator(9, dense_to_diagonals(np.eye(9)))
    report = bl.check_cell_periodicity(identity, translation_n3)
    assert report.is_cell_periodic
    assert report.max_violation < 1e-15  # |phase|^2 rounding only


def test_periodicity_check_rejects_translation_of_wrong_shape(translation_n3):
    identity = bl.HermitianOperator(9, {0: 1.0})
    for wrong in (np.diag(translation_n3), translation_n3[:-1], translation_n3[None]):
        with pytest.raises(ValueError, match="dimension mismatch"):
            bl.check_cell_periodicity(identity, wrong)


def test_random_battery_is_deterministic(basis_n3):
    a = bl.random_cell_periodic(1, basis_n3)
    b = bl.random_cell_periodic(1, basis_n3)
    assert np.array_equal(a.matrix, b.matrix)


def test_random_battery_regression_values(basis_n3):
    op = bl.random_cell_periodic(1, basis_n3)
    assert op.matrix[0, 0] == pytest.approx(SEED1_ENTRY_00, rel=1e-12)
    assert op.matrix[3, 0] == pytest.approx(SEED1_ENTRY_30, rel=1e-12)
    other = bl.random_cell_periodic(2, basis_n3)
    diff = float(np.max(np.abs(op.matrix - other.matrix)))
    assert diff == pytest.approx(SEED1_VS_SEED2_DIFF, rel=1e-12)
    assert diff > 0.0


def test_rescaled_random_member_is_built_once(basis_n3, monkeypatch):
    built = []
    post_init = bl.HermitianOperator.__post_init__

    def counting(self):
        built.append(self.label)
        post_init(self)

    monkeypatch.setattr(bl.HermitianOperator, "__post_init__", counting)
    op = bl.random_cell_periodic(1, basis_n3)  # its raw max-entry norm is outside NORM_WINDOW
    assert op.norm_max == pytest.approx(1.0, rel=1e-15)
    assert built == ["seed:1"]


def test_random_battery_structure(basis_n3):
    classes = basis_n3.indices % 3
    off = classes[:, None] != classes[None, :]
    for seed in range(1, 21):
        op = bl.random_cell_periodic(seed, basis_n3)
        assert float(np.max(np.abs(op.matrix - op.matrix.conj().T))) < 1e-14
        assert np.all(op.matrix[off] == 0.0)
        assert 0.5 <= op.norm_max <= 50.0


def test_random_battery_harmonic_reach_guard(basis_n3):
    with pytest.raises(ValueError, match="unreachable"):
        bl.random_cell_periodic(1, basis_n3, max_harmonic=2)  # 2*3 > 4


def test_breaking_observable_couples_adjacent_classes(basis_n3, translation_n3):
    op = bl.breaking_observable(1, basis_n3)
    coupled = set()
    for i in range(9):
        for j in range(9):
            if op.matrix[i, j] != 0.0:
                coupled.add((int(basis_n3.indices[i] % 3), int(basis_n3.indices[j] % 3)))
    assert coupled == {(0, 1), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2)}
    assert not bl.check_cell_periodicity(op, translation_n3).is_cell_periodic


def test_breaking_observable_rejects_cell_periodic_shift(basis_n3):
    with pytest.raises(ValueError, match="multiple"):
        bl.breaking_observable(3, basis_n3)
    with pytest.raises(ValueError, match="lie in"):
        bl.breaking_observable(11, basis_n3)


def test_battery_composition(basis_n3):
    battery = bl.standard_battery(basis_n3, seeds=4)
    labels = [op.label for op in battery]
    assert labels[:5] == ["identity", "cos_a", "sin_a", "momentum", "momentum_sq"]
    assert labels[5:] == ["seed:1", "seed:2", "seed:3", "seed:4"]


def test_battery_builds_each_member_on_demand(basis_n3):
    custom = (bl.ObservableSpec(terms=(bl.ObservableTerm(p_poly=(0.5, 1.0)),)),)
    battery = bl.Battery(basis_n3, seeds=3, named=("sin_a", "identity"), custom=custom)
    expected = ("sin_a", "identity", "seed:1", "seed:2", "seed:3", "custom:0")
    assert len(battery) == len(expected) and battery.labels == expected
    listed = bl.standard_battery(basis_n3, seeds=3, named=("sin_a", "identity"), custom=custom)
    for i, op in enumerate(battery):
        assert op.label == expected[i]
        assert np.array_equal(op.matrix, listed[i].matrix)
        assert np.array_equal(battery.member(i).matrix, op.matrix)
    with pytest.raises(IndexError):
        battery.member(len(expected))
    with pytest.raises(ValueError, match="empty"):
        bl.Battery(basis_n3, seeds=0, named=())


def test_zero_battery_member_raises_when_it_is_built():
    # cells=3, cutoff=1: cos_a's offset 3 reaches past the 3-dim basis
    basis = bl.build_basis(bl.LatticeSpec(cells=3, cutoff=1))
    battery = bl.Battery(basis, seeds=1, max_harmonic=0, named=("identity", "cos_a"))
    assert battery.member(0).label == "identity"
    with pytest.raises(ValueError, match="'cos_a' is the zero operator"):
        battery.member(1)
    assert battery.member(2).label == "seed:1"


def test_named_observables_match_their_functions(basis_n3):
    named = bl.named_observables(basis_n3)
    assert np.allclose(named["identity"].matrix, np.eye(9))
    assert np.allclose(named["momentum"].matrix, np.diag(basis_n3.momenta))
    # sin must be Hermitian with +-i/2 couplings
    sin = named["sin_a"].matrix
    assert sin[basis_n3.row_of(3), basis_n3.row_of(0)] == pytest.approx(-0.5j)
    assert sin[basis_n3.row_of(0), basis_n3.row_of(3)] == pytest.approx(0.5j)


@given(seed_a=st.integers(1, 50), seed_b=st.integers(1, 50))
@settings(max_examples=30, deadline=None)
def test_algebra_closure_under_sum_and_symmetrized_product(seed_a, seed_b):
    # sums and symmetrized products of passing operators pass again
    spec = bl.LatticeSpec(cells=3, cutoff=4)
    basis = bl.build_basis(spec)
    t = bl.build_translation(spec)
    a = bl.random_cell_periodic(seed_a, basis)
    b = bl.random_cell_periodic(seed_b, basis)
    total = bl.HermitianOperator(9, dense_to_diagonals(a.matrix + b.matrix))
    sym = bl.HermitianOperator(
        9, dense_to_diagonals(0.5 * (a.matrix @ b.matrix + b.matrix @ a.matrix))
    )
    assert bl.check_cell_periodicity(total, t).is_cell_periodic
    assert bl.check_cell_periodicity(sym, t).is_cell_periodic


def test_periodicity_pass_implies_small_off_class_entries(basis_n3, translation_n3):
    # numerical validity theorem: a pass at 1e-12 bounds off-class weight by
    # violation / (2 sin(pi/N)); built operators have the entries exactly zero
    classes = basis_n3.indices % 3
    off = classes[:, None] != classes[None, :]
    for op in bl.standard_battery(basis_n3, seeds=10):
        report = bl.check_cell_periodicity(op, translation_n3)
        assert report.is_cell_periodic
        bound = report.max_violation * op.norm_max / (2.0 * np.sin(np.pi / 3.0))
        assert float(np.max(np.abs(op.matrix[off]))) <= bound
