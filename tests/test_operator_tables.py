"""Battery tables against per-member references, bit for bit.

A battery is built as stacked tables, each in one pass over the terms of its
members.  Every row must equal the member built alone
(``oracles.loop_seeded_diagonals`` for a seed, ``oracles.observable_diagonals``
for a named or custom member), and the measurements made on a whole table
must equal the same measurements made one member at a time.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import blochlab as bl
from blochlab.config import validate_config
from blochlab.runner import run_scenario, stable_report_bytes
from oracles import (
    dense,
    dense_to_diagonals,
    diagonals,
    join,
    loop_breaking_observable,
    loop_class_coupling,
    loop_hamiltonian,
    loop_seeded_diagonals,
    member_labels,
    member_sector_elements,
    members,
    observable_diagonals,
    seeded,
    seeded_diagonals,
)
from test_state_block_oracles import LATTICES, POTENTIAL

TABLE_LATTICES = (*LATTICES, bl.LatticeSpec(cells=15, cutoff=247))  # N=15, d=495
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

CUSTOM = (
    bl.ObservableSpec(
        terms=(
            bl.ObservableTerm(f_harmonics=((0, 0.3), (2, 0.1 - 0.2j)), p_poly=(0.5, 1.0)),
            bl.ObservableTerm(p_poly=(0.0, 0.0, 0.2)),
        )
    ),
    bl.ObservableSpec(terms=(bl.ObservableTerm(f_harmonics=((1, 0.25j),), p_poly=(2.0,)),)),
    # three terms at j = 0, 1, 2, up to degree 6; harmonic 2 is given at
    # coefficient 0 alone, so the member holds an all-zero diagonal at 2N
    bl.ObservableSpec(
        terms=(
            bl.ObservableTerm(
                f_harmonics=((0, -0.4), (1, 0.3 + 0.1j)), p_poly=(0.1, 0, 0, 0, 0, 0, 0.02)
            ),
            bl.ObservableTerm(f_harmonics=((1, -0.2 + 0.6j),), p_poly=(0.0, -0.5, 0.25)),
            bl.ObservableTerm(f_harmonics=((2, 0j),), p_poly=(1.0, 2.0)),
        )
    ),
)

BATTERIES = {
    "default": {"seeds": 20},
    "named_subset": {"seeds": 3, "named": ("sin_a", "momentum_sq")},
    "seeds_0": {"seeds": 0},
    "custom": {"seeds": 4, "named": ("cos_a",), "custom": CUSTOM},
    "degree_0": {"seeds": 5, "degree": 0, "named": ()},
}


def _lattice_id(spec):
    return f"N{spec.cells}_d{spec.dim}"


def _alone(battery: bl.Battery, label: str) -> dict:
    """The offset diagonals of the member ``label``, built by itself."""
    kind, _, index = label.partition(":")
    if kind == "seed":
        seed = int(index)
        return loop_seeded_diagonals(seed, battery.lattice, battery.max_harmonic, battery.degree)
    spec = battery.custom[int(index)] if kind == "custom" else bl.observables._NAMED_SPECS[label]
    d = battery.lattice.dim
    alone = observable_diagonals(spec, battery.lattice)
    return {o: np.zeros(d - o, complex) + v for o, v in alone.items()}  # summed onto zeros


@pytest.mark.parametrize("split", [False, True], ids=["one_table", "split"])
@pytest.mark.parametrize("name", sorted(BATTERIES))
@pytest.mark.parametrize("spec", TABLE_LATTICES, ids=_lattice_id)
def test_table_rows_equal_members_built_alone_bit_for_bit(spec, name, split, monkeypatch):
    d = spec.dim
    if split:  # two or three members per table
        monkeypatch.setattr(bl.observables, "_TABLE_ENTRIES", 2 * 3 * d)
    battery = bl.Battery(spec, **BATTERIES[name])
    tables = list(battery.tables())
    assert len(tables) > 1 if split else len(tables) == 1
    rows = [(table, i) for table in tables for i in range(len(table))]
    assert tuple(table.labels[i] for table, i in rows) == member_labels(battery)
    for index, (table, i) in enumerate(rows):
        label = table.labels[i]
        alone = _alone(battery, label)
        assert set(alone) <= set(table.offsets), label
        for k, o in enumerate(table.offsets):
            expected = alone.get(o, np.zeros(d - o, complex))
            assert table.values[i, k, : d - o].tobytes() == expected.tobytes(), (label, o)
            assert not table.values[i, k, d - o :].any(), (label, o)
        assert table.norm_max[i] == max(np.max(np.abs(v)) for v in alone.values())
        # a member alone holds its own offsets, a zero diagonal it gives included
        assert battery.member(index).offsets == tuple(sorted(alone)), label


@pytest.mark.parametrize("spec", TABLE_LATTICES, ids=_lattice_id)
def test_one_seed_table_is_the_seeded_member(spec):
    for seed in (1, 7, 20):
        op = seeded(seed, spec)
        alone = loop_seeded_diagonals(seed, spec)
        assert op.labels == (f"seed:{seed}",) and diagonals(op).keys() == alone.keys()
        for o, values in alone.items():
            assert diagonals(op)[o].tobytes() == values.tobytes()


@pytest.mark.parametrize("spec", TABLE_LATTICES, ids=_lattice_id)
def test_seeded_rows_equal_the_seeds_drawn_one_scalar_at_a_time(spec):
    # the seeds of a table against the same seeds drawn by the scalar generator
    # and stacked as one-term rows, at the widest reach and degree the lattice holds
    harmonic = spec.cutoff // spec.cells
    battery = bl.Battery(spec, seeds=9, max_harmonic=harmonic, degree=6, named=())
    (table,) = battery.tables()
    reference = seeded_diagonals(range(1, 10), spec, harmonic, 6)
    assert table.offsets == tuple(sorted(reference))
    for k, o in enumerate(table.offsets):
        expected = np.zeros((9, spec.dim - o), complex) + reference[o]  # summed onto zeros
        assert table.values[:, k, : spec.dim - o].tobytes() == expected.tobytes(), o


@pytest.mark.parametrize("breaking", [False, True], ids=["periodic", "with_breaking"])
@pytest.mark.parametrize("spec", LATTICES, ids=_lattice_id)
def test_sector_report_on_a_table_equals_the_member_loop_bit_for_bit(spec, breaking):
    bands = bl.solve_bands(bl.build_hamiltonian(spec, POTENTIAL), spec)
    alone = members(bl.Battery(spec, seeds=5, custom=CUSTOM))
    if breaking:
        alone += [bl.breaking_observable(s, spec) for s in (1, 2)]
    table = join(alone)
    report = bl.sector_decomposition_report(bands, [table])
    leakage, within = member_sector_elements(bands, alone)
    assert report.leakage.tobytes() == leakage.tobytes()
    assert report.within_sector.tobytes() == within.tobytes()
    assert report.battery_labels == table.labels == sum((op.labels for op in alone), ())
    # a periodic table has exact zeros off the classes; breaking members light them up
    assert (leakage[0, 1] > 1e-6) if breaking else (report.max_offdiagonal == 0.0)


@pytest.mark.parametrize("spec", LATTICES, ids=_lattice_id)
def test_stacked_methods_equal_each_member_alone_bit_for_bit(spec):
    # apply, class_diagonals, class_coupling and matrix on the whole table give
    # each member's own, zero signs included: the member assembled alone holds
    # only its nonzero diagonals, where its table row also carries the zero
    # rows of the other members' offsets
    n, d = spec.cells, spec.dim
    alone = [*members(bl.Battery(spec, seeds=5, custom=CUSTOM)), bl.breaking_observable(1, spec)]
    table = join(alone)
    rng = np.random.default_rng(d)
    vectors = rng.normal(size=(2, 3, d)) + 1j * rng.normal(size=(2, 3, d))
    rows = spec.class_rows
    applied, matrices, coupling = table.apply(vectors), dense(table), table.class_coupling(rows)
    on_rows = dict(table.class_diagonals(rows))  # q -> (members, N, b - q)
    assert applied.shape == (len(table), 2, 3, d) and coupling.shape == (len(table), n, n)
    assert list(on_rows) == [o // n for o in table.offsets if o % n == 0]
    for i, (label, op) in enumerate(zip(table.labels, alone)):
        assert op.labels == (label,) and op.norm_max[0] == table.norm_max[i]
        assert set(op.offsets) < set(table.offsets)
        assert applied[i].tobytes() == op.apply(vectors)[0].tobytes(), label
        own = dict(op.class_diagonals(rows))
        for q, values in on_rows.items():  # a diagonal the member lacks reads exact zeros
            expected = own[q][0] if q in own else np.zeros_like(values[i])
            assert values[i].tobytes() == expected.tobytes(), (label, q)
        assert matrices[i].tobytes() == dense(op)[0].tobytes(), label
        assert coupling[i].tobytes() == op.class_coupling(rows)[0].tobytes(), label


@pytest.mark.parametrize("spec", TABLE_LATTICES, ids=_lattice_id)
def test_diagonals_read_the_stored_entries_bit_for_bit(spec):
    # every stored diagonal, in offset order, zero rows included: the nonzero
    # ones of a member are oracles.diagonals and the dense oracle's, and all
    # of them are the subdiagonals of the member's dense matrix
    d = spec.dim
    h = bl.build_hamiltonian(spec, POTENTIAL)
    breaker = bl.breaking_observable(2, spec)
    alone = [*members(bl.Battery(spec, seeds=3, custom=CUSTOM)), h, breaker]
    table = join(alone)
    read = list(table.diagonals())
    assert [o for o, _ in read] == list(table.offsets)
    for i, (label, op, matrix) in enumerate(zip(table.labels, alone, dense(table))):
        stored = {o: v[i] for o, v in read}
        assert all(v.shape == (d - o,) for o, v in stored.items()), label
        for o, v in stored.items():
            assert v.tobytes() == np.diagonal(matrix, -o).tobytes(), (label, o)
        nonzero = {o: v for o, v in stored.items() if v.any()}
        expected = diagonals(op)
        assert nonzero.keys() == expected.keys(), label
        assert all(nonzero[o].tobytes() == v.tobytes() for o, v in expected.items()), label
    loops = (loop_hamiltonian(spec, POTENTIAL), loop_breaking_observable(2, spec))
    for op, loop in zip((h, breaker), loops):
        nonzero = {o: v[0] for o, v in op.diagonals() if v[0].any()}
        reference = dense_to_diagonals(loop)
        assert nonzero.keys() == reference.keys()
        assert all(nonzero[o].tobytes() == v.tobytes() for o, v in reference.items())


@pytest.mark.parametrize("spec", TABLE_LATTICES, ids=_lattice_id)
def test_a_class_row_table_without_every_row_is_refused(spec):
    # N is read from the table's shape: the first k classes alone would read
    # every offset's class wrongly, and a solve on them would drop the potential
    h = bl.build_hamiltonian(spec, POTENTIAL)
    for k in range(1, spec.cells):
        rows = spec.class_rows[:k]
        with pytest.raises(ValueError, match="does not hold the"):
            list(h.class_diagonals(rows))
        with pytest.raises(ValueError, match="does not hold the"):
            h.class_coupling(rows)
        with pytest.raises(ValueError, match="does not hold the"):
            h.independent_classes(rows)


@pytest.mark.parametrize("spec", TABLE_LATTICES, ids=_lattice_id)
def test_time_reversal_pairs_classes_on_a_symmetric_basis_alone(spec):
    # a real potential is time-reversal even: half the zone fixes the rest on
    # a basis symmetric under m -> -m; a padded basis, the momentum (odd under
    # time reversal) and one entry off a palindrome solve every class
    n, rows = spec.cells, spec.class_rows
    half = n if spec.pad else n // 2 + 1
    assert bl.build_hamiltonian(spec, POTENTIAL).independent_classes(rows) == half
    even = bl.Battery(spec, seeds=0, named=("cos_a", "sin_a", "momentum_sq"))
    assert [table.independent_classes(rows) for table in even.tables()] == [half]
    momentum = bl.Battery(spec, seeds=0, named=("momentum",))
    assert [table.independent_classes(rows) for table in momentum.tables()] == [n]
    values = np.ones(spec.dim - n, dtype=complex)
    values[0] += 1e-15
    tilted = bl.OperatorTable.assemble(spec.dim, [(("tilted",), {0: 1.0, n: values})])
    assert tilted.independent_classes(rows) == n


@pytest.mark.parametrize("spec", TABLE_LATTICES, ids=_lattice_id)
def test_class_coupling_is_zero_on_the_battery_and_the_entries_of_a_breaker(spec):
    n, rows = spec.cells, spec.class_rows
    for name, battery in BATTERIES.items():
        for table in bl.Battery(spec, **battery).tables():
            zeros = np.zeros((len(table), n, n))
            assert table.class_coupling(rows).tobytes() == zeros.tobytes(), name
    for shift in (1, 2):
        breaker = bl.breaking_observable(shift, spec)
        (coupling,) = breaker.class_coupling(rows)
        expected = loop_class_coupling(loop_breaking_observable(shift, spec), rows)
        assert coupling.tobytes() == expected.tobytes()
        # unit entries: block (l + s, l) holds the diagonal, block (l, l + s) its mirror
        step = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
        assert np.all((coupling > 0) == ((step == shift % n) | (step == -shift % n)))
        assert coupling.max() == (2.0 if 2 * shift % n == 0 else 1.0)


def _random_table(spec, rng):
    """Four members on diagonals at offsets N divides and offsets it does not, up to d - 1."""
    n, d = spec.cells, spec.dim
    offsets = sorted({0, 1, 2, n, n + 1, 2 * n, d - 1})
    parts = []
    for i in range(4):
        diagonals = {0: rng.normal(size=d)}  # a real main diagonal
        for o in rng.choice(offsets[1:], size=3, replace=False):
            diagonals[int(o)] = rng.normal(size=d - o) + 1j * rng.normal(size=d - o)
        parts.append(((f"r{i}",), diagonals))
    return bl.OperatorTable.assemble(d, parts)


def _row_subsets(spec, rng):
    """Ascending row sets: one class, two classes, a random set, a run, one row, all rows."""
    rows, d = spec.class_rows, spec.dim
    return {
        "one_class": rows[1],
        "two_classes": np.sort(np.concatenate([rows[0], rows[-1]])),
        "random": np.sort(rng.choice(d, size=d // 3, replace=False)),
        "run": np.arange(2, d - 3),
        "one_row": np.array([d // 2]),
        "all": np.arange(d),
    }


@pytest.mark.parametrize("spec", TABLE_LATTICES, ids=_lattice_id)
def test_expectation_on_rows_equals_the_zero_padded_vectors(spec):
    # on a subset of rows a diagonal meets only the pairs (m, m + o) with both
    # rows in it; the padded rows add exact zeros, so only the summation order
    # moves.  On one class, offsets N does not divide meet no pair at all
    d = spec.dim
    rng = np.random.default_rng(spec.cells * d)
    table = _random_table(spec, rng)
    assert any(o % spec.cells for o in table.offsets) and table.offsets[-1] == d - 1
    for name, rows in _row_subsets(spec, rng).items():
        x = rng.normal(size=(5, rows.size)) + 1j * rng.normal(size=(5, rows.size))
        padded = np.zeros((5, d), dtype=complex)
        padded[:, rows] = x
        dense = table.expectation(padded)
        on_rows = table.expectation(x, rows)
        assert on_rows.shape == (len(table), 5)
        scale = np.abs(dense).max()
        assert np.all(np.abs(on_rows - dense) <= 1e-14 * scale), name
    x = rng.normal(size=(3, d)) + 1j * rng.normal(size=(3, d))
    assert table.expectation(x).tobytes() == table.expectation(x, np.arange(d)).tobytes()


def test_a_diagonal_that_meets_no_pair_of_the_rows_adds_nothing(lattice_n3):
    # class 0 alone meets the diagonal at offset 1 nowhere: an exact zero
    spec = lattice_n3
    rows = spec.class_rows[0]
    table = bl.OperatorTable.assemble(spec.dim, [(("shift",), {1: 1.0})])
    x = np.ones((2, rows.size), dtype=complex)
    assert table.expectation(x, rows).tobytes() == np.zeros((1, 2)).tobytes()


def test_periodicity_of_a_table_is_its_worst_member(lattice_n3):
    t = bl.build_translation(lattice_n3)
    alone = members(bl.Battery(lattice_n3, seeds=3)) + [bl.breaking_observable(1, lattice_n3)]
    each = [bl.check_cell_periodicity(op, t) for op in alone]
    assert max(each[:-1]) < 1e-14 < each[-1]
    assert bl.check_cell_periodicity(join(alone), t) == each[-1]
    assert bl.check_cell_periodicity(join(alone[:-1]), t) == max(each[:-1])


def test_table_checks_every_member_once_with_the_operator_messages():
    def table(*diagonals):
        return bl.OperatorTable.assemble(
            3, [((f"m{i}",), dict(enumerate(v))) for i, v in enumerate(diagonals)]
        )

    assert len(table([[1.0, 2.0, 3.0]], [[0.0, 0.0, 1.0], 0.5j])) == 2
    with pytest.raises(ValueError, match="non-finite entry"):
        table([[1.0, 2.0, 3.0]], [[1.0, np.inf, 0.0]])
    with pytest.raises(ValueError, match="matrix is not Hermitian"):
        table([[1.0, 2.0, 3.0]], [[1.0, 1.0 + 1e-9j, 0.0]])
    with pytest.raises(ValueError, match="'m1' is the zero operator"):
        table([[1.0, 2.0, 3.0]], [[0.0, 0.0, 0.0], 0.0])
    with pytest.raises(ValueError, match="outside 0..2"):
        table([[1.0, 2.0, 3.0], 0.0, 0.0, 1.0])



def _shipped(name: str) -> dict:
    return json.loads((CONFIG_DIR / f"{name}.json").read_text())


def test_a_run_does_not_depend_on_how_the_battery_splits_into_tables(monkeypatch):
    # one table against one member per table.  The superselect report is the
    # same bytes.  The Wannier side's per-offset (members, d - o) @ (d - o, rows)
    # product rounds apart for a one-member table (band 1's residual reads
    # 7.1e-15 in one table, 3.6e-15 split), so there the checks are compared
    cfgs = [validate_config(_shipped(name)) for name in ("superselect_mathieu", "wannier_mathieu")]
    whole = [run_scenario(cfg) for cfg in cfgs]
    monkeypatch.setattr(bl.observables, "_TABLE_ENTRIES", 1)
    assert all(len(list(cfg.battery.tables())) == len(cfg.battery) for cfg in cfgs)
    split = [run_scenario(cfg) for cfg in cfgs]
    assert stable_report_bytes(split[0]) == stable_report_bytes(whole[0])
    assert split[1].checks == whole[1].checks and split[1].passed


# a custom member equal to sin_a, the strongest of these named members, ties
# it bit for bit in a later table; there is no cos_a to scan across classes
TWIN_BATTERY = {
    "seeds": 0,
    "named": ["identity", "sin_a", "momentum", "momentum_sq"],
    "custom": [{"terms": [{"f": [{"j": 1, "re": 0.0, "im": -0.5}]}]}],
}


@pytest.mark.parametrize("per_table", [1, 2])
@pytest.mark.parametrize(
    "battery",
    [{"seeds": 20}, TWIN_BATTERY],
    ids=["shipped", "sin_a_twin"],
)
def test_scanned_members_survive_a_split_battery(monkeypatch, battery, per_table):
    data = {**_shipped("superselect_mathieu"), "battery": battery}
    cfg = validate_config(data)
    whole = run_scenario(cfg).results
    spec = cfg.lattice  # every member fills offsets 0 and N only: two diagonals
    monkeypatch.setattr(bl.observables, "_TABLE_ENTRIES", per_table * 2 * spec.dim)
    assert len(list(cfg.battery.tables())) >= 3
    split = run_scenario(cfg).results
    labels = member_labels(cfg.battery)
    bands = bl.solve_bands(bl.build_hamiltonian(spec, cfg.potential), spec)
    _, within = member_sector_elements(bands, members(cfg.battery))
    strongest = labels[int(np.argmax(within[0]))]  # the first of the largest
    if "custom" in battery:
        assert strongest == "sin_a" and within[0, 1] == within[0, 4] == within[0].max()
    assert split["fringe_within"]["observable"] == strongest
    assert split["fringe_within"]["cross_element"] == within[0].max()
    assert split["fringe_cross"]["observable"] == ("cos_a" if "cos_a" in labels else labels[0])
    for scan in ("fringe_cross", "fringe_within"):
        assert np.array(split[scan]["averages"]).tobytes() == np.array(whole[scan]["averages"]).tobytes()
        assert split[scan]["observable"] == whole[scan]["observable"]
