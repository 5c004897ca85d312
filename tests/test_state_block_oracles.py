"""The (sector, band, row) class blocks against per-class and per-state loops.

The stacked eigensolve and gauge must equal one eigh and one cluster-by-
cluster gauge per class bit for bit, and the leakage table of a battery's
table the pairwise class loop.  The battery carries a periodicity-breaking member: on cell-periodic
members every cross-class entry is a literal 0.0, which no reshape or
mirroring error could change.
"""

import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import blochlab as bl
from blochlab.bloch import DEGENERACY_ATOL, _canonical_eigenbasis
from blochlab.config import parse_config
from oracles import (
    dense,
    join,
    loop_canonical_eigenbasis,
    loop_class_form,
    loop_solve_bands,
    matrix_element,
    member_sector_elements,
    members,
    operator,
    pairwise_leakage,
    state_mixture_residual,
)

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
    bands = bl.solve_bands(bl.build_hamiltonian(spec, POTENTIAL), spec)
    battery = members(bl.Battery(spec, seeds=5)) + [
        bl.breaking_observable(1, spec),
        bl.breaking_observable(2, spec),
    ]
    return spec, bands, battery


def _cluster_sizes(energies: np.ndarray) -> set[int]:
    """Sizes of the degenerate clusters of each row of ascending energies."""
    sizes = set()
    for row in np.atleast_2d(energies):
        atol = DEGENERACY_ATOL * max(1.0, float(np.max(np.abs(row))))
        cuts = np.flatnonzero(~(np.diff(row) < atol)) + 1
        sizes |= {len(c) for c in np.split(row, cuts)}
    return sizes


@pytest.mark.parametrize("potential", [POTENTIAL, bl.PotentialSpec()], ids=["mathieu", "free"])
@pytest.mark.parametrize("spec", LATTICES, ids=lambda s: f"N{s.cells}_d{s.dim}")
def test_stacked_solve_equals_per_class_loop_bit_for_bit(spec, potential):
    h = bl.build_hamiltonian(spec, potential)
    bands = bl.solve_bands(h, spec)
    energies, blocks = loop_solve_bands(h, bands.rows)
    assert np.array_equal(bands.energies, energies)
    assert np.array_equal(bands.blocks, blocks)
    if potential.is_free:  # class 0 pairs +-G: the cluster re-span runs
        assert 2 in _cluster_sizes(bands.energies)


def test_stacked_gauge_equals_per_system_loop_on_clusters_of_two_and_three():
    # each system's clusters are measured on its own energy scale: the 1e-8
    # split pair is two clusters next to a system of scale 6e4
    rng = np.random.default_rng(20)
    levels = (
        [0.0, 0.0, 1.0, 2.0, 2.0, 2.0, 3.0, 4.0, 4.0],
        [-1.0, -1.0, -1.0, 0.5, 0.5, 1.0, 2.0, 2.0, 3.0],
        [5.0, 5.0, 5.0, 6.0, 7.0, 7.0, 7.0, 8.0, 9.0],
        [0.1, 0.1 + 1e-8, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        [1e4, 1e4, 2e4, 3e4, 3e4, 3e4, 4e4, 5e4, 6e4],
    )
    stack = []
    for ev in levels:
        q, _ = np.linalg.qr(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))
        stack.append((q * ev) @ q.conj().T)
    vals, vecs = np.linalg.eigh(np.array(stack))
    assert _cluster_sizes(vals) == {1, 2, 3}
    got = _canonical_eigenbasis(vals, vecs)
    for l in range(len(stack)):
        assert np.array_equal(got[l], loop_canonical_eigenbasis(vals[l], vecs[l]))


def test_free_lattice_solve_holds_one_cluster_projector_at_a_time():
    # N=2, d=512 free: 255 pairs +-m, each a cluster of b=256 rows.  A b x b
    # projector is 1 MB; a stack of all of them would hold ~270 MB
    spec = bl.LatticeSpec(cells=2, cutoff=255, pad_basis=True)
    h = bl.build_hamiltonian(spec, bl.PotentialSpec())
    tracemalloc.start()
    try:
        bands = bl.solve_bands(h, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec.dim == 512 and _cluster_sizes(bands.energies) == {1, 2}
    assert peak < 32e6, f"peak {peak / 1e6:.1f} MB"
    assert np.array_equal(bands.blocks, loop_solve_bands(h, bands.rows)[1])


@pytest.mark.parametrize("spec", LATTICES, ids=lambda s: f"N{s.cells}_d{s.dim}")
def test_one_eigensolve_per_lattice_solve(spec, monkeypatch):
    # a basis symmetric under m -> -m solves classes 0..N//2 only; a padded
    # one has no time-reversal partners and solves every class
    shapes = []
    eigh = np.linalg.eigh

    def counted(a):
        shapes.append(np.shape(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    bl.solve_bands(bl.build_hamiltonian(spec, POTENTIAL), spec)
    b = spec.dim // spec.cells
    solved = spec.cells if spec.pad_basis else spec.cells // 2 + 1
    assert shapes == [(solved, b, b)]


def _own_class_states(h, rows, sector):
    """Energies and gauged states of one class from its own dense block.

    A class past N // 2 is read in descending row order, the order its
    time-reversal partner's rows take under m -> -m, and turned back.
    """
    (matrix,) = dense(h)
    step = -1 if sector > len(rows) // 2 else 1
    order = rows[sector][::step]
    vals, vecs = np.linalg.eigh(matrix[np.ix_(order, order)])
    return vals, loop_canonical_eigenbasis(vals, vecs).T[:, ::step]


SWEEP_LATTICES = tuple(  # (N, d) of the benchmark's lattice sweep
    bl.LatticeSpec(cells=n, cutoff=(d - 1) // 2)
    for n, d in ((3, 81), (7, 217), (9, 405), (15, 495))
)


def _shipped_lattices():
    for path in sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json")):
        cfg = parse_config(path)
        if cfg.lattice is not None:
            yield pytest.param(cfg.lattice, cfg.potential, id=path.stem)


@pytest.mark.parametrize(
    "spec, potential",
    [pytest.param(s, POTENTIAL, id=f"N{s.cells}_d{s.dim}") for s in SWEEP_LATTICES]
    + list(_shipped_lattices()),
)
def test_half_zone_states_match_each_class_solved_alone(spec, potential):
    # independent of the mirror: every class's own dense eigh, gauged on its
    # own rows, against the states filled by time reversal
    h = bl.build_hamiltonian(spec, potential)
    bands = bl.solve_bands(h, spec)
    scale = max(1.0, float(np.max(np.abs(bands.energies))))
    for sector in range(spec.cells):
        vals, states = _own_class_states(h, bands.rows, sector)
        assert np.max(np.abs(bands.energies[sector] - vals)) <= 1e-13 * scale
        assert np.max(np.abs(bands.blocks[sector] - states)) <= 1e-13


def test_class_form_matches_the_dense_form(solved):
    # random states on the class rows, and an operator that is not cell-
    # periodic but also carries class-preserving diagonals: only those enter.
    # The table's stacked form is each member's own form bit for bit
    spec, bands, battery = solved
    n, b = bands.rows.shape
    rng = np.random.default_rng(11)
    bra, ket = rng.normal(size=(2, 3, n, b)) + 1j * rng.normal(size=(2, 3, n, b))
    mixed = operator(
        spec.dim,
        {o: rng.normal(size=spec.dim - o) + 1j * rng.normal(size=spec.dim - o) * (o > 0)
         for o in (0, 1, n, 2 * n + 1)},
        label="mixed",
    )
    dense_bra, dense_ket = (np.zeros((3, n, spec.dim), complex) for _ in range(2))
    np.put_along_axis(dense_bra, bands.rows[None], bra, axis=2)
    np.put_along_axis(dense_ket, bands.rows[None], ket, axis=2)
    members = [*battery, mixed]
    alone = [*battery, mixed]
    table = join(alone)
    stacked = table.class_form(bands.rows, bra, ket)
    assert stacked.shape == (len(alone), 3, n)
    for op, label, matrix, got in zip(alone, table.labels, dense(table), stacked):
        assert got.tobytes() == loop_class_form(op, bands.rows, bra, ket).tobytes(), label
        expected = np.sum((dense_bra.conj() @ matrix) * dense_ket, axis=-1)  # bra^H O ket
        # both sum the same products in another order: relative to |bra|^T |O| |ket|
        terms = np.sum((np.abs(dense_bra) @ np.abs(matrix)) * np.abs(dense_ket), axis=-1)
        assert np.all(np.abs(got - expected) <= 1e-14 * terms), label
        if label.startswith("breaking:"):  # every diagonal couples other classes
            assert not np.any(got)


def test_leakage_table_equals_pairwise_loop_bit_for_bit(solved):
    # the loop slices each member's dense (j, l) blocks one class pair at a
    # time and sums the largest |entry| of each plane-wave offset
    _, bands, battery = solved
    report = bl.sector_decomposition_report(bands, [join(battery)])
    expected, _ = member_sector_elements(bands, battery)
    assert report.leakage.tobytes() == expected.tobytes()
    # the breaking members light up the neighbouring classes, so the
    # comparison is not between two tables of zeros
    n = len(bands.k_values)
    assert all(expected[l, (l + 1) % n] > 1e-6 for l in range(n))


def _coupling_members(spec):
    """A breaker at every shift the basis holds, and two members with several coupling diagonals.

    The random one comes close to its bound; the uniform one has unit entries
    at offsets 1, N + 1 and 2N + 1, which all join class l to l + 1.
    """
    n, d = spec.cells, spec.dim
    rng = np.random.default_rng(d)
    diagonals = {o: rng.normal(size=d - o) + 1j * rng.normal(size=d - o) for o in (1, 2, n + 1)}
    random = operator(d, {0: rng.normal(size=d), **diagonals}, "random")
    uniform = operator(d, {1: 1.0, n + 1: 1.0, 2 * n + 1: 1.0}, "uniform")
    return [bl.breaking_observable(s, spec) for s in range(1, d) if s % n] + [random, uniform]


def test_every_element_between_classes_is_within_its_leakage_entry(solved):
    # the dense elements max |<psi_{m k_j}|O|psi_{n k_l}>| / ||O||_max are at most
    # leakage[j, l] (up to the products' rounding), and exactly 0 where it is 0.  The
    # largest |entry| of a block alone is no bound: the diagonals in one block (a
    # diagonal and its mirror when 2s = 0 mod N, or offsets 1 and N + 1) add up
    spec, bands, _ = solved
    n, rows = spec.cells, bands.rows
    off = ~np.eye(n, dtype=bool)
    over_largest_entry = 0.0
    for op in _coupling_members(spec):
        elements = pairwise_leakage(bands.coeffs, [op])[off]
        bound = bl.sector_decomposition_report(bands, [op]).leakage[off]
        assert np.all(elements <= bound * (1.0 + 1e-12)), op.labels
        assert not np.any(elements[bound == 0.0]), op.labels
        (magnitude,) = np.abs(dense(op)) / op.norm_max[0]
        largest = np.array([[magnitude[np.ix_(r, c)].max() for c in rows] for r in rows])[off]
        ratio = np.divide(elements, largest, out=np.zeros_like(elements), where=largest > 0)
        over_largest_entry = max(over_largest_entry, float(ratio.max()))
    assert over_largest_entry > 1.0


def test_leakage_report_reads_a_generator_like_the_list(solved, monkeypatch):
    # the battery split into tables of at most three members, read from a
    # generator one table at a time, gives the one-table report bit for bit
    spec, bands, battery = solved
    monkeypatch.setattr(bl.observables, "_TABLE_ENTRIES", 3 * 2 * spec.dim)
    tables = itertools.chain(
        bl.Battery(spec, seeds=5).tables(),
        (bl.breaking_observable(s, spec) for s in (1, 2)),
    )
    sizes = []

    def counted(tables):
        for table in tables:
            sizes.append(len(table))
            yield table

    got = bl.sector_decomposition_report(bands, counted(tables))
    assert len(sizes) == 6 and max(sizes) == 3
    expected = bl.sector_decomposition_report(bands, [join(battery)])
    assert got.battery_labels == expected.battery_labels
    assert np.array_equal(got.leakage, expected.leakage, equal_nan=True)
    assert np.array_equal(got.within_sector, expected.within_sector)


def test_wannier_mixture_residual_matches_per_state_loop(solved):
    # one call on the table gives every member's and band's residual, over
    # max(1, ||O||_max); the breaking members are not cell-periodic, so their
    # residuals are far from zero and the comparison is not between zeros
    spec, bands, battery = solved
    band_list = [0, 1]
    wanniers = np.array(
        [[bl.wannier_state(band, cell, bands, spec) for cell in range(spec.cells)] for band in band_list]
    )
    band_blocks = bands.blocks[:, band_list].swapaxes(0, 1)
    table = join(battery)
    residuals = bl.wannier_mixture_residual(wanniers, band_blocks, bands.rows, [table])
    assert residuals.shape == (len(battery), len(band_list))
    for op, label, got in zip(battery, table.labels, residuals):
        magnitude = np.abs(dense(op)[0])
        scale = max(1.0, op.norm_max[0])
        for i, band in enumerate(band_list):
            band_states = bands.dense(np.arange(len(bands.k_values)), band)
            expected = max(state_mixture_residual(w, band_states, op) for w in wanniers[i])
            # both sides sum the same products in other orders: relative to
            # the largest |w|^T |O| |w| of the band's Wannier and Bloch states
            vectors = [*wanniers[i], *band_states]
            terms = max(np.abs(v) @ magnitude @ np.abs(v) for v in vectors)
            assert abs(got[i] - expected / scale) <= 1e-14 * terms / scale, (label, band)
            if label.startswith("breaking:"):
                assert expected > 1e-6, (label, band)


def test_within_sector_elements_match_matrix_element(solved):
    _, bands, battery = solved
    report = bl.sector_decomposition_report(bands, [join(battery)])
    within = report.within_sector
    assert within.shape == (len(bands.k_values), len(battery))
    for l in range(len(bands.k_values)):
        bra, ket = bands.dense(l, 0), bands.dense(l, 1)
        for i, op in enumerate(battery):
            ref = abs(matrix_element(op, bra, ket))
            # both sum the same products in another order, and the element can
            # be a cancellation (or a parity-forced zero): relative to |bra|^T |O| |ket|
            terms = np.abs(bra) @ np.abs(dense(op)[0]) @ np.abs(ket)
            assert abs(within[l, i] - ref) <= 1e-14 * terms, (l, op.labels)


def test_row_table_is_frozen_and_matches_class_rows(solved):
    spec, bands, _ = solved
    assert bands.rows.shape == (spec.cells, spec.dim // spec.cells)
    for l in range(spec.cells):
        assert np.array_equal(bands.rows[l], spec.class_rows[l])
    # each class block holds a whole unit state: no weight is left off its rows
    assert np.allclose(np.linalg.norm(bands.blocks, axis=2), 1.0, rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        bands.rows[0, 0] = 1
    with pytest.raises(ValueError):
        bands.blocks[0, 0, 0] = 1


def test_one_band_lattice_has_no_within_sector_elements():
    spec = bl.LatticeSpec(cells=3, cutoff=1)  # d = 3: one band per class
    bands = bl.solve_bands(bl.build_hamiltonian(spec, bl.PotentialSpec()), spec)
    (table,) = bl.Battery(spec, seeds=2, max_harmonic=0, named=()).tables()
    report = bl.sector_decomposition_report(bands, [table])
    assert report.within_sector is None
    assert report.leakage.shape == (3, 3)
