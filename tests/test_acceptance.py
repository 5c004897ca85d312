"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criterion 4's oracle comparison runs at a converged plane-wave cutoff; the
documented truncation floor of the desk-scale cutoff is pinned separately in
test_bloch.py.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import blochlab as bl
from blochlab.config import validate_config
from blochlab.observables import PERIODICITY_RTOL
from blochlab.runner import run_scenario, stable_report_bytes
from oracles import Lcg, fd_ring_energies, matrix_element, members

ACCEPTANCE_LATTICES = ((3, 4), (5, 7), (7, 10))
POTENTIALS = (
    ("free", bl.PotentialSpec()),
    ("cos", bl.PotentialSpec(harmonics=((1, 0.25),))),
    ("cos+cos2", bl.PotentialSpec(harmonics=((1, 0.25), (2, 0.1)))),
)

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
DRIVEN = bl.DriveSpec(
    h0=0.3 * SZ, omega=1.0, drives=(bl.DriveTerm(harmonic=1, kind="sin", matrix=0.5 * SX),)
)


@contextmanager
def criterion(number, label):
    detail = {}
    try:
        yield detail
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    extra = ", ".join(f"{k}={v:.3g}" for k, v in detail.items())
    print(f"[acceptance] criterion {number} ({label}): PASS" + (f" [{extra}]" if extra else ""))


def build_config(cells, cutoff, potential):
    spec = bl.LatticeSpec(cells=cells, cutoff=cutoff)
    h = bl.build_hamiltonian(spec, potential)
    bands = bl.solve_bands(h, spec)
    (table,) = bl.Battery(spec, seeds=20).tables()
    return spec, h, bands, table


@pytest.fixture(scope="module")
def solved():
    return {
        (name, cells): build_config(cells, cutoff, pot)
        for name, pot in POTENTIALS
        for cells, cutoff in ACCEPTANCE_LATTICES
    }


def test_criterion_1_bloch_superselection():
    # timed end to end: build, solve, generate batteries, evaluate all
    # cross-sector elements for all nine configurations
    with criterion(1, "Bloch superselection") as detail:
        started = time.perf_counter()
        worst = 0.0
        for name, pot in POTENTIALS:
            for cells, cutoff in ACCEPTANCE_LATTICES:
                _, _, bands, table = build_config(cells, cutoff, pot)
                report = bl.sector_decomposition_report(bands, [table])
                worst = max(worst, report.max_offdiagonal)
        elapsed = time.perf_counter() - started
        detail["max_leakage"] = worst
        detail["seconds"] = elapsed
        assert worst < 1e-12
        assert elapsed < 30.0


def test_criterion_2_positive_control(solved):
    with criterion(2, "within-sector coherence") as detail:
        weakest = None
        worst_mismatch = 0.0
        for (name, cells), (spec, h, bands, table) in solved.items():
            ops = members(bl.Battery(spec, seeds=20))  # the table's members, one each
            for sector in range(spec.cells):
                a, b = bands.dense(sector, 0), bands.dense(sector, 1)
                best_op = max(ops, key=lambda op: abs(matrix_element(op, a, b)))
                element = abs(matrix_element(best_op, a, b))
                weakest = element if weakest is None else min(weakest, element)
                assert element > 1e-4, (name, cells, sector)
                scan = bl.fringe_scan(best_op, a, b, 64)
                mismatch = abs(scan.amplitude - 2.0 * element) / (2.0 * element)
                worst_mismatch = max(worst_mismatch, mismatch)
                assert mismatch < 0.01, (name, cells, sector)
        detail["weakest_element"] = weakest
        detail["worst_fringe_mismatch"] = worst_mismatch


def test_criterion_3_negative_control(solved):
    with criterion(3, "periodicity-breaking control") as detail:
        weakest_fringe = None
        for (name, cells), (spec, h, bands, table) in solved.items():
            t = bl.build_translation(spec)
            breaker = bl.breaking_observable(1, spec)
            violation = bl.check_cell_periodicity(breaker, t)
            assert not violation < PERIODICITY_RTOL, (name, cells)
            scan = bl.fringe_scan(breaker, bands.dense(0, 0), bands.dense(1, 0), 64)
            weakest_fringe = (
                scan.amplitude if weakest_fringe is None else min(weakest_fringe, scan.amplitude)
            )
            assert scan.amplitude > 1e-6, (name, cells)
        detail["weakest_fringe"] = weakest_fringe


def test_criterion_4_band_structure_correctness(solved):
    with criterion(4, "band-structure correctness") as detail:
        # free-particle closed form at every acceptance lattice
        worst_free = 0.0
        for cells, cutoff in ACCEPTANCE_LATTICES:
            spec, h, structure, _ = solved[("free", cells)]
            for sector in range(cells):
                kinetic = np.sort(spec.momenta[spec.class_rows[sector]] ** 2 / 2.0)
                worst_free = max(
                    worst_free, float(np.max(np.abs(structure.energies[sector] - kinetic)))
                )
        detail["free_dev"] = worst_free
        assert worst_free < 1e-12

        # real-space oracle comparison at a cutoff where plane-wave
        # truncation is out of the way (see test_bloch for the M=4 floor)
        pot = dict(POTENTIALS)["cos"]
        spec = bl.LatticeSpec(cells=3, cutoff=13)
        structure = bl.solve_bands(bl.build_hamiltonian(spec, pot), spec)
        lowest = np.sort(structure.energies.ravel())[:9]
        oracle = fd_ring_energies(spec, pot, points=2048, count=9)
        rel = float(np.max(np.abs(lowest - oracle) / np.abs(oracle)))
        detail["oracle_rel_err"] = rel
        assert rel < 1e-6


def test_criterion_5_winding_numbers():
    with criterion(5, "winding numbers") as detail:
        for cells, _ in ACCEPTANCE_LATTICES:
            for sector in range(cells):
                assert bl.winding_number(bl.ring_phase_samples(sector, 64)) == sector
        rng = Lcg(2024)
        checked = 0
        for _ in range(50):
            l1 = int(rng.uniform(-6.0, 7.0))
            l2 = int(rng.uniform(-6.0, 7.0))
            p = np.arange(256) / 256.0
            f = np.exp(1j * (2 * np.pi * l1 * p + 0.2 * np.sin(2 * np.pi * p)))
            g = np.exp(1j * (2 * np.pi * l2 * p + 0.1 * np.cos(2 * np.pi * p)))
            assert bl.winding_number(f * g) == l1 + l2
            checked += 1
        detail["pairs"] = checked


def test_criterion_6_wannier_mixture_identity(solved):
    # each member's residual is relative to max(1, ||O||_max), as the run's check reads it
    with criterion(6, "Wannier mixture identity") as detail:
        worst = 0.0
        for (name, cells), (spec, h, bands, table) in solved.items():
            wanniers = np.array(
                [[bl.wannier_state(band, cell, bands, spec) for cell in (0, 1)] for band in (0, 1)]
            )
            band_blocks = bands.blocks[:, [0, 1]].swapaxes(0, 1)
            residual = bl.wannier_mixture_residual(wanniers, band_blocks, bands.rows, [table])
            worst = max(worst, float(np.max(residual)))
        detail["max_residual"] = worst
        assert worst < 1e-10


def test_criterion_7_floquet_structure():
    with criterion(7, "Floquet structure") as detail:
        # no-drive folding, exact
        for eps0, expected in ((0.3, (-0.3, 0.3)), (0.7, (-0.3, 0.3))):
            sol = bl.solve_floquet(bl.DriveSpec(h0=eps0 * SZ, omega=1.0), steps=256)
            dev = float(np.max(np.abs(sol.quasienergies - np.array(expected))))
            assert dev < 1e-12, eps0
        # driven two-level at the pinned parameters
        sol = bl.solve_floquet(DRIVEN, steps=4096)
        detail["unitarity"] = sol.unitarity_defect
        assert sol.unitarity_defect < 1e-10
        sambe = bl.sambe_quasienergies(DRIVEN, h_max=12)
        sambe_diff = float(np.max(np.abs(np.sort(sol.quasienergies) - sambe)))
        detail["sambe_diff"] = sambe_diff
        assert sambe_diff < 1e-6
        other = bl.propagate_period(DRIVEN, steps=4096, method="fourth-order")
        cross = float(np.max(np.abs(sol.monodromy - other)))
        detail["cross_method"] = cross
        assert cross < 1e-6


def test_criterion_8_temporal_superselection():
    with criterion(8, "temporal superselection probes") as detail:
        started = time.perf_counter()
        sol = bl.solve_floquet(DRIVEN, steps=4096)
        observable = bl.PeriodicObservableSpec(
            static=SX, harmonics=(bl.DriveTerm(harmonic=1, kind="cos", matrix=0.3 * SZ),)
        )
        probe = bl.temporal_overlap_probe(sol, observable, pair=(0, 1), periods=(8, 16, 32, 64))
        detail["phase_residual"] = probe.phase_relation_residual
        assert probe.phase_relation_residual < 1e-7
        averages = dict(probe.period_averages)
        bounds = dict(probe.geometric_bounds)
        for k in (8, 16, 32, 64):
            assert averages[k] <= 1.1 * bounds[k], k
        detail["commuting_element"] = probe.monodromy_commuting_element
        assert probe.monodromy_commuting_element < 1e-10
        elapsed = time.perf_counter() - started
        detail["seconds"] = elapsed
        assert elapsed < 20.0


def test_criterion_9_determinism():
    with criterion(9, "report determinism") as detail:
        scenarios = [
            {"kind": "bands", "lattice": {"cells": 3, "cutoff": 4},
             "potential": {"harmonics": [{"j": 1, "re": 0.25}]}},
            {"kind": "superselect", "lattice": {"cells": 5, "cutoff": 7},
             "potential": {"harmonics": [{"j": 1, "re": 0.25}]},
             "battery": {"seeds": 10}, "negative_control": {"s": 1}},
            {"kind": "wannier", "lattice": {"cells": 3, "cutoff": 4},
             "potential": {"harmonics": [{"j": 1, "re": 0.25}]},
             "battery": {"seeds": 10}},
            {"kind": "floquet", "floquet": {
                "omega": 1.0,
                "h0": [[[0.3, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.3, 0.0]]],
                "drives": [{"harmonic": 1, "kind": "sin",
                            "matrix": [[0.0, 0.5], [0.5, 0.0]]}],
                "probe": {"grid": 128}}},
        ]
        for raw in scenarios:
            cfg = validate_config(raw)
            first = run_scenario(cfg)
            second = run_scenario(cfg)
            assert first.passed and second.passed, raw["kind"]
            assert stable_report_bytes(first) == stable_report_bytes(second), raw["kind"]
        detail["scenarios"] = len(scenarios)
