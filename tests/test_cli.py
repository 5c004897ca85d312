"""End-to-end CLI behavior: artifacts, exit codes, determinism."""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blochlab as bl
from blochlab import floquet, runner
from blochlab.cli import main
from blochlab.config import (
    MAX_BATTERY_CUSTOM,
    MAX_BATTERY_SEEDS,
    MAX_DRIVE_HARMONIC,
    MAX_DRIVE_TERMS,
    MAX_GRID_POINTS,
    MAX_OBSERVABLE_HARMONICS,
    MAX_PROBE_PERIODS,
    MAX_SAMBE_HMAX,
    MAX_STEPS,
    MAX_TRAJECTORY_POINTS,
    validate_config,
)
from blochlab.floquet import MIN_STEPS
from blochlab.observables import MAX_MEMBER_ENTRY, MAX_POLY_DEGREE
from blochlab.reports import fringe_csv
from blochlab.runner import run_scenario, stable_report_bytes
from conftest import random_hermitian
from oracles import member_labels, named


def write_json(path, data):
    path.write_text(json.dumps(data, indent=1))
    return str(path)


def bands_config(tmp_path, **lattice):
    lattice = {"cells": 3, "cutoff": 4, **lattice}
    return write_json(tmp_path / "bands.json", {"kind": "bands", "lattice": lattice})


def superselect_config(tmp_path, seeds=5):
    return write_json(
        tmp_path / "super.json",
        {
            "kind": "superselect",
            "lattice": {"cells": 3, "cutoff": 4},
            "potential": {"harmonics": [{"j": 1, "re": 0.25}]},
            "battery": {"seeds": seeds},
            "negative_control": {"s": 1},
        },
    )


def floquet_config(tmp_path, h0=((0.7, 0.0), (0.0, -0.7)), drives=(), **extra):
    matrix = [[[v, 0.0] for v in row] for row in h0]
    section = {"omega": 1.0, "h0": matrix, "drives": list(drives), **extra}
    return write_json(tmp_path / "floquet.json", {"kind": "floquet", "floquet": section})


def test_bands_writes_csv_with_one_row_per_state(tmp_path, capsys):
    out = tmp_path / "bands.csv"
    code = main(["bands", "--config", bands_config(tmp_path), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "l,k,band,energy"
    assert len(lines) == 1 + 9  # header + D rows
    # the repr rendering survives a float round-trip
    _, k, _, energy = lines[2].split(",")
    assert float(energy) == pytest.approx(19.739208802178716, rel=1e-15)


def test_bands_ignores_the_battery_defaults(tmp_path):
    # 5 cells, cutoff 2: the default battery's max_harmonic 1 is unreachable,
    # which must not matter to a kind that builds no battery
    assert main(["bands", "--config", bands_config(tmp_path, cells=5, cutoff=2)]) == 0


def test_config_error_exit_code(tmp_path, capsys):
    cfg = bands_config(tmp_path, cells=1)
    assert main(["bands", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "/lattice/cells" in err


@pytest.mark.parametrize(
    "text, key",
    [
        # the last value won silently, so a repeat could replace a check's tolerance
        ('{"kind": "bands", "lattice": {"cells": 3, "cutoff": 4}, "tolerances": '
         '{"eigen_residual": 1e-30, "eigen_residual": 1e-9}}', "eigen_residual"),
        ('{"kind": "bands", "lattice": {"cells": 3, "cutoff": 4}, "kind": "bands"}', "kind"),
    ],
)
def test_repeated_config_key_exits_1_naming_it(tmp_path, capsys, text, key):
    path = tmp_path / "c.json"
    path.write_text(text)
    report = tmp_path / "r.json"
    assert main(["bands", "--config", str(path), "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert f"duplicate key {key!r}" in err and "Traceback" not in err
    assert not report.exists()


def test_kind_mismatch_is_config_error(tmp_path):
    assert main(["superselect", "--config", bands_config(tmp_path)]) == 1


def test_superselect_free_lattice_report(tmp_path):
    cfg = write_json(
        tmp_path / "free.json",
        {"kind": "superselect", "lattice": {"cells": 3, "cutoff": 4}, "battery": {"seeds": 5}},
    )
    report_path = tmp_path / "report.json"
    assert main(["superselect", "--config", cfg, "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    leak = report["results"]["leakage"]
    assert all(
        entry < 1e-12 for row in leak for entry in row if entry is not None
    )
    assert report["results"]["max_cross_leakage"] < 1e-12
    assert report["tool"]["name"] == "blochlab"


def test_floquet_no_drive_folding_report(tmp_path):
    report_path = tmp_path / "rep.json"
    cfg = floquet_config(tmp_path, steps=256)
    assert main(["floquet", "--config", cfg, "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    eps = report["results"]["quasienergies"]
    assert eps == pytest.approx([-0.3, 0.3], abs=1e-9)


def test_superselect_one_band_lattice_skips_positive_control(tmp_path):
    # d = 3 on 3 cells: one band per class, so no within-sector pair exists
    cfg = write_json(
        tmp_path / "one_band.json",
        {
            "kind": "superselect",
            "lattice": {"cells": 3, "cutoff": 1},
            "battery": {"seeds": 2, "max_harmonic": 0, "named": []},
            "negative_control": {"s": 1},
            "fringe_points": 16,
        },
    )
    report_path = tmp_path / "report.json"
    prefix = tmp_path / "fringe"
    argv = ["--config", cfg, "--report", str(report_path), "--fringe-prefix", str(prefix)]
    assert main(["superselect", *argv]) == 0
    report = json.loads(report_path.read_text())
    assert set(report["checks"]) == {"cross_sector_leakage", "fringe_flat", "negative_control"}
    assert "positive_control_min" not in report["results"]
    assert "fringe_within" not in report["results"]
    # the cross-class scan still ran, so its series is written; no within series
    cross = (tmp_path / "fringe_cross.csv").read_text().strip().splitlines()
    assert len(cross) == 1 + 16
    assert not (tmp_path / "fringe_within.csv").exists()


def complex_pairs(matrix):
    """A complex matrix in the config's row-major [re, im] form."""
    return [[[z.real, z.imag] for z in row] for row in matrix]


def test_floquet_wide_spectrum_drive_passes_sambe_match(tmp_path):
    # the static spectrum spans ~3 hbar*omega, so replicas of one mode outweigh
    # another mode's in the Sambe central block; this drive exited 3 when the
    # replicas were picked by weight alone
    rng = np.random.default_rng(5)
    h0, v = random_hermitian(rng, 16, 1.5), random_hermitian(rng, 16, 0.4)
    section = {
        "omega": 1.0,
        "h0": complex_pairs(h0),
        "drives": [{"harmonic": 1, "kind": "cos", "matrix": complex_pairs(v)}],
    }
    cfg = write_json(tmp_path / "wide.json", {"kind": "floquet", "floquet": section})
    report_path = tmp_path / "rep.json"
    assert main(["floquet", "--config", cfg, "--report", str(report_path)]) == 0
    results = json.loads(report_path.read_text())["results"]
    assert len(set(results["sambe_quasienergies"])) == 16
    assert results["sambe_disagreement"] < 1e-6


SHIPPED_DRIVE = Path(__file__).resolve().parents[1] / "configs" / "floquet_two_level.json"


def shipped_drive(**fields):
    """The shipped two-level drive config with some floquet fields replaced."""
    data = json.loads(SHIPPED_DRIVE.read_text())
    data.pop("output")
    data["floquet"].update(fields)
    return data


@pytest.mark.parametrize("steps", [3000, 4097])
def test_shipped_drive_exits_0_when_its_grids_do_not_divide_the_steps(tmp_path, steps):
    # v(T) - v(0) is taken from the monodromy the modes came from, so it is
    # the modes' eigen-residual; re-stepping the period on a rounded-up step
    # count (3072 for 3000) read 1.1e-8 here against the 1e-8 tolerance
    cfg = write_json(tmp_path / "drive.json", shipped_drive(steps=steps))
    report_path = tmp_path / "rep.json"
    assert main(["floquet", "--config", cfg, "--report", str(report_path)]) == 0
    assert json.loads(report_path.read_text())["results"]["mode_periodicity_residual"] < 1e-12


def test_overflowed_rk4_monodromy_exits_2(tmp_path, capsys):
    # omega 1e-3 over 64 steps: each RK4 step spans ~98 time units, the
    # product overflows to a NaN monodromy, and a NaN drift must not pass
    report = tmp_path / "rep.json"
    cfg = write_json(tmp_path / "drive.json", shipped_drive(omega=1e-3, steps=64))
    code = main(["floquet", "--config", cfg, "--report", str(report)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "unitarity drift" in err and "Traceback" not in err
    assert not report.exists()


def test_drifting_rk4_monodromy_at_the_step_cap_names_its_integrator(tmp_path, capsys):
    # a stiff h0 at the step cap: the midpoint product stays unitary (defect
    # ~1e-13), the RK4 cross-check drifts ~7e-4, and more steps are refused
    report = tmp_path / "rep.json"
    sigma_x = [[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]
    drive = {"harmonic": 1, "kind": "sin", "matrix": sigma_x}
    h0 = ((1000.0, 0.0), (0.0, -1000.0))
    cfg = floquet_config(tmp_path, h0=h0, drives=[drive], steps=MAX_STEPS)
    code = main(["floquet", "--config", cfg, "--report", str(report)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "fourth-order" in err and f"{MAX_STEPS} steps" in err and "Traceback" not in err
    assert not report.exists()


# kind -> (the pointer of a result set non-finite after its run, that value)
NON_FINITE_RESULTS = {
    "wannier": ("/results/per_band/0/mixture_residual", float("nan")),
    "superselect": ("/results/fringe_cross/averages/3", float("inf")),
}


@pytest.mark.parametrize("kind", sorted(NON_FINITE_RESULTS))
def test_a_non_finite_result_exits_2_naming_its_pointer_and_writes_nothing(
    tmp_path, monkeypatch, capsys, kind
):
    pointer, value = NON_FINITE_RESULTS[kind]
    *parents, last = pointer.split("/")[2:]
    run = getattr(runner, f"_run_{kind}")

    def poisoned(cfg):
        results, checks = run(cfg)
        node = results
        for key in parents:
            node = node[key]
        node[int(last) if isinstance(node, list) else last] = value
        return results, checks

    monkeypatch.setattr(runner, f"_run_{kind}", poisoned)
    potential = {"harmonics": [{"j": 1, "re": 0.25}]}
    config = write_json(tmp_path / "c.json", lattice_config(kind, potential=potential))
    out = tmp_path / "out"
    argv = [kind, "--config", config, "--report", str(out / "r.json")]
    if kind == "superselect":
        argv += ["--fringe-prefix", str(out / "fringe")]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2, err
    assert pointer in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


def test_retired_trajectory_points_changes_nothing():
    # still accepted and range-checked (see CAPPED), but read by nothing
    assert "trajectory_points" not in shipped_drive()["floquet"]
    base = run_scenario(validate_config(shipped_drive()))
    for n in (2, 257, 4097):
        report = run_scenario(validate_config(shipped_drive(trajectory_points=n)))
        assert report["results"] == base["results"] and report["checks"] == base["checks"]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(steps=st.integers(64, 8192), grid=st.integers(8, 600))
@example(steps=3000, grid=256)
@example(steps=64, grid=600)
def test_shipped_drive_temporal_checks_pass_on_any_grid(steps, grid):
    probe = {**shipped_drive()["floquet"]["probe"], "grid": grid}
    cfg = validate_config(shipped_drive(steps=steps, probe=probe))
    checks = run_scenario(cfg)["checks"]
    assert checks["mode_periodicity"] and checks["phase_relation"] and checks["average_bound"]


def commensurate_drive(e):
    """h0 = diag(e, -e) driven by 0.01 diag(1, -1) cos(omega t): splitting 2e (mod 1)."""
    h0 = [[[e, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-e, 0.0]]]
    matrix = [[[0.01, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.01, 0.0]]]
    drive = {"harmonic": 1, "kind": "cos", "matrix": matrix}
    return shipped_drive(h0=h0, drives=[drive])


def test_commensurate_drive_exits_0(tmp_path):
    # Delta T / hbar = 2 pi / 8: every geometric bound is zero up to rounding,
    # and the averages (~6e-15) failed a purely relative comparison (exit 3)
    cfg = write_json(tmp_path / "drive.json", commensurate_drive(1 / 16))
    report_path = tmp_path / "rep.json"
    assert main(["floquet", "--config", cfg, "--report", str(report_path)]) == 0
    probe = json.loads(report_path.read_text())["results"]["probe"]
    assert max(bound for _, bound in probe["geometric_bounds"]) < 1e-14
    assert probe["max_overlap"] == pytest.approx(1.0)


PROBE_PERIODS = tuple(shipped_drive()["floquet"]["probe"]["periods"])


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    kp=st.sampled_from(PROBE_PERIODS).flatmap(
        lambda k: st.tuples(st.just(k), st.integers(1, k - 1))
    )
)
@example(kp=(8, 1))
@example(kp=(16, 3))
@example(kp=(32, 31))
@example(kp=(64, 5))
def test_commensurate_splittings_pass_average_bound(kp):
    # omega = hbar = 1, T = 2 pi: splitting 2e gives Delta T / hbar = 2 pi p / K at e = p / 2K
    k, p = kp
    report = run_scenario(validate_config(commensurate_drive(p / (2 * k))))
    assert report["passed"], report["checks"]


def test_fringe_match_override_reaches_its_check(tmp_path, monkeypatch):
    # the shipped superselect config's first harmonic matches its element to
    # rounding, so every scan's averages are scaled by 1 + 1e-5: a relative
    # mismatch of 1e-5 for the tolerance to compare
    scan = runner.fringe_scan

    def scaled(*args):
        s = scan(*args)
        return bl.FringeScan(s.phases, s.averages * (1 + 1e-5), s.observable)

    monkeypatch.setattr(runner, "fringe_scan", scaled)
    config = str(SHIPPED_DRIVE.parent / "superselect_mathieu.json")
    runs = {}
    for tol in ("0.01", "1e-6"):
        report = tmp_path / f"rep_{tol}.json"
        argv = ["--config", config, "--report", str(report), "--fringe-prefix", str(tmp_path / tol)]
        argv += ["--tol-override", f"fringe_match={tol}"]
        runs[tol] = main(["superselect", *argv]), json.loads(report.read_text())
    assert runs["0.01"][0] == 0 and runs["1e-6"][0] == 3
    assert runs["1e-6"][1]["results"]["fringe_within"]["relative_mismatch"] == pytest.approx(1e-5)
    assert runs["1e-6"][1]["tolerances"]["fringe_match"] == 1e-6
    assert not runs["1e-6"][1]["checks"]["fringe_matches_element"]


SHIPPED_DATA = {p.stem: json.loads(p.read_text()) for p in SHIPPED_DRIVE.parent.glob("*.json")}
SHIPPED_SUPERSELECT = SHIPPED_DATA["superselect_mathieu"]
# the shipped superselect lattice and potential as a bands run
MATHIEU_BANDS = {"kind": "bands", **{k: SHIPPED_SUPERSELECT[k] for k in ("lattice", "potential")}}

# check -> (module, a line of it, its mutant, the config run): a named one-line
# perturbation of the package that must flip that check and leave every other
# one true.  Every check a shipped config runs is measured this way, or by a
# test of its own (OWN_TEST), or restates another check or is structural, as
# CHECK_REASONS says: a new check must join one of the three.
MUTANTS = {
    # the second harmonic of a pure first-harmonic scan is zero
    "fringe_matches_element": (
        "superselection.py",
        "return 2.0 * abs(np.sum(self.averages * np.exp(-1j * self.phases))) / len(self.phases)",
        "return 2.0 * abs(np.sum(self.averages * np.exp(-2j * self.phases))) / len(self.phases)",
        SHIPPED_SUPERSELECT,
    ),
    # the class blocks solve_bands diagonalizes are read through class_diagonals,
    # here with their q > 0 entries scaled: the states are exact for the wrong
    # blocks, and only apply, which reads the stored diagonals, sees it
    "eigen_residual": (
        "lattice.py",
        "yield o // n, values[:, rows[:, : b - o // n]]",
        "yield o // n, values[:, rows[:, : b - o // n]] * (1.0 + 1e-5 * (o > 0))",
        MATHIEU_BANDS,
    ),
    # each Bloch state's norm off 1 by 1e-9
    "orthonormal": (
        "bloch.py",
        "picked[:, t] = col / nrm[:, None]",
        "picked[:, t] = col / nrm[:, None] * (1.0 + 1e-9)",
        SHIPPED_DATA["bands_free"],
    ),
    # T's eigenphases off by a relative 1e-9: the states, built on H alone, are not
    "translation_eigen": (
        "lattice.py",
        "np.exp(2j * np.pi * spec.indices / spec.cells)",
        "np.exp(2j * np.pi * (1.0 + 1e-9) * spec.indices / spec.cells)",
        SHIPPED_DATA["bands_free"],
    ),
    # H's kinetic energies off their independent plane-wave reference by 1e-11
    "free_particle_exact": (
        "lattice.py",
        "kinetic = (spec.hbar * spec.momenta) ** 2 / (2.0 * spec.mass)",
        "kinetic = (spec.hbar * spec.momenta) ** 2 / (2.0 * spec.mass) * (1.0 + 1e-11)",
        SHIPPED_DATA["bands_free"],
    ),
    # the within-class elements scaled down to below their floor
    "positive_control": (
        "superselection.py",
        "table.class_form(rows, blocks[:, 0], blocks[:, 1])",
        "table.class_form(rows, blocks[:, 0], blocks[:, 1]) * 1e-9",
        SHIPPED_SUPERSELECT,
    ),
    # a breaker too weak for its fringe to clear the tolerance
    "negative_control": (
        "observables.py",
        "{shift: 1.0}",
        "{shift: 1e-7}",
        SHIPPED_SUPERSELECT,
    ),
    # each Wannier state's phases off by a relative 1e-9: still unit vectors
    "translation_covariance": (
        "bloch.py",
        "np.exp(-1j * bands.k_values * (home_cell[..., None] * spec.a))",
        "np.exp(-1j * bands.k_values * (home_cell[..., None] * spec.a) * (1.0 + 1e-9))",
        SHIPPED_DATA["wannier_mathieu"],
    ),
    # the band averages, the classical side of the mixture, off by 1e-9
    "mixture_identity": (
        "superselection.py",
        "band_avg = table.class_form(rows, band_blocks, band_blocks).real.mean(axis=-1)",
        "band_avg = table.class_form(rows, band_blocks, band_blocks).real.mean(axis=-1)"
        " * (1.0 + 1e-9)",
        SHIPPED_DATA["wannier_mathieu"],
    ),
    # each midpoint step's first diagonal entry off by 1e-13
    "unitarity": (
        "floquet.py",
        "h[:, 0, 0] = diagonal + rotation * z",
        "h[:, 0, 0] = diagonal + rotation * z + 1e-13",
        SHIPPED_DATA["floquet_two_level"],
    ),
    # each RK4 step's Taylor series scaled by 1 + 1e-5
    "cross_method": (
        "floquet.py",
        "m *= dt / 6.0",
        "m *= dt / 6.0 * (1.0 + 1e-5)",
        SHIPPED_DATA["floquet_two_level"],
    ),
    # the Sambe blocks' photon energies off by a relative 1e-5
    "sambe_match": (
        "floquet.py",
        "(index - h_max)[:, None, None] * spec.hbar * spec.omega * np.eye(d)",
        "(index - h_max)[:, None, None] * spec.hbar * spec.omega * np.eye(d) * (1.0 + 1e-5)",
        SHIPPED_DATA["floquet_two_level"],
    ),
    # the pair advanced by one period with a norm off by 1e-6
    "phase_relation": (
        "floquet.py",
        "f_second = _pair_form(heisenberg, u_period @ vecs)",
        "f_second = _pair_form(heisenberg, u_period @ vecs * (1.0 + 1e-6))",
        SHIPPED_DATA["floquet_two_level"],
    ),
}
# failed alone by a test of its own, in process
OWN_TEST = {
    "monodromy_commuting": (
        "test_floquet.py::test_modes_rotated_by_1e_9_fail_the_commuting_check_alone"
    ),
}
# why no one-line mutant fails the check alone
EIGENBASIS_GUARD = "restates the 1e-8 eigenbasis residual guard in floquet.quasienergies"
NO_CROSS_DIAGONAL = "structural: no battery member stores a diagonal between classes"
CHECK_REASONS = {
    "unit_norm": "restated by mixture_identity: the identity member makes <w|I|w> = ||w||^2",
    "mode_periodicity": EIGENBASIS_GUARD,
    "average_bound": EIGENBASIS_GUARD,
    "fringe_flat": NO_CROSS_DIAGONAL,
    "cross_sector_leakage": NO_CROSS_DIAGONAL,
}


@pytest.mark.parametrize("check", sorted(MUTANTS))
def test_mutant_fails_its_check_alone(tmp_path, check):
    module, line, mutant, data = MUTANTS[check]
    package = tmp_path / "blochlab"
    shutil.copytree(Path(bl.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    source = (package / module).read_text()
    assert source.count(line) == 1
    (package / module).write_text(source.replace(line, mutant))
    report = tmp_path / "report.json"
    config = write_json(tmp_path / "config.json", data)
    argv = [data["kind"], "--config", config, "--report", str(report)]
    proc = subprocess.run(
        [sys.executable, "-m", "blochlab", *argv],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(tmp_path)},
        timeout=120,  # a mutant that hangs fails here instead of stalling the suite
    )
    assert proc.returncode == 3, proc.stderr
    checks = json.loads(report.read_text())["checks"]
    assert [name for name, ok in checks.items() if not ok] == [check]


def test_every_shipped_check_has_a_mutant_a_test_or_a_reason():
    names = set()
    for data in SHIPPED_DATA.values():
        names |= set(run_scenario(validate_config(data))["checks"])
    groups = (set(MUTANTS), set(OWN_TEST), set(CHECK_REASONS))
    assert sum(map(len, groups)) == len(set().union(*groups))  # each check in one group
    assert set().union(*groups) == names


def test_free_particle_override_reaches_its_check(tmp_path, monkeypatch):
    # the shipped free lattice reads a deviation of ~1e-14 against its
    # independent reference; the energies are shifted by 1e-11
    # (||H||_max ~ 35) so that the tolerance has something to compare
    solve = runner.solve_bands

    def shifted(h, spec):
        b = solve(h, spec)
        return bl.BandStructure(b.k_values, b.energies + 1e-11, b.blocks, b.rows)

    monkeypatch.setattr(runner, "solve_bands", shifted)
    config = str(SHIPPED_DRIVE.parent / "bands_free.json")
    runs = {}
    for tol in ("1e-12", "1e-14"):
        report = tmp_path / f"rep_{tol}.json"
        argv = ["--config", config, "--report", str(report), "--out", str(tmp_path / f"{tol}.csv")]
        argv += ["--tol-override", f"free_particle={tol}"]
        runs[tol] = main(["bands", *argv]), json.loads(report.read_text())
    assert runs["1e-12"][0] == 0 and runs["1e-14"][0] == 3
    assert runs["1e-14"][1]["tolerances"]["free_particle"] == 1e-14
    assert not runs["1e-14"][1]["checks"]["free_particle_exact"]


def test_one_mistaken_free_energy_fails_only_free_particle_exact(monkeypatch):
    # the first band of class 1 (E ~ 2.2, ||H||_max ~ 35) scaled by 1 + 1e-9:
    # 6e-11 of eigen-residual stays under 1e-9, 2.2e-9 of deviation does not
    # stay under 1e-12 ||H||_max
    solve = runner.solve_bands

    def mistaken(h, spec):
        b = solve(h, spec)
        energies = b.energies.copy()
        energies[1, 0] *= 1.0 + 1e-9
        return bl.BandStructure(b.k_values, energies, b.blocks, b.rows)

    data = json.loads((SHIPPED_DRIVE.parent / "bands_free.json").read_text())
    data.pop("output")
    cfg = validate_config(data)
    assert run_scenario(cfg)["passed"]
    monkeypatch.setattr(runner, "solve_bands", mistaken)
    checks = run_scenario(cfg)["checks"]
    assert [name for name, ok in checks.items() if not ok] == ["free_particle_exact"]


def test_floquet_run_integrates_the_period_once_per_integrator(monkeypatch):
    seen = []
    product = floquet._ordered_product

    def recording_product(spec, steps, marks, method):
        seen.append(method)
        return product(spec, steps, marks, method)

    monkeypatch.setattr(floquet, "_ordered_product", recording_product)
    assert run_scenario(validate_config(shipped_drive()))["passed"]
    assert seen == ["midpoint-exponential", "fourth-order"]


def test_invariant_violation_exit_code(tmp_path, capsys):
    # an impossible tolerance forces a red flag; failures must not exit 0
    cfg = floquet_config(tmp_path, steps=256)
    code = main(["floquet", "--config", cfg, "--tol-override", "unitarity=1e-16"])
    assert code == 3
    out = capsys.readouterr()
    assert "FAIL" in out.out


def test_raised_invariant_violation_exits_3_without_a_report(tmp_path, capsys, monkeypatch):
    # solve_bands raises InvariantViolation on cross-class weight in H
    def violating(h, spec):
        raise bl.InvariantViolation("H couples classes 0 and 1")

    monkeypatch.setattr(runner, "solve_bands", violating)
    report = tmp_path / "report.json"
    code = main(["bands", "--config", bands_config(tmp_path), "--report", str(report)])
    err = capsys.readouterr().err
    assert code == 3, err
    assert "invariant violation: H couples classes 0 and 1" in err
    assert "Traceback" not in err
    assert not report.exists()


def test_numerical_failure_exit_code(tmp_path):
    cfg = floquet_config(
        tmp_path,
        h0=((0.3, 0.0), (0.0, -0.3)),
        drives=[{"harmonic": 1, "kind": "sin", "matrix": [[0.0, 2.0], [2.0, 0.0]]}],
        steps=64,
    )
    assert main(["floquet", "--config", cfg]) == 2


def test_floquet_eigenbasis_residual_guard_exits_2(tmp_path, monkeypatch, capsys):
    # eigh hands back a Fourier-mixed, non-eigen basis for the 2-D Cayley
    # transform of the monodromy; the stacked (3-D) midpoint eigh calls pass
    eigh = np.linalg.eigh

    def mixed(a):
        vals, vecs = eigh(a)
        if np.ndim(a) != 2:
            return vals, vecs
        n = np.arange(len(vals))
        return vals, vecs @ (np.exp(2j * np.pi * np.outer(n, n) / len(n)) / np.sqrt(len(n)))

    monkeypatch.setattr(np.linalg, "eigh", mixed)
    spec = bl.DriveSpec(h0=np.diag([0.7, -0.7]).astype(complex), omega=1.0)
    with pytest.raises(bl.NumericalFailure, match="residual"):
        bl.quasienergies(bl.propagate_period(spec, steps=256), omega=1.0)
    assert main(["floquet", "--config", floquet_config(tmp_path, steps=256)]) == 2
    assert "residual" in capsys.readouterr().err


def test_floquet_method_key_is_unknown(tmp_path, capsys):
    # midpoint is the one propagator; RK4 runs only as the cross-check
    cfg = floquet_config(tmp_path, steps=256, method="fourth-order")
    assert main(["floquet", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "unknown key 'method'" in err and "(at /floquet/method)" in err
    assert "Traceback" not in err


def test_seed_battery_override(tmp_path):
    # the overrides are edits of the config tree: they show in the echo and its hash
    cfg = superselect_config(tmp_path, seeds=5)
    plain, edited = tmp_path / "plain.json", tmp_path / "edited.json"
    assert main(["superselect", "--config", cfg, "--report", str(plain)]) == 0
    argv = ["--seed-battery", "2", "--tol-override", "solver_zero=1e-9"]
    assert main(["superselect", "--config", cfg, "--report", str(edited), *argv]) == 0
    plain, edited = (json.loads(p.read_text()) for p in (plain, edited))
    labels = edited["results"]["battery"]
    assert labels.count("seed:1") == 1 and "seed:3" not in labels
    assert plain["config"]["battery"] == {"seeds": 5} and "tolerances" not in plain["config"]
    assert edited["config"]["battery"] == {"seeds": 2}
    assert edited["config"]["tolerances"] == {"solver_zero": 1e-9}
    assert edited["tolerances"]["solver_zero"] == 1e-9
    assert edited["config_sha256"] != plain["config_sha256"]
    assert "output" not in edited["config"]  # output paths stay out of the echo


def test_reports_are_deterministic(tmp_path):
    cfg = validate_config(
        {
            "kind": "superselect",
            "lattice": {"cells": 3, "cutoff": 4},
            "potential": {"harmonics": [{"j": 1, "re": 0.25}]},
            "battery": {"seeds": 5},
        }
    )
    first = stable_report_bytes(run_scenario(cfg))
    second = stable_report_bytes(run_scenario(cfg))
    assert first == second


def test_emitted_files_are_deterministic(tmp_path):
    cfg = superselect_config(tmp_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        assert main(["superselect", "--config", cfg, "--report", str(target)]) == 0
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    ra.pop("timing"), rb.pop("timing")
    assert ra == rb


def test_config_output_section_stays_out_of_the_echo_and_hash(tmp_path, monkeypatch):
    # the shipped config names its outputs in its file; a copy without the
    # section that gets the same paths by flags must report byte for byte the
    # same outside timing, echo and hash included
    shipped = Path(__file__).resolve().parents[1] / "configs" / "superselect_mathieu.json"
    data = json.loads(shipped.read_text())
    output = data.pop("output")
    monkeypatch.chdir(tmp_path)  # the section's paths are relative
    with_section, without = tmp_path / "with_section.json", tmp_path / "without.json"
    shutil.copy(shipped, with_section)
    write_json(without, data)
    flags = ["--report", output["report"], "--fringe-prefix", output["fringe_prefix"]]
    written = []
    for argv in (["--config", str(with_section)], ["--config", str(without), *flags]):
        assert main(["superselect", *argv]) == 0
        report = Path(output["report"]).read_text()
        fringes = [Path(output["fringe_prefix"] + s).read_bytes() for s in ("_cross.csv", "_within.csv")]
        written.append((report[: report.rindex('"timing"')], fringes))
    assert written[0] == written[1]
    assert "output" not in json.loads(report)["config"]


def test_fringe_series_fft_has_single_cycle(tmp_path):
    cfg = superselect_config(tmp_path)
    prefix = str(tmp_path / "fr")
    assert main(["superselect", "--config", cfg, "--fringe-prefix", prefix]) == 0
    rows = (tmp_path / "fr_within.csv").read_text().strip().splitlines()[1:]
    averages = np.array([float(r.split(",")[1]) for r in rows])
    assert len(averages) == 64
    spectrum = np.abs(np.fft.rfft(averages))
    assert int(np.argmax(spectrum[1:])) + 1 == 1  # dominant bin: one cycle per sweep
    flat_rows = (tmp_path / "fr_cross.csv").read_text().strip().splitlines()[1:]
    flat = np.array([float(r.split(",")[1]) for r in flat_rows])
    assert float(np.max(flat) - np.min(flat)) < 1e-10


def test_fringe_csv_row_count(mathieu_solution, lattice_n3):
    _, bands = mathieu_solution
    scan = bl.fringe_scan(named("cos_a", lattice_n3), bands.dense(1, 0), bands.dense(1, 1), 8)
    rows = fringe_csv({"phases": scan.phases, "averages": scan.averages}).strip().splitlines()
    assert rows[0] == "lambda,average"
    assert len(rows) == 1 + 8


def run_python(*args):
    """``python *args`` in a child that imports the same blochlab as this process.

    ``src/`` is put on the child's PYTHONPATH, so the suite needs no install.
    """
    path = [str(Path(bl.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_version_flag():
    proc = run_python("-m", "blochlab", "--version")
    assert proc.returncode == 0
    assert "blochlab 0.1.0" in proc.stdout


@pytest.mark.parametrize(
    "argv, message",
    [
        (["wannier", "--config", "c.json", "--out", "x.csv"], "unrecognized arguments: --out"),
        (["superselect"], "the following arguments are required: --config"),
        (["superselect", "--config", "c.json", "--seed-battery", "abc"], "invalid int value"),
    ],
    ids=["flag_of_another_kind", "missing_config", "seed_battery_not_an_int"],
)
def test_usage_errors_exit_1_with_the_usage_line(argv, message):
    # exit 2 is a numerical failure: argparse's own usage exit would read as one
    proc = run_python("-m", "blochlab", *argv)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("usage: blochlab") and message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_help_exits_0():
    proc = run_python("-m", "blochlab", "superselect", "-h")
    assert proc.returncode == 0 and proc.stdout.startswith("usage: blochlab superselect")


def test_module_invocation_end_to_end(tmp_path):
    cfg = bands_config(tmp_path)
    out = tmp_path / "cli_bands.csv"
    proc = run_python("-m", "blochlab", "bands", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


# ---------------------------------------------------------------------------
# scipy is not a runtime dependency: neither importing the CLI nor running any
# shipped config may load it

SHIPPED = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))

NO_SCIPY = """
import runpy, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, NoScipy())
runpy.run_module("blochlab", run_name="__main__", alter_sys=True)
"""


def test_importing_the_cli_loads_no_scipy():
    code = (
        "import sys, blochlab.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("config", SHIPPED, ids=lambda p: p.stem)
def test_shipped_config_runs_with_scipy_blocked(config, tmp_path):
    kind = json.loads(config.read_text())["kind"]
    extra = {"bands": "--out", "superselect": "--fringe-prefix"}

    def argv(directory):
        directory.mkdir()
        out = [kind, "--config", str(config), "--report", str(directory / "report.json")]
        return out + ([extra[kind], str(directory / "series")] if kind in extra else [])

    blocked, plain = tmp_path / "blocked", tmp_path / "plain"
    proc = run_python("-c", NO_SCIPY, *argv(blocked))
    assert proc.returncode == 0, proc.stderr
    assert main(argv(plain)) == 0
    reports = [json.loads((d / "report.json").read_text()) for d in (blocked, plain)]
    for report in reports:
        report.pop("timing")
    assert reports[0] == reports[1]


SHIPPED_LATTICES = [config for config in SHIPPED if "floquet" not in config.stem]


@pytest.mark.parametrize("config", SHIPPED_LATTICES, ids=lambda p: p.stem)
def test_a_lattice_run_forms_its_plane_wave_grid_once(config, tmp_path, monkeypatch):
    # validation, the Hamiltonian, the translation, the bands and the battery
    # all read the one LatticeSpec's grid
    formed = []

    def counting(name, func):
        def form(spec):
            formed.append(name)
            return func(spec)

        return form

    for name in ("indices", "momenta", "class_rows"):
        grid = vars(bl.LatticeSpec)[name]
        monkeypatch.setattr(grid, "func", counting(name, grid.func))
    monkeypatch.chdir(tmp_path)  # the config's output paths are relative
    kind = json.loads(config.read_text())["kind"]
    assert main([kind, "--config", str(config)]) == 0
    assert sorted(formed) == ["class_rows", "indices", "momenta"]


# ---------------------------------------------------------------------------
# inputs that must stop at validation: exit 1, a JSON pointer, no traceback

NAN, INF = float("nan"), float("inf")


def lattice_config(kind="superselect", **sections):
    return {"kind": kind, "lattice": {"cells": 3, "cutoff": 4}, "battery": {"seeds": 2}, **sections}


BANDS = {"kind": "bands", "lattice": {"cells": 3, "cutoff": 4}}
TESTS_DIR = str(Path(__file__).resolve().parent)  # an existing directory
UNDER_A_FILE = str(Path(__file__).resolve() / "out.csv")  # a path below a regular file

FLOQUET_BASE = {"omega": 1.0, "h0": [[0.3, 0.0], [0.0, -0.3]]}


def _floquet(**fields):
    return {"kind": "floquet", "floquet": {**FLOQUET_BASE, **fields}}


REJECTED = {
    "tolerance_infinity": (
        lattice_config(tolerances={"structural_zero": INF}), [], "/tolerances/structural_zero",
    ),
    "tolerance_nan": (
        lattice_config(tolerances={"solver_zero": NAN}), [], "/tolerances/solver_zero",
    ),
    "potential_harmonic_nan": (
        lattice_config(potential={"harmonics": [{"j": 1, "re": NAN}]}),
        [],
        "/potential/harmonics/0/re",
    ),
    "lattice_constant_infinity": (
        {"kind": "bands", "lattice": {"cells": 3, "cutoff": 4, "a": INF}}, [], "/lattice/a",
    ),
    "custom_p_poly_nan": (
        lattice_config(battery={"seeds": 2, "custom": [{"terms": [{"p_poly": [0.0, NAN]}]}]}),
        [],
        "/battery/custom/0/terms/0/p_poly/1",
    ),
    "custom_f_infinity": (
        lattice_config(
            battery={"seeds": 2, "custom": [{"terms": [{"f": [{"j": 1, "im": -INF}]}]}]}
        ),
        [],
        "/battery/custom/0/terms/0/f/0/im",
    ),
    "floquet_h0_nan_pair": (
        {"kind": "floquet", "floquet": {"omega": 1.0, "h0": [[[NAN, 0.0], 0.0], [0.0, -0.3]]}},
        [],
        "/floquet/h0/0/0/0",
    ),
    "floquet_h0_nan_number": (
        {"kind": "floquet", "floquet": {"omega": 1.0, "h0": [[0.3, 0.0], [0.0, NAN]]}},
        [],
        "/floquet/h0/1/1",
    ),
    "tol_override_infinity": (
        lattice_config(), ["--tol-override", "structural_zero=inf"], "/tolerances/structural_zero",
    ),
    "tol_override_nan": (
        lattice_config(), ["--tol-override", "solver_zero=nan"], "/tolerances/solver_zero",
    ),
    "tol_override_missing_equals": (
        lattice_config(), ["--tol-override", "solver_zero"], "/tolerances",
    ),
    "tol_override_unknown_key": (
        lattice_config(), ["--tol-override", "bogus=1"], "/tolerances/bogus",
    ),
    "tol_override_not_a_number": (
        lattice_config(), ["--tol-override", "solver_zero=abc"], "/tolerances/solver_zero",
    ),
    "tol_override_not_positive": (
        lattice_config(), ["--tol-override", "solver_zero=0"], "/tolerances/solver_zero",
    ),
    "seed_battery_on_bands": (
        {"kind": "bands", "lattice": {"cells": 3, "cutoff": 4}}, ["--seed-battery", "2"],
        "/battery",
    ),
    "seed_battery_on_floquet": (
        {"kind": "floquet", "floquet": {"omega": 1.0, "h0": [[0.3, 0.0], [0.0, -0.3]]}},
        ["--seed-battery", "2"],
        "/battery",
    ),
    "negative_control_shift_past_basis": (
        lattice_config(negative_control={"s": 20}), [], "/negative_control/s",
    ),
    "battery_member_zero_on_small_basis": (
        # cells=3, cutoff=1: d = 3, so cos_a's offset 1*3 reaches past the basis
        {
            "kind": "superselect",
            "lattice": {"cells": 3, "cutoff": 1},
            "battery": {"seeds": 2, "max_harmonic": 0},
        },
        [],
        "/battery",
    ),
    "battery_custom_zero_polynomial": (
        lattice_config(battery={"seeds": 2, "custom": [{"terms": [{"p_poly": [0.0]}]}]}),
        [],
        "/battery",
    ),
    "battery_empty": (
        lattice_config(battery={"seeds": 0, "named": []}), [], "/battery",
    ),
    "battery_empty_wannier": (
        lattice_config("wannier", battery={"seeds": 0, "named": []}), [], "/battery",
    ),
    "battery_custom_empty_term": (
        lattice_config(battery={"seeds": 2, "custom": [{"terms": [{"f": [{"j": 0}]}]}]}),
        [],
        "/battery",
    ),
    "wannier_bands_empty": (
        lattice_config("wannier", wannier={"bands": []}), [], "/wannier/bands",
    ),
    "wannier_home_cells_empty": (
        lattice_config("wannier", wannier={"home_cells": []}), [], "/wannier/home_cells",
    ),
    "wannier_band_out_of_range": (
        # cells=3, cutoff=4: 9 plane waves, 3 bands per class
        lattice_config("wannier", wannier={"bands": [0, 3]}), [], "/wannier/bands/1",
    ),
    "wannier_home_cell_out_of_range": (
        lattice_config("wannier", wannier={"home_cells": [3]}), [], "/wannier/home_cells/0",
    ),
    # a repeat is rejected at its first recurrence: a repeated band would share
    # one per_band entry, and repeated home cells would grow the Wannier array
    "wannier_band_repeated": (
        lattice_config("wannier", wannier={"bands": [0, 1, 0, 1]}), [], "/wannier/bands/2",
    ),
    "wannier_home_cell_repeated": (
        lattice_config("wannier", wannier={"home_cells": [1, 1]}), [], "/wannier/home_cells/1",
    ),
    "battery_named_repeated": (
        lattice_config(battery={"named": ["cos_a", "sin_a", "cos_a"]}), [], "/battery/named/2",
    ),
    "lattice_constant_400_digits": (
        # float() of the integer overflows: not finite
        {"kind": "bands", "lattice": {"cells": 3, "cutoff": 4, "a": 10**400}}, [], "/lattice/a",
    ),
    "lattice_mass_zero": (
        {"kind": "bands", "lattice": {"cells": 3, "cutoff": 4, "mass": 0}}, [], "/lattice/mass",
    ),
    "lattice_pad_basis_not_boolean": (
        {"kind": "bands", "lattice": {"cells": 3, "cutoff": 4, "pad_basis": 1}},
        [],
        "/lattice/pad_basis",
    ),
    "potential_harmonics_not_array": (
        lattice_config(potential={"harmonics": {"j": 1}}), [], "/potential/harmonics",
    ),
    "battery_custom_not_array": (
        lattice_config(battery={"seeds": 2, "custom": {"terms": []}}), [], "/battery/custom",
    ),
    "custom_terms_empty": (
        lattice_config(battery={"seeds": 2, "custom": [{"terms": []}]}),
        [],
        "/battery/custom/0/terms",
    ),
    # every term is (F*P + P*F)/2: the retired switch is an unknown key
    "custom_symmetrize_unknown": (
        lattice_config(
            battery={"seeds": 2, "custom": [{"terms": [{"p_poly": [0, 1]}], "symmetrize": True}]}
        ),
        [],
        "/battery/custom/0/symmetrize",
    ),
    "custom_p_poly_not_array": (
        lattice_config(battery={"seeds": 2, "custom": [{"terms": [{"p_poly": 1.0}]}]}),
        [],
        "/battery/custom/0/terms/0/p_poly",
    ),
    "custom_p_poly_degree_7": (
        lattice_config(battery={"seeds": 2, "custom": [{"terms": [{"p_poly": [0] * 7 + [1]}]}]}),
        [],
        "/battery/custom/0/terms/0",
    ),
    "floquet_without_h0": ({"kind": "floquet", "floquet": {"omega": 1.0}}, [], "/floquet"),
    "floquet_h0_empty": (_floquet(h0=[]), [], "/floquet/h0"),
    "floquet_without_omega": (
        {"kind": "floquet", "floquet": {"h0": FLOQUET_BASE["h0"]}}, [], "/floquet",
    ),
    "floquet_drives_not_array": (
        _floquet(drives={"matrix": [[0, 1], [1, 0]]}), [], "/floquet/drives",
    ),
    "drive_term_without_matrix": (_floquet(drives=[{"kind": "cos"}]), [], "/floquet/drives/0"),
    "drive_kind_not_string": (
        _floquet(drives=[{"kind": 1, "matrix": [[0, 1], [1, 0]]}]), [], "/floquet/drives/0/kind",
    ),
    "drive_matrix_not_hermitian": (
        _floquet(drives=[{"kind": "cos", "matrix": [[0, 1], [0, 0]]}]),
        [],
        "/floquet/drives/0/matrix",
    ),
    "probe_observable_without_static": (
        _floquet(probe={"observable": {"harmonics": []}}), [], "/floquet/probe/observable",
    ),
    "probe_static_not_hermitian": (
        _floquet(probe={"observable": {"static": [[0, 1], [0, 0]]}}),
        [],
        "/floquet/probe/observable",
    ),
    "probe_periods_empty": (_floquet(probe={"periods": []}), [], "/floquet/probe/periods"),
    "probe_periods_zero": (_floquet(probe={"periods": [0]}), [], "/floquet/probe/periods/0"),
    # the averages are keyed by K: [8, 8, 8] reported one entry and echoed three
    "probe_periods_repeated": (
        _floquet(probe={"periods": [8, 8, 8]}), [], "/floquet/probe/periods/1",
    ),
    "output_path_empty": (lattice_config(output={"report": ""}), [], "/output/report"),
    # the observable must match the drive: a 3 x 3 one on a two-level drive
    # failed in the probe, after the propagation, RK4 and Sambe (exit 2)
    "probe_observable_wrong_size": (
        _floquet(probe={"observable": {"static": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}}),
        [],
        "/floquet/probe/observable",
    ),
    "drive_matrix_wrong_size": (
        _floquet(drives=[{"kind": "cos", "matrix": [[0, 1, 0], [1, 0, 0], [0, 0, 0]]}]),
        [],
        "/floquet",
    ),
    "probe_observable_harmonic_wrong_size": (
        _floquet(
            probe={
                "observable": {
                    "static": [[1, 0], [0, -1]],
                    "harmonics": [{"kind": "cos", "matrix": [[0, 1, 0], [1, 0, 0], [0, 0, 0]]}],
                }
            }
        ),
        [],
        "/floquet/probe/observable",
    ),
    # momentum scales whose kinetic energy or momentum power 6 overflows: the
    # battery's q_scale**power raised OverflowError, the bands report held nulls
    "lattice_hbar_1e160": (
        lattice_config(lattice={"cells": 3, "cutoff": 4, "hbar": 1e160}), [], "/lattice",
    ),
    "lattice_a_1e-160_wannier": (
        lattice_config("wannier", lattice={"cells": 5, "cutoff": 7, "a": 1e-160}), [], "/lattice",
    ),
    "lattice_a_1e-55_degree_6": (
        lattice_config(lattice={"cells": 3, "cutoff": 4, "a": 1e-55}, battery={"degree": 6}),
        [],
        "/lattice",
    ),
    "lattice_a_1e-300_bands": (
        {"kind": "bands", "lattice": {"cells": 3, "cutoff": 4, "a": 1e-300}}, [], "/lattice",
    ),
    # cells * a overflowed to inf: every momentum read 0 and translation_eigen failed (exit 3)
    "lattice_circumference_overflow_bands": (
        {"kind": "bands", "lattice": {"cells": 3, "cutoff": 4, "a": 1e308}}, [], "/lattice/a",
    ),
    "lattice_circumference_overflow_superselect": (
        lattice_config(lattice={"cells": 3, "cutoff": 4, "a": 1e308}), [], "/lattice/a",
    ),
    "lattice_circumference_overflow_wannier": (
        lattice_config("wannier", lattice={"cells": 5, "cutoff": 7, "a": 1e308}), [], "/lattice/a",
    ),
    # a custom term that overflows raised numpy's RuntimeWarning before the
    # member's finite-entry check: in the polynomial, then in the F*P product
    "custom_p_poly_overflow": (
        lattice_config(battery={"seeds": 2, "custom": [{"terms": [{"p_poly": [0, 1e308]}]}]}),
        [],
        "/battery",
    ),
    "custom_symmetrized_product_overflow": (
        lattice_config(
            battery={
                "seeds": 2,
                "custom": [{"terms": [{"f": [{"j": 1, "re": 1e308}], "p_poly": [0, 10]}]}],
            }
        ),
        [],
        "/battery",
    ),
    # a Sambe diagonal h*hbar*omega past the float range: LinAlgError from the
    # Sambe eigensolve, a traceback
    "floquet_omega_near_float_range": (_floquet(omega=8e307), [], "/floquet"),
    "floquet_hbar_near_float_range": (_floquet(hbar=8e307), [], "/floquet"),
    # a probe observable entry near the float range overflowed the period sums:
    # exit 3 and inf or NaN in the report
    "floquet_probe_observable_near_float_range": (
        _floquet(probe={"observable": {"static": [[8e307, 0], [0, 1]]}}),
        [],
        "/floquet/probe/observable",
    ),
    "floquet_probe_observable_harmonic_near_float_range": (
        _floquet(
            probe={
                "observable": {
                    "static": [[1, 0], [0, -1]],
                    "harmonics": [{"kind": "sin", "matrix": [[0, [0, 1e308]], [[0, -1e308], 0]]}],
                }
            }
        ),
        [],
        "/floquet/probe/observable",
    ),
    # a harmonic past the float range overflowed the phase harmonic * omega * t: a traceback
    "drive_harmonic_past_float_range": (
        _floquet(drives=[{"harmonic": 10**400, "kind": "cos", "matrix": [[0, 1], [1, 0]]}]),
        [],
        "/floquet/drives/0/harmonic",
    ),
    # a term without p_poly is P = 1, and 0.5*(c + c) overflows past half the float range
    "custom_function_only_overflow": (
        lattice_config(
            battery={"seeds": 2, "custom": [{"terms": [{"f": [{"j": 1, "re": 1e308}]}]}]}
        ),
        [],
        "/battery",
    ),
    # a member of finite entries near the float range passed the table's checks and
    # overflowed its measurements: the Wannier band average (a RuntimeWarning, exit 3
    # and bare inf tokens in the report) and the fringe scans (exit 3)
    "battery_member_beyond_entry_bound_wannier": (
        lattice_config("wannier", battery={"custom": [{"terms": [{"p_poly": [8e307]}]}]}),
        [],
        "/battery",
    ),
    "battery_member_beyond_entry_bound_superselect": (
        lattice_config(battery={"custom": [{"terms": [{"f": [{"j": 1, "re": 8e307}]}]}]}),
        [],
        "/battery",
    ),
    # a finite kinetic energy plus v0 overflowed on the diagonal: H held inf and passed
    "lattice_kinetic_plus_v0": (
        lattice_config(
            lattice={"cells": 3, "cutoff": 4, "mass": 3.5e-307}, potential={"v0": 1e308}
        ),
        [],
        "/lattice",
    ),
    # two finite harmonics on one index folded to inf: the operator check raised
    # ValueError from build_hamiltonian, a traceback
    "potential_harmonics_fold_to_infinity": (
        lattice_config(potential={"harmonics": [{"j": 1, "re": 1e308}, {"j": 1, "re": 1e308}]}),
        [],
        "/potential",
    ),
    # the cosine form j = +-1 folds through a conjugate; at 1e308 the fold
    # overflowed with a RuntimeWarning, before any bound was checked
    "potential_cosine_pair_folds_to_infinity": (
        lattice_config(potential={"harmonics": [{"j": 1, "re": 1e308}, {"j": -1, "re": 1e308}]}),
        [],
        "/potential",
    ),
    "potential_negative_harmonics_fold_to_infinity": (
        lattice_config(
            potential={"harmonics": [{"j": -1, "re": 1e308}, {"j": -1, "re": 1e308}]}
        ),
        [],
        "/potential",
    ),
    # a finite harmonic whose eigen-residual norm overflowed: a RuntimeWarning in
    # the solver-quality checks, then exit 3 on eigen_residual
    "potential_harmonic_beyond_hamiltonian_bound": (
        {"kind": "bands", "lattice": {"cells": 3, "cutoff": 4},
         "potential": {"harmonics": [{"j": 1, "re": 1e308}]}},
        [],
        "/potential",
    ),
    # a subnormal lattice constant overflowed 2 pi m / L while the basis was
    # built, with a RuntimeWarning before the momentum scale was checked
    "lattice_a_subnormal": (
        {"kind": "bands", "lattice": {"cells": 3, "cutoff": 4, "a": 5e-324}}, [], "/lattice",
    ),
    # output paths are checked before any solve: an existing directory, and a
    # path under a regular file (this test module), per output key and flag
    "output_csv_is_a_directory": (
        {**BANDS, "output": {"csv": TESTS_DIR}}, [], "/output/csv",
    ),
    "output_csv_is_empty": ({**BANDS, "output": {"csv": ""}}, [], "/output/csv"),
    "output_report_under_a_file": (
        lattice_config(output={"report": UNDER_A_FILE}), [], "/output/report",
    ),
    "output_fringe_prefix_under_a_file": (
        lattice_config(output={"fringe_prefix": UNDER_A_FILE}), [], "/output/fringe_prefix",
    ),
    "flag_out_under_a_file": (BANDS, ["--out", UNDER_A_FILE], "--out"),
    "flag_report_is_a_directory": (lattice_config(), ["--report", TESTS_DIR], "--report"),
    "flag_report_is_empty": (lattice_config(), ["--report", ""], "--report"),
    "flag_out_ends_in_a_separator": (BANDS, ["--out", "bands/"], "--out"),
    "flag_fringe_prefix_under_a_file": (
        lattice_config(), ["--fringe-prefix", UNDER_A_FILE], "--fringe-prefix",
    ),
    # an output key that its kind does not write is unknown, not silently ignored
    "bands_output_fringe_prefix": (
        {**BANDS, "output": {"fringe_prefix": "fr"}}, [], "/output/fringe_prefix",
    ),
    "superselect_output_csv": (lattice_config(output={"csv": "b.csv"}), [], "/output/csv"),
    "wannier_output_csv": (lattice_config("wannier", output={"csv": "b.csv"}), [], "/output/csv"),
    "wannier_output_fringe_prefix": (
        lattice_config("wannier", output={"fringe_prefix": "fr"}), [], "/output/fringe_prefix",
    ),
    "floquet_output_csv": ({**_floquet(), "output": {"csv": "b.csv"}}, [], "/output/csv"),
    "floquet_output_fringe_prefix": (
        {**_floquet(), "output": {"fringe_prefix": "fr"}}, [], "/output/fringe_prefix",
    ),
    # two requested files on one path: the later one silently replaced the
    # earlier (the bands CSV lost, or the report written as the cross fringe)
    "flags_out_and_report_collide": (
        BANDS, ["--out", "t/r.json", "--report", "t/r.json"], "--report",
    ),
    "flag_report_is_the_cross_fringe": (
        lattice_config(), ["--report", "t/f_cross.csv", "--fringe-prefix", "t/f"], "--report",
    ),
    "output_csv_collides_with_flag_report": (
        {**BANDS, "output": {"csv": "t/r.json"}}, ["--report", "./t/../t/r.json"], "--report",
    ),
    # no potential and every kinetic entry underflowed to 0: H was the zero
    # operator, and the run passed on it
    "lattice_hamiltonian_zero": (
        {"kind": "bands", "lattice": {"cells": 3, "cutoff": 4, "hbar": 1e-200}}, [], "/lattice",
    ),
}

COLLISIONS = {
    "flags_out_and_report_collide": ("--out", "--report"),
    "flag_report_is_the_cross_fringe": ("--fringe-prefix (_cross.csv)", "--report"),
    "output_csv_collides_with_flag_report": ("/output/csv", "--report"),
}

HAMILTONIAN_SCALE_CASES = (
    "potential_harmonics_fold_to_infinity",
    "potential_cosine_pair_folds_to_infinity",
    "potential_negative_harmonics_fold_to_infinity",
    "potential_harmonic_beyond_hamiltonian_bound",
    "lattice_a_subnormal",
)


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_invalid_input_exits_1_with_pointer(tmp_path, capsys, case):
    data, extra, pointer = REJECTED[case]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))  # writes NaN / Infinity tokens, as a user file may hold
    report = tmp_path / "report.json"
    code = main([data["kind"], "--config", str(path), "--report", str(report), *extra])
    err = capsys.readouterr().err
    assert code == 1, err
    assert f"(at {pointer})" in err
    assert "Traceback" not in err
    assert not report.exists()


@pytest.mark.parametrize("case", sorted(COLLISIONS))
def test_colliding_output_paths_name_both_sources(tmp_path, capsys, case):
    data, extra, _ = REJECTED[case]
    assert main([data["kind"], "--config", write_json(tmp_path / "c.json", data), *extra]) == 1
    first, second = COLLISIONS[case]
    assert f"config error: {first} and {second} both name the file" in capsys.readouterr().err


# a matrix of another size than the one it is added to, refused by the drive's
# own types with these messages
SIZE_MISMATCHES = {
    "drive_matrix_wrong_size": "drive matrix dimension differs from H0",
    "probe_observable_harmonic_wrong_size": "harmonic matrix dimension differs from static part",
}


@pytest.mark.parametrize("case", sorted(SIZE_MISMATCHES))
def test_a_matrix_of_another_size_is_named(tmp_path, capsys, case):
    data, _, pointer = REJECTED[case]
    assert main([data["kind"], "--config", write_json(tmp_path / "c.json", data)]) == 1
    message = f"config error: {SIZE_MISMATCHES[case]} (at {pointer})"
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("source", ["--report", "/output/report"])
def test_an_output_on_the_config_file_exits_1_and_leaves_it(tmp_path, capsys, monkeypatch, source):
    # the report was written over the scenario file it came from, and the
    # rerun then exited 1 on the report's own keys
    def no_solve(*args):
        raise AssertionError("solve_bands reached")

    monkeypatch.setattr("blochlab.runner.solve_bands", no_solve)
    config = tmp_path / "c.json"
    data = json.loads((SHIPPED_DRIVE.parent / "wannier_mathieu.json").read_text())
    data["output"] = {"report": str(config)} if source == "/output/report" else {}
    original = write_json(config, data)
    before = config.read_bytes()
    extra = ["--report", str(tmp_path / "." / "c.json")] if source == "--report" else []
    assert main(["wannier", "--config", original, *extra]) == 1
    err = capsys.readouterr().err
    assert f"config error: --config and {source} both name the file" in err
    assert config.read_bytes() == before


def test_zero_battery_member_is_named(tmp_path, capsys):
    data, _, _ = REJECTED["battery_member_zero_on_small_basis"]
    assert main(["superselect", "--config", write_json(tmp_path / "c.json", data)]) == 1
    assert "'cos_a'" in capsys.readouterr().err
    data, _, _ = REJECTED["battery_custom_zero_polynomial"]
    assert main(["superselect", "--config", write_json(tmp_path / "c.json", data)]) == 1
    assert "'custom:0'" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["superselect", "wannier"])
@pytest.mark.parametrize(
    "case, member",
    [("battery_member_zero_on_small_basis", "cos_a"), ("battery_custom_zero_polynomial", "custom:0")],
)
def test_zero_member_found_mid_stream_exits_1_and_writes_nothing(
    tmp_path, capsys, monkeypatch, kind, case, member
):
    # a table is checked when it is built, so a zero member stops the run at
    # its table: before any measurement when the battery is one table, after
    # the tables ahead of it when each member is a table of its own.  Either
    # way nothing is written and the error is a config one
    data, _, _ = REJECTED[case]
    data = {**data, "kind": kind}
    if kind == "wannier":
        data["wannier"] = {"bands": [0], "home_cells": [0, 1]}
    labels = member_labels(validate_config(data).battery)
    measured, tables = [], bl.Battery.tables

    def recording(battery):  # each table as it is built, before it is measured
        for table in tables(battery):
            measured.append(table.labels)
            yield table

    monkeypatch.setattr(bl.Battery, "tables", recording)
    ahead = [(label,) for label in labels[: labels.index(member)]]  # one-member tables
    for entries, before in ((None, []), (1, ahead)):
        if entries is not None:
            monkeypatch.setattr(bl.observables, "_TABLE_ENTRIES", entries)
        out = tmp_path / f"out{entries}"
        out.mkdir()
        config = write_json(tmp_path / "c.json", data)
        argv = [kind, "--config", config, "--report", str(out / "r.json")]
        if kind == "superselect":
            argv += ["--fringe-prefix", str(out / "fringe")]
        measured.clear()
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1, err
        assert "(at /battery)" in err and f"'{member}' is the zero operator" in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []
        assert measured == before


def test_negative_control_shift_past_basis_is_a_subprocess_exit_1(tmp_path):
    # the same check through the real entry point: no traceback on stderr
    data, _, _ = REJECTED["negative_control_shift_past_basis"]
    cfg = write_json(tmp_path / "c.json", data)
    proc = run_python("-m", "blochlab", "superselect", "--config", cfg)
    assert proc.returncode == 1
    assert "/negative_control/s" in proc.stderr and "Traceback" not in proc.stderr


def negative_control_config(tmp_path, cells, cutoff, shift):
    return write_json(
        tmp_path / "negative.json",
        {
            "kind": "superselect",
            "lattice": {"cells": cells, "cutoff": cutoff},
            "potential": {"harmonics": [{"j": 1, "re": 0.25}]},
            "battery": {"seeds": 2},
            "negative_control": {"s": shift},
        },
    )


# The negative control scans band 0 of class 0 against class s mod N.  Its
# entries (m, m + s) start from a class-0 index m only while m + s is on the
# basis, so the largest shift that reaches class 0 is the top index minus the
# lowest class-0 one; past it the fringe is exactly flat.
@pytest.mark.parametrize(
    "cells, cutoff, shift, reach",
    [(3, 4, 8, 7), (5, 7, 13, 12), (5, 7, 14, 12), (7, 108, 214, 213), (7, 108, 216, 213)],
)
def test_negative_control_past_class_0_exits_1_before_any_solve(
    tmp_path, capsys, monkeypatch, cells, cutoff, shift, reach
):
    def no_solve(*args):
        raise AssertionError("a rejected config reached the solver")

    monkeypatch.setattr(runner, "solve_bands", no_solve)
    report = tmp_path / "report.json"
    cfg = negative_control_config(tmp_path, cells, cutoff, shift)
    code = main(["superselect", "--config", cfg, "--report", str(report)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert f"must be <= {reach} to reach class 0" in err and "(at /negative_control/s)" in err
    assert "Traceback" not in err and not report.exists()


@pytest.mark.parametrize("cells, cutoff, shift", [(3, 4, 7), (5, 7, 12)])
def test_negative_control_at_the_largest_reaching_shift_passes(tmp_path, cells, cutoff, shift):
    report_path = tmp_path / "report.json"
    cfg = negative_control_config(tmp_path, cells, cutoff, shift)
    assert main(["superselect", "--config", cfg, "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["checks"]["negative_control"] is True
    assert report["results"]["negative_control"]["fringe_amplitude"] > 1e-6


# A padded basis (N = 4, cutoff 4: m = -4..7, d = 12) holds offsets up to
# d - 1 = 11, past 2 * cutoff = 8, and reaches class 0 up to the top index 7
# minus the lowest class-0 index -4: shifts 9 to 11 are valid negative controls
@pytest.mark.parametrize("shift", [9, 10, 11])
def test_negative_control_past_twice_the_cutoff_on_a_padded_basis_passes(tmp_path, shift):
    data = json.loads(Path(negative_control_config(tmp_path, 4, 4, shift)).read_text())
    data["lattice"]["pad_basis"] = True
    report_path = tmp_path / "report.json"
    cfg = write_json(tmp_path / "padded.json", data)
    assert main(["superselect", "--config", cfg, "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["checks"]["negative_control"] is True
    assert report["results"]["negative_control"]["fringe_amplitude"] > 1e-6


@pytest.mark.parametrize("case", HAMILTONIAN_SCALE_CASES)
def test_hamiltonian_scale_is_a_subprocess_exit_1_without_warning(tmp_path, case):
    # the plain interpreter with RuntimeWarning made an error, as a user may run it
    data, _, pointer = REJECTED[case]
    cfg = write_json(tmp_path / "c.json", data)
    proc = run_python("-W", "error::RuntimeWarning", "-m", "blochlab", data["kind"], "--config", cfg)
    assert proc.returncode == 1, proc.stderr
    assert f"(at {pointer})" in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "case",
    ["battery_member_beyond_entry_bound_wannier", "battery_member_beyond_entry_bound_superselect"],
)
def test_battery_member_beyond_the_entry_bound_exits_1_naming_it_without_warning(tmp_path, case):
    data, _, pointer = REJECTED[case]
    cfg = write_json(tmp_path / "c.json", data)
    report = tmp_path / "report.json"
    proc = run_python(
        "-W", "error::RuntimeWarning", "-m", "blochlab", data["kind"], "--config", cfg,
        "--report", str(report),
    )
    assert proc.returncode == 1, proc.stderr
    bound = f"{MAX_MEMBER_ENTRY:.0e}"
    assert f"member 'custom:0' has an entry of magnitude 8e+307, beyond {bound}" in proc.stderr
    assert f"(at {pointer})" in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert not report.exists()


def test_wannier_index_out_of_range_stops_before_any_eigensolve(tmp_path, capsys, monkeypatch):
    def no_solve(*args):
        raise AssertionError("solve_bands reached")

    monkeypatch.setattr("blochlab.runner.solve_bands", no_solve)
    data, _, _ = REJECTED["wannier_band_out_of_range"]
    assert main(["wannier", "--config", write_json(tmp_path / "c.json", data)]) == 1
    assert "must be < 3 on this lattice, got 3" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bounds on the fields that set a run's length or its numerical range: the
# bound passes, one step beyond it exits 1

SIN_X = {"kind": "sin", "matrix": [[0, 1], [1, 0]]}
P_ONLY = {"p_poly": [0, 1]}

# field: (config builder, bound, pointer, step beyond the bound)
CAPPED = {
    "steps": (lambda n: _floquet(steps=n), MAX_STEPS, "/floquet/steps", 1),
    "steps_floor": (lambda n: _floquet(steps=n), MIN_STEPS, "/floquet/steps", -1),
    "trajectory_points": (
        lambda n: _floquet(trajectory_points=n), MAX_TRAJECTORY_POINTS,
        "/floquet/trajectory_points", 1,
    ),
    "sambe_hmax": (
        lambda n: _floquet(sambe_hmax=n), MAX_SAMBE_HMAX, "/floquet/sambe_hmax", 1,
    ),
    "probe_grid": (
        lambda n: _floquet(probe={"grid": n}), MAX_GRID_POINTS, "/floquet/probe/grid", 1,
    ),
    "probe_periods": (
        lambda n: _floquet(probe={"periods": [8, n]}), MAX_PROBE_PERIODS,
        "/floquet/probe/periods/1", 1,
    ),
    "fringe_points": (
        lambda n: lattice_config(fringe_points=n), MAX_GRID_POINTS, "/fringe_points", 1,
    ),
    "battery_seeds": (
        lambda n: lattice_config(battery={"seeds": n}), MAX_BATTERY_SEEDS, "/battery/seeds", 1,
    ),
    "battery_degree": (
        lambda n: lattice_config(battery={"degree": n}), MAX_POLY_DEGREE, "/battery/degree", 1,
    ),
    # a harmonic above 2 * MAX_SAMBE_HMAX couples no two blocks of the largest Sambe space
    "drive_harmonic": (
        lambda n: _floquet(drives=[{**SIN_X, "harmonic": n}]), MAX_DRIVE_HARMONIC,
        "/floquet/drives/0/harmonic", 1,
    ),
    "probe_observable_harmonic": (
        lambda n: _floquet(
            probe={
                "observable": {"static": [[1, 0], [0, -1]], "harmonics": [{**SIN_X, "harmonic": n}]}
            }
        ),
        MAX_DRIVE_HARMONIC, "/floquet/probe/observable/harmonics/0/harmonic", 1,
    ),
    # list lengths, at the list's own pointer
    "floquet_drives": (
        lambda n: _floquet(drives=[{"kind": "cos", "matrix": [[0, 1], [1, 0]]}] * n),
        MAX_DRIVE_TERMS, "/floquet/drives", 1,
    ),
    "probe_observable_harmonics": (
        lambda n: _floquet(
            probe={"observable": {"static": [[1, 0], [0, -1]], "harmonics": [SIN_X] * n}}
        ),
        MAX_OBSERVABLE_HARMONICS, "/floquet/probe/observable/harmonics", 1,
    ),
    "battery_custom": (
        lambda n: lattice_config(battery={"seeds": 2, "custom": [{"terms": [P_ONLY]}] * n}),
        MAX_BATTERY_CUSTOM, "/battery/custom", 1,
    ),
}


@pytest.mark.parametrize("field", sorted(CAPPED))
def test_field_above_its_cap_exits_1_with_pointer(tmp_path, capsys, field):
    build, bound, pointer, beyond = CAPPED[field]
    validate_config(build(bound))  # the bound itself is accepted
    data = build(bound + beyond)
    code = main([data["kind"], "--config", write_json(tmp_path / "c.json", data)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert f"(at {pointer})" in err and f"{'<=' if beyond > 0 else '>='} {bound}" in err
    assert "Traceback" not in err


def test_seed_battery_override_above_cap_exits_1(tmp_path, capsys):
    path = write_json(tmp_path / "c.json", lattice_config())
    code = main(["superselect", "--config", path, "--seed-battery", str(MAX_BATTERY_SEEDS + 1)])
    err = capsys.readouterr().err
    assert code == 1 and "(at /battery/seeds)" in err and "Traceback" not in err


@pytest.mark.parametrize("target", ["report", "csv"])
def test_failed_output_write_exits_1_without_traceback(tmp_path, capsys, monkeypatch, target):
    # a path that passes validation and still cannot be written: one line, exit 1
    def failing_replace(src, dst):
        raise OSError(f"disk full writing {dst}")

    monkeypatch.setattr("blochlab.reports.os.replace", failing_replace)
    report, csv = tmp_path / "report.json", tmp_path / "bands.csv"
    argv = ["bands", "--config", bands_config(tmp_path), "--report", str(report)]
    code = main(argv + (["--out", str(csv)] if target == "csv" else []))
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    failed = csv if target == "csv" else report  # the csv is renamed before the report
    assert err.splitlines() == [f"output error: disk full writing {failed}"]
    assert not report.exists() and not csv.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["bands.json"]  # no temp file left


# ---------------------------------------------------------------------------
# the output stage: a run computes, and cli.main writes its files in one stage


@pytest.mark.parametrize("config", SHIPPED, ids=lambda p: p.stem)
def test_run_scenario_writes_no_file(config, tmp_path, monkeypatch):
    data = json.loads(config.read_text())
    data["output"] = {key: str(tmp_path / "out" / key) for key in data["output"]}
    monkeypatch.chdir(tmp_path)  # nor at a path relative to the working directory
    assert run_scenario(validate_config(data))["passed"]
    assert list(tmp_path.iterdir()) == []


REPORT_KEYS = [
    "tool", "kind", "config_sha256", "config", "tolerances", "results", "checks", "passed", "timing"
]


@pytest.mark.parametrize("config", SHIPPED, ids=lambda p: p.stem)
def test_run_scenario_returns_the_report_main_writes(config, tmp_path, monkeypatch):
    data = json.loads(config.read_text())
    report = run_scenario(validate_config(data))
    assert type(report) is dict and list(report) == REPORT_KEYS
    assert report["kind"] == data["kind"] and report["passed"] == all(report["checks"].values())
    monkeypatch.chdir(tmp_path)  # the config's other outputs land here
    assert main([data["kind"], "--config", str(config), "--report", "report.json"]) == 0
    text = (tmp_path / "report.json").read_text()
    assert text == runner.render_report({**report, "timing": json.loads(text)["timing"]})


@pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
def test_failed_report_fsync_leaves_no_fringe_file(tmp_path, capsys, monkeypatch, existing):
    # only the report's temp file fails to fsync, and the report is written
    # last: no fringe CSV may be renamed into place before it
    out = tmp_path / "out"
    out.mkdir()
    report, prefix = out / "report.json", out / "fr"
    targets = [report, out / "fr_cross.csv", out / "fr_within.csv"]
    for target in targets if existing else ():
        target.write_text(f"old {target.name}\n")
    mkstemp, fsync = tempfile.mkstemp, os.fsync
    report_fds = []

    def recording_mkstemp(**kwargs):
        fd, name = mkstemp(**kwargs)
        if Path(name).name.startswith(".report.json."):
            report_fds.append(fd)
        return fd, name

    def failing_fsync(fd):
        if fd in report_fds:
            raise OSError("disk full")
        fsync(fd)

    monkeypatch.setattr("blochlab.reports.tempfile.mkstemp", recording_mkstemp)
    monkeypatch.setattr("blochlab.reports.os.fsync", failing_fsync)
    config = str(SHIPPED_DRIVE.parent / "superselect_mathieu.json")
    argv = ["--config", config, "--report", str(report), "--fringe-prefix", str(prefix)]
    code = main(["superselect", *argv])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == ["output error: disk full"]
    assert len(report_fds) == 1
    old = {t.name: f"old {t.name}\n" for t in targets} if existing else {}
    assert {p.name: p.read_text() for p in out.iterdir()} == old  # and no temp file
