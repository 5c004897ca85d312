"""End-to-end CLI behavior: artifacts, exit codes, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

import blochlab as bl
from blochlab.cli import main
from blochlab.config import (
    MAX_BATTERY_SEEDS,
    MAX_GRID_POINTS,
    MAX_PROBE_PERIODS,
    MAX_STEPS,
    MAX_TRAJECTORY_POINTS,
    validate_config,
)
from blochlab.runner import run_scenario, stable_report_bytes
from conftest import random_hermitian


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
    # 17-significant-digit rendering survives a float round-trip
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
        },
    )
    report_path = tmp_path / "report.json"
    assert main(["superselect", "--config", cfg, "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert set(report["checks"]) == {"cross_sector_leakage", "fringe_flat", "negative_control"}
    assert "positive_control_min" not in report["results"]
    assert "fringe_within" not in report["results"]


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


def test_invariant_violation_exit_code(tmp_path, capsys):
    # an impossible tolerance forces a red flag; failures must not exit 0
    cfg = floquet_config(tmp_path, steps=256)
    code = main(["floquet", "--config", cfg, "--tol-override", "unitarity=1e-16"])
    assert code == 3
    out = capsys.readouterr()
    assert "FAIL" in out.out


def test_numerical_failure_exit_code(tmp_path):
    cfg = floquet_config(
        tmp_path,
        h0=((0.3, 0.0), (0.0, -0.3)),
        drives=[{"harmonic": 1, "kind": "sin", "matrix": [[0.0, 2.0], [2.0, 0.0]]}],
        steps=64,
    )
    assert main(["floquet", "--config", cfg]) == 2


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


def test_emit_fringe_series_row_count(tmp_path, mathieu_solution, basis_n3):
    from blochlab.reports import emit_fringe_series

    _, bands = mathieu_solution
    scan = bl.fringe_scan(bl.named_observables(basis_n3)["cos_a"], bands.state(1, 0), bands.state(1, 1), 8)
    path = tmp_path / "scan.csv"
    emit_fringe_series(scan, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "lambda,average"
    assert len(rows) == 1 + 8


def test_version_flag():
    proc = subprocess.run(
        [sys.executable, "-m", "blochlab", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "blochlab 0.1.0" in proc.stdout


def test_module_invocation_end_to_end(tmp_path):
    cfg = bands_config(tmp_path)
    out = tmp_path / "cli_bands.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "blochlab", "bands", "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


# ---------------------------------------------------------------------------
# inputs that must stop at validation: exit 1, a JSON pointer, no traceback

NAN, INF = float("nan"), float("inf")


def lattice_config(kind="superselect", **sections):
    return {"kind": kind, "lattice": {"cells": 3, "cutoff": 4}, "battery": {"seeds": 2}, **sections}


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
}


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


def test_zero_battery_member_is_named(tmp_path, capsys):
    data, _, _ = REJECTED["battery_member_zero_on_small_basis"]
    assert main(["superselect", "--config", write_json(tmp_path / "c.json", data)]) == 1
    assert "'cos_a'" in capsys.readouterr().err
    data, _, _ = REJECTED["battery_custom_zero_polynomial"]
    assert main(["superselect", "--config", write_json(tmp_path / "c.json", data)]) == 1
    assert "'custom:0'" in capsys.readouterr().err


def test_negative_control_shift_past_basis_is_a_subprocess_exit_1(tmp_path):
    # the same check through the real entry point: no traceback on stderr
    data, _, _ = REJECTED["negative_control_shift_past_basis"]
    cfg = write_json(tmp_path / "c.json", data)
    proc = subprocess.run(
        [sys.executable, "-m", "blochlab", "superselect", "--config", cfg],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "/negative_control/s" in proc.stderr and "Traceback" not in proc.stderr


def test_wannier_index_out_of_range_stops_before_any_eigensolve(tmp_path, capsys, monkeypatch):
    def no_solve(*args):
        raise AssertionError("solve_bands reached")

    monkeypatch.setattr("blochlab.runner.solve_bands", no_solve)
    data, _, _ = REJECTED["wannier_band_out_of_range"]
    assert main(["wannier", "--config", write_json(tmp_path / "c.json", data)]) == 1
    assert "must be < 3 on this lattice, got 3" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# caps on the fields that set a run's length: the cap passes, cap + 1 exits 1

FLOQUET_BASE = {"omega": 1.0, "h0": [[0.3, 0.0], [0.0, -0.3]]}


def _floquet(**fields):
    return {"kind": "floquet", "floquet": {**FLOQUET_BASE, **fields}}


CAPPED = {
    "steps": (lambda n: _floquet(steps=n), MAX_STEPS, "/floquet/steps"),
    "trajectory_points": (
        lambda n: _floquet(trajectory_points=n), MAX_TRAJECTORY_POINTS,
        "/floquet/trajectory_points",
    ),
    "probe_grid": (lambda n: _floquet(probe={"grid": n}), MAX_GRID_POINTS, "/floquet/probe/grid"),
    "probe_periods": (
        lambda n: _floquet(probe={"periods": [8, n]}), MAX_PROBE_PERIODS,
        "/floquet/probe/periods/1",
    ),
    "fringe_points": (lambda n: lattice_config(fringe_points=n), MAX_GRID_POINTS, "/fringe_points"),
    "battery_seeds": (
        lambda n: lattice_config(battery={"seeds": n}), MAX_BATTERY_SEEDS, "/battery/seeds",
    ),
}


@pytest.mark.parametrize("field", sorted(CAPPED))
def test_field_above_its_cap_exits_1_with_pointer(tmp_path, capsys, field):
    build, cap, pointer = CAPPED[field]
    validate_config(build(cap))  # the cap itself is accepted
    data = build(cap + 1)
    code = main([data["kind"], "--config", write_json(tmp_path / "c.json", data)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert f"(at {pointer})" in err and f"<= {cap}" in err
    assert "Traceback" not in err


def test_seed_battery_override_above_cap_exits_1(tmp_path, capsys):
    path = write_json(tmp_path / "c.json", lattice_config())
    code = main(["superselect", "--config", path, "--seed-battery", str(MAX_BATTERY_SEEDS + 1)])
    err = capsys.readouterr().err
    assert code == 1 and "(at /battery/seeds)" in err and "Traceback" not in err
