"""Strict schema validation and JSON-pointer error reporting."""

import json

import pytest

import blochlab as bl
from blochlab.config import (
    DEFAULT_TOLERANCES,
    parse_config,
    validate_config,
)
from blochlab.errors import ConfigError


def minimal_bands():
    return {"kind": "bands", "lattice": {"cells": 3, "cutoff": 4}}


def test_minimal_bands_config_is_valid():
    cfg = validate_config(minimal_bands())
    assert cfg.kind == "bands"
    assert cfg.lattice.cells == 3 and cfg.lattice.cutoff == 4
    assert cfg.potential.is_free
    assert cfg.tolerance("structural_zero") == DEFAULT_TOLERANCES["structural_zero"]


def test_single_cell_rejected_with_pointer():
    data = minimal_bands()
    data["lattice"]["cells"] = 1
    with pytest.raises(ConfigError) as err:
        validate_config(data)
    assert err.value.pointer == "/lattice/cells"


def test_unknown_top_level_key_named():
    data = minimal_bands()
    data["potental"] = {}
    with pytest.raises(ConfigError, match="potental") as err:
        validate_config(data)
    assert err.value.pointer == "/potental"


def test_unknown_nested_key_named():
    data = minimal_bands()
    data["lattice"]["cellz"] = 3
    with pytest.raises(ConfigError) as err:
        validate_config(data)
    assert err.value.pointer == "/lattice/cellz"


def test_divisibility_violation_is_config_error():
    data = {"kind": "bands", "lattice": {"cells": 4, "cutoff": 4}}
    with pytest.raises(ConfigError, match="divisible") as err:
        validate_config(data)
    assert err.value.pointer.startswith("/lattice")


def test_section_forbidden_for_kind():
    data = minimal_bands()
    data["battery"] = {"seeds": 5}
    with pytest.raises(ConfigError, match="not allowed"):
        validate_config(data)


def test_missing_required_sections():
    with pytest.raises(ConfigError, match="lattice"):
        validate_config({"kind": "superselect"})
    with pytest.raises(ConfigError, match="floquet"):
        validate_config({"kind": "floquet"})
    with pytest.raises(ConfigError, match="kind"):
        validate_config({})


def test_unknown_tolerance_rejected():
    data = minimal_bands()
    data["tolerances"] = {"no_such_tol": 1e-9}
    with pytest.raises(ConfigError) as err:
        validate_config(data)
    assert err.value.pointer == "/tolerances/no_such_tol"


def test_bad_potential_harmonic_pointer():
    data = minimal_bands()
    data["potential"] = {"harmonics": [{"j": 0, "re": 1.0}]}
    with pytest.raises(ConfigError) as err:
        validate_config(data)
    assert err.value.pointer == "/potential/harmonics/0/j"


def test_named_observable_must_exist():
    data = {
        "kind": "superselect",
        "lattice": {"cells": 3, "cutoff": 4},
        "battery": {"named": ["identity", "cos_b"]},
    }
    with pytest.raises(ConfigError) as err:
        validate_config(data)
    assert err.value.pointer == "/battery/named/1"


def test_negative_control_shift_must_break_periodicity():
    data = {
        "kind": "superselect",
        "lattice": {"cells": 3, "cutoff": 4},
        "negative_control": {"s": 3},
    }
    with pytest.raises(ConfigError) as err:
        validate_config(data)
    assert err.value.pointer == "/negative_control/s"


def test_battery_harmonic_reach_checked_against_lattice():
    data = {
        "kind": "superselect",
        "lattice": {"cells": 3, "cutoff": 4},
        "battery": {"max_harmonic": 2},
    }
    with pytest.raises(ConfigError) as err:
        validate_config(data)
    assert err.value.pointer == "/battery/max_harmonic"


def floquet_config():
    return {
        "kind": "floquet",
        "floquet": {
            "omega": 1.0,
            "h0": [[[0.3, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.3, 0.0]]],
            "drives": [{"harmonic": 1, "kind": "sin", "matrix": [[0.0, 0.5], [0.5, 0.0]]}],
        },
    }


def test_floquet_config_parses_matrices():
    cfg = validate_config(floquet_config())
    assert cfg.floquet.drive.dim == 2
    assert cfg.floquet.drive.h0[0, 0] == pytest.approx(0.3)
    assert cfg.floquet.steps == 4096 and cfg.floquet.sambe_hmax == 12


def test_floquet_matrix_errors_carry_pointers():
    data = floquet_config()
    data["floquet"]["h0"] = [[0.3, 0.0, 0.0], [0.0, -0.3, 0.0]]
    with pytest.raises(ConfigError) as err:
        validate_config(data)
    assert err.value.pointer.startswith("/floquet/h0")

    data = floquet_config()
    data["floquet"]["h0"][0][1] = [0.0, 0.5]  # breaks Hermiticity
    with pytest.raises(ConfigError, match="Hermitian"):
        validate_config(data)

    data = floquet_config()
    data["floquet"]["drives"][0]["kind"] = "tan"
    with pytest.raises(ConfigError) as err:
        validate_config(data)
    assert err.value.pointer == "/floquet/drives/0/kind"


def test_probe_pair_bounds():
    for bad_pair in ([0, 5], [1, 1]):
        data = floquet_config()
        data["floquet"]["probe"] = {"pair": bad_pair}
        with pytest.raises(ConfigError) as err:
            validate_config(data)
        assert err.value.pointer == "/floquet/probe/pair"


def test_parse_config_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="malformed"):
        parse_config(bad)


def test_parse_config_roundtrip(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(minimal_bands()))
    cfg = parse_config(path)
    assert cfg.kind == "bands"
    assert cfg.echo == minimal_bands()


def test_custom_battery_observable_schema():
    data = {
        "kind": "superselect",
        "lattice": {"cells": 3, "cutoff": 4},
        "battery": {
            "seeds": 2,
            "custom": [
                {"terms": [{"f": [{"j": 1, "re": 0.5, "im": 0.0}], "p_poly": [0.0, 1.0]}],
                 "symmetrize": True}
            ],
        },
    }
    cfg = validate_config(data)
    assert len(cfg.battery.custom) == 1
    term = cfg.battery.custom[0].terms[0]
    assert term.f_harmonics == ((1, 0.5 + 0j),)
    assert term.p_poly == (0.0, 1.0)
    basis = bl.build_basis(cfg.lattice)
    op = bl.build_observable(cfg.battery.custom[0], basis)
    assert op.norm_max > 0.0

    data["battery"]["custom"] = [{"terms": [{"f": [{"j": 1, "re": 0.5}], "p_polyy": []}]}]
    with pytest.raises(ConfigError) as err:
        validate_config(data)
    assert err.value.pointer == "/battery/custom/0/terms/0/p_polyy"


def test_fringe_points_minimum():
    data = {
        "kind": "superselect",
        "lattice": {"cells": 3, "cutoff": 4},
        "fringe_points": 4,
    }
    with pytest.raises(ConfigError) as err:
        validate_config(data)
    assert err.value.pointer == "/fringe_points"
