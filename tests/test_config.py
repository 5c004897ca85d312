"""Strict schema validation and JSON-pointer error reporting."""

import json
import re
from pathlib import Path

import pytest

import blochlab as bl
from blochlab import config
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
    assert cfg.tolerances == DEFAULT_TOLERANCES


def test_tolerance_overrides_are_merged_once_in_default_order():
    data = {**minimal_bands(), "tolerances": {"solver_zero": 1e-8, "structural_zero": 1e-11}}
    cfg = validate_config(data)
    assert list(cfg.tolerances) == list(DEFAULT_TOLERANCES)
    assert cfg.tolerances == {**DEFAULT_TOLERANCES, "solver_zero": 1e-8, "structural_zero": 1e-11}


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


@pytest.mark.parametrize(
    "data, pointer",
    [
        ({"kind": "bands", "lattice": {"cells": 1}, "latice": {}}, "/latice"),
        ({"kind": "bands", "lattice": {"cells": 1, "cutoff": 4, "cellz": 3}}, "/lattice/cellz"),
        (
            {**minimal_bands(), "tolerances": {"solver_zero": -1.0, "bogus": 1.0}},
            "/tolerances/bogus",
        ),
        (
            {"kind": "floquet", "floquet": {"omega": 1.0, "h0": [[1.0]], "steps": 1, "stepz": 1}},
            "/floquet/stepz",
        ),
    ],
)
def test_unknown_key_is_reported_before_a_bad_value(data, pointer):
    with pytest.raises(ConfigError, match="unknown key") as err:
        validate_config(data)
    assert err.value.pointer == pointer


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
                {"terms": [{"f": [{"j": 1, "re": 0.5, "im": 0.0}], "p_poly": [0.0, 1.0]}]}
            ],
        },
    }
    cfg = validate_config(data)
    assert len(cfg.battery.custom) == 1
    term = cfg.battery.custom[0].terms[0]
    assert term.f_harmonics == ((1, 0.5 + 0j),)
    assert term.p_poly == (0.0, 1.0)
    (table,) = cfg.battery.tables()
    assert table.labels[-1] == "custom:0" and table.norm_max[-1] > 0.0

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


# ---------------------------------------------------------------------------
# the schema as data: every integer key the tables read, with its maximum

# integer keys without a maximum, each with the bound that makes one needless
UNCAPPED = {
    "lattice.cells": "the basis dimension is capped at MAX_DIMENSION",
    "lattice.cutoff": "the basis dimension is capped at MAX_DIMENSION",
    "potential.harmonics.j": "an offset past the basis adds nothing",
    "battery.custom.terms.f.j": "an offset past the basis adds nothing",
    "battery.max_harmonic": "at most cutoff / cells",
    "negative_control.s": "at most d - 1, and within the reach of class 0",
    "wannier.bands": "below the bands per class",
    "wannier.home_cells": "below the cells",
    "floquet.probe.pair": "below the drive dimension",
}


def integer_keys(table=config._SECTIONS, path=""):
    """(dotted path, maximum) of every integer key read below ``table``."""

    def walk(reader, path):
        keywords = getattr(reader, "keywords", {})
        if getattr(reader, "func", reader) is config._int:
            yield path, keywords.get("maximum")
        elif "item" in keywords:  # a list: its items sit at the list's path
            yield from walk(keywords["item"], path)
        elif "table" in keywords:
            yield from integer_keys(keywords["table"], f"{path}.")

    for key, (reader, _) in table.items():
        yield from walk(reader, path + key)


def test_every_integer_key_has_a_cap_or_a_reason():
    keys = dict(integer_keys())
    assert {path for path, maximum in keys.items() if maximum is None} == set(UNCAPPED)
    assert keys["floquet.steps"] == config.MAX_STEPS  # the walk reaches nested tables


# arrays without a length cap or a no-repeats rule, each with what bounds it
UNCAPPED_LISTS = {
    "potential.harmonics": "folds onto one diagonal per index j; at most d/N reach the basis",
    "battery.custom.terms": "each term adds into its member's diagonals, at most d/N + 1",
    "battery.custom.terms.f": "folds onto one diagonal per index j; at most d/N reach the basis",
    "battery.custom.terms.p_poly": "at most MAX_POLY_DEGREE + 1 coefficients (ObservableTerm)",
    "floquet.h0": "a square matrix of the drive's dimension, at most MAX_DIM",
    "floquet.drives.matrix": "a square matrix of the drive's dimension, at most MAX_DIM",
    "floquet.probe.pair": "two distinct mode indices below the drive dimension",
    "floquet.probe.observable.static": "a square matrix of the drive's dimension, at most MAX_DIM",
    "floquet.probe.observable.harmonics.matrix": "a square matrix of the drive's dimension",
}


def list_keys(table=config._SECTIONS, path=""):
    """(dotted path, maximum length, distinct) of every array read below ``table``.

    A matrix is an array of rows; it has no maximum and may repeat.
    """

    def walk(reader, path):
        keywords = getattr(reader, "keywords", {})
        func = getattr(reader, "func", reader)
        if func is config._list:
            yield path, keywords.get("maximum"), keywords.get("distinct", False)
            yield from walk(keywords["item"], path)
        elif func is config._matrix:
            yield path, None, False
        elif "table" in keywords:
            yield from list_keys(keywords["table"], f"{path}.")

    for key, (reader, _) in table.items():
        yield from walk(reader, path + key)


def test_every_list_has_a_length_cap_a_no_repeats_rule_or_a_reason():
    lists = {path: (maximum, distinct) for path, maximum, distinct in list_keys()}
    bare = {path for path, (maximum, distinct) in lists.items() if maximum is None and not distinct}
    assert bare == set(UNCAPPED_LISTS)
    assert lists["floquet.probe.observable.harmonics"] == (config.MAX_OBSERVABLE_HARMONICS, False)


def test_readme_caps_table_matches_the_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = readme.split("| field | cap |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    documented, lengths, distinct = {}, {}, set()
    for row in rows.splitlines():
        field, cap = row.strip("| ").split(" | ")
        if cap == "no entry repeated":
            distinct |= set(re.findall(r"`([^`]+)`", field))
        elif field.startswith("length of "):
            lengths[re.search(r"`([^`]+)`", field).group(1)] = int(cap)
        else:
            documented[re.search(r"`([^`]+)`", field).group(1)] = int(cap)
    capped = {path: maximum for path, maximum in integer_keys() if maximum is not None}
    assert documented == capped
    lists = list(list_keys())
    assert lengths == {path: maximum for path, maximum, _ in lists if maximum is not None}
    assert distinct == {path for path, _, repeats_refused in lists if repeats_refused}
    assert distinct == {
        "battery.named", "wannier.bands", "wannier.home_cells", "floquet.probe.periods"
    }
    assert set(lengths) == {
        "battery.custom", "floquet.drives", "floquet.probe.observable.harmonics"
    }
