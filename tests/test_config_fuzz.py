"""Fuzzed config trees through the CLI: the exit-code contract holds for every input.

A tree is drawn valid for one of the four kinds and then, in most examples,
one of its values is replaced by a hostile one (NaN, infinities, wrong
types, out-of-range numbers), a key is dropped or an unknown key is added.
Every tree must end in exit 0, 1, 2 or 3 without a traceback, and a report
that is written is strict JSON (no NaN or Infinity token) and holds no null
but on the leakage table's diagonal, which the runner writes as an explicit
null ("not applicable").  One small tree per kind is also swept without
drawing: each numeric leaf in turn takes each value near the ends of the
float range, under the same contract.  Hostile output paths, in the config
or on the command line, exit 1 with a pointer before any solve, and so does
a config file that cannot be decoded.  The trees stay small (d <= 13 plane
waves, floquet steps <= 1024) so the derandomized run is reproducible and
fast.
"""

import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from blochlab.cli import main
from blochlab.config import DEFAULT_TOLERANCES, OUTPUT_KEYS
from blochlab.observables import NAMED_OBSERVABLES

# 8e307 and 1.6e308 are near half of the float range and near all of it: a
# battery member of such entries is finite, and its sums are not
HOSTILE = (
    float("nan"), float("inf"), -float("inf"), 1e308, 1.6e308, 8e307, 1e160, 1e-160, -1, 0,
    0.0, 10**9, -(10**20), 2.5, True, None, "x", [], {}, [[1.0]],
)

amplitudes = st.floats(-1.0, 1.0)
weak = st.floats(-0.3, 0.3)  # drive entries: most runs stay within the RK4 drift limit


def harmonics(max_j):
    return st.lists(
        st.fixed_dictionaries(
            {"j": st.sampled_from([j for j in range(-max_j, max_j + 1) if j])},
            optional={"re": amplitudes, "im": amplitudes},
        ),
        max_size=3,
    )


@st.composite
def lattice_sections(draw, kind):
    cells = draw(st.integers(2, 5))
    cutoff = draw(st.integers(max(1, cells // 2), 6))
    lattice = {"cells": cells, "cutoff": cutoff}
    if (2 * cutoff + 1) % cells:
        lattice["pad_basis"] = True
    lattice.update(draw(st.fixed_dictionaries({}, optional={"a": st.floats(0.5, 2.0)})))
    tree = {"kind": kind, "lattice": lattice}
    tree["potential"] = draw(
        st.fixed_dictionaries(
            {"harmonics": harmonics(2)}, optional={"v0": st.floats(-1.0, 1.0)}
        )
    )
    if kind == "bands":
        return tree
    term = st.fixed_dictionaries(
        {"p_poly": st.lists(amplitudes, min_size=1, max_size=3)}, optional={"f": harmonics(3)}
    )
    custom = st.fixed_dictionaries({"terms": st.lists(term, min_size=1, max_size=2)})
    tree["battery"] = draw(
        st.fixed_dictionaries(
            {"seeds": st.integers(0, 4), "max_harmonic": st.integers(0, cutoff // cells)},
            optional={
                "named": st.lists(st.sampled_from(NAMED_OBSERVABLES), max_size=3, unique=True),
                "degree": st.integers(0, 3),
                "custom": st.lists(custom, max_size=2),
            },
        )
    )
    if kind == "superselect":
        shifts = [s for s in range(1, 2 * cutoff + 1) if s % cells]
        if shifts and draw(st.booleans()):
            tree["negative_control"] = {"s": draw(st.sampled_from(shifts))}
        tree["fringe_points"] = draw(st.integers(8, 32))
    if kind == "wannier":
        bands = (2 * cutoff + 1 + (-(2 * cutoff + 1)) % cells) // cells
        tree["wannier"] = {
            "bands": draw(st.lists(st.integers(0, bands - 1), min_size=1, max_size=2, unique=True)),
            "home_cells": draw(
                st.lists(st.integers(0, cells - 1), min_size=1, max_size=2, unique=True)
            ),
        }
    return tree


@st.composite
def hermitian(draw, dim):
    """A dim x dim Hermitian matrix as rows of [re, im] pairs."""
    rows = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            re, im = draw(weak), (0.0 if i == j else draw(weak))
            rows[i][j], rows[j][i] = [re, im], [re, -im]
    return rows


@st.composite
def floquet_tree(draw):
    dim = draw(st.integers(2, 3))
    pair = draw(st.permutations(range(dim)))[:2]
    drive = st.fixed_dictionaries(
        {"kind": st.sampled_from(["cos", "sin"]), "matrix": hermitian(dim)},
        optional={"harmonic": st.integers(1, 3)},
    )
    probe = st.fixed_dictionaries(
        {},
        optional={
            "pair": st.just(pair),
            "periods": st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True),
            "grid": st.integers(8, 32),
            "observable": st.fixed_dictionaries({"static": hermitian(dim)}),
        },
    )
    section = st.fixed_dictionaries(
        {"omega": st.floats(0.5, 2.0), "h0": hermitian(dim), "steps": st.integers(64, 256)},
        optional={
            "drives": st.lists(drive, max_size=2),
            "hbar": st.floats(0.5, 2.0),
            "trajectory_points": st.integers(2, 40),
            "sambe_hmax": st.integers(4, 8),
            "probe": probe,
        },
    )
    return {"kind": "floquet", "floquet": draw(section)}


def paths(value, prefix=()):
    """Every key or index path into a JSON tree, below the root."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield prefix + (key,)
        yield from paths(item, prefix + (key,))


@st.composite
def config_tree(draw):
    kind = draw(st.sampled_from(("bands", "superselect", "wannier", "floquet")))
    tree = draw(floquet_tree() if kind == "floquet" else lattice_sections(kind))
    tolerances = st.dictionaries(
        st.sampled_from(sorted(DEFAULT_TOLERANCES)), st.floats(1e-12, 1.0), max_size=2
    )
    tree.update(draw(st.fixed_dictionaries({}, optional={"tolerances": tolerances})))
    mutation = draw(st.sampled_from(("none", "replace", "replace", "drop", "add")))
    targets = [p for p in paths(tree) if p != ("kind",)]
    if mutation == "none" or not targets:
        return tree
    *parent_path, key = draw(st.sampled_from(targets))
    parent = tree
    for step in parent_path:
        parent = parent[step]
    if mutation == "replace":
        parent[key] = draw(st.sampled_from(HOSTILE))
    elif mutation == "drop":
        del parent[key]
    elif isinstance(parent, dict):
        parent["bogus"] = 1
    return tree


cli_flags = st.lists(
    st.sampled_from(
        [
            ("--seed-battery", "2"),
            ("--seed-battery", "-1"),
            ("--tol-override", "solver_zero=1e-9"),
            ("--tol-override", "unitarity=1e-16"),
            ("--tol-override", "bogus=1"),
            ("--tol-override", "sambe_match"),
            ("--tol-override", "cross_method=x"),
        ]
    ),
    max_size=2,
)


def strict_json(text: str):
    """``text`` parsed as JSON proper: a NaN, Infinity or -Infinity token raises."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def null_paths(value, path=""):
    """The path of every null and every non-finite number in a parsed report."""
    if value is None or isinstance(value, float) and not math.isfinite(value):
        yield path
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from null_paths(item, f"{path}/{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from null_paths(item, f"{path}/{i}")


LEAKAGE_DIAGONAL = re.compile(r"/results/leakage/(\d+)/\1")  # within one class: explicit null


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(tree=config_tree(), flags=cli_flags)
def test_every_config_tree_keeps_the_exit_code_contract(capsys, tree, flags):
    capsys.readouterr()  # drop the output of earlier examples
    with tempfile.TemporaryDirectory() as scratch:
        config = Path(scratch) / "config.json"
        config.write_text(json.dumps(tree))  # NaN / Infinity tokens, as a user file may hold
        report = Path(scratch) / "report.json"
        argv = [tree["kind"], "--config", str(config), "--report", str(report)]
        code = main(argv + [arg for flag in flags for arg in flag])
        err = capsys.readouterr().err
        event(f"{tree['kind']} exits {code}")  # shown by --hypothesis-show-statistics
        assert code in (0, 1, 2, 3), err
        assert "Traceback" not in err
        if code in (0, 3):
            written = strict_json(report.read_text())
            nulls = [p for p in null_paths(written) if not LEAKAGE_DIAGONAL.fullmatch(p)]
            assert nulls == []
        else:
            assert not report.exists()


# one small tree per kind with every numeric key set, and the values each
# numeric leaf takes in turn: near half of the float range, near all of it,
# and tiny.  The draws above missed each overflow these reach: a battery
# member's sums, a probe observable's period sums, hbar*omega in the Sambe
# eigensolve
LEAF_TREES = {
    "bands": {
        "kind": "bands",
        "lattice": {"cells": 3, "cutoff": 4, "a": 1.0, "mass": 1.0, "hbar": 1.0},
        "potential": {"v0": 0.1, "harmonics": [{"j": 1, "re": 0.25, "im": 0.1}]},
    },
    "superselect": {
        "kind": "superselect",
        "lattice": {"cells": 3, "cutoff": 4, "a": 1.0, "mass": 1.0, "hbar": 1.0},
        "potential": {"v0": 0.1, "harmonics": [{"j": 1, "re": 0.25, "im": 0.1}]},
        "battery": {
            "seeds": 2,
            "max_harmonic": 1,
            "degree": 2,
            "custom": [
                {"terms": [{"f": [{"j": 1, "re": 0.3, "im": 0.2}], "p_poly": [0.5, 1.0, 0.2]}]}
            ],
        },
        "negative_control": {"s": 1},
        "fringe_points": 16,
        "tolerances": {"fringe_match": 0.01},
    },
    "wannier": {
        "kind": "wannier",
        "lattice": {"cells": 3, "cutoff": 4},
        "potential": {"harmonics": [{"j": 1, "re": 0.25}]},
        "battery": {
            "seeds": 2,
            "custom": [{"terms": [{"p_poly": [0.5]}]}, {"terms": [{"f": [{"j": 1, "re": 0.3}]}]}],
        },
        "wannier": {"bands": [0, 1], "home_cells": [0, 1]},
    },
    "floquet": {
        "kind": "floquet",
        "floquet": {
            "omega": 1.0,
            "hbar": 1.0,
            "h0": [[0.3, [0.1, 0.05]], [[0.1, -0.05], -0.3]],
            "steps": 1024,  # the fewest that pass cross_method on this drive
            "sambe_hmax": 4,
            "drives": [{"harmonic": 1, "kind": "cos", "matrix": [[0.1, 0.2], [0.2, -0.1]]}],
            "probe": {
                "pair": [0, 1],
                "periods": [1, 2],
                "grid": 16,
                "observable": {
                    "static": [[1.0, 0.0], [0.0, -1.0]],
                    "harmonics": [{"kind": "sin", "matrix": [[0.0, 0.3], [0.3, 0.0]]}],
                },
            },
        },
    },
}
LEAF_VALUES = (8e307, 1.6e308, -8e307, 1e-300)


@pytest.mark.parametrize("kind", sorted(LEAF_TREES))
def test_every_numeric_leaf_near_the_float_range_keeps_the_contract(tmp_path, capsys, kind):
    config, report = tmp_path / "config.json", tmp_path / "report.json"
    for path in paths(LEAF_TREES[kind]):
        for value in LEAF_VALUES:
            tree = json.loads(json.dumps(LEAF_TREES[kind]))
            *parent_path, key = path
            parent = tree
            for step in parent_path:
                parent = parent[step]
            if isinstance(parent[key], bool) or not isinstance(parent[key], (int, float)):
                continue
            parent[key] = value
            config.write_text(json.dumps(tree))
            report.unlink(missing_ok=True)
            code = main([kind, "--config", str(config), "--report", str(report)])
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), (path, value, err)
            assert "Traceback" not in err, (path, value)
            if code in (0, 3):
                nulls = null_paths(strict_json(report.read_text()))
                assert [p for p in nulls if not LEAKAGE_DIAGONAL.fullmatch(p)] == [], (path, value)
            else:
                assert not report.exists(), (path, value)


# each kind reads the output keys it writes, and takes a flag for each
OUTPUT_FLAGS = {"csv": "--out", "report": "--report", "fringe_prefix": "--fringe-prefix"}
HOSTILE_PATHS = ("directory", "under a file", "empty", "nul byte", "name too long")


def hostile_path(workdir: Path, suffixes: tuple[str, ...], kind: str) -> str:
    """A path for an output key naming ``suffixes`` that cannot be written, made in ``workdir``."""
    if kind == "directory":  # the first file the key names is a directory
        Path(f"{workdir / 'adir'}{suffixes[0]}").mkdir()
        return str(workdir / "adir")
    if kind == "under a file":
        (workdir / "afile").write_text("")
        return str(workdir / "afile" / "out")
    if kind == "nul byte":
        return str(workdir / "a\0b")
    return "" if kind == "empty" else str(workdir / ("n" * 300))  # a name too long


@settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_hostile_output_paths_exit_1_with_a_pointer(capsys, data):
    kind = data.draw(st.sampled_from(("bands", "superselect", "wannier", "floquet")))
    tree = data.draw(floquet_tree() if kind == "floquet" else lattice_sections(kind))
    key = data.draw(st.sampled_from(sorted(OUTPUT_KEYS[kind])))
    flag = data.draw(st.booleans())
    hostile = data.draw(st.sampled_from(HOSTILE_PATHS))
    capsys.readouterr()
    with tempfile.TemporaryDirectory() as workdir:
        workdir = Path(workdir)
        report = workdir / "report.json"
        argv = [kind, "--config", str(workdir / "config.json"), "--report", str(report)]
        path = hostile_path(workdir, OUTPUT_KEYS[kind][key], hostile)
        if flag:
            argv += [OUTPUT_FLAGS[key], path]
            pointer = OUTPUT_FLAGS[key]
        else:
            tree["output"] = {key: path}
            pointer = f"/output/{key}"
        (workdir / "config.json").write_text(json.dumps(tree))
        code = main(argv)
        err = capsys.readouterr().err
        event(f"{hostile} at {pointer}")
        assert code == 1, err
        assert f"(at {pointer})" in err
        assert "Traceback" not in err
        assert not report.exists()


# files that json.loads or read_text cannot decode, each of which ended in a
# traceback: RecursionError, ValueError past the int-string digit limit, and
# UnicodeDecodeError
UNDECODABLE = {
    "nested_200000_deep": b"[" * 200_000,
    "integer_of_5000_digits": b'{"kind": "bands", "lattice": {"cells": ' + b"9" * 5000 + b"}}",
    "leading_byte_0xff": b'\xff{"kind": "bands"}',
}


@pytest.mark.parametrize("case", sorted(UNDECODABLE))
def test_undecodable_config_exits_1_without_traceback(tmp_path, capsys, case):
    config = tmp_path / "config.json"
    config.write_bytes(UNDECODABLE[case])
    code = main(["bands", "--config", str(config), "--report", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith("config error: malformed JSON") and "(at /)" in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
