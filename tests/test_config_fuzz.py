"""Fuzzed config trees through the CLI: the exit-code contract holds for every input.

A tree is drawn valid for one of the four kinds and then, in most examples,
one of its values is replaced by a hostile one (NaN, infinities, wrong types,
out-of-range numbers), a key is dropped or an unknown key is added.  Every
tree must end in exit 0, 1, 2 or 3 without a traceback, and a report that is
written holds no NaN in ``checks`` or ``results``.  The trees stay small
(d <= 13 plane waves, floquet steps <= 256) so the derandomized run is
reproducible and fast.
"""

import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from blochlab.cli import main
from blochlab.config import DEFAULT_TOLERANCES
from blochlab.observables import NAMED_OBSERVABLES

HOSTILE = (
    float("nan"), float("inf"), -float("inf"), 1e308, -1, 0, 0.0, 10**9, -(10**20), 2.5,
    True, None, "x", [], {}, [[1.0]],
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
    custom = st.fixed_dictionaries(
        {"terms": st.lists(term, min_size=1, max_size=2)},
        optional={"symmetrize": st.booleans()},
    )
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
            "bands": draw(st.lists(st.integers(0, bands - 1), min_size=1, max_size=2)),
            "home_cells": draw(st.lists(st.integers(0, cells - 1), min_size=1, max_size=2)),
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
            "periods": st.lists(st.integers(1, 8), min_size=1, max_size=3),
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


def non_finite_paths(value, path=""):
    if isinstance(value, float) and not math.isfinite(value):
        yield path
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from non_finite_paths(item, f"{path}/{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from non_finite_paths(item, f"{path}/{i}")


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
            written = json.loads(report.read_text())
            assert list(non_finite_paths(written["checks"])) == []
            assert list(non_finite_paths(written["results"])) == []
        else:
            assert not report.exists()
