"""Deterministic rendering: float formatting, complex encoding, atomic writes."""

import json
import math
import os

import numpy as np
import pytest

from blochlab.reports import (
    atomic_write_text,
    canonical_hash,
    format_float,
    jsonable,
    render_json,
)


def test_float_rendering_roundtrips_doubles():
    values = [0.1, -0.0, 1.0 / 3.0, 2.0**-52, 19.739208802178716, 1e300, -2.5e-308]
    for v in values:
        assert float(format_float(v)) == v


def test_complex_values_become_pairs():
    assert jsonable(1.5 - 2.0j) == [1.5, -2.0]
    matrix = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
    assert jsonable(matrix) == [[[0.0, 0.0], [0.0, 1.0]], [[0.0, -1.0], [0.0, 0.0]]]


def test_nan_becomes_null():
    rendered = render_json(jsonable({"diag": [float("nan"), 1.0]}))
    parsed = json.loads(rendered)
    assert parsed["diag"] == [None, 1.0]


def test_numpy_scalars_normalize():
    data = jsonable({"i": np.int64(3), "f": np.float64(0.25), "b": np.bool_(True)})
    assert data == {"i": 3, "f": 0.25, "b": True}
    assert isinstance(data["i"], int) and isinstance(data["b"], bool)


def test_rendering_is_valid_json_and_stable():
    payload = {"b": [1, 2.5, "x"], "a": {"nested": [True, None]}}
    first = render_json(jsonable(payload))
    second = render_json(jsonable(payload))
    assert first == second
    assert json.loads(first) == payload  # insertion order kept, content equal


def test_canonical_hash_tracks_content_not_formatting():
    a = {"x": 1.0, "y": [0.5]}
    assert canonical_hash(a) == canonical_hash({"x": 1.0, "y": [0.5]})
    assert canonical_hash(a) != canonical_hash({"x": 1.0, "y": [0.5000001]})
    assert canonical_hash({"x": 1, "y": 2}) != canonical_hash({"y": 2, "x": 1})


def test_render_rejects_unrenderable_types():
    with pytest.raises(TypeError):
        render_json(object())


def test_atomic_write_creates_parents_and_replaces(tmp_path):
    target = tmp_path / "deep" / "nested" / "file.txt"
    atomic_write_text(target, "one\n")
    atomic_write_text(target, "two\n")
    assert target.read_text() == "two\n"
    assert not list(target.parent.glob("*.tmp"))


def test_failed_atomic_write_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    atomic_write_text(target, "old\n")

    def failing_fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr("blochlab.reports.os.fsync", failing_fsync)
    with pytest.raises(OSError, match="disk full"):
        atomic_write_text(target, "new\n")
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_atomic_write_leaves_a_concurrent_writers_temp_file_alone(tmp_path):
    # a fixed temp name such as <name>.tmp would be shared by two writers of one path
    target = tmp_path / "report.json"
    other = tmp_path / "report.json.tmp"
    other.write_text("half-written by another run")
    atomic_write_text(target, "mine\n")
    assert other.read_text() == "half-written by another run"
    assert target.read_text() == "mine\n"
    umask = os.umask(0)
    os.umask(umask)
    assert target.stat().st_mode & 0o777 == 0o666 & ~umask  # as a plain open() creates it


def test_infinity_never_silently_rendered():
    # reports should never contain inf; the renderer keeps it loud
    assert not math.isfinite(float("inf"))
    rendered = format_float(float("inf"))
    assert rendered == "inf"  # would fail json.loads, by design
