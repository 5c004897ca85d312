"""Deterministic rendering: float formatting, complex encoding, atomic writes."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from blochlab.reports import (
    atomic_write_text,
    canonical_hash,
    format_float,
    render_json,
)


def test_float_rendering_roundtrips_doubles():
    values = [0.1, -0.0, 1.0 / 3.0, 2.0**-52, 19.739208802178716, 1e300, -2.5e-308]
    for v in values:
        assert float(format_float(v)) == v


def test_complex_values_become_pairs():
    assert json.loads(render_json(1.5 - 2.0j)) == [1.5, -2.0]
    assert render_json(np.complex64(0.5j)) == render_json([0.0, 0.5])
    matrix = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
    assert json.loads(render_json(matrix)) == [
        [[0.0, 0.0], [0.0, 1.0]], [[0.0, -1.0], [0.0, 0.0]]
    ]


def test_nan_becomes_null():
    for diag in ([float("nan"), 1.0], np.array([np.nan, 1.0]), (np.float64("nan"), 1.0)):
        parsed = json.loads(render_json({"diag": diag}))
        assert parsed["diag"] == [None, 1.0]
    assert render_json(complex(float("nan"), 1.0)) == "[null, 1]"


def test_numpy_scalars_normalize():
    rendered = render_json({"i": np.int64(3), "f": np.float64(0.25), "b": np.bool_(True)})
    assert rendered == render_json({"i": 3, "f": 0.25, "b": True})
    data = json.loads(rendered)
    assert data == {"i": 3, "f": 0.25, "b": True}
    assert isinstance(data["i"], int) and isinstance(data["b"], bool)
    assert render_json({1: np.float32(0.5)}) == render_json({"1": 0.5})  # keys as strings


def test_arrays_and_tuples_render_as_the_lists_they_hold():
    # the layout follows the rendered values: an entry that renders as an
    # array (array, tuple, complex) keeps its list on separate lines
    nested = [[1.0, 2.0], [3.0, 4.0]]
    assert render_json(np.array(nested)) == render_json(nested)
    assert render_json(((1.0, 2.0), (3.0, 4.0))) == render_json(nested)
    assert render_json([np.array([1.0]), 2]) == render_json([[1.0], 2])
    assert render_json([1j, 2]) == render_json([[0.0, 1.0], 2])
    assert render_json((1, 2.5, "x")) == "[1, 2.5, \"x\"]"
    assert render_json(np.arange(3)) == "[0, 1, 2]"


def test_rendering_is_valid_json_and_stable():
    payload = {"b": [1, 2.5, "x"], "a": {"nested": [True, None]}}
    first = render_json(payload)
    second = render_json(payload)
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
    atomic_write_text({target: "one\n"})
    atomic_write_text({target: "two\n"})
    assert target.read_text() == "two\n"
    assert not list(target.parent.glob("*.tmp"))


def test_failed_atomic_write_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    atomic_write_text({target: "old\n"})

    def failing_fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr("blochlab.reports.os.fsync", failing_fsync)
    with pytest.raises(OSError, match="disk full"):
        atomic_write_text({target: "new\n"})
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_atomic_write_leaves_a_concurrent_writers_temp_file_alone(tmp_path):
    # a fixed temp name such as <name>.tmp would be shared by two writers of one path
    target = tmp_path / "report.json"
    other = tmp_path / "report.json.tmp"
    other.write_text("half-written by another run")
    atomic_write_text({target: "mine\n"})
    assert other.read_text() == "half-written by another run"
    assert target.read_text() == "mine\n"
    umask = os.umask(0)
    os.umask(umask)
    assert target.stat().st_mode & 0o777 == 0o666 & ~umask  # as a plain open() creates it


def test_staged_write_renames_nothing_until_every_file_is_fsynced(tmp_path, monkeypatch):
    # the last file's fsync fails: the first file's temp is written, and
    # neither target may change
    first, last = tmp_path / "a.csv", tmp_path / "report.json"
    atomic_write_text({first: "old a\n", last: "old report\n"})
    fsync = os.fsync
    synced = []

    def failing_second_fsync(fd):
        synced.append(fd)
        if len(synced) == 2:
            raise OSError("disk full")
        fsync(fd)

    monkeypatch.setattr("blochlab.reports.os.fsync", failing_second_fsync)
    with pytest.raises(OSError, match="disk full"):
        atomic_write_text({first: "new a\n", last: "new report\n"})
    assert first.read_text() == "old a\n" and last.read_text() == "old report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "report.json"]


def test_staged_write_renames_in_the_order_given(tmp_path, monkeypatch):
    # a failed second rename leaves the first target replaced and no temp file
    replace = os.replace
    renamed = []

    def failing_second_replace(src, dst):
        renamed.append(dst)
        if len(renamed) == 2:
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr("blochlab.reports.os.replace", failing_second_replace)
    files = {tmp_path / name: name for name in ("b.csv", "a.csv", "report.json")}
    with pytest.raises(OSError, match="disk full"):
        atomic_write_text(files)
    assert renamed == [tmp_path / "b.csv", tmp_path / "a.csv"]
    assert [p.name for p in tmp_path.iterdir()] == ["b.csv"]
    assert (tmp_path / "b.csv").read_text() == "b.csv"


def _fsync_failing_on(monkeypatch, name: str):
    """Make os.fsync fail on the temp file of target ``name`` (its temp is .<name>.*.tmp)."""
    fsync = os.fsync

    def failing(fd):
        if Path(os.readlink(f"/proc/self/fd/{fd}")).name.startswith(f".{name}."):
            raise OSError("disk full")
        fsync(fd)

    monkeypatch.setattr("blochlab.reports.os.fsync", failing)


def test_failed_stage_removes_the_parent_directories_it_made(tmp_path, monkeypatch):
    # newdir/deep is made for r.json and removed again; the existing ``old``
    # directory, and a directory another file already sat in, are left alone
    (tmp_path / "old").mkdir()
    (tmp_path / "old" / "keep.txt").write_text("")
    _fsync_failing_on(monkeypatch, "r.json")
    files = {
        tmp_path / "old" / "a.csv": "a\n",
        tmp_path / "old" / "new" / "b.csv": "b\n",
        tmp_path / "newdir" / "deep" / "r.json": "report\n",
    }
    with pytest.raises(OSError, match="disk full"):
        atomic_write_text(files)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old"]
    assert [p.name for p in (tmp_path / "old").iterdir()] == ["keep.txt"]


def test_failed_rename_keeps_a_made_directory_that_holds_a_renamed_target(tmp_path, monkeypatch):
    replace = os.replace

    def failing_second_replace(src, dst):
        if Path(dst).name == "r.json":
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr("blochlab.reports.os.replace", failing_second_replace)
    files = {tmp_path / "newdir" / "a.csv": "a\n", tmp_path / "newdir" / "deep" / "r.json": "r\n"}
    with pytest.raises(OSError, match="disk full"):
        atomic_write_text(files)
    assert [p.name for p in (tmp_path / "newdir").iterdir()] == ["a.csv"]


def test_infinity_never_silently_rendered():
    # reports should never contain inf; the renderer keeps it loud
    assert not math.isfinite(float("inf"))
    rendered = format_float(float("inf"))
    assert rendered == "inf"  # would fail json.loads, by design
