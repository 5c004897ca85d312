"""Deterministic rendering: strict JSON, repr floats, atomic writes."""

import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from blochlab.reports import (
    atomic_write_text,
    bands_csv,
    canonical_hash,
    fringe_csv,
    render_json,
)

FLOATS = [0.1, -0.0, 1.0 / 3.0, 2.0**-52, 5e-324, 1e300, np.float64(19.739208802178716)]


def same_bits(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


def test_floats_roundtrip_bit_for_bit_through_the_report_and_both_csvs():
    parsed = json.loads(render_json({"values": FLOATS}))["values"]
    assert all(same_bits(got, v) for got, v in zip(parsed, FLOATS, strict=True))
    bands = bands_csv({"k_values": FLOATS, "energies": [FLOATS[::-1]] * len(FLOATS)})
    rows = [line.split(",") for line in bands.splitlines()[1:]]
    assert len(rows) == len(FLOATS) ** 2
    for l, k, band, energy in rows:
        assert same_bits(float(k), FLOATS[int(l)])
        assert same_bits(float(energy), FLOATS[::-1][int(band)])
    fringe = fringe_csv({"phases": FLOATS, "averages": FLOATS[::-1]})
    rows = [line.split(",") for line in fringe.splitlines()[1:]]
    assert [float(lam) for lam, _ in rows] == FLOATS
    assert all(same_bits(float(lam), v) for (lam, _), v in zip(rows, FLOATS))
    assert all(same_bits(float(avg), v) for (_, avg), v in zip(rows, FLOATS[::-1]))


def test_floats_are_written_as_repr_one_list_entry_per_line():
    assert render_json(FLOATS) == "[\n" + ",\n".join(f"  {float(v)!r}" for v in FLOATS) + "\n]"
    assert fringe_csv({"phases": [0.1], "averages": [np.float64(1.0)]}) == "lambda,average\n0.1,1.0\n"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("kind", [float, np.float64])
def test_a_non_finite_float_is_refused(kind, value):
    with pytest.raises(ValueError):
        render_json({"nested": [1.0, kind(value)]})


@pytest.mark.parametrize("value", [np.int64(3), np.bool_(True), 1j, np.complex128(0.5j)])
def test_a_value_json_has_no_form_for_is_refused(value):
    with pytest.raises(TypeError):
        render_json({"nested": [1, value]})


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
