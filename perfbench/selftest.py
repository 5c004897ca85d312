"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py

The file is not named test_*.py, so the repository's own test run does not
collect it: the smoke runs below take a few minutes (one warm-up and one
timed pass of every workload, traced and untraced).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# Traced self times of a pass sum to the time inside cli.main; the rest of
# trace.pass_s is the benchmark's own loop, well under this share.
SELF_TIME_TOLERANCE = 0.02

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            cache[workload, trace] = _run(workload, trace)
        return cache[workload, trace]

    return get


def test_declared_workloads_are_generated():
    assert {w["name"] for w in DECLARED["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_generator_is_a_pure_function_of_its_seed(workload):
    generate = WORKLOADS[workload]
    for pass_index in (0, 1, 2):
        first = [s.config_bytes() for s in generate(11, pass_index)]
        again = [s.config_bytes() for s in generate(11, pass_index)]
        assert first == again
    # fresh inputs per pass and per seed, except the always-free bands_free
    assert [s.config_bytes() for s in generate(11, 1)] != [s.config_bytes() for s in generate(11, 2)]
    assert [s.config_bytes() for s in generate(11, 1)] != [s.config_bytes() for s in generate(12, 1)]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_has_no_failed_scenario(runs, workload):
    lines, result = runs(workload, 0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert f"failed_frac = 0.0 (0 of {result['attempted']} scenarios)" in lines


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_every_printed_metric_is_declared(runs, workload, trace):
    lines, result = runs(workload, trace)
    section = DECLARED["per_layer" if trace else "end_to_end"]
    declared = {m["name"]: m["unit"] for m in section}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    # human-readable lines name the same metrics; failed_frac is the
    # result's own failed/attempted pair, not a BENCHMARK.json metric
    printed = set()
    for line in lines:
        head = line.split(" = ")[0]
        if " = " in line and " " not in head:
            printed.add(head)
        elif ": calls = " in line:
            printed |= {line.split(":")[0] + ".calls", line.split(":")[0] + ".self_s"}
    assert printed - {"failed_frac"} == set(declared)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_self_times_sum_to_the_traced_pass(runs, workload):
    _, result = runs(workload, 1)
    metrics = result["metrics"]
    self_sum = sum(m["value"] for name, m in metrics.items() if name.endswith(".self_s"))
    pass_s = metrics["trace.pass_s"]["value"]
    assert self_sum <= pass_s
    assert self_sum >= (1.0 - SELF_TIME_TOLERANCE) * pass_s
    shares = sum(m["value"] for name, m in metrics.items() if name.endswith(".share"))
    assert shares == pytest.approx(self_sum / pass_s, rel=1e-9)


def test_sector_pairs_dominate_the_superselect_sweep(runs):
    _, result = runs("superselect-sweep", 1)
    self_s = {
        name: m["value"] for name, m in result["metrics"].items() if name.endswith(".self_s")
    }
    assert max(self_s, key=self_s.get) == "superselection.sector_decomposition_report.self_s"
