"""The blochlab benchmark: scenario configs in, verdicts and timings out.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; blochlab is imported from its
``src/`` directory and nowhere else.  The benchmark drives blochlab the way a
user does, ``blochlab.cli.main([kind, "--config", C, "--report", R, ...])``,
in one process, as a closed loop with one caller: the next scenario starts
when the previous one has returned.  One pass runs a workload's scenario
list once (see workloads.py).  Pass 0 is an untimed warm-up; every pass
after it gets fresh inputs from the seed stream, and the run keeps starting
passes until ``--seconds`` have gone by.

Every scenario is checked: exit code 0, every check flag true, the check-name
set expected for its kind and size, and the output files it should write.
At the end the warm-up's first scenario is rerun, and its report must be
byte-identical to the first one outside the ``timing`` block.

``--trace 0`` prints the end-to-end metrics (tracing off); ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics from
the outside-in tracer (tracer.py).  Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Working files go under
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import os
import sys

# Fixed BLAS threading, set before numpy is first imported.  One thread was
# the steadier setting on a 2-core machine (see NOTES.md).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

from tracer import LAYERS, Tracer
from workloads import WORKLOADS, Scenario, computed_work, expected_checks

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Fresh processes timed per run for setup_s.  The machine's speed drifts on a
# scale of seconds, so the probes are spread over the timed part of the run.
SETUP_SAMPLES = 5


# ---------------------------------------------------------------------------
# set-up: everything a workload process does before its first timed call


def import_program():
    """Import blochlab.cli from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import blochlab.cli as cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import blochlab from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: blochlab was imported from {cli.__file__}, not {SRC}")
    return cli


def write_configs(scenarios: list[Scenario], directory: Path) -> list[list[str]]:
    """Write each scenario's config and return its CLI argument list."""
    directory.mkdir(parents=True, exist_ok=True)
    argvs = []
    for s in scenarios:
        base = directory / s.name
        config = base.with_suffix(".json")
        config.write_bytes(s.config_bytes())
        argv = [s.kind, "--config", str(config), "--report", f"{base}.report.json"]
        if s.csv:
            argv += ["--out", f"{base}.csv"]
        if s.fringe:
            argv += ["--fringe-prefix", f"{base}_fringe"]
        argvs.append(argv)
    return argvs


def setup(workload: str, seed: int, workdir: Path):
    cli = import_program()
    warmup = WORKLOADS[workload](seed, 0)
    return cli, warmup, write_configs(warmup, workdir / "warmup")


def time_setup(workload: str, seed: int, workdir: Path) -> float:
    """Seconds from starting a fresh workload process to its first timed call."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", workload, "--seed", str(seed), "--workdir", str(workdir),
    ]
    started = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != b"ready":
        raise SystemExit(f"perfbench: set-up probe failed with exit code {code}")
    return elapsed


# ---------------------------------------------------------------------------
# one pass, and the checks on what it wrote


def run_pass(cli, argvs: list[list[str]]) -> tuple[float, list[float], list[tuple[object, str]]]:
    """Run the scenarios back to back; returns (wall s, per-scenario s, outcomes)."""
    times, outcomes = [], []
    started = time.perf_counter()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as exc:  # a raising scenario is a failed one
                code = f"raised {exc!r}"
        times.append(time.perf_counter() - t0)
        outcomes.append((code, err.getvalue()))
    return time.perf_counter() - started, times, outcomes


def stable_part(report_text: str) -> str | None:
    """The report up to its trailing ``timing`` block (the determinism contract)."""
    cut = report_text.rfind('"timing":')
    return report_text[:cut] if cut >= 0 else None


def check_scenario(s: Scenario, argv: list[str], outcome) -> tuple[list[str], int]:
    """Failure reasons for one scenario, and the bytes it wrote outside timing."""
    code, err = outcome
    if code != 0:
        return [f"exit {code}: {err.strip()[-300:]}"], 0
    report_path = Path(argv[argv.index("--report") + 1])
    try:
        text = report_path.read_text()
        report = json.loads(text)
    except (OSError, ValueError) as exc:
        return [f"unreadable report: {exc}"], 0
    problems = []
    written = len(stable_part(text) or text)
    checks = report.get("checks", {})
    if report.get("kind") != s.kind:
        problems.append(f"report kind {report.get('kind')!r}")
    if not report.get("passed") or not all(v is True for v in checks.values()):
        problems.append(f"checks failed: {sorted(k for k, v in checks.items() if v is not True)}")
    want = expected_checks(s)
    if set(checks) != want:
        problems.append(f"check names {sorted(checks)} != expected {sorted(want)}")
    if stable_part(text) is None:
        problems.append("report has no timing block")
    files = []
    if s.csv:
        dim = 2 * s.config["lattice"]["cutoff"] + 1
        files.append((Path(argv[argv.index("--out") + 1]), 1 + dim))
    if s.fringe:
        prefix = argv[argv.index("--fringe-prefix") + 1]
        for part in ("_cross.csv", "_within.csv"):
            files.append((Path(prefix + part), 1 + s.config["fringe_points"]))
    for path, lines in files:
        if not path.is_file():
            problems.append(f"missing {path.name}")
            continue
        data = path.read_text()
        written += len(data)
        if len(data.splitlines()) != lines:
            problems.append(f"{path.name} has {len(data.splitlines())} lines, expected {lines}")
    return problems, written


class Tally:
    """Scenarios attempted and failed over the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{name}: {'; '.join(problems)}")

    def check_pass(self, scenarios, argvs, outcomes) -> int:
        """Check every scenario of a pass; returns the bytes it wrote."""
        written = 0
        for s, argv, outcome in zip(scenarios, argvs, outcomes):
            problems, size = check_scenario(s, argv, outcome)
            self.record(s.name, problems)
            written += size
        return written


# ---------------------------------------------------------------------------
# environment record


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "blochlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas_libraries() -> dict[str, dict]:
    """Config string and live thread count of every OpenBLAS loaded."""
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.rsplit("/", 1)[-1]})
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        record = {}
        for key, symbols in (
            ("threads", ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                         "openblas_get_num_threads64_", "openblas_get_num_threads")),
            ("config", ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                        "openblas_get_config64_", "openblas_get_config")),
        ):
            for symbol in symbols:
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_int if key == "threads" else ctypes.c_char_p
                    value = fn()
                    record[key] = value.decode() if isinstance(value, bytes) else value
                    break
        out[Path(path).name] = record
    return out


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = _blas_libraries()
    for name, record in blas.items():
        if record.get("threads", BLAS_THREADS) != BLAS_THREADS:
            raise SystemExit(f"perfbench: {name} runs {record['threads']} threads, not {BLAS_THREADS}")
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "blas": blas,
    }


# ---------------------------------------------------------------------------
# reporting


def timing_line(name: str, values: list[float]) -> str:
    """Median, the highest percentile with >= 10 samples beyond it, and n."""
    xs = sorted(values)
    n = len(xs)
    line = f"{name} = {statistics.median(xs)!r} s (median, n={n}"
    if n >= 11:
        k = n - 11  # exactly 10 samples lie above xs[k]
        line += f"; p{100.0 * (k + 1) / n:g} = {xs[k]!r} s"
    else:
        line += "; no percentile has 10 samples beyond it"
    return line + ")"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup_samples, passes, largest, tally) -> tuple[dict, list[str]]:
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "pass_s": metric(statistics.median(passes), "s"),
        "largest_s": metric(statistics.median(largest), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    failed = len(tally.failures)
    lines = [
        timing_line("setup_s", setup_samples),
        timing_line("pass_s", passes),
        timing_line("largest_s", largest),
        f"peak_rss_mb = {peak_rss_mb!r} MB",
        f"failed_frac = {failed / tally.attempted!r} ({failed} of {tally.attempted} scenarios)",
    ]
    return metrics, lines


def per_layer(tracer, traced_ranges, traced_walls, untraced_walls, work) -> tuple[dict, list[str]]:
    n = len(traced_ranges)
    totals = {name: [0, 0.0] for name in tracer.names}
    for first, last in traced_ranges:
        for name, (calls, self_s) in tracer.summary(first, last).items():
            totals[name][0] += calls
            totals[name][1] += self_s
    pass_s = statistics.fmean(traced_walls)
    untraced_s = statistics.fmean(untraced_walls)
    metrics, lines = {}, []
    for name, (calls, self_s) in totals.items():
        metrics[f"{name}.calls"] = metric(calls / n, "count")
        metrics[f"{name}.self_s"] = metric(self_s / n, "s")
        lines.append(f"{name}: calls = {calls / n:g}, self_s = {self_s / n!r} s")
    for layer in LAYERS:
        share = sum(s for name, (_, s) in totals.items() if name.split(".")[0] == layer) / n / pass_s
        metrics[f"{layer}.share"] = metric(share, "ratio")
        lines.append(f"{layer}.share = {share!r}")
    metrics["trace.pass_s"] = metric(pass_s, "s")
    metrics["trace.untraced_pass_s"] = metric(untraced_s, "s")
    metrics["trace.overhead_frac"] = metric(pass_s / untraced_s - 1.0, "ratio")
    lines.append(f"trace.pass_s = {pass_s!r} s (mean of {n} traced passes)")
    lines.append(f"trace.untraced_pass_s = {untraced_s!r} s (mean of {len(untraced_walls)})")
    lines.append(f"trace.overhead_frac = {pass_s / untraced_s - 1.0!r}")
    units = {"superselection.sector_gflop": "gflop", "reports.bytes_written": "bytes"}
    for name, value in work.items():
        unit = units.get(name, "count")
        metrics[name] = metric(value, unit)
        lines.append(f"{name} = {value:g} {unit} (computed, first timed pass)")
    if tracer.absent:
        lines.append(f"traced names missing from the program: {', '.join(tracer.absent)}")
    return metrics, lines


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="blochlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup(args.workload, args.seed, args.workdir)
        print("ready", flush=True)
        return 0

    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    cli, warmup, warmup_argvs = setup(args.workload, args.seed, workdir)
    env = environment(args.workload, args.seed)
    print("env: " + json.dumps(env, sort_keys=True))

    tally = Tally()
    _, _, outcomes = run_pass(cli, warmup_argvs)
    tally.check_pass(warmup, warmup_argvs, outcomes)
    first_report = Path(warmup_argvs[0][warmup_argvs[0].index("--report") + 1])
    first_stable = stable_part(first_report.read_text()) if first_report.is_file() else None

    setup_samples: list[float] = []

    def probe_setup_when_due(final: bool) -> None:
        while args.trace == 0 and len(setup_samples) < SETUP_SAMPLES and (
            final or time.perf_counter() - started >= len(setup_samples) * args.seconds / SETUP_SAMPLES
        ):
            probe_dir = workdir / f"setup-{len(setup_samples)}"
            setup_samples.append(time_setup(args.workload, args.seed, probe_dir))

    tracer = Tracer()
    passes, largest, traced_walls, traced_ranges = [], [], [], []
    work: dict[str, float] = {}
    generate = WORKLOADS[args.workload]
    started = time.perf_counter()
    pass_index = 1
    while True:
        probe_setup_when_due(final=False)
        scenarios = generate(args.seed, pass_index)
        argvs = write_configs(scenarios, workdir / "pass")
        traced = args.trace == 1 and pass_index % 2 == 0
        if traced:
            first = tracer.mark()
            with tracer.installed():
                wall, times, outcomes = run_pass(cli, argvs)
            traced_ranges.append((first, tracer.mark()))
            traced_walls.append(wall)
        else:
            wall, times, outcomes = run_pass(cli, argvs)
            passes.append(wall)
            largest.extend(t for s, t in zip(scenarios, times) if s.largest)
        written = tally.check_pass(scenarios, argvs, outcomes)
        if pass_index == 1:
            work = {**computed_work(scenarios), "reports.bytes_written": written}
        pass_index += 1
        enough = args.trace == 0 or traced_walls
        if enough and time.perf_counter() - started >= args.seconds:
            break
    probe_setup_when_due(final=True)

    # determinism: the warm-up's first scenario again, same config and paths
    _, _, outcomes = run_pass(cli, warmup_argvs[:1])
    problems, _ = check_scenario(warmup[0], warmup_argvs[0], outcomes[0])
    again = stable_part(first_report.read_text()) if first_report.is_file() else None
    if first_stable is None or again != first_stable:
        problems.append("rerun report differs outside timing")
    tally.record(f"{warmup[0].name} (rerun)", problems)

    if args.trace == 0:
        metrics, lines = end_to_end(setup_samples, passes, largest, tally)
    else:
        tracer.write_spans(workdir / "spans.tsv")
        metrics, lines = per_layer(tracer, traced_ranges, traced_walls, passes, work)
    for failure in tally.failures:
        print(f"FAILED {failure}")
    for line in lines:
        print(line)
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }
    record = {"env": env, **result, "samples": {"pass_s": passes, "largest_s": largest,
                                                 "setup_s": setup_samples, "traced_pass_s": traced_walls}}
    (workdir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
