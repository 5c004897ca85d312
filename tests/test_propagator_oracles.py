"""The chunked ordered product against the one-step-at-a-time loops.

The product multiplies each chunk's step matrices in aligned blocks, so its
rounding differs from the per-step loop's: the midpoint snapshots at any
marked steps, and the report fields built on them, must match the per-step
reference to rounding (1e-13), including step counts that end a chunk early
or cross a chunk edge and grids that do not divide the step count.  Against
the product of the same float64 step matrices in extended precision the
blocks must be no less accurate than the loop, and they must take a number
of stacked products logarithmic in the chunk.  The array evaluation of H(t)
and O(t) must equal the per-step evaluation bit for bit; the RK4 monodromy
regroups the same arithmetic into one step matrix, so it matches the per-step
RK4 loop to rounding.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import blochlab as bl
from blochlab import floquet
from oracles import (
    running_product,
    stepwise_midpoint_snapshots,
    stepwise_rk4_monodromy,
    termwise_trig_series,
)


def random_drive(dim: int, seed: int) -> bl.DriveSpec:
    rng = np.random.default_rng(seed)

    def hermitian(scale):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return scale * (a + a.conj().T)

    return bl.DriveSpec(
        h0=hermitian(0.15),
        omega=1.3,
        drives=(
            bl.DriveTerm(harmonic=1, kind="sin", matrix=hermitian(0.1)),
            bl.DriveTerm(harmonic=2, kind="cos", matrix=hermitian(0.05)),
        ),
        hbar=0.9,
    )


@st.composite
def stepping(draw):
    steps = draw(st.integers(min_value=64, max_value=9000))
    return draw(st.sampled_from((2, 3, 8))), steps, draw(st.integers(0, 2**16))


@st.composite
def marked_stepping(draw):
    """Steps and marks: a grid's nearest steps (dividing ``steps`` or not) or any multiset."""
    dim, steps, seed = draw(stepping())
    if draw(st.booleans()):
        marks = floquet._nearest_steps(steps, draw(st.integers(1, 600)))
    else:
        marks = np.sort(draw(st.lists(st.integers(0, steps), min_size=1, max_size=40)))
    return dim, steps, np.asarray(marks), seed


@settings(
    max_examples=25, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
@given(case=marked_stepping())
@example(case=(2, 4096, np.arange(17) * 256, 0))
@example(case=(3, 4097, floquet._nearest_steps(4097, 17), 1))
@example(case=(2, 300, np.array([0, 0, 5, 5, 5, 299, 300, 300]), 3))
@example(case=(8, 8193, np.array([8193]), 2))
def test_midpoint_snapshots_match_stepwise_loop(case):
    dim, steps, marks, seed = case
    spec = random_drive(dim, seed)
    snapshots = floquet._ordered_product(spec, steps, marks, floquet._midpoint_factors)
    assert snapshots.shape == (len(marks), dim, dim)
    reference = stepwise_midpoint_snapshots(spec, steps, 1)[marks]
    assert np.max(np.abs(snapshots - reference)) < 1e-13
    assert np.array_equal(snapshots[marks == 0], reference[marks == 0])  # the identity, exactly


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=stepping())
@example(case=(2, 4096, 0))
@example(case=(3, 4097, 1))
@example(case=(8, 8193, 2))
@example(case=(8, 64, 0))  # too few steps: RK4 drifts 3e-6 off the unitary group
def test_rk4_monodromy_matches_stepwise_loop(case):
    dim, steps, seed = case
    spec = random_drive(dim, seed)
    expected = stepwise_rk4_monodromy(spec, steps)
    if floquet._unitarity_defect(expected) > floquet.UNITARITY_LIMIT:
        # the per-step loop drifts past the limit, so the product must refuse
        with pytest.raises(bl.NumericalFailure, match="unitarity drift"):
            floquet._ordered_product(spec, steps, [steps], floquet._rk4_factors)
        return
    monodromy = floquet._ordered_product(spec, steps, [steps], floquet._rk4_factors)[-1]
    assert np.max(np.abs(monodromy - expected)) < 1e-13


def chunked_factors(spec, steps: int, builder) -> np.ndarray:
    """Every step matrix of the period, built chunk by chunk as the product builds them."""
    dt = spec.period / steps
    return np.concatenate([
        builder(spec, np.arange(start, min(start + floquet._FACTOR_CHUNK, steps)), dt)
        for start in range(0, steps, floquet._FACTOR_CHUNK)
    ])


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="no extended precision"
)
@pytest.mark.parametrize(
    "drive, dim, steps, grid, method",
    [
        ("two-level", 2, 65536, 256, "midpoint-exponential"),  # the shipped drive
        ("random", 2, 65536, 300, "midpoint-exponential"),  # 300 does not divide the steps
        ("random", 3, 40000, 7, "fourth-order"),
        ("random", 8, 16384, 4096, "midpoint-exponential"),
        ("random", 16, 8193, 17, "midpoint-exponential"),
    ],
)
def test_block_product_is_as_accurate_as_the_loop(drive, dim, steps, grid, method, request):
    # both products of the same float64 step matrices, against their product
    # in extended precision: regrouping must not cost accuracy
    if drive == "two-level":
        spec = request.getfixturevalue("two_level_drive")
    else:
        spec = random_drive(dim, dim)
    builder = floquet._FACTOR_BUILDERS[method]
    factors = chunked_factors(spec, steps, builder)
    marks = floquet._nearest_steps(steps, grid)
    exact = running_product(factors, marks, np.clongdouble)
    loop_error = np.max(np.abs(running_product(factors, marks) - exact))
    block_error = np.max(np.abs(floquet._ordered_product(spec, steps, marks, builder) - exact))
    assert block_error <= 4.0 * loop_error + 1e-15, (block_error, loop_error)


def test_each_chunk_takes_logarithmically_many_stacked_products():
    class CountingStack(np.ndarray):
        """A step-matrix stack that logs the size of each product it is the left operand of."""

        def __matmul__(self, other):
            sizes[-1].append(self.shape[0])
            return super().__matmul__(other)

    def counting_factors(spec, s, dt):
        sizes.append([])  # one log per chunk
        return floquet._midpoint_factors(spec, s, dt).view(CountingStack)

    sizes: list[list[int]] = []
    spec = random_drive(3, 5)
    steps = 2 * floquet._FACTOR_CHUNK + 1000
    marks = np.unique(np.concatenate(([steps], floquet._nearest_steps(steps, 600))))
    snapshots = floquet._ordered_product(spec, steps, marks, counting_factors)
    assert np.array_equal(
        snapshots, floquet._ordered_product(spec, steps, marks, floquet._midpoint_factors)
    )
    starts = range(0, steps, floquet._FACTOR_CHUNK)
    assert len(sizes) == len(starts)
    for start, chunk in zip(starts, sizes):
        n = min(floquet._FACTOR_CHUNK, steps - start)
        depth = n.bit_length() - 1  # floor(log2 n) levels above the step matrices
        inside = int(np.count_nonzero((marks > start) & (marks <= start + n)))
        assert len(chunk) <= 2 * depth + 1  # the up-sweep, then one call per binary digit
        assert sum(chunk) <= (n - 1) + (inside + 1) * (depth + 1)  # O(steps) products in all


@pytest.mark.parametrize("dim", [2, 8, 16])
def test_array_evaluators_equal_stacked_scalar_calls(dim):
    spec = random_drive(dim, dim)
    observable = bl.PeriodicObservableSpec(static=spec.h0, harmonics=spec.drives)
    ts = (np.arange(997) + 0.5) * (spec.period / 997)
    stacked = spec.hamiltonian(ts)
    assert stacked.shape == (len(ts), dim, dim)
    assert np.array_equal(stacked, np.array([spec.hamiltonian(t) for t in ts]))
    assert np.array_equal(
        stacked, np.array([termwise_trig_series(spec.h0, spec.drives, spec.omega, t) for t in ts])
    )
    values = observable.value(ts, 0.7)
    assert np.array_equal(values, np.array([observable.value(t, 0.7) for t in ts]))
    assert spec.hamiltonian(0.25).shape == (dim, dim)
    assert observable.value(0.25, 0.7).shape == (dim, dim)


def test_undriven_evaluator_returns_own_copies():
    spec = bl.DriveSpec(h0=np.diag([0.3, -0.3]).astype(complex), omega=1.0)
    h = spec.hamiltonian(0.5)
    h[0, 0] = 9.0  # writable, and H0 is untouched
    assert spec.h0[0, 0] == 0.3
    assert np.array_equal(spec.hamiltonian(np.zeros(3)), np.broadcast_to(spec.h0, (3, 2, 2)))


def test_eigh_stacks_stay_within_the_chunk(monkeypatch):
    seen = []
    eigh = np.linalg.eigh

    def recording_eigh(a):
        seen.append(np.shape(a)[:-2])
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    steps = 3 * floquet._FACTOR_CHUNK + 5
    bl.propagate_period(random_drive(2, 3), steps=steps)
    assert [shape[0] for shape in seen] == [floquet._FACTOR_CHUNK] * 3 + [5]


def test_propagator_fields_match_stepwise_loop():
    spec = random_drive(3, 7)
    solution = bl.solve_floquet(spec, steps=300, grids=(7, 9))
    reference = stepwise_midpoint_snapshots(spec, 300, 1)
    assert np.max(np.abs(solution.monodromy - reference[-1])) < 1e-13
    assert np.array_equal(solution.monodromy, bl.propagate_period(spec, steps=300).monodromy)
    # 7 does not divide 300: each grid time i T / 7 takes its nearest step
    marks = [0, 43, 86, 129, 171, 214, 257, 300]
    assert np.array_equal(floquet._nearest_steps(300, 7), marks)
    traj = bl.mode_trajectory(solution, n_t=8)
    expected = np.array([(reference[s] @ solution.modes).T for s in marks]).transpose(1, 0, 2)
    assert np.max(np.abs(traj.trajectories - expected)) < 1e-13
    # the sampled steps' times: exact at the ends, within half a step of i T / 7
    dt = spec.period / 300
    assert traj.times[0] == 0.0 and traj.times[-1] == spec.period
    assert np.allclose(traj.times, np.array(marks) * dt, rtol=0, atol=1e-14)
    assert np.max(np.abs(traj.times - np.linspace(0, spec.period, 8))) <= 0.5 * dt


@settings(max_examples=40, deadline=None, derandomize=True)
@given(steps=st.integers(64, 65536), grid=st.integers(1, 4096))
def test_nearest_steps_are_at_most_half_a_step_off(steps, grid):
    marks = floquet._nearest_steps(steps, grid)
    exact = np.arange(grid + 1) * steps / grid
    assert marks[0] == 0 and marks[-1] == steps
    assert np.all(np.diff(marks) >= 0)
    assert np.max(np.abs(marks - exact)) <= 0.5
    if steps % grid == 0:
        assert np.array_equal(marks, np.arange(grid + 1) * (steps // grid))


def test_grids_the_solution_did_not_keep_are_rejected():
    spec = random_drive(2, 4)
    solution = bl.solve_floquet(spec, steps=256, grids=(16,))
    observable = bl.PeriodicObservableSpec(static=spec.h0)
    bl.mode_trajectory(solution, n_t=17)
    bl.mode_trajectory(solution, n_t=9)  # every step of the 8-grid was kept as well
    with pytest.raises(ValueError, match="12-interval grid"):
        bl.mode_trajectory(solution, n_t=13)
    with pytest.raises(ValueError, match="32-interval grid"):
        bl.temporal_overlap_probe(solution, observable, grid_points=32)
    with pytest.raises(ValueError, match="kept no snapshots"):
        bl.mode_trajectory(bl.propagate_period(spec, steps=256), n_t=17)
    with pytest.raises(ValueError, match="at least one interval"):
        bl.solve_floquet(spec, steps=256, grids=(0,))
