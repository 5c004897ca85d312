"""The chunked ordered product against the one-step-at-a-time loops.

The midpoint snapshots at any marked steps, the array evaluation of H(t) and
O(t), and the report fields built on them must equal the per-step reference
bit for bit, including step counts that end a chunk early or cross a chunk
edge and grids that do not divide the step count.  The RK4 monodromy
regroups the same arithmetic into one step matrix, so it must match the
per-step RK4 loop to rounding.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import blochlab as bl
from blochlab import floquet
from oracles import stepwise_midpoint_snapshots, stepwise_rk4_monodromy, termwise_trig_series


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
    assert np.array_equal(snapshots, stepwise_midpoint_snapshots(spec, steps, 1)[marks])


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
    assert np.array_equal(solution.monodromy, reference[-1])
    assert np.array_equal(solution.monodromy, bl.propagate_period(spec, steps=300).monodromy)
    # 7 does not divide 300: each grid time i T / 7 takes its nearest step
    marks = [0, 43, 86, 129, 171, 214, 257, 300]
    assert np.array_equal(floquet._nearest_steps(300, 7), marks)
    traj = bl.mode_trajectory(solution, n_t=8)
    expected = np.array([(reference[s] @ solution.modes).T for s in marks]).transpose(1, 0, 2)
    assert np.array_equal(traj.trajectories, expected)
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
