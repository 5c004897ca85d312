"""The chunked ordered product against the one-step-at-a-time loops.

The midpoint snapshots, the array evaluation of H(t) and O(t), and the
report fields built on them must equal the per-step reference bit for bit,
including step counts that end a chunk early or cross a chunk edge.  The RK4
monodromy regroups the same arithmetic into one step matrix, so it must
match the per-step RK4 loop to rounding.
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
    every = draw(st.sampled_from([k for k in range(1, steps + 1) if steps % k == 0]))
    return draw(st.sampled_from((2, 3, 8))), steps, every, draw(st.integers(0, 2**16))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=stepping())
@example(case=(2, 4096, 16, 0))
@example(case=(3, 4097, 17, 1))
@example(case=(8, 8193, 8193, 2))
def test_midpoint_snapshots_match_stepwise_loop(case):
    dim, steps, every, seed = case
    spec = random_drive(dim, seed)
    snapshots = floquet._ordered_product(spec, steps, steps // every, floquet._midpoint_factors)
    assert snapshots.shape == (steps // every + 1, dim, dim)
    assert np.array_equal(snapshots, stepwise_midpoint_snapshots(spec, steps, every))


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=stepping())
@example(case=(2, 4096, 4096, 0))
@example(case=(3, 4097, 4097, 1))
@example(case=(8, 8193, 8193, 2))
def test_rk4_monodromy_matches_stepwise_loop(case):
    dim, steps, _, seed = case
    spec = random_drive(dim, seed)
    monodromy = floquet._ordered_product(spec, steps, 1, floquet._rk4_factors)[-1]
    assert np.max(np.abs(monodromy - stepwise_rk4_monodromy(spec, steps))) < 1e-13


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
    solution = bl.solve_floquet(spec, steps=300)
    reference = stepwise_midpoint_snapshots(spec, 300, 300)
    assert np.array_equal(solution.monodromy, reference[-1])
    # 300 steps on 7 segments rounds up to 43 steps per segment
    traj = bl.mode_trajectory(spec, solution, n_t=8)
    snapshots = stepwise_midpoint_snapshots(spec, 7 * 43, 43)
    expected = np.array([(u @ solution.modes).T for u in snapshots]).transpose(1, 0, 2)
    assert np.array_equal(traj.trajectories, expected)
