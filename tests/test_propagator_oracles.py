"""The chunked ordered product against the one-step-at-a-time loops.

The product multiplies each chunk's step matrices in aligned blocks, so its
rounding differs from the per-step loop's: the midpoint snapshots at any
marked steps, and the report fields built on them, must match the per-step
reference to rounding (1e-13), including step counts that end a chunk early
or cross a chunk edge and grids that do not divide the step count.  Against
the product of the same float64 step deviations D plus I in extended
precision the blocks must be no less accurate than the float64 loop over
I + D, and they must take a number of stacked products logarithmic in the
chunk.  The array evaluation of H(t) and O(t) must equal the per-step
evaluation bit for bit; the RK4 monodromy regroups the same arithmetic into
one step matrix, so it matches the per-step RK4 loop to rounding.  At d = 2
the su(2) closed form of a midpoint step must match an extended-precision
Taylor series of exp(-i H theta) - I, and the written-out 2 x 2 products
must match matmul to rounding relative to sum_k |a_ik| |b_kj|.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import blochlab as bl
from blochlab import floquet, runner
from oracles import (
    running_product,
    stepwise_midpoint_snapshots,
    stepwise_rk4_monodromy,
    taylor_deviation,
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
    snapshots = floquet._ordered_product(spec, steps, marks, "midpoint-exponential")
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
        with pytest.raises(bl.NumericalFailure, match="fourth-order .* unitarity drift"):
            floquet._ordered_product(spec, steps, [steps], "fourth-order")
        return
    monodromy = floquet._ordered_product(spec, steps, [steps], "fourth-order")[-1]
    assert np.max(np.abs(monodromy - expected)) < 1e-13


def chunked_factors(spec, steps: int, builder) -> np.ndarray:
    """Every step's deviation from I over the period, built chunk by chunk as the product does."""
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
    # the block product of the float64 step deviations D, and the loop over
    # the float64 step matrices I + D, against the product of I + D formed in
    # extended precision: keeping D apart from I must not cost accuracy
    if drive == "two-level":
        spec = request.getfixturevalue("two_level_drive")
    else:
        spec = random_drive(dim, dim)
    builder = floquet._FACTOR_BUILDERS[method]
    deviations = chunked_factors(spec, steps, builder)
    marks = floquet._nearest_steps(steps, grid)
    eye = np.eye(dim)
    exact = running_product(deviations.astype(np.clongdouble) + eye, marks, np.clongdouble)
    loop_error = np.max(np.abs(running_product(deviations + eye, marks) - exact))
    block_error = np.max(np.abs(floquet._ordered_product(spec, steps, marks, method) - exact))
    assert block_error <= 4.0 * loop_error + 1e-15, (block_error, loop_error)


@pytest.mark.parametrize(
    "drive, dim, steps",
    [
        ("two-level", 2, 2048),
        ("two-level", 2, 4096),
        ("two-level", 2, 16384),
        ("random", 3, 40000),
        ("random", 16, 8192),
    ],
)
def test_floquet_residuals_sit_at_rounding(drive, dim, steps, request):
    # the steps' deviations from I are never rounded next to the unit
    # diagonal, so the residuals of the checks built on the product stay at
    # a few ulps however many steps the period takes
    if drive == "two-level":
        spec = request.getfixturevalue("two_level_drive")
    else:
        spec = random_drive(dim, dim)
    solution = bl.solve_floquet(spec, steps=steps, grid=256)
    probe = bl.temporal_overlap_probe(solution, runner._default_probe_observable(dim))
    assert solution.unitarity_defect <= 1e-15
    assert probe.phase_relation_residual <= 2e-15
    assert float(np.max(solution.periodicity_residuals)) <= 4e-15


def test_each_chunk_takes_logarithmically_many_stacked_products(monkeypatch):
    product = floquet._product

    def counting_product(a, b):
        sizes[-1].append(a.shape[0])  # the stack size of each product
        return product(a, b)

    def counting_factors(spec, s, dt):
        sizes.append([])  # one log per chunk
        return floquet._midpoint_factors(spec, s, dt)

    for dim in (2, 3):  # written-out products, and matmul
        sizes: list[list[int]] = []
        spec = random_drive(dim, 5)
        steps = 2 * floquet._FACTOR_CHUNK + 1000
        marks = np.unique(np.concatenate(([steps], floquet._nearest_steps(steps, 600))))
        expected = floquet._ordered_product(spec, steps, marks, "midpoint-exponential")
        with monkeypatch.context() as patch:
            patch.setattr(floquet, "_product", counting_product)
            patch.setitem(floquet._FACTOR_BUILDERS, "midpoint-exponential", counting_factors)
            snapshots = floquet._ordered_product(spec, steps, marks, "midpoint-exponential")
        assert np.array_equal(snapshots, expected)
        starts = range(0, steps, floquet._FACTOR_CHUNK)
        assert len(sizes) == len(starts)
        for start, chunk in zip(starts, sizes):
            n = min(floquet._FACTOR_CHUNK, steps - start)
            depth = n.bit_length() - 1  # floor(log2 n) levels above the step matrices
            inside = int(np.count_nonzero((marks > start) & (marks <= start + n)))
            assert len(chunk) <= 2 * depth + 1  # the up-sweep, then one call per binary digit
            assert sum(chunk) <= (n - 1) + (inside + 1) * (depth + 1)  # O(steps) products in all


def random_hermitian_stack(rng, n: int, scale: float) -> np.ndarray:
    a = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    return scale * (a + a.conj().transpose(0, 2, 1))


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="no extended precision"
)
def test_su2_closed_form_matches_the_taylor_series():
    rng = np.random.default_rng(21)
    eye = np.eye(2)
    traceless = random_hermitian_stack(rng, 50, 1.0)
    traceless -= np.trace(traceless, axis1=1, axis2=2)[:, None, None] / 2 * eye
    stacks = {
        "random": random_hermitian_stack(rng, 200, 1.0),
        "b = 0": rng.normal(size=(50, 1, 1)) * eye,  # H = a I
        "a = 0": traceless,
        "tiny b": rng.normal(size=(50, 1, 1)) * eye + 1e-9 * random_hermitian_stack(rng, 50, 1.0),
    }
    for name, h in stacks.items():
        h = h.astype(complex)
        for theta in (1e-6, 1e-3, 0.1, 1.0):
            got = floquet._su2_deviation(h.copy(), theta)
            exact = taylor_deviation(h, theta)
            # the series and the closed form agree to float64 rounding of D's size
            scale = np.max(np.abs(h), axis=(1, 2)) * theta
            error = np.max(np.abs(got - exact), axis=(1, 2))
            assert np.all(error <= 1e-15 * scale * (1.0 + scale)), (name, theta)
    h = stacks["b = 0"].astype(complex)
    got = floquet._su2_deviation(h.copy(), 0.3)
    assert np.array_equal(got[:, 0, 0], np.expm1(-0.3j * h[:, 0, 0].real))  # exactly E I
    assert not np.any(got[:, 0, 1]) and not np.any(got[:, 1, 0])


def test_su2_closed_form_reads_h_as_eigh_does():
    # the lower triangle and the real diagonal: a drive Hermitian to 1e-12
    # steps the same on the closed form as on the eigh route
    rng = np.random.default_rng(4)
    h = random_hermitian_stack(rng, 64, 0.5)
    noisy = h + 1e-12 * (rng.normal(size=h.shape) + 1j * rng.normal(size=h.shape))
    read = np.tril(noisy) + np.conj(np.tril(noisy, -1)).transpose(0, 2, 1)
    read[:, [0, 1], [0, 1]] = read[:, [0, 1], [0, 1]].real
    assert np.array_equal(
        floquet._su2_deviation(noisy.copy(), 0.05), floquet._su2_deviation(read, 0.05)
    )
    vals, vecs = np.linalg.eigh(noisy)
    via_eigh = (vecs * np.expm1(-0.05j * vals)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    # rounding of D (|D| ~ 0.1); the upper triangle would move D by ~5e-14
    assert np.max(np.abs(floquet._su2_deviation(noisy.copy(), 0.05) - via_eigh)) < 1e-15


@pytest.mark.parametrize("dim", [2, 3])
def test_product_matches_matmul(dim):
    rng = np.random.default_rng(dim)
    a, b = rng.normal(size=(2, 500, dim, dim)) + 1j * rng.normal(size=(2, 500, dim, dim))
    a[:7] *= 1e-9  # entries of very different sizes
    got = floquet._product(a, b)
    assert got.shape == (500, dim, dim)
    # the same sums in another order: relative to sum_k |a_ik| |b_kj|
    assert np.all(np.abs(got - a @ b) <= 4 * np.finfo(float).eps * (np.abs(a) @ np.abs(b)))


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


def test_factor_stacks_stay_within_the_chunk(monkeypatch):
    # the step matrices, and every stack multiplied, hold at most one chunk
    product, seen = floquet._product, []

    def recording_product(a, b):
        seen.append(max(len(a), len(b)))
        return product(a, b)

    monkeypatch.setattr(floquet, "_product", recording_product)
    steps = 3 * floquet._FACTOR_CHUNK + 5
    for dim in (2, 3):
        spec = random_drive(dim, 3)
        for method, builder in list(floquet._FACTOR_BUILDERS.items()):
            built = []

            def recording_factors(spec, s, dt, builder=builder):
                factors = builder(spec, s, dt)
                built.append(factors.shape)
                return factors

            seen.clear()
            with monkeypatch.context() as patch:
                patch.setitem(floquet._FACTOR_BUILDERS, method, recording_factors)
                floquet._ordered_product(spec, steps, [steps], method)
            chunks = [floquet._FACTOR_CHUNK] * 3 + [5]
            assert built == [(n, dim, dim) for n in chunks]
            assert max(seen) <= floquet._FACTOR_CHUNK


def test_propagator_fields_match_stepwise_loop():
    spec = random_drive(3, 7)
    solution = bl.solve_floquet(spec, steps=300, grid=7)
    reference = stepwise_midpoint_snapshots(spec, 300, 1)
    assert np.max(np.abs(solution.monodromy - reference[-1])) < 1e-13
    assert np.array_equal(solution.monodromy, bl.propagate_period(spec, steps=300))
    # 7 does not divide 300: each grid time i T / 7 takes its nearest step
    marks = [0, 43, 86, 129, 171, 214, 257, 300]
    assert np.array_equal(floquet._nearest_steps(300, 7), marks)
    phi = (solution.snapshots @ solution.modes).transpose(2, 0, 1)  # [mode, time, component]
    expected = np.array([(reference[s] @ solution.modes).T for s in marks]).transpose(1, 0, 2)
    assert np.max(np.abs(phi - expected)) < 1e-13
    # the times the probe evaluates O(t) at on a 9-grid, which does not divide
    # 300 either: the kept steps' times, within half a step of i T / 9
    seen = []

    class Recording(bl.PeriodicObservableSpec):
        def value(self, t, omega):
            seen.append(np.array(t))
            return super().value(t, omega)

    probed = bl.solve_floquet(spec, steps=300, grid=9)
    bl.temporal_overlap_probe(probed, Recording(static=spec.h0), periods=(1,))
    (times,) = seen
    assert np.array_equal(times, probed.times)  # the times the product kept, read as they are
    dt = spec.period / 300
    assert times[0] == 0.0
    assert np.allclose(times, floquet._nearest_steps(300, 9)[:-1] * dt, rtol=0, atol=1e-14)
    assert np.max(np.abs(times - np.linspace(0, spec.period, 10)[:-1])) <= 0.5 * dt


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
    # the probe reads the one grid the solution kept, and needs 8 points on it
    spec = random_drive(2, 4)
    observable = bl.PeriodicObservableSpec(static=spec.h0)
    with pytest.raises(ValueError, match="at least 8 grid points"):
        bl.temporal_overlap_probe(bl.solve_floquet(spec, steps=256, grid=4), observable)
    with pytest.raises(ValueError, match="at least one interval"):
        bl.solve_floquet(spec, steps=256, grid=0)
