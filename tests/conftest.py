import numpy as np
import pytest

import blochlab as bl
from oracles import members


@pytest.fixture(scope="session")
def lattice_n3():
    return bl.LatticeSpec(cells=3, cutoff=4)


@pytest.fixture(scope="session")
def mathieu_potential():
    # V(x) = 0.5 cos(2 pi x / a)
    return bl.PotentialSpec(harmonics=((1, 0.25),))


@pytest.fixture(scope="session")
def mathieu_solution(lattice_n3, mathieu_potential):
    h = bl.build_hamiltonian(lattice_n3, mathieu_potential)
    return h, bl.solve_bands(h, lattice_n3)


@pytest.fixture(scope="session")
def free_solution(lattice_n3):
    h = bl.build_hamiltonian(lattice_n3, bl.PotentialSpec())
    return h, bl.solve_bands(h, lattice_n3)


@pytest.fixture(scope="session")
def battery_n3(lattice_n3):
    """The default battery's 25 members, one-member tables each."""
    return members(bl.Battery(lattice_n3, seeds=20))


def every_state(bands):
    """All Bloch states of a BandStructure as (sector, band, plane-wave vector), in that order."""
    sectors = len(bands.k_values)
    return [(l, n, bands.dense(l, n)) for l in range(sectors) for n in range(bands.bands)]


def random_hermitian(rng, dim, spectral_norm):
    """A random complex Hermitian matrix scaled to the given spectral norm."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = a + a.conj().T
    return spectral_norm * h / np.linalg.norm(h, 2)


@pytest.fixture(scope="session")
def two_level_drive():
    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return bl.DriveSpec(
        h0=0.3 * sz, omega=1.0, drives=(bl.DriveTerm(harmonic=1, kind="sin", matrix=0.5 * sx),)
    )


@pytest.fixture(scope="session")
def two_level_solution(two_level_drive):
    return bl.solve_floquet(two_level_drive, steps=4096)
