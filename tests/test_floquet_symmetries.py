"""Metamorphic relations of the quasienergy spectrum: symmetries of the driven side.

As in ``test_lattice_symmetries.py``, a relation compares two runs of the
lab and needs no oracle.  Hypothesis draws a drive: dimension 2 to 4 (the
su(2) closed form and the eigh step), a Hermitian h0 and one to three
terms of harmonic 1 to 4 and either kind, with omega and hbar.  Each pair
of midpoint solves (``solve_floquet``) is compared on the quasienergy
circle (``quasienergy_distance``), within 1e-10 of hbar*omega.

- Time origin.  U(T + t0, t0) is conjugate to U(T, 0), so shifting the drive
  by a quarter period leaves the quasienergies in place.  trig(h omega (t +
  T/4)) is +-cos or +-sin of h omega t by h mod 4, so the shifted drive is
  again a list of terms.  With the steps a multiple of 4, its midpoint
  samples are the original's a quarter period on: the factors of the
  product rotate cyclically, and the relation holds to rounding.  Caught
  mutation: ``floquet._trig_series`` reading a sin term as cos
  (``np.cos(phase)`` for both kinds).
- Energy offset.  h0 -> h0 + c I multiplies U(T) by exp(-i c T / hbar), so
  every quasienergy moves by c, folded to the zone.  Caught mutation:
  ``floquet.quasienergies`` taking eps = +(hbar / T) arg(lambda).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import blochlab as bl

BOUND = 1e-10
STEPS = 256  # a multiple of 4: the quarter-period shift moves the samples by whole steps

# trig(x + k pi / 2) = sign * trig'(x) for k = h mod 4, keyed by (trig, k)
QUARTER_SHIFT = {
    ("cos", 0): (1.0, "cos"), ("cos", 1): (-1.0, "sin"),
    ("cos", 2): (-1.0, "cos"), ("cos", 3): (1.0, "sin"),
    ("sin", 0): (1.0, "sin"), ("sin", 1): (1.0, "cos"),
    ("sin", 2): (-1.0, "sin"), ("sin", 3): (-1.0, "cos"),
}


def hermitian(draw, dim):
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * dim * dim, max_size=2 * dim * dim))
    a = np.reshape(parts[: dim * dim], (dim, dim)) + 1j * np.reshape(parts[dim * dim :], (dim, dim))
    return a + a.conj().T


@st.composite
def drives(draw):
    dim = draw(st.integers(2, 4))
    terms = tuple(
        bl.DriveTerm(
            draw(st.integers(1, 4)), draw(st.sampled_from(["cos", "sin"])), hermitian(draw, dim)
        )
        for _ in range(draw(st.integers(1, 3)))
    )
    return bl.DriveSpec(
        h0=hermitian(draw, dim),
        omega=draw(st.floats(0.5, 3.0)),
        drives=terms,
        hbar=draw(st.sampled_from([1.0, 0.7])),
    )


def quasienergies(spec):
    return bl.solve_floquet(spec, steps=STEPS, grid=8).quasienergies


def assert_same_spectrum(spec, a, b):
    zone = spec.hbar * spec.omega
    assert bl.quasienergy_distance(a, b, spec.omega, spec.hbar) <= BOUND * zone


@given(spec=drives())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_a_quarter_period_shift_leaves_the_quasienergies_in_place(spec):
    shifted_terms = []
    for term in spec.drives:
        sign, kind = QUARTER_SHIFT[term.kind, term.harmonic % 4]
        shifted_terms.append(bl.DriveTerm(term.harmonic, kind, sign * term.matrix))
    shifted = bl.DriveSpec(
        h0=spec.h0, omega=spec.omega, drives=tuple(shifted_terms), hbar=spec.hbar
    )
    assert_same_spectrum(spec, quasienergies(spec), quasienergies(shifted))


@given(spec=drives(), c=st.floats(-5.0, 5.0))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_an_energy_offset_shifts_every_quasienergy_by_it(spec, c):
    offset = bl.DriveSpec(
        h0=spec.h0 + c * np.eye(spec.dim), omega=spec.omega, drives=spec.drives, hbar=spec.hbar
    )
    assert_same_spectrum(spec, quasienergies(spec) + c, quasienergies(offset))
