"""Randomized invariants: deterministic bulk sweeps for the numerical
hygiene requirements plus hypothesis-driven structural properties."""

import numpy as np
from hypothesis import given, settings, strategies as st

from nanoband.monodromy import evaluate
from nanoband.potential import fourier_coeffs, make_potential
from nanoband.spectrum import MagneticConfig, xi

RNG_SEED = 20240817


def _random_potentials(rng, count, vmax=8.0):
    out = []
    for _ in range(count):
        m = rng.integers(2, 7)
        widths = rng.uniform(0.2, 1.0, size=m)
        widths /= widths.sum()
        values = rng.uniform(-vmax, vmax, size=m)
        out.append(make_potential(list(zip(widths, values))))
    return out


def test_wronskian_identity_bulk():
    # 20 random potentials x 50 spectral points in [-50, 500].  Deep on
    # the negative axis the entries reach cosh(sqrt(58)) ~ 600 and the
    # 2x2 determinant carries an unavoidable float64 cancellation floor
    # of order eps * |entries|^2, so the allowance grows with the entry
    # scale; at moderate scale it is the plain 1e-12.
    rng = np.random.default_rng(RNG_SEED)
    for q in _random_potentials(rng, 20):
        for lam in rng.uniform(-50.0, 500.0, size=50):
            m = evaluate(q, float(lam))
            scale = max(abs(m.theta1), abs(m.dphi1),
                        abs(m.phi1), abs(m.dtheta1)) ** 2
            assert abs(m.wronskian - 1.0) <= max(1e-12, 5e-15 * scale)


def test_discriminant_derivative_bulk():
    # exact lambda-derivative vs central differences, 1000 samples
    rng = np.random.default_rng(RNG_SEED + 1)
    for q in _random_potentials(rng, 20):
        for lam in rng.uniform(-50.0, 500.0, size=50):
            lam = float(lam)
            h = 1e-5 * max(1.0, abs(lam))
            m = evaluate(q, lam)
            num = (evaluate(q, lam + h).Delta
                   - evaluate(q, lam - h).Delta) / (2.0 * h)
            scale = max(1.0, abs(m.dDelta))
            assert abs(m.dDelta - num) <= 1e-6 * scale


piece_lists = st.lists(
    st.tuples(st.floats(0.05, 1.0), st.floats(-10.0, 10.0)),
    min_size=1, max_size=6)


@given(piece_lists)
@settings(max_examples=60, deadline=None)
def test_make_potential_normalizes_widths(pieces):
    q = make_potential(pieces)
    assert abs(sum(w for w, _ in q.pieces) - 1.0) < 1e-12
    assert len(q.pieces) == len(pieces)


@given(piece_lists, st.floats(-5.0, 5.0))
@settings(max_examples=40, deadline=None)
def test_shift_property(pieces, mu):
    q = make_potential(pieces)
    shifted = q.shifted(mu)
    assert abs(shifted.q0 - (q.q0 + mu)) < 1e-10
    for n in (1, 3):
        d = fourier_coeffs(shifted, n).q_hat - fourier_coeffs(q, n).q_hat
        assert abs(d) < 1e-10


@given(piece_lists, st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_parseval_inequality(pieces, n_top):
    q = make_potential(pieces)
    total = q.q0 ** 2 + 2.0 * sum(
        abs(fourier_coeffs(q, n).q_hat) ** 2 for n in range(1, n_top + 1))
    assert total <= q.l2_norm_sq() + 1e-9


@given(piece_lists, st.floats(-40.0, 400.0))
@settings(max_examples=60, deadline=None)
def test_wronskian_property(pieces, lam):
    # same allowance as the bulk test: the determinant of the float
    # entries carries a cancellation floor of order eps * |entries|^2
    q = make_potential(pieces)
    m = evaluate(q, lam)
    scale = max(abs(m.theta1), abs(m.dphi1), abs(m.phi1), abs(m.dtheta1)) ** 2
    assert abs(m.wronskian - 1.0) <= max(1e-12, 5e-15 * scale)


@given(st.floats(0.1, 1.4), st.floats(-30.0, 300.0))
@settings(max_examples=40, deadline=None)
def test_xi_is_f_over_c_plus_offset(a, lam):
    # xi * c - s^2 is independent of the phase (it is the reduced
    # discriminant F alone)
    q = make_potential("two-step")
    cfg1 = MagneticConfig(a=a)
    cfg2 = MagneticConfig(a=0.3)
    f1 = xi(q, cfg1, lam)[0] * cfg1.c_j - cfg1.s_j ** 2
    f2 = xi(q, cfg2, lam)[0] * cfg2.c_j - cfg2.s_j ** 2
    assert abs(f1 - f2) < 1e-9 * max(1.0, abs(f1))
