import math

import pytest

from nanoband.monodromy import (dirichlet_spectrum, evaluate, hill_quasimomentum,
                                hill_spectrum)
from nanoband.potential import make_potential
from oracles import fd_periodic_eigenvalues, ode_monodromy


def test_free_discriminant_at_pi_squared():
    m = evaluate(make_potential("zero"), math.pi ** 2)
    assert abs(m.Delta - (-1.0)) < 1e-12
    assert abs(m.DeltaMinus) < 1e-12


def test_free_discriminant_negative_lambda():
    m = evaluate(make_potential("zero"), -1.0)
    assert abs(m.Delta - math.cosh(1.0)) < 1e-12


def test_free_closed_forms_on_grid():
    q = make_potential("zero")
    for lam in [-30.0, -2.0, -1e-9, 0.0, 1e-9, 0.3, 4.0, 27.0, 333.0]:
        m = evaluate(q, lam)
        if lam >= 0:
            z = math.sqrt(lam)
            delta_ref = math.cos(z)
            phi_ref = math.sin(z) / z if z > 1e-8 else 1.0 - lam / 6.0
        else:
            y = math.sqrt(-lam)
            delta_ref = math.cosh(y)
            phi_ref = math.sinh(y) / y
        assert abs(m.Delta - delta_ref) < 1e-12
        assert abs(m.DeltaMinus) < 1e-12
        assert abs(m.phi1 - phi_ref) < 1e-12


def test_series_branch_is_continuous():
    # crossing lambda = piece value must not jump across the series window
    q = make_potential([(0.5, 2.0), (0.5, -2.0)])
    vals = [evaluate(q, 2.0 + d).Delta
            for d in (-1e-5, -1e-7, 0.0, 1e-7, 1e-5)]
    for a, b in zip(vals, vals[1:]):
        assert abs(a - b) < 1e-4


def test_series_branch_matches_closed_forms_at_switch():
    # at the switch threshold the power series agrees with the
    # trigonometric/hyperbolic closed forms to ~1e-13
    from nanoband.monodromy import _factor
    for w in (0.3, 0.7, 1.0):
        for mu in (9.9e-7, -9.9e-7):
            c, s, c1, *_ = _factor(w, mu)  # series window
            r = math.sqrt(abs(mu))
            if mu > 0:
                c_ref, s_ref = math.cos(w * r), math.sin(w * r) / r
            else:
                c_ref, s_ref = math.cosh(w * r), math.sinh(w * r) / r
            assert abs(c - c_ref) < 1e-13
            assert abs(s - s_ref) < 1e-13
            assert abs(c1 - (-0.5 * w * s_ref)) < 1e-13


@pytest.mark.parametrize("lam", [0.0, -7.5, 3.3, 26.0])
def test_against_ode_integration_oracle(lam, two_step):
    m = evaluate(two_step, lam)
    th, dth, ph, dph = ode_monodromy(two_step, lam)
    assert abs(m.theta1 - th) < 1e-10
    assert abs(m.dtheta1 - dth) < 1e-10
    assert abs(m.phi1 - ph) < 1e-10
    assert abs(m.dphi1 - dph) < 1e-10


def test_three_step_against_ode_oracle(three_step):
    for lam in (-4.0, 1.7, 12.0):
        m = evaluate(three_step, lam)
        th, dth, ph, dph = ode_monodromy(three_step, lam)
        assert abs(0.5 * (th + dph) - m.Delta) < 1e-10


def test_wronskian_identity(two_step):
    for lam in (-50.0, -1.0, 0.0, 13.0, 500.0):
        assert abs(evaluate(two_step, lam).wronskian - 1.0) < 1e-12


def test_lambda_derivative_against_finite_differences(three_step):
    for lam in (-20.0, 0.7, 9.0, 120.0):
        h = 1e-5 * max(1.0, abs(lam))
        m = evaluate(three_step, lam)
        num = (evaluate(three_step, lam + h).Delta
               - evaluate(three_step, lam - h).Delta) / (2 * h)
        assert abs(m.dDelta - num) <= 1e-6 * max(1.0, abs(m.dDelta))


def test_second_derivative_against_finite_differences(two_step):
    for lam in (0.5, 7.0, 40.0):
        h = 1e-4 * max(1.0, abs(lam))
        m = evaluate(two_step, lam)
        num = (evaluate(two_step, lam + h).Delta - 2 * m.Delta
               + evaluate(two_step, lam - h).Delta) / (h * h)
        assert abs(m.d2Delta - num) <= 1e-5 * max(1.0, abs(m.d2Delta))


def test_free_hill_spectrum_collapses_all_gaps(zero_q):
    hs = hill_spectrum(zero_q, 4)
    for n in range(1, 5):
        ref = (math.pi * n) ** 2
        assert abs(hs.minus[n - 1] - ref) < 1e-8
        assert abs(hs.plus[n - 1] - ref) < 1e-8
        assert hs.degenerate[n - 1]
        assert abs(hs.dirichlet[n - 1] - ref) < 1e-10
    assert abs(hs.lambda0) < 1e-12


def test_hill_edges_against_finite_difference_oracle(two_step):
    hs = hill_spectrum(two_step, 2)
    eigs = fd_periodic_eigenvalues(two_step, mesh=4096, k=5)
    assert abs(hs.lambda0 - eigs[0]) < 1e-4
    assert abs(hs.minus[0] - eigs[1]) < 1e-4
    assert abs(hs.plus[0] - eigs[2]) < 1e-4


def test_hill_labeling_and_interlacing(two_step):
    hs = hill_spectrum(two_step, 6)
    seq = [hs.lambda0]
    for n in range(1, 7):
        seq += [hs.minus[n - 1], hs.plus[n - 1]]
    assert all(a <= b + 1e-12 for a, b in zip(seq, seq[1:]))
    for n in range(1, 7):
        d = evaluate(two_step, hs.minus[n - 1]).Delta
        assert abs(d - (-1.0) ** n) < 1e-10
        assert hs.minus[n - 1] - 1e-10 <= hs.dirichlet[n - 1] \
            <= hs.plus[n - 1] + 1e-10
        assert hs.minus[n - 1] - 1e-10 <= hs.critical[n - 1] \
            <= hs.plus[n - 1] + 1e-10


def test_dirichlet_spectrum_free_case(zero_q):
    for n, mu in enumerate(dirichlet_spectrum(zero_q, 5), start=1):
        assert abs(mu - (math.pi * n) ** 2) < 1e-10


def test_hill_quasimomentum_free_values(zero_q):
    k = hill_quasimomentum(zero_q, (math.pi / 2) ** 2)
    assert abs(k - math.pi / 2) < 1e-12
    for y in (0.5, 2.0, 7.0):
        k = hill_quasimomentum(zero_q, -y * y)
        assert abs(k.real) < 1e-12
        assert abs(k.imag - y) < 1e-10


def test_hill_quasimomentum_band_and_gap_branches(two_step):
    hs = hill_spectrum(two_step, 3)
    k_edge = hill_quasimomentum(two_step, hs.minus[0], spectrum=hs)
    assert abs(k_edge - math.pi) < 1e-6
    k_gap = hill_quasimomentum(two_step, hs.critical[0], spectrum=hs)
    assert abs(k_gap.real - math.pi) < 1e-12
    assert abs(k_gap.imag - hs.heights[0]) < 1e-12


def test_hill_deep_asymptotics_half_coefficient(two_step):
    # after normalizing the lowest edge to 0, the quasimomentum on the
    # negative axis satisfies Im k ~ y + q0 / (2 y): the 1/y coefficient
    # recovers q0 / 2, not q0, and the residual decays at least like 1/y
    hs = hill_spectrum(two_step, 1)
    qn = two_step.shifted(-hs.lambda0)
    q0 = qn.q0
    resid = []
    for y in (10.0, 31.6, 100.0):
        k = hill_quasimomentum(qn, -y * y)
        resid.append(abs(k.imag - (y + q0 / (2.0 * y))))
    assert resid[0] > resid[1] > resid[2]
    slope = (math.log(resid[2]) - math.log(resid[0])) \
        / (math.log(100.0) - math.log(10.0))
    assert slope <= -1.0
    # the full-coefficient reading q0 / y is refuted numerically
    y = 100.0
    k = hill_quasimomentum(qn, -y * y)
    assert abs(k.imag - (y + q0 / y)) > 10 * abs(k.imag - (y + q0 / (2 * y)))


def test_hill_heights_decay(two_step):
    # Hill slit heights vanish at large n: n*h_n decays and n^2*h_n stays
    # bounded (for this potential it tends to 2/pi^2 on the odd gaps, set
    # by the 1/n Fourier tail of the steps).  The nanotube comb keeps
    # order-one heights instead; that contrast lives in
    # test_quasimomentum.
    hs = hill_spectrum(two_step, 40)
    n1h = [n * hs.heights[n - 1] for n in range(1, 41)]
    n2h = [n * n * hs.heights[n - 1] for n in range(1, 41)]
    assert max(n1h[29:]) < 0.5 * max(n1h[:10])
    assert max(n2h) < 1.2 * max(n2h[:10])
    assert abs(n2h[38] - 2.0 / math.pi ** 2) < 0.02  # n=39, odd
