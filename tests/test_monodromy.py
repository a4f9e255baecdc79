import math

import pytest

from nanoband.monodromy import dirichlet_spectrum
from nanoband.potential import make_potential
from oracles import evaluate, fd_periodic_eigenvalues, ode_monodromy


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


def test_hill_edges_against_finite_difference_oracle(two_step):
    # the periodic eigenvalues on [0, 2] are the Hill edges, where
    # Delta^2 = 1: a 1e-4 error in an eigenvalue moves Delta^2 by at most
    # 1e-4 |d(Delta^2)/dlambda| there
    for e in fd_periodic_eigenvalues(two_step, mesh=4096, k=5).tolist():
        m = evaluate(two_step, e)
        assert abs(m.Delta ** 2 - 1.0) <= 1e-4 * abs(2.0 * m.Delta * m.dDelta)


@pytest.mark.parametrize("q", [
    make_potential("two-step"),
    make_potential(lambda t: 5.0 * math.cos(2.0 * math.pi * t) + 2.0 * t,
                   mesh=64)], ids=["two-step", "projection-64"])
def test_dirichlet_roots_lie_in_closed_hill_gaps(q):
    # phi(1) = 0 makes theta(1) phi'(1) = 1, so |Delta| >= 1 there, with
    # the sign (-1)^n of gap n
    for n, d in enumerate(dirichlet_spectrum(q, 6), start=1):
        assert (-1.0) ** n * evaluate(q, d).Delta >= 1.0 - 1e-10


def test_dirichlet_spectrum_free_case(zero_q):
    for n, mu in enumerate(dirichlet_spectrum(zero_q, 5), start=1):
        assert abs(mu - (math.pi * n) ** 2) < 1e-10


def test_hill_deep_asymptotics_half_coefficient(two_step_mean_one):
    # far below the spectrum arccosh Delta(-y^2) ~ y + q0 / (2 y): the
    # 1/y coefficient recovers q0 / 2, not q0, and the residual decays at
    # least like 1/y.  On the two-step of mean 1: the plain two-step has
    # q0 = 0, where both readings agree.
    q = two_step_mean_one
    q0 = q.q0

    def im_k(y):
        return math.acosh(evaluate(q, -y * y).Delta)

    resid = [abs(im_k(y) - (y + q0 / (2.0 * y))) for y in (10.0, 31.6, 100.0)]
    assert resid[0] > resid[1] > resid[2]
    slope = (math.log(resid[2]) - math.log(resid[0])) \
        / (math.log(100.0) - math.log(10.0))
    assert slope <= -1.0
    # the full-coefficient reading q0 / y is refuted numerically
    y = 100.0
    assert abs(im_k(y) - (y + q0 / y)) > 10 * abs(im_k(y) - (y + q0 / (2 * y)))
