import math

import pytest

from nanoband.potential import (NAMED_POTENTIALS, fourier_coeffs, from_config,
                                make_potential)
from oracles import quad_fourier


def test_zero_potential_is_single_zero_piece():
    q = make_potential("zero")
    assert q.pieces == ((1.0, 0.0),)
    assert q.q0 == 0.0


def test_mean_of_symmetric_two_step_vanishes():
    q = make_potential([(0.5, 2.0), (0.5, -2.0)])
    assert q.q0 == 0.0


def test_mean_arithmetic():
    q = make_potential([(0.25, 4.0), (0.75, 0.0)])
    assert q.q0 == 1.0


def test_samples_become_equal_width_pieces():
    q = make_potential([1.0, 2.0, 3.0, 4.0])
    assert len(q.pieces) == 4
    assert all(w == 0.25 for w, _ in q.pieces)
    assert [v for _, v in q.pieces] == [1.0, 2.0, 3.0, 4.0]


def test_widths_rescaled_to_unit_total():
    q = make_potential([(1.0, 5.0), (3.0, 1.0)])
    assert abs(sum(w for w, _ in q.pieces) - 1.0) < 1e-14
    assert q.pieces[0][0] == 0.25


def test_empty_description_rejected():
    with pytest.raises(ValueError):
        make_potential([])


def test_nonpositive_width_rejected():
    with pytest.raises(ValueError):
        make_potential([(0.5, 1.0), (-0.5, 2.0)])
    with pytest.raises(ValueError):
        make_potential([(0.0, 1.0), (1.0, 2.0)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_values_rejected(bad):
    # every way a potential can be given reaches PotentialSpec
    for make in (lambda: make_potential([(0.5, bad), (0.5, 1.0)]),
                 lambda: make_potential([1.0, bad]),
                 lambda: make_potential(lambda t: bad if t > 0.5 else 0.0,
                                        mesh=4),
                 lambda: from_config({"pieces": [[0.5, bad], [0.5, 1.0]]}),
                 lambda: from_config({"name": "two-step", "shift": bad}),
                 lambda: make_potential("two-step").shifted(bad)):
        with pytest.raises(ValueError, match="must be finite"):
            make()


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        make_potential("no-such-potential")


def test_callable_projection_recovers_constant():
    q = make_potential(lambda t: 3.0, mesh=8)
    assert len(q.pieces) == 8
    assert all(abs(v - 3.0) < 1e-14 for _, v in q.pieces)
    assert abs(q.q0 - 3.0) < 1e-14


def test_callable_projection_piece_averages():
    # q(t) = t: piece averages are the midpoints
    q = make_potential(lambda t: t, mesh=4)
    assert [round(v, 12) for _, v in q.pieces] == [0.125, 0.375, 0.625, 0.875]


def test_value_at_and_periodicity():
    q = make_potential("two-step")
    assert q.value_at(0.25) == 2.0
    assert q.value_at(0.75) == -2.0
    assert q.value_at(1.25) == 2.0
    assert q.value_at(-0.25) == -2.0


def test_fourier_zero_potential_vanishes():
    q = make_potential("zero")
    for n in (1, 2, 7):
        fc = fourier_coeffs(q, n)
        assert fc.q_hat == 0
        assert fc.q_tilde_c == 0.0


def test_fourier_index_zero_rejected():
    with pytest.raises(ValueError):
        fourier_coeffs(make_potential("two-step"), 0)


def test_fourier_unit_two_step_closed_forms():
    # pieces (1 on [0,1/2], -1 on [1/2,1]): cosine coefficient 2/pi at
    # n=1; the exponential coefficient is purely imaginary, 2i/pi (each
    # half contributes +-i/pi and the signs make them add) -- confirmed
    # against the quadrature oracle below
    q = make_potential([(0.5, 1.0), (0.5, -1.0)])
    fc = fourier_coeffs(q, 1)
    assert abs(fc.q_tilde_c - 2.0 / math.pi) < 1e-15
    assert abs(fc.q_hat - 2j / math.pi) < 1e-15
    assert abs(fc.q_hat_s - 2.0 / math.pi) < 1e-15
    q_hat_ref, _ = quad_fourier(q, 1)
    assert abs(fc.q_hat - q_hat_ref) < 1e-11


@pytest.mark.parametrize("name", ["two-step", "three-step"])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_fourier_matches_quadrature_oracle(name, n):
    q = make_potential(name)
    fc = fourier_coeffs(q, n)
    q_hat_ref, q_tilde_ref = quad_fourier(q, n)
    assert abs(fc.q_hat - q_hat_ref) < 1e-11
    assert abs(fc.q_tilde_c - q_tilde_ref) < 1e-11


def test_fourier_conjugate_symmetry():
    q = make_potential("three-step")
    for n in (1, 2, 4):
        assert abs(fourier_coeffs(q, -n).q_hat
                   - fourier_coeffs(q, n).q_hat.conjugate()) < 1e-15


def test_parseval_bound():
    # sum over |n| <= N of |q_hat_n|^2 never exceeds the L2 norm squared
    for name in NAMED_POTENTIALS:
        q = make_potential(name)
        l2 = q.l2_norm_sq()
        total = q.q0 ** 2
        for n in range(1, 40):
            total += 2.0 * abs(fourier_coeffs(q, n).q_hat) ** 2
            assert total <= l2 + 1e-12


def test_shift_moves_mean_but_not_harmonics():
    q = make_potential("two-step")
    shifted = q.shifted(1.5)
    assert abs(shifted.q0 - (q.q0 + 1.5)) < 1e-15
    for n in (1, 2, 3):
        assert abs(fourier_coeffs(shifted, n).q_hat
                   - fourier_coeffs(q, n).q_hat) < 1e-15


def test_from_config_variants():
    assert from_config("zero").pieces == ((1.0, 0.0),)
    assert from_config({"pieces": [[0.5, 2.0], [0.5, -2.0]]}).q0 == 0.0
    assert from_config({"samples": [1.0, 3.0]}).q0 == 2.0
    q = from_config({"name": "two-step", "shift": 1.0})
    assert q.q0 == 1.0
    with pytest.raises(ValueError):
        from_config({"nope": 1})


def test_potential_spec_is_hashable_and_immutable():
    q = make_potential("two-step")
    hash(q)
    with pytest.raises(AttributeError):
        q.pieces = ()
