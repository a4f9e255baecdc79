import cmath
import math

import pytest

from nanoband.floquet_oracle import (FlatBandVicinityError, build_cell_system,
                                     cos_k_from_root, cross_validate,
                                     dispersion_roots, is_ac_multiplier_pair)
from nanoband.monodromy import dirichlet_spectrum
from nanoband.potential import make_potential
from nanoband.spectrum import MagneticConfig, xi


def _grid(lo, hi, count):
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def test_band_point_has_unit_circle_pair(zero_q):
    cfg = MagneticConfig(a=0.0)
    lam = (math.pi / 3) ** 2
    z1, z2 = dispersion_roots(zero_q, cfg, lam)
    assert abs(abs(z1) - 1.0) < 1e-10
    assert abs(abs(z2) - 1.0) < 1e-10
    assert abs(cos_k_from_root(z1, cfg) - (-0.6875)) < 1e-8
    assert abs(cos_k_from_root(z2, cfg) - (-0.6875)) < 1e-8
    assert is_ac_multiplier_pair(z1, z2)


def test_gap_point_has_reciprocal_real_pair(zero_q):
    cfg = MagneticConfig(a=0.0)
    z1, z2 = dispersion_roots(zero_q, cfg, (math.pi / 2) ** 2)
    assert abs(z1 * z2 - 1.0) < 1e-10
    assert abs(z1.imag) < 1e-10 and abs(z2.imag) < 1e-10
    big = max(abs(z1), abs(z2))
    assert abs(0.5 * (big + 1.0 / big) - 1.25) < 1e-10
    assert not is_ac_multiplier_pair(z1, z2)


def test_band_edge_double_root(zero_q, structure_factory):
    cfg = MagneticConfig(a=0.0)
    bs = structure_factory(zero_q, cfg, 2)
    z1, z2 = dispersion_roots(zero_q, cfg, bs.minus[0])
    assert abs(z1 - (-1.0)) < 1e-4
    assert abs(z2 - (-1.0)) < 1e-4


def test_root_product_carries_sector_phase(zero_q):
    # product of the multipliers is a pure phase e^{-2 pi i j / N}
    cfg = MagneticConfig(a=math.pi / 5, N=5, j=1)
    for lam in (1.0, 4.0, 11.0):
        z1, z2 = dispersion_roots(zero_q, cfg, lam)
        assert abs(z1 * z2 - cmath.exp(-2j * math.pi / 5)) < 1e-9


def test_dirichlet_vicinity_rejected(zero_q):
    cfg = MagneticConfig(a=0.0)
    mu1 = math.pi ** 2
    with pytest.raises(FlatBandVicinityError):
        dispersion_roots(zero_q, cfg, mu1)


def test_determinant_is_quadratic_in_multiplier(two_step):
    # det(m0 + z m1) reproduces the three extracted coefficients at a
    # fourth multiplier value, so the degree never exceeds 2
    import numpy as np
    cfg = MagneticConfig(a=0.9, N=3, j=1)
    cs = build_cell_system(two_step, cfg, 7.7)
    alpha, beta, delta = cs.det_coeffs()
    for z in (2.0 + 0.5j, -1.7j, 0.3 - 2.2j):
        det = complex(np.linalg.det(cs.matrix(z)))
        model = alpha * z * z + beta * z + delta
        assert abs(det - model) < 1e-10 * max(1.0, abs(det))


def test_coefficients_rescaled_by_phi_are_continuous(two_step):
    # det M vanishes like phi(1)^1 at a Dirichlet point: dividing the
    # quadratic coefficients by phi(1) removes the singularity
    cfg = MagneticConfig(a=0.9)
    mu1 = dirichlet_spectrum(two_step, 1)[0]
    vals = []
    for lam in (mu1 - 1e-3, mu1 - 1e-5, mu1 + 1e-5, mu1 + 1e-3):
        cs = build_cell_system(two_step, cfg, lam)
        alpha, _, _ = cs.det_coeffs()
        vals.append(alpha / cs.phi1)
    base = vals[0]
    assert all(abs(v - base) < 1e-3 * abs(base) for v in vals[1:])
    # and the unscaled coefficient does vanish towards the Dirichlet point
    a_far = abs(build_cell_system(two_step, cfg, mu1 - 1e-3).det_coeffs()[0])
    a_near = abs(build_cell_system(two_step, cfg, mu1 - 1e-6).det_coeffs()[0])
    assert a_near < 1e-2 * a_far


@pytest.mark.parametrize("conf", [
    ("zero", {"a": 0.0}),
    ("zero", {"a": math.pi / 5, "N": 5, "j": 1}),
    ("two-step", {"a": math.pi / 5}),
])
def test_cross_validation_against_discriminant(conf, zero_q, two_step):
    from nanoband.potential import make_potential
    q = make_potential(conf[0])
    cfg = MagneticConfig(**conf[1])
    rep = cross_validate(q, cfg, _grid(0.05, 40.0, 200))
    assert rep.max_deviation < 1e-7
    assert not rep.membership_mismatches
    assert rep.membership_checked > 150


def test_cross_validation_rejects_a_structure_of_another_input(
        two_step, structure_factory):
    # the band/gap membership would be read off another structure
    cfg = MagneticConfig(a=0.9)
    grid = _grid(0.05, 40.0, 200)
    for q, other in ((two_step, MagneticConfig(a=0.3)),
                     (two_step.shifted(3.0), cfg)):
        with pytest.raises(ValueError, match="structure of"):
            cross_validate(two_step, cfg, grid,
                           bs=structure_factory(q, other, 20))
    named = make_potential(two_step, label="renamed")
    rep = cross_validate(two_step, cfg, grid,
                         bs=structure_factory(named, cfg, 20))
    assert rep == cross_validate(two_step, cfg, grid)


def test_cross_validation_skips_flat_band_points(zero_q):
    cfg = MagneticConfig(a=0.3)
    lam_flat = math.pi ** 2
    rep = cross_validate(zero_q, cfg, [1.0, lam_flat, 20.0])
    assert lam_flat in rep.skipped
    assert len(rep.lams) == 2


def test_negative_sector_phase_agrees_with_signed_xi(two_step):
    # c_j < 0 exercises the signed discriminant on the oracle side
    cfg = MagneticConfig(a=2.0)
    assert cfg.c_j < 0
    for lam in (0.8, 5.0, 17.0):
        z1, _ = dispersion_roots(two_step, cfg, lam)
        assert abs(cos_k_from_root(z1, cfg) - xi(two_step, cfg, lam)[0]) < 1e-9


def _pointwise_cross_validation(q, cfg, lams, bs, edge_margin=1e-6):
    """cross_validate one lambda at a time from dispersion_roots and the
    scalar xi: the reference for the chunked, stacked evaluation."""
    edges = (bs.lambda0,) + bs.minus + bs.plus
    kept, devs, skipped, mismatches, checked = [], [], [], [], 0
    for lam in lams:
        try:
            z1, z2 = dispersion_roots(q, cfg, lam)
        except FlatBandVicinityError:
            skipped.append(lam)
            continue
        xi_val = xi(q, cfg, lam)[0]
        kept.append(lam)
        devs.append(max(abs(cos_k_from_root(z1, cfg) - xi_val),
                        abs(cos_k_from_root(z2, cfg) - xi_val)))
        if min(abs(lam - e) for e in edges) > edge_margin:
            checked += 1
            if is_ac_multiplier_pair(z1, z2) != (bs.locate(lam)[0] == "band"):
                mismatches.append(lam)
    return tuple(kept), tuple(devs), tuple(skipped), checked, \
        tuple(mismatches)


@pytest.mark.parametrize("name", ["zero", "two-step", "projection-64"])
def test_chunked_cross_validation_equals_pointwise(name, structure_factory,
                                                   monkeypatch):
    from nanoband import monodromy
    from nanoband._rootfind import _depth_for
    from nanoband.floquet_oracle import _CHUNK
    from nanoband.potential import make_potential
    q = (make_potential(lambda t: 3.0 * math.cos(2.0 * math.pi * t) + t,
                        mesh=64)
         if name == "projection-64" else make_potential(name))
    cfg = MagneticConfig(a=0.9, N=3, j=1)
    diri = dirichlet_spectrum(q, 2)
    # longer than one chunk, with a Dirichlet root in each of the two
    grid = _grid(0.05, diri[1] + 2.0, _CHUNK + 100)
    grid[200] = diri[0]
    grid[_CHUNK + 50] = diri[1]
    bs = structure_factory(q, cfg, _depth_for(max(grid), q.q0))
    # one jet per chunk, shared by the cell system and xi
    jets = []
    transfer = monodromy.transfer

    def counted(q, lam, order=2):
        jets.append(len(lam))
        return transfer(q, lam, order)

    monkeypatch.setattr(monodromy, "transfer", counted)
    rep = cross_validate(q, cfg, grid, bs=bs)
    monkeypatch.undo()
    assert jets == [_CHUNK, 100]
    kept, devs, skipped, checked, mismatches = \
        _pointwise_cross_validation(q, cfg, grid, bs)
    assert skipped == (diri[0], diri[1])
    assert rep.skipped == skipped
    assert rep.lams == kept
    assert rep.deviations == devs
    assert rep.max_deviation == max(devs)
    assert rep.membership_checked == checked
    assert rep.membership_mismatches == mismatches


def test_stacked_cell_systems_equal_single_ones(two_step):
    import numpy as np
    cfg = MagneticConfig(a=2.0, N=4, j=3)
    lams = np.linspace(-3.0, 45.0, 37)
    stack = build_cell_system(two_step, cfg, lams)
    assert stack.m0.shape == stack.m1.shape == (37, 6, 6)
    alpha, beta, delta = stack.det_coeffs()
    for i, lam in enumerate(lams.tolist()):
        one = build_cell_system(two_step, cfg, lam)
        assert np.array_equal(stack.m0[i], one.m0)
        assert np.array_equal(stack.m1[i], one.m1)
        assert (alpha[i], beta[i], delta[i]) == one.det_coeffs()
    assert not stack.near_flat.any()
