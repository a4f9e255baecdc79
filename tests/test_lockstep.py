"""The lockstep engine against the one-lane-at-a-time path it replaces
for deep structures: `transfer` on an array equals `transfer` at each
entry exactly, and structures, flat bands, Dirichlet roots, Hill combs,
flat spectra and masses built in lockstep equal a shallow sequential
build gap for gap (`==`, not a tolerance)."""

import math
import random

import numpy as np
import pytest

from nanoband import _rootfind
from nanoband._rootfind import (_LOCKSTEP_GAPS, RootBracketError, _lockstep,
                                comb_roots)
from nanoband.masses import effective_masses
from nanoband.monodromy import dirichlet_spectrum, hill_spectrum, transfer
from nanoband.potential import make_potential
from nanoband.spectrum import (F_with_derivs, MagneticConfig, band_structure,
                               flat_spectrum)

SHALLOW = 20
DEEP = _LOCKSTEP_GAPS + 30


def _random_potential(rng, m, vmax=8.0):
    return make_potential([(rng.uniform(0.1, 1.0), rng.uniform(-vmax, vmax))
                           for _ in range(m)])


@pytest.mark.parametrize("m", [1, 2, 3, 6, 64])
def test_batched_jet_equals_transfer(m):
    rng = random.Random(m)
    q = _random_potential(rng, m, vmax=30.0)
    vs = [v for _, v in q.pieces]
    lams = ([rng.uniform(-100.0, 3000.0) for _ in range(200)]
            + vs + [v + 1e-7 for v in vs] + [v - 1e-7 for v in vs])
    batches = [lams] + [[lam] for lam in lams[::25] + vs[:2]]
    for batch in batches:
        got = transfer(q, np.array(batch))
        for k, lam in enumerate(batch):
            want = transfer(q, lam)
            assert [[e[k] for e in mat] for mat in got] \
                == [list(mat) for mat in want], (m, lam)


def _sectors(rng):
    yield MagneticConfig(a=2.2)  # c_j < 0
    for _ in range(3):
        cfg = MagneticConfig(a=rng.uniform(0.0, math.pi),
                             N=rng.randint(1, 6), j=rng.randint(0, 5))
        if 0.15 <= cfg.c_abs <= 0.9:
            yield cfg


@pytest.mark.parametrize("seed", [1, 2])
def test_lockstep_and_sequential_paths_agree(seed):
    rng = random.Random(seed)
    for cfg in _sectors(rng):
        q = _random_potential(rng, rng.randint(1, 4), vmax=6.0)
        deep = band_structure(q, cfg, DEEP)
        shallow = band_structure(q, cfg, SHALLOW)
        assert deep.lambda0 == shallow.lambda0
        for field in ("minus", "plus", "critical", "degenerate", "heights",
                      "flat_bands"):
            assert getattr(deep, field)[:SHALLOW] == getattr(shallow, field)
        assert not shallow.anomalies
        assert dirichlet_spectrum(q, DEEP)[:SHALLOW] == shallow.flat_bands
        m_deep = effective_masses(deep)
        m_shallow = effective_masses(shallow)
        assert m_deep.mu0 == m_shallow.mu0
        assert m_deep.plus[:SHALLOW] == m_shallow.plus
        assert m_deep.minus[:SHALLOW] == m_shallow.minus


def _cosine_comb(x):
    """f = 1.5 cos(pi x) with f', f'' on a float or an array: gap n has
    its critical point at x = n."""
    return (1.5 * np.cos(np.pi * x), -1.5 * np.pi * np.sin(np.pi * x),
            -1.5 * np.pi ** 2 * np.cos(np.pi * x))


def _windows(bad=(), shift=None):
    """Critical windows (n - 1/2, n + 1/2); those of gaps `bad` are too
    narrow to ever contain a zero of f', and gap `shift`'s window holds
    the critical point of gap shift + 1, which has the other parity."""
    def window(n):
        if n in bad:
            return n + 0.25 - 1e-6, n + 0.25 + 1e-6
        if n == shift:
            return n + 0.5, n + 1.5
        return n - 0.5, n + 0.5
    return window


def _index_raised(window, depth):
    with pytest.raises(RootBracketError) as err:
        comb_roots(_cosine_comb, depth, window, 0.0)
    return err.value


def test_unbracketable_windows_raise_the_lower_index_in_both_paths():
    bad = (7, 12, _LOCKSTEP_GAPS + 5)
    for depth in (SHALLOW, DEEP):
        assert _index_raised(_windows(bad), depth).index == bad[0]


def test_lowest_edge_failures_name_index_0():
    # gap 1's window finds the maximum at x = 2, where f = 1.5 > 1: no
    # point left of it has f - 1 of the other sign; and a comb of
    # amplitude 1/2 never reaches f = 1 to the left at all
    def low(x):
        return tuple(v / 3.0 for v in _cosine_comb(x))

    for depth in (SHALLOW, DEEP):
        err = _index_raised(_windows(shift=1), depth)
        assert err.index == 0 and "lowest edge" in str(err)
        assert "no sign change" in str(err)
        with pytest.raises(RootBracketError) as exp:
            comb_roots(low, depth, _windows(), 0.0)
        assert exp.value.index == 0 and "lowest edge" in str(exp.value)


def test_mislabelled_critical_fails_the_gap_below_it():
    # critical k + 1 is found at x = k + 2, with the parity of critical k,
    # so the upper edge of gap k has no bracket
    k = 7
    for depth in (SHALLOW, DEEP):
        err = _index_raised(_windows(shift=k + 1), depth)
        assert err.index == k and "gap edge" in str(err)


def test_lockstep_raises_the_lowest_failing_lane_not_the_first_to_fail():
    # lane 1 fails after five steps, lane 2 at its first step
    def lane(fail_after):
        for k in range(6):
            if k == fail_after:
                raise RootBracketError("lane", fail_after)
            yield float(k)
        return "done"

    with pytest.raises(RootBracketError) as err:
        _lockstep([lane(None), lane(5), lane(1), lane(None)],
                  lambda xs: (xs,))
    assert err.value.index == 5
    assert _lockstep([lane(None)], lambda xs: (xs,)) == ["done"]


def test_lockstep_keeps_at_most_the_lane_window_live():
    sizes = []

    def fbatch(xs):
        sizes.append(len(xs))
        return (xs,)

    def lane(n):
        for _ in range(1 + n % 5):
            yield float(n)
        return n

    count = 3 * _rootfind._LANES + 7
    assert _lockstep((lane(n) for n in range(count)), fbatch) \
        == list(range(count))
    assert max(sizes) == _rootfind._LANES


def test_hill_spectrum_lockstep_and_sequential_paths_agree():
    q = _random_potential(random.Random(3), 3)
    deep = hill_spectrum(q, DEEP)
    shallow = hill_spectrum(q, SHALLOW)
    assert deep.lambda0 == shallow.lambda0
    for field in ("minus", "plus", "critical", "degenerate", "heights",
                  "dirichlet"):
        assert getattr(deep, field)[:SHALLOW] == getattr(shallow, field)
    assert deep.anomalies == shallow.anomalies == ()


def test_flat_spectrum_lockstep_and_sequential_paths_agree():
    # 2 n_max + 1 critical lanes: 121 run in lockstep, 41 one at a time
    rng = random.Random(4)
    for q in (make_potential("two-step"), _random_potential(rng, 4, 6.0)):
        cfg = MagneticConfig(a=math.pi / 2)
        deep = flat_spectrum(q, cfg, 60)
        shallow = flat_spectrum(q, cfg, SHALLOW)
        assert deep.dirichlet[:SHALLOW] == shallow.dirichlet
        assert len(shallow.f_locus) >= SHALLOW
        assert deep.f_locus[:len(shallow.f_locus)] == shallow.f_locus


def test_effective_masses_equal_F_prime_at_each_edge():
    rng = random.Random(5)
    for cfg in _sectors(rng):
        q = _random_potential(rng, rng.randint(1, 4), vmax=6.0)
        bs = band_structure(q, cfg, SHALLOW)
        mt = effective_masses(bs)
        c = cfg.c_abs
        assert mt.mu0 == -F_with_derivs(q, bs.lambda0)[1] / c
        for n in range(1, SHALLOW + 1):
            t = -1.0 if n % 2 else 1.0
            if bs.degenerate[n - 1]:
                assert mt.plus[n - 1] == mt.minus[n - 1] == 0.0
                continue
            assert mt.plus[n - 1] == -t * F_with_derivs(q, bs.plus[n - 1])[1] / c
            assert mt.minus[n - 1] \
                == -t * F_with_derivs(q, bs.minus[n - 1])[1] / c
