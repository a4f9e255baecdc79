"""The lockstep engine against the one-lane-at-a-time path it replaces
for deep structures: the batched jet equals `transfer` exactly, and
structures, flat bands, Dirichlet roots and masses built in lockstep
equal a shallow sequential build gap for gap (`==`, not a tolerance)."""

import math
import random

import numpy as np
import pytest

from nanoband import _rootfind
from nanoband._rootfind import (_LOCKSTEP_GAPS, RootBracketError, _lockstep,
                                comb_roots)
from nanoband.masses import effective_masses
from nanoband.monodromy import _transfer_batch, dirichlet_spectrum, transfer
from nanoband.potential import make_potential
from nanoband.spectrum import MagneticConfig, band_structure

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
        got = _transfer_batch(q, np.array(batch))
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


def test_unbracketable_windows_raise_the_lower_index_in_both_paths():
    # f = 1.5 cos(pi x): gap n has its critical point at x = n.  The
    # windows of gaps `bad` are too narrow to ever contain a zero of f'.
    bad = (7, _LOCKSTEP_GAPS + 5)

    def fval(x):
        return (1.5 * math.cos(math.pi * x),
                -1.5 * math.pi * math.sin(math.pi * x),
                -1.5 * math.pi ** 2 * math.cos(math.pi * x))

    def fbatch(xs):
        return tuple(np.array([fval(x)[i] for x in xs.tolist()])
                     for i in range(3))

    def window(n):
        if n in bad:
            return n + 0.25 - 1e-6, n + 0.25 + 1e-6
        return n - 0.5, n + 0.5

    for batch in (None, fbatch):
        with pytest.raises(RootBracketError) as err:
            comb_roots(fval, DEEP, window, 0.0, _fbatch=batch)
        assert err.value.index == bad[0]


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
