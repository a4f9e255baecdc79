"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is reproducible at desk scale on one core; the heaviest
items are the deep edge tables behind the per-edge mass series.  Run
with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import math

import numpy as np

from nanoband.floquet_oracle import cross_validate
from nanoband.masses import (bare_mass, verify_mass_series,
                             verify_partial_fraction, verify_trace_identity)
from nanoband.potential import make_potential
from nanoband.quasimomentum import verify_deep_asymptotics, verify_kprime_squared
from nanoband.spectrum import (MagneticConfig, bare_cosh_heights, bare_edge)
from nanoband.verifier import (check_comb_comparison, check_height_mass_gap,
                               check_merged_band_bound, check_monotonicity)
from oracles import evaluate

A_VALUES_CLOSED_FORMS = (0.0, math.pi / 5, math.pi / 3, 0.45 * math.pi)


def _report(num, name, detail):
    print(f"[criterion {num:02d}] {name}: PASS ({detail})")


def test_criterion_01_unperturbed_closed_forms(zero_q, structure_factory,
                                               mass_factory):
    worst_edge = worst_mass = worst_height = 0.0
    for a in A_VALUES_CLOSED_FORMS:
        cfg = MagneticConfig(a=a)
        c = cfg.c_abs
        bs = structure_factory(zero_q, cfg, 20)
        mt = mass_factory(zero_q, cfg, 20)
        worst_edge = max(worst_edge, abs(bs.lambda0 - bare_edge(c, 0, +1)))
        worst_mass = max(worst_mass, abs(mt.mu0 - bare_mass(c, 0, +1)))
        ch_even, ch_odd = bare_cosh_heights(c)
        for n in range(1, 21):
            worst_edge = max(worst_edge,
                             abs(bs.minus[n - 1] - bare_edge(c, n, -1)),
                             abs(bs.plus[n - 1] - bare_edge(c, n, +1)))
            mu_p = 0.0 if bs.degenerate[n - 1] else bare_mass(c, n, +1)
            mu_m = 0.0 if bs.degenerate[n - 1] else bare_mass(c, n, -1)
            worst_mass = max(worst_mass, abs(mt.plus[n - 1] - mu_p),
                             abs(mt.minus[n - 1] - mu_m))
            ref = ch_even if n % 2 == 0 else ch_odd
            if not bs.degenerate[n - 1]:
                worst_height = max(worst_height,
                                   abs(math.cosh(bs.heights[n - 1]) - ref))
    assert worst_edge < 1e-10
    assert worst_mass < 1e-8
    assert worst_height < 1e-10
    _report(1, "unperturbed closed forms",
            f"edges {worst_edge:.1e}, masses {worst_mass:.1e}, "
            f"heights {worst_height:.1e}")


def test_criterion_02_degeneracy_dichotomy(zero_q, two_step, three_step,
                                           structure_factory):
    bs = structure_factory(zero_q, MagneticConfig(a=0.0), 20)
    assert all(bs.degenerate[n - 1] == (n % 2 == 0) for n in range(1, 21))
    bs = structure_factory(zero_q, MagneticConfig(a=math.pi / 3), 20)
    assert all(bs.degenerate[n - 1] == (n % 2 == 1) for n in range(1, 21))
    opened = 0
    for q in (zero_q, two_step, three_step):
        for a in (math.pi / 5, 0.9):
            bs = structure_factory(q, MagneticConfig(a=a), 20)
            assert not any(bs.degenerate)
            opened += 20
    _report(2, "degeneracy dichotomy",
            f"c=1 even closed, c=1/2 odd closed, {opened} generic gaps open")


def test_criterion_03_trace_identity(zero_q, two_step, three_step,
                                     mass_factory):
    configs = [(zero_q, 0.0), (zero_q, math.pi / 3),
               (two_step, math.pi / 5), (three_step, 0.9)]
    worst = 0.0
    for q, a in configs:
        mt = mass_factory(q, MagneticConfig(a=a), 200)
        rep = verify_trace_identity(mt)
        assert rep.residual < 1e-3, (q.label, a, rep)
        worst = max(worst, rep.residual)
    _report(3, "trace identity",
            f"4 configs, worst |extrapolated - 2| = {worst:.2e}")


def test_criterion_04_partial_fractions(zero_q, two_step, structure_factory,
                                        mass_factory):
    worst = 0.0
    for q, a in ((zero_q, math.pi / 3), (two_step, 0.9)):
        cfg = MagneticConfig(a=a)
        bs = structure_factory(q, cfg, 500)
        mt = mass_factory(q, cfg, 500)
        checks = verify_partial_fraction(mt, bs, [-5.0, -20.0, -100.0])
        for chk in checks:
            assert chk.residual_rel < 1e-3, (q.label, a, chk)
            worst = max(worst, chk.residual_rel)
    _report(4, "partial-fraction expansion of k'^2",
            f"6 points, worst relative residual {worst:.2e}")


def test_criterion_05_mass_series(two_step, three_step, structure_factory,
                                  mass_factory):
    worst = 0.0
    edges = 0
    for q, a, picks in (
            (two_step, math.pi / 5, ((0, +1), (1, +1), (2, +1), (2, -1))),
            (three_step, 0.9, ((1, -1), (4, +1), (5, -1)))):
        cfg = MagneticConfig(a=a)
        bs = structure_factory(q, cfg, 20000)
        mt = mass_factory(q, cfg, 20000)
        for n, sign in picks:
            rep = verify_mass_series(mt, bs, n, sign, m_max=10000)
            assert rep.m_terms == 10000
            assert rep.residual < 1e-3, (q.label, n, sign, rep)
            worst = max(worst, rep.residual)
            edges += 1
    _report(5, "per-edge mass series",
            f"{edges} open edges, worst residual {worst:.2e}")


def test_criterion_06_deep_asymptotics(two_step, two_step_mean_one):
    details = []
    for a in (math.pi / 3, math.pi / 5):
        cfg = MagneticConfig(a=a)
        rep = verify_deep_asymptotics(two_step, cfg, [50.0, 100.0, 200.0])
        target = math.log(9.0 / (8.0 * cfg.c_abs))
        at200 = rep.const_estimates[-1]
        assert rep.resolved == "log(9/(8c))"
        assert abs(at200 - target) < 1e-3, (a, rep)
        # the doubled reading is numerically excluded by a wide margin
        assert abs(at200 - 2.0 * target) > 100.0 * abs(at200 - target)
        details.append(f"c={cfg.c_abs:.3f}: |const-log(9/8c)|="
                       f"{abs(at200 - target):.1e}")
    kp = verify_kprime_squared(two_step_mean_one, MagneticConfig(a=math.pi / 5),
                               [-1e4])
    assert kp.target_q0 == 1.0
    assert kp.relative_error < 0.05
    details.append(f"q0 recovered to {kp.relative_error:.1%}")
    _report(6, "deep quasimomentum asymptotics", "; ".join(details))


def test_criterion_07_inequality_sweeps(zero_q, two_step, three_step,
                                        structure_factory, mass_factory):
    configs = [(q, a) for q in (zero_q, two_step, three_step)
               for a in (math.pi / 5, 0.9)]
    configs += [(zero_q, 0.0), (zero_q, math.pi / 3)]
    checked = 0
    worst = math.inf
    for q, a in configs:
        cfg = MagneticConfig(a=a)
        bs = structure_factory(q, cfg, 20)
        mt = mass_factory(q, cfg, 20)
        rep = check_height_mass_gap(bs, mt)
        assert rep.passed_all, (q.label, a, rep.failures[:4])
        first = [r for r in rep.records if r.name.startswith("-mu(first")]
        assert first and first[0].passed
        merged = check_merged_band_bound(bs, mt)
        assert merged.passed_all, (q.label, a, merged.failures[:4])
        checked += rep.checked + merged.checked
        worst = min(worst, rep.worst_slack, merged.worst_slack)
    assert worst >= -1e-9
    _report(7, "height/gap/mass inequality sweeps",
            f"{len(configs)} configs, {checked} checks, "
            f"worst slack {worst:.2e}")


def test_criterion_08_monotonicity(zero_q, two_step, structure_factory):
    lo, hi = math.pi / 3, math.pi / 2 - 0.05
    grid = [lo + i * (hi - lo) / 4 for i in range(5)]
    total = 0
    for q in (zero_q, two_step):
        rep = check_monotonicity(q, grid, n_max=20)
        assert rep.passed_all, (q.label, rep.failures[:4])
        total += rep.checked
    pairs = [
        (structure_factory(zero_q, MagneticConfig(a=math.pi / 3), 12),
         structure_factory(zero_q, MagneticConfig(a=0.45 * math.pi), 12)),
        (structure_factory(zero_q, MagneticConfig(a=math.pi / 3), 12),
         structure_factory(two_step, MagneticConfig(a=math.pi / 3), 12)),
        (structure_factory(two_step, MagneticConfig(a=math.pi / 3), 12),
         structure_factory(two_step, MagneticConfig(a=0.45 * math.pi), 12)),
    ]
    for b1, b2 in pairs:
        rep = check_comb_comparison(b1, b2)
        assert not rep.skipped, "height hypothesis unexpectedly failed"
        assert rep.passed_all, rep.failures[:4]
        total += rep.checked
    _report(8, "monotonicity and comb comparison",
            f"5-point phase grid x 2 potentials + 3 admissible pairs, "
            f"{total} checks")


def test_criterion_09_floquet_oracle(zero_q, two_step):
    grid = [0.05 + i * (40.0 - 0.05) / 199 for i in range(200)]
    configs = [(zero_q, MagneticConfig(a=0.0)),
               (zero_q, MagneticConfig(a=math.pi / 5, N=5, j=1)),
               (two_step, MagneticConfig(a=math.pi / 5))]
    worst = 0.0
    checked = 0
    for q, cfg in configs:
        rep = cross_validate(q, cfg, grid)
        assert rep.max_deviation < 1e-7, (q.label, cfg, rep.max_deviation)
        assert not rep.membership_mismatches
        worst = max(worst, rep.max_deviation)
        checked += rep.membership_checked
    _report(9, "independent Kirchhoff-cell dispersion oracle",
            f"3 configs, max |cos k - xi| = {worst:.2e}, "
            f"{checked} membership points agree")


def test_criterion_10_numerical_hygiene():
    # the spectral points stay in [-5, 500] and piece values in [-5, 5]:
    # there the float64 cancellation floor of the 2x2 determinant sits
    # two decades under the 1e-12 requirement, so the absolute tolerance
    # is a meaningful measurement (the deeper negative-axis sweep with a
    # scale-aware allowance lives in test_properties)
    rng = np.random.default_rng(911)
    worst_w = 0.0
    worst_d = 0.0
    samples = 0
    for _ in range(20):
        m = rng.integers(2, 7)
        widths = rng.uniform(0.2, 1.0, size=m)
        widths /= widths.sum()
        values = rng.uniform(-5.0, 5.0, size=m)
        q = make_potential(list(zip(widths, values)))
        for lam in rng.uniform(-5.0, 500.0, size=50):
            lam = float(lam)
            mono = evaluate(q, lam)
            worst_w = max(worst_w, abs(mono.wronskian - 1.0))
            h = 1e-5 * max(1.0, abs(lam))
            num = (evaluate(q, lam + h).Delta
                   - evaluate(q, lam - h).Delta) / (2.0 * h)
            worst_d = max(worst_d,
                          abs(mono.dDelta - num) / max(1.0, abs(mono.dDelta)))
            samples += 1
    assert samples == 1000
    assert worst_w < 1e-12
    assert worst_d < 1e-6
    _report(10, "numerical hygiene",
            f"1000 samples: wronskian {worst_w:.1e}, "
            f"derivative vs FD {worst_d:.1e}")
