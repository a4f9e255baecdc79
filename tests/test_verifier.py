import dataclasses
import math
import pickle
import random

import pytest

from nanoband import verifier
from nanoband._rootfind import RootBracketError
from nanoband.masses import effective_masses
from nanoband.potential import make_potential
from nanoband.spectrum import (MagneticConfig, PurePointRegimeError,
                               band_structure)
from nanoband.verifier import (check_comb_comparison, check_height_mass_gap,
                               check_merged_band_bound, check_monotonicity)
from oracles import (reference_comb_comparison, reference_height_mass_gap,
                     reference_merged_band_bound, reference_monotonicity,
                     reference_verdict)


def test_height_mass_gap_passes_open_even_gap(zero_q, structure_factory,
                                              mass_factory):
    cfg = MagneticConfig(a=math.pi / 3)
    bs = structure_factory(zero_q, cfg, 8)
    mt = mass_factory(zero_q, cfg, 8)
    rep = check_height_mass_gap(bs, mt)
    assert rep.passed_all
    gap2 = [r for r in rep.records if r.n == 2 and not r.skipped]
    assert len(gap2) >= 18
    assert all(r.slack > 0 for r in gap2
               if "degenerate" not in r.name)


def test_height_mass_gap_degenerate_rows_trivial(zero_q, structure_factory):
    bs = structure_factory(zero_q, MagneticConfig(a=0.0), 6)
    rep = check_height_mass_gap(bs)
    deg = [r for r in rep.records if "degenerate" in r.name]
    assert {r.n for r in deg} == {2, 4, 6}
    assert all(r.passed for r in deg)


def test_height_mass_gap_sweeps(two_step, three_step, structure_factory,
                                mass_factory):
    for q in (two_step, three_step):
        for a in (math.pi / 5, 0.9):
            cfg = MagneticConfig(a=a)
            bs = structure_factory(q, cfg, 12)
            rep = check_height_mass_gap(bs, mass_factory(q, cfg, 12))
            assert rep.passed_all, [r for r in rep.failures]
            assert rep.worst_slack > -1e-9


def test_first_open_gap_mass_bound(two_step, structure_factory,
                                   mass_factory):
    cfg = MagneticConfig(a=0.9)
    bs = structure_factory(two_step, cfg, 6)
    rep = check_height_mass_gap(bs, mass_factory(two_step, cfg, 6))
    rec = [r for r in rep.records if r.name.startswith("-mu(first")]
    assert len(rec) == 1
    assert rec[0].n == 1 and rec[0].passed


def test_scaled_variables_attached(two_step, structure_factory):
    bs = structure_factory(two_step, MagneticConfig(a=0.9), 4)
    rep = check_height_mass_gap(bs)
    rec = next(r for r in rep.records if r.n == 1 and r.extras)
    keys = dict(rec.extras)
    # the scaled variables reproduce their defining identities
    shift = rep.shift
    zp, zm = keys["z_plus"], keys["z_minus"]
    assert abs(zp ** 2 - (bs.plus[0] - shift)) < 1e-10
    assert abs((zp + zm) * keys["gap_scaled"] - keys["gap"]) < 1e-12


def test_merged_band_bounds_no_field(zero_q, structure_factory,
                                     mass_factory):
    bs = structure_factory(zero_q, MagneticConfig(a=0.0), 9)
    rep = check_merged_band_bound(bs, mass_factory(zero_q, MagneticConfig(a=0.0), 9))
    assert rep.passed_all
    counts = [r for r in rep.records if r.name.startswith("merged components")]
    assert counts and all(r.lhs <= 2 for r in counts)


def test_merged_band_bounds_simple_bands(two_step, structure_factory,
                                         mass_factory):
    cfg = MagneticConfig(a=0.9)
    bs = structure_factory(two_step, cfg, 8)
    rep = check_merged_band_bound(bs, mass_factory(two_step, cfg, 8))
    assert rep.passed_all
    counts = [r for r in rep.records if r.name.startswith("merged components")]
    assert all(r.lhs == 1 for r in counts)


def test_monotonicity_zero_potential_equalities(zero_q):
    grid = [math.pi / 3 + i * 0.05 for i in range(4)]
    rep = check_monotonicity(zero_q, grid, n_max=10)
    assert rep.passed_all
    # the potential-comparison rows are exact equalities at q = 0
    for r in rep.records:
        if r.name.startswith("h0(a)"):
            assert abs(r.slack) < 1e-9


def test_monotonicity_heights_strictly_increase(zero_q):
    grid = [math.pi / 3, math.pi / 3 + 0.1, math.pi / 2 - 0.05]
    rep = check_monotonicity(zero_q, grid, n_max=8)
    assert rep.passed_all
    rows = [r for r in rep.records
            if r.name == "h(a) <= h(a1)" and not r.skipped]
    open_rows = [r for r in rows if r.lhs > 0 or r.rhs > 0]
    assert open_rows and all(r.slack > 0 for r in open_rows)


def test_monotonicity_two_step_sweep(two_step):
    grid = [math.pi / 3 + i * (math.pi / 2 - 0.05 - math.pi / 3) / 2
            for i in range(3)]
    rep = check_monotonicity(two_step, grid, n_max=10)
    assert rep.passed_all, rep.failures[:5]


def test_monotonicity_rejects_out_of_range_phase(zero_q):
    with pytest.raises(ValueError):
        check_monotonicity(zero_q, [0.2], n_max=4)


def test_comb_comparison_identical_structures(two_step, structure_factory):
    bs = structure_factory(two_step, MagneticConfig(a=0.9), 8)
    rep = check_comb_comparison(bs, bs)
    assert rep.passed_all
    assert not rep.skipped


def test_comb_comparison_ordered_phases(zero_q, structure_factory):
    b1 = structure_factory(zero_q, MagneticConfig(a=math.pi / 3), 10)
    b2 = structure_factory(zero_q, MagneticConfig(a=0.45 * math.pi), 10)
    rep = check_comb_comparison(b1, b2)
    assert rep.passed_all
    assert not rep.skipped


def test_comb_comparison_potential_pair(zero_q, two_step, structure_factory):
    cfg = MagneticConfig(a=math.pi / 3)
    b1 = structure_factory(zero_q, cfg, 10)
    b2 = structure_factory(two_step, cfg, 10)
    rep = check_comb_comparison(b1, b2)
    assert rep.passed_all
    assert not rep.skipped


def test_comb_comparison_hypothesis_violation_skips(zero_q,
                                                    structure_factory):
    # reversed pair: heights of the first dominate, hypothesis fails
    b1 = structure_factory(zero_q, MagneticConfig(a=0.45 * math.pi), 10)
    b2 = structure_factory(zero_q, MagneticConfig(a=math.pi / 3), 10)
    rep = check_comb_comparison(b1, b2)
    assert rep.skipped
    assert "hypothesis" in rep.skipped[0].note
    assert not any(r.name.startswith("|band2|") for r in rep.records)


# ----------------------------------------------------------------------
# the columnar checks against the per-record loops they replaced
# ----------------------------------------------------------------------

def _verdict(rep) -> tuple:
    return (rep.passed_all, repr(rep.failures), repr(rep.worst_slack),
            rep.checked)


def _assert_as_reference(rep, ref):
    """rep equals the reference report bit for bit: its verdict (read
    from the columns before any record but a failing one is built, and
    again off the materialised tuple) and its records."""
    passed_all, failures, worst_slack, checked = reference_verdict(
        ref.records)
    verdict = (passed_all, repr(failures), repr(worst_slack), checked)
    assert _verdict(rep) == verdict
    assert _verdict(dataclasses.replace(rep, records=tuple(rep.records))) \
        == verdict
    assert (rep.kind, repr(rep.shift)) == (ref.kind, repr(ref.shift))
    assert repr(tuple(rep.records)) == repr(ref.records)


def _seeded_sectors():
    """(q, cfg) over the stated class: 1-6 pieces up to |v| = 150 and a
    64-piece projection, at generic c, c = 1 - 1e-9, 1/2, 1e-4 and a
    c_j < 0 phase; then the zero potential at c = 1 (even gaps closed)
    and at c = 1/2 (odd gaps closed, gap 1 among them)."""
    rng = random.Random("verifier/reference")
    out = []
    for i in range(30):
        vmax = math.exp(rng.uniform(0.0, math.log(150.0)))
        q = make_potential([(rng.uniform(0.2, 1.0), rng.uniform(-vmax, vmax))
                            for _ in range(1 + i % 6)])
        c = (rng.uniform(0.05, 0.95), 1.0 - 1e-9, 0.5, 1e-4,
             -rng.uniform(0.05, 0.95))[i % 5]
        out.append((q, MagneticConfig(a=math.acos(c))))
    proj = make_potential(lambda t: 40.0 * math.cos(2.0 * math.pi * t) + t,
                          mesh=64)
    out += [(proj, MagneticConfig(a=0.9)), (proj, MagneticConfig(a=2.5))]
    zero = make_potential("zero")
    return out + [(zero, MagneticConfig(a=0.0)),
                  (zero, MagneticConfig(a=math.acos(0.5)))]


def _seeded_structures():
    for q, cfg in _seeded_sectors():
        try:
            yield band_structure(q, cfg, 20)
        except (RootBracketError, PurePointRegimeError):
            continue


def test_gap_checks_match_the_reference_loops():
    seen = {"built": 0, "negative_c": 0, "degenerate": 0,
            "first_open_above_1": 0, "merged_failures": 0}
    for bs in _seeded_structures():
        mt = effective_masses(bs)
        rep = check_height_mass_gap(bs, mt)
        _assert_as_reference(rep, reference_height_mass_gap(bs, mt))
        merged = check_merged_band_bound(bs, mt)
        _assert_as_reference(merged, reference_merged_band_bound(bs, mt))
        seen["built"] += 1
        seen["negative_c"] += bs.cfg.c_j < 0
        seen["degenerate"] += any(bs.degenerate)
        seen["first_open_above_1"] += bs.degenerate[0]
        seen["merged_failures"] += not merged.passed_all
    # the set reaches every case it is meant to cover
    assert seen["built"] >= 20
    assert all(seen.values()), seen


def test_sweep_checks_match_the_reference_loops(zero_q, two_step,
                                                structure_factory):
    for q in (zero_q, two_step):
        grid = [math.pi / 3, 1.2, math.pi / 2 - 0.05]
        _assert_as_reference(check_monotonicity(q, grid, n_max=8),
                             reference_monotonicity(q, grid, n_max=8))
    _assert_as_reference(check_monotonicity(two_step, [1.3], 6, N=3, j=1),
                         reference_monotonicity(two_step, [1.3], 6, 3, 1))
    low = structure_factory(zero_q, MagneticConfig(a=math.pi / 3), 10)
    high = structure_factory(zero_q, MagneticConfig(a=0.45 * math.pi), 12)
    pairs = [(low, high), (high, low),  # the second skips its conclusions
             (low, structure_factory(two_step, MagneticConfig(a=math.pi / 3),
                                     10)),
             (structure_factory(two_step, MagneticConfig(a=2.0), 8),
              structure_factory(two_step, MagneticConfig(a=2.2), 8))]
    for bs1, bs2 in pairs:
        _assert_as_reference(check_comb_comparison(bs1, bs2),
                             reference_comb_comparison(bs1, bs2))
    assert check_comb_comparison(high, low).skipped


def _broken(bs, mt, zero_gap=None, negative_mass=None):
    """bs with both edges of one open gap at lambda0 (so that the loop
    divides by z+ + z- = 0), and mt with the mass mu+ of one gap of the
    wrong sign (a negative square root)."""
    if zero_gap is not None:
        i = zero_gap - 1
        edge = (bs.lambda0,)
        bs = dataclasses.replace(
            bs, minus=bs.minus[:i] + edge + bs.minus[i + 1:],
            plus=bs.plus[:i] + edge + bs.plus[i + 1:])
    if negative_mass is not None:
        i = negative_mass - 1
        mt = dataclasses.replace(
            mt, plus=mt.plus[:i] + (-abs(mt.plus[i]),) + mt.plus[i + 1:])
    return bs, mt


@pytest.mark.parametrize("zero_gap, negative_mass, error", [
    (None, 3, ValueError), (2, None, ZeroDivisionError),
    (2, 3, ZeroDivisionError), (3, 2, ValueError), (2, 2, ZeroDivisionError)])
def test_gap_check_raises_as_the_reference_loop(
        two_step, structure_factory, mass_factory, zero_gap, negative_mass,
        error):
    cfg = MagneticConfig(a=0.9)
    bs, mt = _broken(structure_factory(two_step, cfg, 8),
                     mass_factory(two_step, cfg, 8), zero_gap, negative_mass)
    raised = []
    for check in (check_height_mass_gap, reference_height_mass_gap):
        with pytest.raises(error) as info:
            check(bs, mt)
        raised.append(str(info.value))
    assert raised[0] == raised[1]


def test_records_are_built_only_when_read(two_step, structure_factory,
                                          mass_factory, monkeypatch):
    built = []
    record = verifier.CheckRecord
    monkeypatch.setattr(verifier, "CheckRecord",
                        lambda *args: built.append(args[:2]) or record(*args))
    for a, failing in ((0.9, 0), (math.acos(1e-4), 2)):
        cfg = MagneticConfig(a=a)
        bs = structure_factory(two_step, cfg, 20)
        mt = mass_factory(two_step, cfg, 20)
        rep = check_merged_band_bound(bs, mt)
        assert len(rep.records) == 3 * len(bs.merged_intervals())
        assert rep.passed_all is (failing == 0)
        assert rep.checked == len(rep.records)
        assert math.isfinite(rep.worst_slack)
        assert built == []
        # failures reads the records only where one fails, and then
        # builds them all, once
        assert len(rep.failures) == failing
        assert len(built) == (len(rep.records) if failing else 0)
        built.clear()
    assert rep.records[2] is rep.records[2] and rep.failures and built == []


def test_records_view_reads_as_its_tuple(two_step, structure_factory,
                                         mass_factory):
    cfg = MagneticConfig(a=0.9)
    bs = structure_factory(two_step, cfg, 20)
    rep = check_height_mass_gap(bs, mass_factory(two_step, cfg, 20))
    records = rep.records
    assert type(records[1:]) is tuple and type(records[:]) is tuple
    assert records[-1] == records[len(records) - 1]
    whole = dataclasses.replace(rep, records=tuple(records))
    assert whole == rep and rep == whole
    assert hash(whole) == hash(rep) and repr(whole) == repr(rep)
    assert check_height_mass_gap(bs, mass_factory(two_step, cfg, 20)) == rep
    assert pickle.loads(pickle.dumps(rep)) == whole
    with pytest.raises(IndexError):
        records[len(records)]
    # a report rebuilt from a tuple reads its verdict from that tuple
    broken = dataclasses.replace(records[0], passed=False)
    bad = dataclasses.replace(rep, records=(broken,) + records[1:])
    assert not bad.passed_all and bad.failures == (broken,)
    assert rep.passed_all
