import json
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from aflcalc import matching
from aflcalc.cli import COMMANDS, parse_ram, parse_range
from aflcalc.deformation import ramification_index
from aflcalc.field import MINUS, PLUS, FieldSetup, ValClass
from aflcalc.germs import extract_germ, function_from_germ, validity_threshold
from aflcalc.matching import (EntryHeights, GrowthReport, GrowthRow, MatchContext,
                              MatchingError, afl_verify, ati_end_to_end, ati_growth_check,
                              context_orbit, derived_diag_height, entry_heights,
                              intersection_length, prescribed_transfer_germ)
from aflcalc.orbital import OrbitData, d_orb, orbits_at, transfer_factor, unramified_orbit
from laws import along_orbit

UNRAM3 = FieldSetup(3, ramified=False)
RAM3 = FieldSetup(3, ramified=True)


class TestMatchSide:
    def test_unramified_odd_defect(self):
        assert unramified_orbit(UNRAM3, 1, 0).defect_sign == MINUS

    def test_unramified_even_defect(self):
        assert unramified_orbit(UNRAM3, 4, 0).defect_sign == PLUS

    def test_ramified_sign_criterion(self):
        g = OrbitData(setup=RAM3, t=0, v_b2=0, b_sign=PLUS, defect_sign=MINUS)
        assert g.defect_sign == MINUS


class TestContextLocus:
    def test_level_zero_unramified(self):
        ctx = MatchContext(UNRAM3, 0, 0, e_f=1)
        assert unramified_orbit(UNRAM3, 1, 0).defect_sign == ctx.defect_sign
        assert unramified_orbit(UNRAM3, 2, 0).defect_sign != ctx.defect_sign

    def test_odd_level_sum_swaps_side(self):
        ctx = MatchContext(UNRAM3, 0, 1, e_f=ramification_index(UNRAM3, 1))
        assert ctx.defect_sign == PLUS
        assert unramified_orbit(UNRAM3, 2, 0).defect_sign == ctx.defect_sign

    def test_unramified_context_orbit_rejects_what_no_orbit_has(self):
        ctx = MatchContext(UNRAM3, 0, 0, e_f=1)
        assert context_orbit(ctx, 3, v_b2=2) == unramified_orbit(UNRAM3, 3, 1)
        with pytest.raises(MatchingError):
            context_orbit(ctx, 2)  # even t has the other defect sign
        with pytest.raises(MatchingError):
            context_orbit(ctx, 3, v_b2=1)  # no half-integral v(b)

    @pytest.mark.parametrize("setup", [UNRAM3, RAM3])
    @pytest.mark.parametrize("i,j", [(0, 0), (0, 1), (1, 1)])
    def test_context_orbit_is_the_orbits_at_member_in_the_locus(self, setup, i, j):
        ctx = MatchContext(setup, i, j, e_f=ramification_index(setup, max(i, j)))
        for t in range(0, 6):
            for v_b2 in range(-3, 4):
                members = [g for g in orbits_at(setup, t, v_b2) if g.defect_sign == ctx.defect_sign]
                if not members:
                    with pytest.raises(MatchingError):
                        context_orbit(ctx, t, v_b2=v_b2)
                    continue
                assert context_orbit(ctx, t, v_b2=v_b2) == members[0]

    def test_contexts_sharing_a_defect_sign_share_one_orbit(self):
        # an orbit is fixed by its invariants, so every e_rel and every (i, j)
        # of one setup and defect sign is handed the same cached orbit
        matching._locus_orbit.cache_clear()
        contexts = [MatchContext(RAM3, i, j, e_f=e_rel * ramification_index(RAM3, max(i, j)))
                    for i, j, e_rel in product(range(3), range(3), (1, 2))]
        assert {ctx.defect_sign for ctx in contexts} == {MINUS}
        first = context_orbit(contexts[0], 5, v_b2=1, lvl_a=0)
        assert all(context_orbit(ctx, 5, v_b2=1, lvl_a=0) is first for ctx in contexts)
        assert matching._locus_orbit.cache_info().currsize == 1
        assert matching._locus_orbit.cache_info().maxsize is not None

    def test_cached_orbit_refuses_a_bool(self):
        # True == 1: a cache that did not tell them apart would hand back
        # the orbit built at t = 1 where OrbitData refuses the bool
        ctx = MatchContext(UNRAM3, 0, 0, e_f=1)
        assert context_orbit(ctx, 1).t == 1
        with pytest.raises(TypeError):
            context_orbit(ctx, True)
        with pytest.raises(TypeError):
            context_orbit(ctx, 1, lvl_a=False)

    def test_ramified_always_u1(self):
        ctx = MatchContext(RAM3, 0, 1, e_f=ramification_index(RAM3, 1))
        assert ctx.defect_sign == MINUS

    def test_ef_divisibility_enforced(self):
        with pytest.raises(ValueError):
            MatchContext(RAM3, 1, 1, e_f=3)  # class-field index is 6


class TestEntryHeights:
    def test_units_deform_freely(self):
        ctx = MatchContext(UNRAM3, 0, 0, e_f=1)
        h = entry_heights(unramified_orbit(UNRAM3, 5, 0), ctx)
        assert h == EntryHeights(off_diag=5, diag_1=None, diag_4=None)

    def test_level_reached_means_infinite(self):
        ctx = MatchContext(UNRAM3, 2, 2, e_f=ramification_index(UNRAM3, 2))
        g = unramified_orbit(UNRAM3, 5, 0, lvl_a=3, lvl_d=2)
        h = entry_heights(g, ctx)
        assert h.diag_1 is None and h.diag_4 is None

    def test_derived_default(self):
        ctx = MatchContext(RAM3, 2, 2, e_f=ramification_index(RAM3, 2))
        g = context_orbit(ctx, t=4, lvl_a=1)
        assert entry_heights(g, ctx).diag_1 == derived_diag_height(RAM3, 1) == 3

    def test_wrong_side_rejected(self):
        ctx = MatchContext(UNRAM3, 0, 0, e_f=1)
        with pytest.raises(MatchingError):
            entry_heights(unramified_orbit(UNRAM3, 2, 0), ctx)


class TestIntersectionLength:
    def test_level_zero_closed_form(self):
        ctx = MatchContext(UNRAM3, 0, 0, e_f=1)
        h = entry_heights(unramified_orbit(UNRAM3, 5, 0), ctx)
        assert intersection_length(h, ctx) == 3

    def test_ramified_equal_levels(self):
        ctx = MatchContext(RAM3, 1, 1, e_f=6)
        h = entry_heights(context_orbit(ctx, t=4), ctx)
        assert intersection_length(h, ctx) == 11

    def test_min_with_diagonal_bound(self):
        ctx = MatchContext(UNRAM3, 2, 2, e_f=ramification_index(UNRAM3, 2))
        h = EntryHeights(off_diag=13, diag_1=2, diag_4=None)
        off_only = EntryHeights(off_diag=13, diag_1=None, diag_4=None)
        assert intersection_length(off_only, ctx) == 68
        assert intersection_length(h, ctx) == 5  # diagonal bound wins the minimum

    def test_unattainable_diagonal_height_rejected(self):
        ctx = MatchContext(UNRAM3, 2, 2, e_f=ramification_index(UNRAM3, 2))
        with pytest.raises(MatchingError):
            intersection_length(EntryHeights(5, diag_1=3, diag_4=None), ctx)

    def test_invariance_along_orbit(self):
        ctx = MatchContext(UNRAM3, 1, 1, e_f=ramification_index(UNRAM3, 1))
        g = context_orbit(ctx, t=5)
        lam = ValClass(2, MINUS)
        moved = along_orbit(g, lam)
        assert moved.defect_sign == g.defect_sign
        assert intersection_length(entry_heights(moved, ctx), ctx) == \
            intersection_length(entry_heights(g, ctx), ctx)

    def test_monotone_under_entry_decrease(self):
        ctx = MatchContext(RAM3, 2, 2, e_f=ramification_index(RAM3, 2))
        base = intersection_length(EntryHeights(7, diag_1=3, diag_4=None), ctx)
        assert intersection_length(EntryHeights(5, diag_1=3, diag_4=None), ctx) <= base
        assert intersection_length(EntryHeights(7, diag_1=1, diag_4=None), ctx) <= base


class TestAflVerify:
    @pytest.mark.parametrize("q,t,v_b,want_log", [(3, 1, 0, 1), (5, 3, 2, 2), (7, 5, -1, 3)])
    def test_identity_rows(self, q, t, v_b, want_log):
        row = afl_verify(FieldSetup(q, False), t, v_b)
        assert row.passed
        assert row.lhs == want_log
        assert row.int_value == (1 + t) // 2

    def test_even_defect_transfer_value(self):
        row = afl_verify(UNRAM3, 2, 0)
        assert row.passed and row.transfer_value == 1

    def test_odd_defect_plain_integral_vanishes(self):
        assert afl_verify(UNRAM3, 7, 3).orb_value == 0

    def test_ramified_setup_rejected(self):
        with pytest.raises(ValueError):
            afl_verify(RAM3, 1, 0)


class TestGrowth:
    def test_level_zero_residual(self):
        ctx = MatchContext(UNRAM3, 0, 0, e_f=1)
        report = ati_growth_check(ctx, range(1, 22))
        assert report.passed
        assert report.open_constants == {1: Fraction(1, 2)}

    def test_ramified_equal_levels_residual(self):
        ctx = MatchContext(RAM3, 1, 1, e_f=6)
        report = ati_growth_check(ctx, range(2, 16))
        assert report.passed
        # Int(4) = 11, Int(6) = 17: doubled residual 2*Int - 6t = -2
        assert all(2 * c == -2 for c in report.open_constants.values())

    def test_saturation_in_finite_regime(self):
        ctx = MatchContext(UNRAM3, 2, 2, e_f=ramification_index(UNRAM3, 2))
        report = ati_growth_check(ctx, range(4, 20), finite_lvl_a=1)
        assert report.passed
        tail = report.saturated_rows[-3:]
        assert {row.int_value for row in tail} == {report.saturation_value}

    @pytest.mark.parametrize("finite_lvl_a", [None, 1])
    def test_no_t_past_the_levels_fails_without_rows(self, finite_lvl_a):
        ctx = MatchContext(UNRAM3, 2, 2, e_f=ramification_index(UNRAM3, 2))
        report = ati_growth_check(ctx, range(0, 2), finite_lvl_a=finite_lvl_a)
        assert not report.passed
        assert not report.open_rows and not report.saturated_rows
        assert report.saturation_value is None

    def test_negative_finite_level_rejected(self):
        ctx = MatchContext(UNRAM3, 2, 2, e_f=ramification_index(UNRAM3, 2))
        with pytest.raises(ValueError, match="conductor levels"):
            ati_growth_check(ctx, range(4, 12), finite_lvl_a=-1)

    def test_bools_rejected(self):
        # the checks an orbit makes on t and on its level
        ctx = MatchContext(UNRAM3, 0, 0, e_f=1)
        with pytest.raises(TypeError):
            ati_growth_check(ctx, [True, 3])
        ctx = MatchContext(UNRAM3, 2, 2, e_f=ramification_index(UNRAM3, 2))
        with pytest.raises(TypeError):
            ati_growth_check(ctx, range(4, 12), finite_lvl_a=True)


def _growth_the_old_way(ctx, ts, finite_lvl_a=None):
    """ati_growth_check built the way it was before it read Int from heights:
    an orbit of the context per row, its entry heights, then Int."""
    ts = [t for t in ts if t >= ctx.i + ctx.j and ctx.defect_sign in ctx.setup.signs(2 * t)]
    if not ts:
        return GrowthReport({}, {}, (), None, False)

    def int_at(t, lvl_a=None):
        return intersection_length(entry_heights(context_orbit(ctx, t, lvl_a=lvl_a), ctx), ctx)

    open_rows = {}
    for t in ts:
        value = int_at(t)
        open_rows.setdefault(t % 2, []).append(
            GrowthRow(t, value, value - Fraction(ctx.e_f * t, 2)))
    open_constants = {p: rows[0].residual for p, rows in open_rows.items()
                      if len({row.residual for row in rows}) == 1}
    passed = len(open_constants) == len(open_rows)
    saturated, saturation = (), None
    if finite_lvl_a is not None:
        saturated = tuple(GrowthRow(t, value, Fraction(value))
                          for t in ts for value in (int_at(t, finite_lvl_a),))
        saturation = int_at(max(ts), finite_lvl_a)
        values = [row.int_value for row in saturated]
        plateau = values[values.index(saturation):]
        passed = passed and set(plateau) == {saturation}
    return GrowthReport({p: tuple(rows) for p, rows in open_rows.items()}, open_constants,
                        saturated, saturation, passed)


@st.composite
def growth_cases(draw):
    """A context with q in 2..7, levels up to 3 and e_rel up to 3, a set of
    t in 0..40 in any order, and a finite level below i or none."""
    setup = FieldSetup(draw(st.integers(2, 7)), draw(st.booleans()))
    i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    e_f = draw(st.integers(1, 3)) * ramification_index(setup, max(i, j))
    ts = draw(st.lists(st.integers(0, 40), unique=True))
    finite_lvl_a = draw(st.none() | st.integers(0, i - 1)) if i else None
    return MatchContext(setup, i, j, e_f), ts, finite_lvl_a


class TestGrowthFromHeights:
    @given(growth_cases())
    def test_equals_the_orbit_route(self, case):
        ctx, ts, finite_lvl_a = case
        report = ati_growth_check(ctx, ts, finite_lvl_a)
        oracle = _growth_the_old_way(ctx, ts, finite_lvl_a)
        assert report == oracle
        assert json.dumps(report.to_json()) == json.dumps(oracle.to_json())

    def test_builds_no_orbit(self, monkeypatch):
        # with the orbit cache empty, a row that took its orbit from
        # context_orbit would show as a build
        matching._locus_orbit.cache_clear()
        built = []
        plain = OrbitData.__new__

        def counting(cls, *args, **kwargs):
            built.append((args, kwargs))
            return plain(cls, *args, **kwargs)
        monkeypatch.setattr(OrbitData, "__new__", staticmethod(counting))
        for ctx, finite_lvl_a in ((MatchContext(UNRAM3, 0, 0, e_f=1), None),
                                  (MatchContext(RAM3, 1, 1, e_f=6), 0),
                                  (MatchContext(UNRAM3, 2, 2, e_f=12), 1)):
            report = ati_growth_check(ctx, range(0, 30), finite_lvl_a)
            assert report.passed and report.open_rows
            assert bool(report.saturated_rows) == (finite_lvl_a is not None)
        assert built == []


    @pytest.mark.parametrize("ctx,finite_lvl_a", [(MatchContext(UNRAM3, 2, 2, e_f=12), 1),
                                                  (MatchContext(RAM3, 2, 1, e_f=18), 0),
                                                  (MatchContext(RAM3, 3, 0, e_f=54), 2)])
    def test_finite_regime_adds_one_lift_bound(self, ctx, finite_lvl_a, monkeypatch):
        # its Int is the open regime's capped by one diagonal bound, which
        # does not depend on t: one Int per t and one lift bound beyond them
        calls = {"intersection_length": 0, "lift_bound": 0}
        for name in calls:
            real = getattr(matching, name)

            def counting(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(matching, name, counting)
        counts = []
        for lvl in (None, finite_lvl_a):
            calls.update(dict.fromkeys(calls, 0))
            report = ati_growth_check(ctx, range(0, 30), lvl)
            assert report.passed
            counts.append(dict(calls))
        n_ts = sum(map(len, report.open_rows.values()))
        assert len(report.saturated_rows) == n_ts > 1
        assert counts == [{"intersection_length": n_ts, "lift_bound": n_ts},
                          {"intersection_length": n_ts, "lift_bound": n_ts + 1}]


class TestEndToEnd:
    @pytest.mark.parametrize("i,j,witness", [(0, 0, Fraction(-1, 2)),
                                             (0, 1, Fraction(-1)),
                                             (1, 1, Fraction(0))])
    def test_unramified_witnesses_q3(self, i, j, witness):
        ctx = MatchContext(UNRAM3, i, j, e_f=ramification_index(UNRAM3, max(i, j)))
        report = ati_end_to_end(ctx)
        assert report.passed
        assert report.witnesses == {0: witness}

    def test_ramified_per_class_constants(self):
        ctx = MatchContext(RAM3, 1, 1, e_f=6)
        report = ati_end_to_end(ctx)
        assert report.passed
        assert set(report.witnesses) == {0, 1}

    def test_outside_support_saturates(self):
        ctx = MatchContext(UNRAM3, 1, 1, e_f=ramification_index(UNRAM3, 1))
        report = ati_end_to_end(ctx)
        assert report.outside_witness is not None
        assert all(row.analytic == 0 for row in report.outside_rows)

    @pytest.mark.parametrize("setup", [UNRAM3, RAM3])
    @pytest.mark.parametrize("i,j", [(1, 0), (1, 1), (2, 1)])
    def test_correction_is_the_residual_difference(self, setup, i, j):
        # so constant residuals imply a constant correction, and steady()
        # tests only the two residuals
        ctx = MatchContext(setup, i, j, e_f=ramification_index(setup, max(i, j)))
        report = ati_end_to_end(ctx)
        rows = [r for group in report.rows.values() for r in group] + list(report.outside_rows)
        assert report.outside_rows and len(rows) > len(report.outside_rows)
        assert all(r.correction == r.analytic_residual - r.geometric_residual for r in rows)

    def test_threshold_needs_no_germ_extraction(self):
        # ati_end_to_end reads validity_threshold(f) where it once extracted
        # the whole germ: the two agree, and both are >= 1, on the ati default grid
        ranges = COMMANDS["ati"][1]
        q, i, j, e = (parse_range(ranges[flag]) for flag in ("q", "i", "j", "e"))
        for q_, ram, i_, j_, e_rel in product(q, parse_ram(ranges["ram"]), i, j, e):
            setup = FieldSetup(q_, ram)
            ctx = MatchContext(setup, i_, j_, e_f=e_rel * ramification_index(setup, max(i_, j_)))
            f = function_from_germ(prescribed_transfer_germ(ctx))
            assert extract_germ(setup, f).threshold == validity_threshold(f) >= 1

    def test_prescribed_germ_sign_flips_with_side(self):
        even_ctx = MatchContext(UNRAM3, 1, 1, e_f=ramification_index(UNRAM3, 1))
        odd_ctx = MatchContext(UNRAM3, 0, 1, e_f=ramification_index(UNRAM3, 1))
        g_even = prescribed_transfer_germ(even_ctx)
        g_odd = prescribed_transfer_germ(odd_ctx)
        a0_even = g_even.eval_side(0, 1, 1, 0).eval_at_s0()
        a0_odd = g_odd.eval_side(0, 1, 1, 0).eval_at_s0()
        assert a0_even == Fraction(even_ctx.e_f, 2)
        assert a0_odd == -Fraction(odd_ctx.e_f, 2)


class TestEndToEndCost:
    def test_int_once_per_height(self, monkeypatch):
        # Int depends on an orbit of the context only through its heights, so
        # the three v(b) per t and both valuation classes share one value
        ctx = MatchContext(RAM3, 1, 1, e_f=6)
        calls = []
        real = matching.intersection_length

        def counting(heights, ctx):
            calls.append(heights)
            return real(heights, ctx)
        monkeypatch.setattr(matching, "intersection_length", counting)
        report = ati_end_to_end(ctx)
        assert report.passed and report.outside_rows
        assert set(report.rows) == {0, 1}
        assert len(calls) <= 2 * matching.T_COUNT

    def test_one_offset_per_t(self, monkeypatch):
        # each e_F * t / 2 is built once, not once per v(b) and class, and the
        # outside rows share one zero offset
        built = []

        def counting(*args):
            built.append(args)
            return Fraction(*args)
        monkeypatch.setattr(matching, "Fraction", counting)
        ctx = MatchContext(RAM3, 1, 1, e_f=6)
        report = ati_end_to_end(ctx)
        assert report.passed and report.outside_rows
        ts = sorted({row.t for group in report.rows.values() for row in group})
        assert len(ts) == matching.T_COUNT
        assert sorted(built) == sorted([(ctx.e_f * t, 2) for t in ts] + [(0,)])

    @pytest.mark.parametrize("ctx", [MatchContext(RAM3, 1, 1, e_f=6),
                                     MatchContext(UNRAM3, 2, 1, e_f=24)])
    def test_one_d_orb_per_distinct_orbit(self, ctx, monkeypatch):
        # the v(b) sample repeats an orbit at some t; its row is computed
        # once, reported at each place, and equal to a rebuild without memos
        matching._locus_orbit.cache_clear()
        calls = []
        real = matching.d_orb

        def counting(gamma, f):
            calls.append(gamma)
            return real(gamma, f)
        monkeypatch.setattr(matching, "d_orb", counting)
        report = ati_end_to_end(ctx)
        assert report.passed and report.outside_rows
        reported = [(r.t, r.v_b2) for group in report.rows.values() for r in group]
        assert len(set(reported)) < len(reported)  # some orbit repeats
        assert len(calls) == len(set(calls)) == len(set(reported)) + len(report.outside_rows)
        assert report == _end_to_end_the_old_way(ctx)

    def test_constant(self):
        assert matching._constant([]) is None
        assert matching._constant(iter(())) is None
        assert matching._constant([3, Fraction(3)]) == 3
        assert matching._constant([Fraction(1, 2)] * 3) == Fraction(1, 2)
        assert matching._constant([Fraction(1, 2), Fraction(1, 2), Fraction(3, 2)]) is None
        assert matching._constant([Fraction(-1), 1]) is None


def _end_to_end_the_old_way(ctx):
    """ati_end_to_end's report built row by row with no memo: a fresh orbit,
    dOrb and Int for every place the v(b) sample puts a row."""
    f = function_from_germ(prescribed_transfer_germ(ctx))
    threshold = max(validity_threshold(f), ctx.i + ctx.j)
    ts = [t for t in range(threshold, threshold + 2 * matching.T_COUNT)
          if ctx.defect_sign in ctx.setup.signs(2 * t)][:matching.T_COUNT]

    def row(t, v_b2, lvl_a, offset):
        b_sign = ctx.setup.signs(v_b2)[0]
        gamma = OrbitData(ctx.setup, t, v_b2, b_sign, ctx.defect_sign, lvl_a=lvl_a)
        analytic = transfer_factor(gamma) * d_orb(gamma, f)
        int_value = intersection_length(entry_heights(gamma, ctx), ctx)
        return matching.EndToEndRow(t, v_b2, analytic, int_value, analytic - offset,
                                    int_value - offset, analytic - int_value)

    def steady(group):
        return (len({r.analytic_residual for r in group}) == 1
                and len({r.geometric_residual for r in group}) == 1)

    rows = {cls: tuple(row(t, v_b2, None, Fraction(ctx.e_f * t, 2)) for t in ts
                       for v_b2 in (2 * ((t // 2) % 3) - 2 + cls, cls, 4 + cls))
            for cls in ctx.setup.classes}
    witnesses = {cls: group[0].correction for cls, group in rows.items()
                 if len({r.correction for r in group}) == 1}
    passed = all(steady(group) for group in rows.values())
    outside, outside_witness = (), None
    if ctx.i >= 1:
        outside = tuple(row(t, 0, ctx.i - 1, Fraction(0)) for t in ts)
        if steady(outside) and all(r.analytic == 0 for r in outside):
            outside_witness = outside[0].correction
        else:
            passed = False
    return matching.EndToEndReport(rows, witnesses, outside, outside_witness, threshold, passed)


def _perturb_int(monkeypatch, delta, at):
    """Shift Int by delta wherever at(heights) holds."""
    real = matching.intersection_length
    monkeypatch.setattr(matching, "intersection_length",
                        lambda heights, ctx: real(heights, ctx) + (delta if at(heights) else 0))


def _perturb_analytic(monkeypatch, delta, at):
    """Shift omega * dOrb(f) by delta * log q wherever at(gamma) holds."""
    real = matching.d_orb

    def d_orb(gamma, f):
        shift = delta * transfer_factor(gamma) if at(gamma) else 0
        return real(gamma, f) + shift  # omega = +-1, so omega * shift = delta * log q
    monkeypatch.setattr(matching, "d_orb", d_orb)


class TestVerdictFailures:
    """One perturbed value must fail the check that watches it."""

    def test_non_constant_open_residual(self, monkeypatch):
        ctx = MatchContext(UNRAM3, 0, 0, e_f=1)
        _perturb_int(monkeypatch, 1, lambda h: h.off_diag == 5)
        report = ati_growth_check(ctx, range(1, 22))
        assert not report.passed
        assert report.open_constants == {}

    def test_leaving_the_plateau(self, monkeypatch):
        # the finite regime reads Int as the open regime's capped by the
        # diagonal bound 5, so the dip comes through the open Int at t = 11
        ctx = MatchContext(UNRAM3, 2, 2, e_f=ramification_index(UNRAM3, 2))
        open_11 = intersection_length(EntryHeights(11, None, None), ctx)
        _perturb_int(monkeypatch, 4 - open_11, lambda h: h.off_diag == 11)
        report = ati_growth_check(ctx, range(4, 20), finite_lvl_a=1)
        assert not report.passed
        # every t kept is odd here, so the one open parity loses its constant
        assert set(report.open_rows) == {1} and report.open_constants == {}
        assert [r.int_value for r in report.saturated_rows] == [5, 5, 5, 4, 5, 5, 5, 5]

    def test_leaving_the_plateau_on_two_open_lines(self, monkeypatch):
        # the odd line moves down as a whole, below the diagonal bound 8 at
        # t = 5: each parity keeps its open constant, so the plateau rule
        # alone fails the report
        ctx = MatchContext(RAM3, 2, 2, e_f=ramification_index(RAM3, 2))
        _perturb_int(monkeypatch, -19, lambda h: h.off_diag % 2 == 1)
        report = ati_growth_check(ctx, range(4, 10), finite_lvl_a=1)
        assert not report.passed
        assert report.open_constants == {0: Fraction(-19), 1: Fraction(-38)}
        assert [r.int_value for r in report.saturated_rows] == [8, 7, 8, 8, 8, 8]
        assert report.saturation_value == 8

    def _inside_t(self, ctx):
        rows = ati_end_to_end(ctx).rows[0]
        return rows[len(rows) // 2].t

    def test_varying_analytic_residual(self, monkeypatch):
        ctx = MatchContext(UNRAM3, 0, 0, e_f=1)
        t0 = self._inside_t(ctx)
        _perturb_analytic(monkeypatch, 1, lambda g: g.t == t0)
        report = ati_end_to_end(ctx)
        assert not report.passed
        assert len({r.analytic_residual for r in report.rows[0]}) == 2
        assert len({r.geometric_residual for r in report.rows[0]}) == 1

    def test_varying_geometric_residual(self, monkeypatch):
        ctx = MatchContext(UNRAM3, 0, 0, e_f=1)
        t0 = self._inside_t(ctx)
        _perturb_int(monkeypatch, 1, lambda h: h.off_diag == t0)
        report = ati_end_to_end(ctx)
        assert not report.passed
        assert len({r.analytic_residual for r in report.rows[0]}) == 1
        assert len({r.geometric_residual for r in report.rows[0]}) == 2

    def test_witness_survives_varying_residuals(self, monkeypatch):
        ctx = MatchContext(UNRAM3, 0, 0, e_f=1)
        t0 = self._inside_t(ctx)
        _perturb_analytic(monkeypatch, 1, lambda g: g.t == t0)
        _perturb_int(monkeypatch, 1, lambda h: h.off_diag == t0)
        report = ati_end_to_end(ctx)
        assert not report.passed  # both residuals vary at t0
        assert report.witnesses == {0: Fraction(-1, 2)}  # the correction does not

    def test_nonzero_outside_analytic(self, monkeypatch):
        ctx = MatchContext(UNRAM3, 1, 1, e_f=ramification_index(UNRAM3, 1))
        # a constant shift on every outside orbit keeps the correction and Int constant
        _perturb_analytic(monkeypatch, 1, lambda g: g.lvl_a is not None)
        report = ati_end_to_end(ctx)
        assert {r.analytic for r in report.outside_rows} == {1}
        assert len({r.correction for r in report.outside_rows}) == 1
        assert not report.passed
        assert report.outside_witness is None
        assert report.witnesses == {0: Fraction(0)}  # the support rows are untouched


class TestCrossModuleOracles:
    @pytest.mark.parametrize("ram,q,i,j,e_rel", [
        (False, 3, 0, 0, 1), (False, 3, 1, 2, 2), (False, 2, 0, 3, 1),
        (True, 3, 0, 0, 1), (True, 2, 2, 2, 2), (True, 3, 1, 3, 1),
    ])
    def test_growth_constant_closed_form(self, ram, q, i, j, e_rel):
        # independent formula for the open-regime residual, expanded by hand
        # from the large-height lift bound:
        #   Int - e_F t/2 = e_rel (2 a(max-1) - a(d-1)) - e_F (i+j-1)/2
        from aflcalc.deformation import geometric_sum
        setup = FieldSetup(q, ram)
        e_f = e_rel * ramification_index(setup, max(i, j))
        ctx = MatchContext(setup, i, j, e_f=e_f)
        report = ati_growth_check(ctx, range(i + j, i + j + 12))
        want = Fraction(e_rel * (2 * geometric_sum(max(i, j) - 1, q)
                                 - geometric_sum(abs(i - j) - 1, q))) \
            - Fraction(e_f * (i + j - 1), 2)
        assert report.passed
        assert set(report.open_constants.values()) == {want}

    @pytest.mark.parametrize("i,j", [(0, 0), (0, 1), (1, 1), (1, 2)])
    def test_transfer_function_leading_term(self, i, j):
        # the reconstructed transfer function has no lower-order germ, so the
        # weighted derivative integral is exactly (e_F/2) t on the support
        from aflcalc.orbital import d_orb, transfer_factor
        setup = UNRAM3
        ctx = MatchContext(setup, i, j, e_f=ramification_index(setup, max(i, j)))
        f = function_from_germ(prescribed_transfer_germ(ctx))
        for t in range(i + j + 1, i + j + 10):
            try:
                gamma = context_orbit(ctx, t, lvl_a=i, lvl_d=j)
            except MatchingError:
                continue
            lhs = transfer_factor(gamma) * d_orb(gamma, f)
            assert lhs == Fraction(ctx.e_f * t, 2)
