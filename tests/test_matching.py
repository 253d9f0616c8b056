from fractions import Fraction
from itertools import product

import pytest

from aflcalc import matching
from aflcalc.cli import COMMANDS, parse_ram, parse_range
from aflcalc.deformation import ramification_index
from aflcalc.field import MINUS, PLUS, FieldSetup, ValClass
from aflcalc.germs import extract_germ, function_from_germ, validity_threshold
from aflcalc.matching import (EntryHeights, MatchContext, MatchingError, afl_verify,
                              ati_end_to_end, ati_growth_check, context_orbit,
                              derived_diag_height, entry_heights,
                              intersection_length, prescribed_transfer_germ)
from aflcalc.orbital import OrbitData, orbits_at, transfer_factor, unramified_orbit

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
        moved = g.along_orbit(lam)
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
        ctx = MatchContext(UNRAM3, 2, 2, e_f=ramification_index(UNRAM3, 2))
        _perturb_int(monkeypatch, -1, lambda h: h.off_diag == 11 and h.diag_1 is not None)
        report = ati_growth_check(ctx, range(4, 20), finite_lvl_a=1)
        assert not report.passed
        assert report.open_constants  # the open regime is untouched
        assert [r.int_value for r in report.saturated_rows] == [5, 5, 5, 4, 5, 5, 5, 5]

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
