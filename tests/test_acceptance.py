"""Acceptance sweeps: one test per criterion, every comparison exact.

Each test prints a single PASS line once its sweep finishes; a failed
assertion prints nothing, so the printed lines double as a checklist under
pytest -s / the captured output."""

import time
from fractions import Fraction

from aflcalc.battery import germ_battery
from aflcalc.deformation import (hom_height_attainable, lift_bound, lift_bound_recursive,
                                 ramification_index)
from aflcalc.field import MINUS, PLUS, FieldSetup, ValClass
from aflcalc.germs import extract_germ, function_from_germ
from aflcalc.matching import (MatchContext, afl_verify, ati_end_to_end,
                              ati_growth_check)
from aflcalc.orbital import (Box, Interval, InvariantFunction, OrbitData,
                             clear_diagonal, d_orb, integral_indicator, orb, orb_s,
                             unit_diag_indicator, unramified_orbit)
from laws import zero_orbit_battery, zero_orbit_zero_germ

UNRAM3 = FieldSetup(3, ramified=False)
SETUPS = (UNRAM3, FieldSetup(3, ramified=True), FieldSetup(3, ramified=True, eta_pi_f=MINUS))


def battery_orbits(setup, t_lo, t_hi, vb2_range, lvls=((None, None), (1, 0))):
    out = []
    for t in range(t_lo, t_hi + 1):
        for vb2 in vb2_range:
            for lvl_a, lvl_d in lvls:
                if setup.ramified:
                    for bs in (PLUS, MINUS):
                        for ds in (PLUS, MINUS):
                            out.append(OrbitData(setup=setup, t=t, v_b2=vb2, b_sign=bs,
                                                 defect_sign=ds, lvl_a=lvl_a, lvl_d=lvl_d))
                elif vb2 % 2 == 0:
                    out.append(unramified_orbit(setup, t, vb2 // 2, lvl_a=lvl_a, lvl_d=lvl_d))
    return out


def test_criterion_1_afl_identity():
    started = time.monotonic()
    rows = 0
    for q in (3, 5, 7):
        setup = FieldSetup(q, ramified=False)
        for t in range(1, 22, 2):
            for v_b in range(-8, 9):
                row = afl_verify(setup, t, v_b)
                assert row.passed
                assert row.lhs == Fraction(1 + t, 2)
                assert row.lhs == row.int_value
                rows += 1
    elapsed = time.monotonic() - started
    assert rows == 3 * 11 * 17
    assert elapsed < 1.0
    print(f"criterion 1 (identity, {rows} orbits, {elapsed:.2f}s): PASS")


def test_criterion_2_transfer_statement():
    f = integral_indicator()
    for q in (3, 5, 7):
        setup = FieldSetup(q, ramified=False)
        for v_b in range(-8, 9):
            for t in range(0, 21, 2):
                gamma = unramified_orbit(setup, t, v_b)
                assert gamma.c_sign * orb(gamma, f) == 1
            for t in range(1, 22, 2):
                assert orb(unramified_orbit(setup, t, v_b), f) == 0
    # off-support control: a window the orbit's diagonal entries miss
    shifted = InvariantFunction.from_box(Box(
        i_a=Interval(2, None), i_b=Interval(0, None), i_c=Interval(0, None),
        i_d=Interval(0, None)))
    assert orb(unramified_orbit(UNRAM3, 2, 0), shifted) == 0
    print("criterion 2 (transfer statement at s = 0): PASS")


def test_criterion_3_closed_form_vs_recursion():
    started = time.monotonic()
    checked = 0
    rejected = 0
    for ram in (False, True):
        for q in (2, 3, 4, 5):
            setup = FieldSetup(q, ram)
            for i in range(6):
                for j in range(6):
                    heights = [l for l in range(26) if hom_height_attainable(setup, i, j, l)]
                    for e_rel in (1, 2, 3):
                        closed = lift_bound(setup, i, j, e_rel, heights)
                        assert closed == lift_bound_recursive(setup, i, j, e_rel, heights)
                        assert closed == lift_bound(setup, j, i, e_rel, heights)
                        for l, bound in zip(heights, closed):
                            if bound is None:
                                rejected += 1
                                continue
                            if l >= i + j:
                                prod = (l - (i + j - 1)) * ramification_index(setup, max(i, j))
                                assert prod % 2 == 0
                            checked += 1
    elapsed = time.monotonic() - started
    assert checked > 10000 and rejected > 0
    assert elapsed < 5.0
    print(f"criterion 3 (closed form = recursion, {checked} admitted, "
          f"{rejected} parity-rejected, {elapsed:.2f}s): PASS")


def test_criterion_4_germ_round_trip_and_expansion():
    total = 0
    for setup in SETUPS:
        for name, f in germ_battery(setup):
            germ = extract_germ(setup, f)
            assert germ.equivalent(extract_germ(setup, function_from_germ(germ))), name
            t0 = germ.threshold
            for gamma in battery_orbits(setup, t0, t0 + 10, range(-10, 11, 2)):
                assert orb_s(gamma, f) == germ.predicted_orb_s(gamma), name
            total += 1
    assert total >= 20
    print(f"criterion 4 (germ round-trip and expansion, {total} functions): PASS")


def test_criterion_5_transformation_and_twist_laws():
    for setup in SETUPS:
        for v_lam in (1, 2, 3):
            signs = (PLUS, MINUS) if setup.ramified else \
                ((MINUS,) if v_lam % 2 else (PLUS,))
            for sign in signs:
                lam = ValClass(2 * v_lam, sign)
                for name, f in germ_battery(setup)[:8]:
                    pulled = f.pulled_back(lam)
                    combo = f.scale(sign) - pulled
                    for gamma in battery_orbits(setup, 0, 5, range(-4, 5, 2),
                                                lvls=((None, None),)):
                        value = orb(gamma, f)
                        d_value = d_orb(gamma, f)
                        want_pull = sign * (d_value + v_lam * value)
                        assert d_orb(gamma, pulled) == want_pull, name
                        want_combo = -sign * v_lam * value
                        assert d_orb(gamma, combo) == want_combo, name
    print("criterion 5 (transformation law and undivided twist identity): PASS")


def test_criterion_6_diagonal_regularization():
    for setup in SETUPS:
        for f in (unit_diag_indicator(), integral_indicator(),
                  unit_diag_indicator(Interval(1, None), Interval(0, 1)).scale(Fraction(3, 2))):
            cleared = clear_diagonal(f)
            assert cleared.vanishes_on_diagonal()
            for gamma in battery_orbits(setup, 0, 9, range(-8, 9, 2),
                                        lvls=((None, None), (2, 1))):
                assert orb(gamma, cleared) == orb(gamma, f)
                assert d_orb(gamma, cleared) == d_orb(gamma, f)
    print("criterion 6 (diagonal regularization preserves both integrals): PASS")


def test_criterion_7_vanishing_integrals_vanishing_germ():
    for setup in SETUPS:
        for name, f in zero_orbit_battery(setup):
            for gamma in battery_orbits(setup, 0, 8, range(-6, 7, 2)):
                assert orb(gamma, f) == 0, name
            assert zero_orbit_zero_germ(setup, f), name
    print("criterion 7 (zero integrals give the zero value germ): PASS")


def test_criterion_8_monomial_growth_control():
    f = unit_diag_indicator()
    for t in range(0, 31):
        gamma = unramified_orbit(UNRAM3, t, 0)
        assert orb_s(gamma, f).monomial_count() == t + 1
    print("criterion 8 (monomial count t + 1 near the diagonal): PASS")


def test_criterion_9_ati_growth_and_end_to_end():
    for ram in (False, True):
        for q in (2, 3):
            setup = FieldSetup(q, ram)
            for i in range(5):
                for j in range(5):
                    for e_rel in (1, 2):
                        ctx = MatchContext(setup, i, j,
                                           e_f=e_rel * ramification_index(setup, max(i, j)))
                        ts = range(i + j, i + j + 14)
                        report = ati_growth_check(ctx, ts,
                                                  finite_lvl_a=(0 if i >= 1 else None))
                        assert report.passed, (ram, q, i, j, e_rel)
                        for rows in report.open_rows.values():
                            doubled = {2 * row.int_value - ctx.e_f * row.t for row in rows}
                            assert len(doubled) == 1
    for i, j in ((0, 0), (0, 1), (1, 1)):
        for q in (2, 3):
            setup = FieldSetup(q, ramified=False)
            ctx = MatchContext(setup, i, j, e_f=ramification_index(setup, max(i, j)))
            report = ati_end_to_end(ctx)
            assert report.passed, (i, j, q)
            assert set(report.witnesses) == {0}
    print("criterion 9 (growth residuals and end-to-end witnesses): PASS")
