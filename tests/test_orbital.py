import pickle
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from aflcalc import orbital
from aflcalc.battery import germ_battery
from aflcalc.field import MINUS, PLUS, FieldSetup, ValClass, unit_integral
from aflcalc.germs import (GermExpansion, GermPiece, extract_germ, function_from_germ,
                           shell_box)
from aflcalc.matching import afl_verify
from aflcalc.orbital import (INTEGRAL, Box, DivergenceError, Interval, InvariantFunction,
                             OrbitData, clear_diagonal, d_orb, diagonal_killer,
                             integral_indicator, orb, orb_s, orbits_at, transfer_factor,
                             unit_diag_indicator, unramified_orbit)
from aflcalc.symbolic import LaurentPoly
from laws import along_orbit, zero_orbit_battery

UNRAM = FieldSetup(3, ramified=False)
RAM = FieldSetup(3, ramified=True)
RAM_NEG = FieldSetup(3, ramified=True, eta_pi_f=MINUS)
SETUPS = (UNRAM, RAM, RAM_NEG)


def unram_grid(setup=UNRAM, ts=range(0, 8), vbs=range(-4, 5), **kw):
    return [unramified_orbit(setup, t, vb, **kw) for t in ts for vb in vbs]


def ram_grid(setup, ts=range(0, 8), vb2s=range(-4, 5)):
    out = []
    for t in ts:
        for vb2 in vb2s:
            for bs in (PLUS, MINUS):
                for ds in (PLUS, MINUS):
                    out.append(OrbitData(setup=setup, t=t, v_b2=vb2, b_sign=bs,
                                         defect_sign=ds))
    return out


def grid(setup):
    return ram_grid(setup) if setup.ramified else unram_grid(setup)


class TestOrbitData:
    def test_derived_entries(self):
        g = unramified_orbit(UNRAM, t=3, v_b=1)
        assert g.v_c2 == 4 and g.c_sign == PLUS

    def test_unramified_signs_forced(self):
        with pytest.raises(ValueError):
            OrbitData(setup=UNRAM, t=1, v_b2=0, b_sign=PLUS, defect_sign=PLUS)
        with pytest.raises(ValueError):
            OrbitData(setup=UNRAM, t=0, v_b2=1, b_sign=PLUS, defect_sign=PLUS)

    def test_nonunit_a_forces_trivial_defect(self):
        with pytest.raises(ValueError):
            OrbitData(setup=RAM, t=2, v_b2=0, b_sign=PLUS, defect_sign=PLUS, v_a2=1)
        g = OrbitData(setup=RAM, t=0, v_b2=0, b_sign=PLUS, defect_sign=PLUS, v_a2=1)
        assert g.defect_sign == PLUS

    def test_sign_identity_along_grid(self):
        # eta(c) * eta(b) always recovers the defect sign
        for setup in SETUPS:
            for g in grid(setup):
                assert transfer_factor(g) * g.b_sign == g.defect_sign


class TestOrbS:
    def test_unit_box_small_defect(self):
        g = unramified_orbit(UNRAM, t=1, v_b=0)
        assert orb_s(g, integral_indicator()) == LaurentPoly([(0, 1), (-2, -1)])

    def test_unit_box_larger_defect(self):
        g = unramified_orbit(UNRAM, t=3, v_b=2)
        want = LaurentPoly([(-2, -1), (0, 1), (2, -1), (4, 1)])
        assert orb_s(g, integral_indicator()) == want

    def test_empty_box_gives_zero(self):
        empty = InvariantFunction.from_box(Box(
            i_a=Interval(0, 0), i_b=Interval(4, 2), i_c=Interval(0, None),
            i_d=Interval(0, 0)))
        for setup in SETUPS:
            for g in grid(setup)[:12]:
                assert not orb_s(g, empty)

    def test_plain_and_derivative_values(self):
        f = integral_indicator()
        g1 = unramified_orbit(UNRAM, t=1, v_b=0)
        assert orb(g1, f) == 0 and d_orb(g1, f) == -1
        g2 = unramified_orbit(UNRAM, t=3, v_b=2)
        assert d_orb(g2, f) == -2
        g3 = unramified_orbit(UNRAM, t=2, v_b=0)
        assert orb(g3, f) == 1

    def test_ramified_sign_free_function_integrates_to_zero(self):
        for g in ram_grid(RAM)[:20]:
            assert not orb_s(g, integral_indicator())

    def test_ramified_pinned_shell(self):
        box = Box(i_a=Interval(0, 0), i_b=Interval(0, 0), i_c=Interval(0, None),
                  i_d=Interval(0, 0), sgn_b_req=PLUS)
        g = OrbitData(setup=RAM, t=2, v_b2=0, b_sign=PLUS, defect_sign=MINUS)
        # only the shell n = 0 contributes, with unit-coset measure 1/2
        assert orb_s(g, InvariantFunction.from_box(box)) == LaurentPoly([(0, Fraction(1, 2))])

    def test_divergence_detected(self):
        runaway = InvariantFunction.from_box(Box(
            i_a=Interval(0, 0), i_b=Interval(0, None), i_c=Interval(None, None),
            i_d=Interval(0, 0)))
        g = unramified_orbit(UNRAM, t=1, v_b=0)
        with pytest.raises(DivergenceError):
            orb_s(g, runaway)

    def test_integral_exponents_for_unramified_runs(self):
        for g in unram_grid():
            assert all(e2 % 2 == 0 for e2, _ in orb_s(g, integral_indicator()).terms())


class TestTransferFactor:
    def test_unramified_even_c_valuation(self):
        assert transfer_factor(unramified_orbit(UNRAM, t=2, v_b=0)) == PLUS

    def test_unramified_odd_c_valuation(self):
        assert transfer_factor(unramified_orbit(UNRAM, t=1, v_b=0)) == MINUS

    def test_ramified_sign_product(self):
        g = OrbitData(setup=RAM, t=0, v_b2=0, b_sign=MINUS, defect_sign=PLUS)
        assert transfer_factor(g) == MINUS


class TestPullback:
    def test_interval_shift(self):
        lam = ValClass(2, MINUS)
        f = integral_indicator().pulled_back(lam)
        box = f.terms[0][1]
        assert box.i_b == Interval(2, None) and box.i_c == Interval(-2, None)

    def test_identity_and_inverse(self):
        lam = ValClass(2, MINUS)
        f = integral_indicator()
        assert f.pulled_back(ValClass(0, PLUS)).terms == f.terms
        assert f.pulled_back(lam).pulled_back(ValClass(-2, MINUS)).terms == f.terms

    def test_base_field_required(self):
        with pytest.raises(ValueError):
            integral_indicator().pulled_back(ValClass(1, PLUS))

    @pytest.mark.parametrize("half_val,sign", [(2, MINUS), (4, PLUS), (6, MINUS),
                                               (2, PLUS), (4, MINUS)])
    def test_transformation_law_series(self, half_val, sign):
        # pulled-back integral equals eta_s(lam)^(-1) times the original
        for setup in SETUPS:
            if not setup.ramified and sign != (MINUS if (half_val // 2) % 2 else PLUS):
                continue
            lam = ValClass(half_val, sign)
            factor = LaurentPoly.monomial(-half_val, sign)
            for f in (integral_indicator(), unit_diag_indicator()):
                for g in grid(setup)[:30]:
                    assert orb_s(g, f.pulled_back(lam)) == factor * orb_s(g, f)

    def test_transformation_law_derivative(self):
        # derivative of the pullback: eta(lam) * (dOrb - log|lam| * Orb)
        for setup in SETUPS:
            for half_val, sign in ((2, MINUS), (4, PLUS)):
                if not setup.ramified and sign != (MINUS if (half_val // 2) % 2 else PLUS):
                    continue
                lam = ValClass(half_val, sign)
                v_lam = Fraction(half_val, 2)
                f = integral_indicator()
                for g in grid(setup)[:30]:
                    got = d_orb(g, f.pulled_back(lam))
                    want = lam.eta_sign * (d_orb(g, f) + v_lam * orb(g, f))
                    assert got == want

    def test_eta_invariance_along_orbit(self):
        # moving gamma along its orbit multiplies Orb by eta of the move
        f = integral_indicator()
        for setup in SETUPS:
            for half_val, sign in ((2, MINUS), (4, PLUS), (2, PLUS)):
                if not setup.ramified and sign != (MINUS if (half_val // 2) % 2 else PLUS):
                    continue
                lam = ValClass(half_val, sign)
                for g in grid(setup)[:30]:
                    assert orb(along_orbit(g, lam), f) == lam.eta_sign * orb(g, f)


class TestEtaTwistDifference:
    """eta(lam) * f - f.pulled_back(lam): its derivative integral is a rational
    multiple of the plain integral of f."""

    def test_zero_function(self):
        lam = ValClass(2, MINUS)
        f = InvariantFunction().scale(lam.eta_sign) - InvariantFunction().pulled_back(lam)
        assert not orb_s(unramified_orbit(UNRAM, 1, 0), f)

    @pytest.mark.parametrize("half_val,sign", [(2, MINUS), (4, PLUS), (6, MINUS)])
    def test_derivative_identity(self, half_val, sign):
        # dOrb(eta(lam) f - lam^* f) = eta(lam) log|lam| Orb(f), undivided form
        for setup in SETUPS:
            if not setup.ramified and sign != (MINUS if (half_val // 2) % 2 else PLUS):
                continue
            lam = ValClass(half_val, sign)
            v_lam = Fraction(half_val, 2)
            for f in (integral_indicator(), unit_diag_indicator()):
                combo = f.scale(sign) - f.pulled_back(lam)
                for g in grid(setup)[:30]:
                    want = lam.eta_sign * (-v_lam) * orb(g, f)
                    assert d_orb(g, combo) == want

    def test_both_sides_vanish_on_odd_defect(self):
        lam = ValClass(2, MINUS)
        combo = integral_indicator().scale(MINUS) - integral_indicator().pulled_back(lam)
        g = unramified_orbit(UNRAM, t=1, v_b=0)
        assert orb(g, integral_indicator()) == 0
        assert d_orb(g, combo) == 0

    def test_nonzero_case(self):
        lam = ValClass(2, MINUS)
        f = integral_indicator()
        g = unramified_orbit(UNRAM, t=2, v_b=0)
        combo = f.scale(MINUS) - f.pulled_back(lam)
        assert d_orb(g, combo) == 1  # (-1) * (-1) * Orb = 1


class TestDiagonal:
    def test_integral_indicator_touches_diagonal(self):
        assert not integral_indicator().vanishes_on_diagonal()

    def test_killer_annihilates_integrals(self):
        alpha = diagonal_killer()
        for setup in SETUPS:
            for g in grid(setup):
                assert orb(g, alpha) == 0
                assert d_orb(g, alpha) == 0

    def test_killer_value_on_diagonal(self):
        alpha = diagonal_killer(Interval(1, 2))
        assert alpha.diagonal_value(1, 0) == 1
        assert alpha.diagonal_value(0, 0) == 0
        assert alpha.diagonal_value(None, None) == 0

    def test_clear_diagonal_already_clean(self):
        box = Box(i_a=Interval(0, 0), i_b=Interval(0, 0), i_c=Interval(0, None),
                  i_d=Interval(0, 0))
        f = InvariantFunction.from_box(box)
        assert f.vanishes_on_diagonal()
        assert clear_diagonal(f).terms == f.terms

    @pytest.mark.parametrize("make", [unit_diag_indicator, integral_indicator])
    def test_clear_diagonal_preserves_integrals(self, make):
        f = make()
        for setup in SETUPS:
            cleared = clear_diagonal(f)
            assert cleared.vanishes_on_diagonal()
            for g in grid(setup):
                assert orb(g, cleared) == orb(g, f)
                assert d_orb(g, cleared) == d_orb(g, f)

    def test_clear_diagonal_with_level_cells(self):
        f = unit_diag_indicator(Interval(2, None), Interval(0, 1)).scale(Fraction(3, 2)) \
            + unit_diag_indicator()
        cleared = clear_diagonal(f)
        assert cleared.vanishes_on_diagonal()
        for g in unram_grid(ts=range(0, 6), vbs=range(-3, 4), lvl_a=2, lvl_d=1):
            assert orb(g, cleared) == orb(g, f)
            assert d_orb(g, cleared) == d_orb(g, f)


class TestBoxClosureRules:
    def test_sign_pin_needs_bounded_interval(self):
        with pytest.raises(ValueError):
            Box(i_a=Interval(0, 0), i_b=Interval(0, None), i_c=Interval(0, None),
                i_d=Interval(0, 0), sgn_b_req=PLUS)

    @pytest.mark.parametrize("value", [None, (0, None)], ids=["none", "plain-tuple"])
    @pytest.mark.parametrize("name", ["i_a", "i_b", "i_c", "i_d", "lvl_a_req", "lvl_d_req"])
    def test_every_interval_field_takes_only_an_interval(self, name, value):
        # a plain tuple equals the Interval of its values, so only the type
        # check stops it before orb_s fails on it
        intervals = {"i_a": INTEGRAL, "i_b": INTEGRAL, "i_c": INTEGRAL, "i_d": INTEGRAL}
        with pytest.raises(ValueError, match="Intervals"):
            Box(**{**intervals, name: value})


class TestMonomialGrowthNearDiagonal:
    def test_unit_diag_indicator_monomial_count(self):
        f = unit_diag_indicator()
        for t in range(0, 31):
            g = unramified_orbit(UNRAM, t=t, v_b=0)
            assert orb_s(g, f).monomial_count() == t + 1


class TestJsonCodecs:
    """The documented report encodings, pinned as literals."""

    def test_orbit_round_trip(self):
        g = OrbitData(setup=RAM_NEG, t=0, v_b2=-3, b_sign=MINUS, defect_sign=PLUS,
                      v_a2=1, lvl_a=2, lvl_d=0)
        assert g.to_json() == {"q": 3, "ramified": True, "eta_pi_f": -1, "t": 0,
                               "defect_sign": 1, "v_b2": -3, "b_sign": -1, "v_a2": 1,
                               "lvl_a": 2, "lvl_d": 0}
        # every other key is an OrbitData field of the same name
        for setup in SETUPS:
            for g in grid(setup)[:10]:
                data = g.to_json()
                rebuilt = FieldSetup(data.pop("q"), data.pop("ramified"), data.pop("eta_pi_f"))
                assert OrbitData(setup=rebuilt, **data) == g

    def test_function_encoding(self):
        f = unit_diag_indicator(Interval(1, None), Interval(0, 2)).scale(Fraction(3, 2)) \
            + integral_indicator().pulled_back(ValClass(2, MINUS)).scale(-2)
        assert f.to_json() == {"terms": [
            {"coeff": "3/2", "box": {"i_a": [0, 0], "i_b": [0, None], "i_c": [0, None],
                                     "i_d": [0, 0], "lvl_a": [1, None], "lvl_d": [0, 2]}},
            {"coeff": "-2", "box": {"i_a": [0, None], "i_b": [2, None], "i_c": [-2, None],
                                    "i_d": [0, None]}},
        ]}

    def test_every_requirement_survives(self):
        box = Box(i_a=Interval(0, 0), i_b=Interval(0, 2), i_c=Interval(-1, 3),
                  i_d=Interval(0, 0), sgn_b_req=MINUS, sgn_c_req=PLUS,
                  lvl_a_req=Interval(1, None), lvl_d_req=Interval(None, 2))
        assert box.to_json() == {"i_a": [0, 0], "i_b": [0, 2], "i_c": [-1, 3], "i_d": [0, 0],
                                 "sgn_b": -1, "sgn_c": 1, "lvl_a": [1, None],
                                 "lvl_d": [None, 2]}

    def test_unconstrained_requirements_are_omitted(self):
        box = Box(i_a=Interval(0, 0), i_b=Interval(0, 2), i_c=Interval(-1, 3),
                  i_d=Interval(0, 0), lvl_a_req=Interval(), lvl_d_req=Interval(None, 2))
        assert box.to_json() == {"i_a": [0, 0], "i_b": [0, 2], "i_c": [-1, 3], "i_d": [0, 0],
                                 "lvl_d": [None, 2]}


class TestDerivativeEquivariance:
    def test_zero_integral_functions_twist_by_eta(self):
        # when every plain integral vanishes, the derivative integral moves
        # along the orbit by the character sign alone
        for setup in SETUPS:
            for lam in (ValClass(2, MINUS), ValClass(4, PLUS)):
                if not setup.ramified and lam.eta_sign != (MINUS if (lam.half_val // 2) % 2 else PLUS):
                    continue
                for name, f in zero_orbit_battery(setup):
                    for g in grid(setup)[:24]:
                        assert orb(g, f) == 0
                        moved = d_orb(along_orbit(g, lam), f)
                        assert moved == lam.eta_sign * d_orb(g, f), name


@st.composite
def intervals(draw):
    lo = draw(st.none() | st.integers(-12, 12))
    hi = draw(st.none() | st.integers(-12, 12))
    if lo is not None and hi is not None and hi < lo:
        lo, hi = hi, lo
    return Interval(lo, hi)


def _fixed_tests(gamma, box):
    """The box constraints that do not move along the orbit."""
    return (box.i_a.contains(gamma.v_a2)
            and box.i_d.contains(gamma.v_a2)
            and box.lvl_a_req.contains(gamma.lvl_a)
            and box.lvl_d_req.contains(gamma.lvl_d))


def _shift_range(gamma, box):
    """Conjugator valuations n for which the box can hold the shifted orbit,
    as (n_lo, n_hi), or None when there are none.

    Every n in the returned range puts v(b) - 2n in i_b and v(c) + 2n in
    i_c.  Raises DivergenceError when the range is unbounded at either end."""
    uppers = []
    lowers = []
    if box.i_b.lo is not None:
        uppers.append((gamma.v_b2 - box.i_b.lo) // 2)
    if box.i_c.hi is not None:
        uppers.append((box.i_c.hi - gamma.v_c2) // 2)
    if box.i_b.hi is not None:
        lowers.append(-((box.i_b.hi - gamma.v_b2) // 2))
    if box.i_c.lo is not None:
        lowers.append(-((gamma.v_c2 - box.i_c.lo) // 2))
    if not uppers or not lowers:
        raise DivergenceError("the orbit meets the box in an unbounded set")
    n_lo, n_hi = max(lowers), min(uppers)
    if n_lo > n_hi:
        return None
    return n_lo, n_hi


class TestShiftRange:
    @given(setup=st.sampled_from((RAM, RAM_NEG)), t=st.integers(0, 12),
           v_b2=st.integers(-12, 12), b_sign=st.sampled_from((PLUS, MINUS)),
           defect_sign=st.sampled_from((PLUS, MINUS)), i_b=intervals(), i_c=intervals())
    def test_range_is_exactly_the_shifts_inside_both_intervals(
            self, setup, t, v_b2, b_sign, defect_sign, i_b, i_c):
        gamma = OrbitData(setup=setup, t=t, v_b2=v_b2, b_sign=b_sign,
                          defect_sign=defect_sign)
        box = Box(i_a=Interval(0, 0), i_b=i_b, i_c=i_c, i_d=Interval(0, 0))
        try:
            rng = _shift_range(gamma, box)
        except DivergenceError:
            return
        n_lo, n_hi = rng if rng is not None else (0, -1)
        # with these draws every shift inside both intervals lies in [-24, 12]
        for n in range(-30, 31):
            inside = i_b.contains(gamma.v_b2 - 2 * n) and i_c.contains(gamma.v_c2 + 2 * n)
            assert inside == (n_lo <= n <= n_hi), n


class TestOrbitsAt:
    """orbits_at returns exactly the sign pairs OrbitData accepts."""

    @pytest.mark.parametrize("setup", SETUPS, ids=["unram", "ram", "ram-neg"])
    def test_brute_force_over_sign_pairs(self, setup):
        for t in range(0, 6):
            for v_b2 in range(-5, 6):
                for lvl_a, lvl_d in ((None, None), (0, 2)):
                    accepted = set()
                    for b_sign in (PLUS, MINUS):
                        for defect_sign in (PLUS, MINUS):
                            try:
                                OrbitData(setup=setup, t=t, v_b2=v_b2, b_sign=b_sign,
                                          defect_sign=defect_sign, lvl_a=lvl_a, lvl_d=lvl_d)
                            except ValueError:
                                continue
                            accepted.add((b_sign, defect_sign))
                    gammas = orbits_at(setup, t, v_b2, lvl_a, lvl_d)
                    assert len(gammas) == len(accepted)
                    assert {(g.b_sign, g.defect_sign) for g in gammas} == accepted
                    assert all((g.t, g.v_b2, g.v_a2, g.lvl_a, g.lvl_d) == (t, v_b2, 0, lvl_a, lvl_d)
                               for g in gammas)

    def test_unramified_orbit_is_the_only_one(self):
        for t in range(0, 6):
            for v_b in range(-3, 4):
                assert orbits_at(UNRAM, t, 2 * v_b) == [unramified_orbit(UNRAM, t, v_b)]


@st.composite
def orbits(draw, ramified=st.booleans()):
    """An orbit with unit diagonal entries over a random setup."""
    ramified = draw(ramified)
    eta_pi_f = draw(st.sampled_from((PLUS, MINUS))) if ramified else None
    setup = FieldSetup(draw(st.integers(2, 7)), ramified, eta_pi_f)
    v_b2 = draw(st.integers(-10, 10))
    if not ramified:
        v_b2 -= v_b2 % 2
    levels = st.none() | st.integers(0, 4)
    candidates = orbits_at(setup, draw(st.integers(0, 10)), v_b2, draw(levels), draw(levels))
    return draw(st.sampled_from(candidates))


def rarely(strategy):
    """Interval() (no requirement) three times in four, else a draw of strategy."""
    return st.sampled_from((False, False, False, True)).flatmap(
        lambda on: strategy if on else st.just(Interval()))


@st.composite
def boxes(draw):
    """Bounded b/c intervals (now and then open at one end, so that some
    draws diverge), each with an optional sign pin where the closure rules
    allow one, and optional level windows."""
    def off_diagonal():
        lo = draw(st.integers(-4, 8))
        hi = lo + draw(st.integers(0, 8))
        lo, hi = draw(st.sampled_from(((lo, hi), (lo, hi), (lo, hi), (None, hi), (lo, None))))
        pin = None if hi is None else draw(st.none() | st.sampled_from((PLUS, MINUS)))
        return Interval(lo, hi), pin

    windows = rarely(st.builds(Interval, st.integers(0, 3), st.none() | st.integers(3, 6)))
    (i_b, sgn_b), (i_c, sgn_c) = off_diagonal(), off_diagonal()
    return Box(i_a=Interval(0, 0), i_b=i_b, i_c=i_c, i_d=Interval(0, 0),
               sgn_b_req=sgn_b, sgn_c_req=sgn_c, lvl_a_req=draw(windows),
               lvl_d_req=draw(windows))


coefficients = st.fractions(-4, 4, max_denominator=4)
functions = st.lists(st.builds(InvariantFunction.from_box, boxes(), coefficients),
                     min_size=1, max_size=3).map(lambda fs: sum(fs, InvariantFunction()))


class TestRandomBoxLaws:
    """Linearity in f and the pullback law on random boxes, setups and orbits,
    beyond the fixed battery of criterion 5; a draw whose orbit meets a box in
    an unbounded set is skipped."""

    @given(gamma=orbits(), f=functions, g=functions, c=coefficients)
    def test_linear_in_f(self, gamma, f, g, c):
        combined = f + g.scale(c)
        try:
            assert orb_s(gamma, combined) == (orb_s(gamma, f)
                                              + orb_s(gamma, g) * LaurentPoly.monomial(0, c))
            assert d_orb(gamma, combined) == d_orb(gamma, f) + c * d_orb(gamma, g)
        except DivergenceError:
            return

    @given(gamma=orbits(), f=functions, half=st.integers(-3, 3), data=st.data())
    def test_pullback_law(self, gamma, f, half, data):
        setup = gamma.setup
        lam = ValClass(2 * half, data.draw(st.sampled_from(setup.signs(2 * half))))
        try:
            want = LaurentPoly.monomial(-lam.half_val, lam.eta_sign) * orb_s(gamma, f)
            assert orb_s(gamma, f.pulled_back(lam)) == want
        except DivergenceError:
            return


def _orb_s_by_shells(gamma, f):
    """Reference oracle for orb_s: one monomial per conjugator valuation
    shell n.  The shell splits into one coset of equal measure for each eta
    the setup admits at valuation n; a coset of eta = s counts, with weight
    s, when conjugating by it moves every pinned entry's eta onto its pin."""
    total = LaurentPoly.zero()
    for coeff, box in f.terms:
        if not coeff or not _fixed_tests(gamma, box):
            continue
        rng = _shift_range(gamma, box)
        if rng is None:
            continue
        n_lo, n_hi = rng
        for n in range(n_lo, n_hi + 1):
            signs = gamma.setup.signs(2 * n)
            kept = [s for s in signs
                    if box.sgn_b_req in (None, gamma.b_sign * s)
                    and box.sgn_c_req in (None, gamma.c_sign * s)]
            w = Fraction(sum(kept), len(signs))
            if w:
                total += LaurentPoly.monomial(2 * n, coeff * w)
    return total


def outcome(integral, gamma, f):
    """The polynomial, or the DivergenceError class when the orbit meets a
    box of f in an unbounded set."""
    try:
        return integral(gamma, f)
    except DivergenceError:
        return DivergenceError


class TestParityRuns:
    """orb_s sums each box's shells as two parity runs; the shell-by-shell
    oracle must give the same polynomial (or the same divergence)."""

    @given(gamma=orbits(), f=functions)
    def test_random_boxes_match_shell_oracle(self, gamma, f):
        assert outcome(orb_s, gamma, f) == outcome(_orb_s_by_shells, gamma, f)

    @given(gamma=orbits(), v_a2=st.integers(0, 4), f=functions, data=st.data())
    def test_diagonal_windows_match_shell_oracle(self, gamma, v_a2, f, data):
        # orb_s tests the a- and d-windows inline, the oracle through
        # Interval.contains; a non-unit diagonal entry forces t = 0, sign +1
        if not gamma.setup.ramified:
            v_a2 -= v_a2 % 2
        if v_a2:
            gamma = OrbitData(gamma.setup, 0, gamma.v_b2, gamma.b_sign, PLUS, v_a2,
                              gamma.lvl_a, gamma.lvl_d)
        ends = st.none() | st.integers(v_a2 - 1, v_a2 + 1)
        windows = st.builds(Interval, ends, ends)
        f = InvariantFunction([(c, Box(data.draw(windows), box.i_b, box.i_c, data.draw(windows),
                                       box.sgn_b_req, box.sgn_c_req, box.lvl_a_req,
                                       box.lvl_d_req))
                               for c, box in f.terms])
        assert outcome(orb_s, gamma, f) == outcome(_orb_s_by_shells, gamma, f)

    @given(gamma=orbits())
    def test_battery_matches_shell_oracle(self, gamma):
        for _, f in germ_battery(gamma.setup):
            assert outcome(orb_s, gamma, f) == outcome(_orb_s_by_shells, gamma, f)

    @pytest.mark.parametrize("pin", (PLUS, MINUS))
    @pytest.mark.parametrize("c_window", ((0, 0), (0, 2), (0, 6), (-4, 9)))
    def test_one_parity_weight_zero(self, pin, c_window):
        # unramified: a conjugator of valuation n has eta = (-1)^n, so the
        # c-pin holds on the shells of one parity only and the other run
        # drops out
        box = Box(i_a=Interval(0, 0), i_b=Interval(-20, 20), i_c=Interval(*c_window),
                  i_d=Interval(0, 0), sgn_c_req=pin)
        f = InvariantFunction.from_box(box, Fraction(5, 3))
        for gamma in unram_grid():
            got = orb_s(gamma, f)
            assert got == _orb_s_by_shells(gamma, f)
            assert len({e2 % 4 for e2, _ in got.terms()}) <= 1

    @pytest.mark.parametrize("setup", SETUPS, ids=["unram", "ram", "ram-neg"])
    def test_one_shell_ranges(self, setup):
        for gamma in grid(setup):
            box = Box(i_a=Interval(0, 0), i_b=Interval(gamma.v_b2, gamma.v_b2 + 1),
                      i_c=Interval(), i_d=Interval(0, 0),
                      sgn_b_req=gamma.b_sign)
            f = InvariantFunction.from_box(box, -2)
            got = orb_s(gamma, f)
            assert got == _orb_s_by_shells(gamma, f)
            assert got.monomial_count() == 1


REQUIREMENTS = ("lvl_a_req", "lvl_d_req")


class TestUnconstrainedRequirement:
    """Interval() is the one spelling of "no level requirement": a box or germ
    piece that omits a requirement is the one that passes Interval(), and
    integrates like it."""

    def test_omitted_requirement_is_interval(self):
        bare = Box(i_a=INTEGRAL, i_b=INTEGRAL, i_c=INTEGRAL, i_d=INTEGRAL)
        for name in REQUIREMENTS:
            explicit = Box(i_a=INTEGRAL, i_b=INTEGRAL, i_c=INTEGRAL, i_d=INTEGRAL,
                           **{name: Interval()})
            assert explicit == bare and hash(explicit) == hash(bare), name
            with pytest.raises(ValueError):
                Box(i_a=INTEGRAL, i_b=INTEGRAL, i_c=INTEGRAL, i_d=INTEGRAL, **{name: None})
        assert integral_indicator().terms == ((1, bare),)

    @given(gamma=orbits(), box=boxes(), coeff=coefficients)
    def test_omitted_requirements_integrate_like_interval(self, gamma, box, coeff):
        constrained = {name: getattr(box, name) for name in REQUIREMENTS
                       if getattr(box, name) != Interval()}
        bare = Box(i_a=box.i_a, i_b=box.i_b, i_c=box.i_c, i_d=box.i_d,
                   sgn_b_req=box.sgn_b_req, sgn_c_req=box.sgn_c_req, **constrained)
        assert bare == box
        assert outcome(orb_s, gamma, InvariantFunction.from_box(bare, coeff)) \
            == outcome(_orb_s_by_shells, gamma, InvariantFunction.from_box(box, coeff))

    @pytest.mark.parametrize("setup", SETUPS, ids=["unram", "ram", "ram-neg"])
    def test_unconstrained_germ_piece_rebuilds_bare_shells(self, setup):
        pin = PLUS if setup.ramified else None
        piece = GermPiece(Interval(), Interval(), 0, LaurentPoly.monomial(0, 3))
        f = function_from_germ(GermExpansion(setup, (piece,), (), 1))
        assert [box for _, box in f.terms] == [shell_box(0, 0, pin)]
        assert piece.to_json()["lvl_a"] == [None, None]
        for gamma in grid(setup):
            assert orb_s(gamma, f) == _orb_s_by_shells(gamma, f)


class TestEtaPiFInvariance:
    """Ramified, eta(pi_F) only says which uniformizer class has eta = +1:
    every conjugator shell still splits into halves of eta = +1 and -1, so
    no orbital integral depends on it."""

    @given(gamma=orbits(ramified=st.just(True)), f=functions)
    def test_ramified_orb_s_ignores_eta_pi_f(self, gamma, f):
        setup = gamma.setup
        flipped = gamma._replace(setup=FieldSetup(setup.q, True, -setup.eta_pi_f))
        assert outcome(orb_s, gamma, f) == outcome(orb_s, flipped, f)


class TestQFreedom:
    """No orbital or germ result reads q.  unit_integral, the one weight every
    orbital and germ integral is built from, reads only the ramification,
    and boxes constrain only valuations and signs; so moving an orbit, and
    the setup a germ is extracted over, to another q changes nothing."""

    @staticmethod
    def germ_outcome(setup, f):
        """extract_germ of f's diagonal-free part as JSON, or the
        DivergenceError class when a germ integral diverges."""
        try:
            return extract_germ(setup, clear_diagonal(f)).to_json()
        except DivergenceError:
            return DivergenceError

    @settings(max_examples=60, deadline=None)
    @given(gamma=orbits(), f=functions, q=st.integers(2, 13))
    def test_only_q_changes(self, gamma, f, q):
        setup = gamma.setup
        moved = gamma._replace(setup=FieldSetup(q, setup.ramified, setup.eta_pi_f))
        for integral in (orb_s, orb, d_orb):
            assert outcome(integral, gamma, f) == outcome(integral, moved, f), integral
        germ = self.germ_outcome(setup, f)
        assert germ == self.germ_outcome(moved.setup, f)
        if germ is not DivergenceError:
            germs = [extract_germ(s, clear_diagonal(f)) for s in (setup, moved.setup)]
            assert germs[0].predicted_orb_s(gamma) == germs[1].predicted_orb_s(moved)


def pinned_mix():
    """Terms asking each eta of the conjugator: an unpinned box, a b-pin and a
    c-pin, with unrelated coefficients."""
    return (integral_indicator().scale(Fraction(5, 3))
            + InvariantFunction.from_box(Box(
                i_a=Interval(0, 0), i_b=Interval(0, 0), i_c=Interval(0, None),
                i_d=Interval(0, 0), sgn_b_req=PLUS))
            + InvariantFunction.from_box(Box(
                i_a=Interval(0, 0), i_b=Interval(-4, 4), i_c=Interval(-2, 6),
                i_d=Interval(0, 0), sgn_c_req=MINUS), Fraction(-2, 7)))


class TestRunWeightTable:
    """orb_s reads each term's two run weights from a table the function
    fills once per (setup, eta)."""

    def test_setups_in_turn_match_the_shell_oracle(self):
        f = pinned_mix()
        for setup in (UNRAM, RAM, RAM_NEG, UNRAM):
            for gamma in grid(setup):
                assert orb_s(gamma, f) == _orb_s_by_shells(gamma, f)

    def test_at_most_two_measures_per_eta(self, monkeypatch):
        calls = []
        plain = orbital.unit_integral

        def counting(*args):
            calls.append(args)
            return plain(*args)

        monkeypatch.setattr(orbital, "unit_integral", counting)
        f = pinned_mix()
        orbits = ram_grid(RAM)[:100]
        for gamma in orbits:
            orb_s(gamma, f)
        assert 0 < len(calls) <= 6

    def test_filled_table_survives_pickling(self):
        f = pinned_mix()
        orbits = ram_grid(RAM)[::5] + unram_grid()[::3]
        want = [orb_s(gamma, f) for gamma in orbits]
        copy = pickle.loads(pickle.dumps(f))
        assert copy.terms == f.terms
        assert [orb_s(gamma, copy) for gamma in orbits] == want


def _runs_box_by_box(gamma, f):
    """Reference for _box_runs: every term's box tested against the orbit in
    turn, with nothing kept between calls, and its run weights computed here
    from unit_integral, over the lcm of the denominators of all terms."""
    setup = gamma.setup
    runs = []
    for k, (coeff, box) in enumerate(f.terms):
        if not coeff or not _fixed_tests(gamma, box):
            continue
        rng = _shift_range(gamma, box)  # raises where the run is unbounded
        if rng is None:
            continue
        eta_b = None if box.sgn_b_req is None else box.sgn_b_req * gamma.b_sign
        eta_h = eta_b if box.sgn_c_req is None else box.sgn_c_req * gamma.c_sign
        if eta_b is not None and eta_h != eta_b:
            continue
        measures = [unit_integral(setup, v2, eta_h) for v2 in (0, 2)]
        den = lcm(*((c * m).denominator for c, _ in f.terms for m in measures))
        weights = tuple(coeff * m * den for m in measures)
        assert all(w.denominator == 1 for w in weights)
        runs.append((den, tuple(int(w) for w in weights), *rng))
    return runs


@st.composite
def fixed_invariant_pools(draw):
    """Orbits that a box or weight table keyed wrongly would confuse: random
    orbits, each followed by copies that differ from it only in v(a), only in
    lvl_a, only in lvl_d, or only in the setup (the other ramification, or the
    other eta(pi_F)), where those copies exist."""
    levels = st.none() | st.integers(0, 4)
    pool = []
    for gamma in draw(st.lists(orbits(), min_size=1, max_size=3)):
        setup = gamma.setup
        others = [FieldSetup(setup.q, not setup.ramified, None if setup.ramified else PLUS)]
        if setup.ramified:
            others.append(FieldSetup(setup.q, True, -setup.eta_pi_f))
        changes = [{"lvl_a": draw(levels)}, {"lvl_d": draw(levels)},
                   {"t": 0, "defect_sign": PLUS, "v_a2": draw(st.integers(1, 4))}]
        pool.append(gamma)
        for change in changes + [{"setup": other} for other in others]:
            try:
                pool.append(OrbitData(*gamma._replace(**change)))
            except ValueError:
                pass  # the setup admits no such orbit
    return pool


# unit diagonal entries most of the time, so that v(a) > 0 leaves some box
diagonal_windows = st.sampled_from((Interval(0, 0), Interval(0, 0), Interval(0, None),
                                    Interval(1, 3), Interval(None, 1)))
table_boxes = st.builds(lambda box, i_a, i_d: Box(*box._replace(i_a=i_a, i_d=i_d)),
                        boxes(), diagonal_windows, diagonal_windows)
table_functions = st.lists(st.tuples(st.just(0) | coefficients, table_boxes),
                           min_size=1, max_size=4).map(InvariantFunction)


class TestBoxTable:
    """_box_runs reads the live boxes of an orbit's fixed invariants (v(a),
    lvl_a, lvl_d) from one table per function, and each weight table from
    the function's table for the orbit's setup; what it returns must not
    depend on which orbits, of which setups, the function met before."""

    @settings(max_examples=200, deadline=None)
    @given(pool=fixed_invariant_pools(), f=table_functions, data=st.data())
    def test_matches_the_box_by_box_filter(self, pool, f, data):
        # every orbit of the pool once, then some again, in random order
        calls = (data.draw(st.permutations(pool))
                 + data.draw(st.lists(st.sampled_from(pool), max_size=8)))
        for gamma in calls:
            want = outcome(_runs_box_by_box, gamma, f)
            cold = InvariantFunction(f.terms)
            assert outcome(orbital._box_runs, gamma, cold) == want
            assert outcome(orbital._box_runs, gamma, f) == want  # warm after the first call
            assert outcome(orbital._box_runs, gamma, cold) == want


class TestOrbSCost:
    def test_one_addition_per_term(self, monkeypatch):
        batteries = [(setup, germ_battery(setup)) for setup in SETUPS]
        added = []
        plain_add = LaurentPoly.__add__

        def counting_add(self, other):
            added.append(other)
            return plain_add(self, other)

        monkeypatch.setattr(LaurentPoly, "__add__", counting_add)
        for setup, battery in batteries:
            for _, f in battery:
                for gamma in grid(setup)[::7]:
                    added.clear()
                    if outcome(orb_s, gamma, f) is not DivergenceError:
                        assert len(added) <= len(f.terms)

    def test_no_fraction_once_the_weights_are_filled(self, fraction_builds):
        # integer run weights and integer polynomial sums: once the weight
        # tables are filled, no step of orb_s builds a Fraction, also where
        # the runs of several boxes with unrelated coefficients overlap
        mix = pinned_mix()
        cases = [(unramified_orbit(UNRAM, 41, 0), integral_indicator())]
        cases += [(gamma, mix) for gamma in ram_grid(RAM)[::9] + unram_grid()[::5]]
        want = [orb_s(gamma, f) for gamma, f in cases]
        fraction_builds.clear()
        assert [orb_s(gamma, f) for gamma, f in cases] == want
        assert fraction_builds == []
        assert want[0].monomial_count() == 42

    def test_deep_identity_row(self):
        # 1282 shells; one orb/d_orb pair took seconds when each shell re-added
        # the growing polynomial
        setup = FieldSetup(3, ramified=False)
        gamma = unramified_orbit(setup, 1281, 0)
        assert orb_s(gamma, integral_indicator()).monomial_count() == 1282
        assert afl_verify(setup, 1281, 0).passed


@st.composite
def orbit_pools(draw):
    """Orbits that a cache keyed wrongly would confuse: a random orbit, an
    equal but distinct copy of it, the same (t, v_b2) and signs in the other
    ramification when that setup admits them, and a second random orbit."""
    gamma = draw(orbits())
    setup = gamma.setup
    other = FieldSetup(setup.q, not setup.ramified, None if setup.ramified else PLUS)
    pool = [gamma, gamma._replace(), draw(orbits())]
    try:
        pool.append(OrbitData(*gamma._replace(setup=other)))
    except ValueError:
        pass
    return pool


FUNCTIONALS = {"orb": (orb, LaurentPoly.eval_at_s0), "d_orb": (d_orb, LaurentPoly.d_ds_at_s0)}


class TestFunctionalsMatchShellOracle:
    """orb (the coefficient sum of orb_s) and d_orb (summed in closed form
    from the parity runs) agree with their functionals of the shell oracle
    in any order of calls, and raise where the oracle diverges."""

    @given(gammas=orbit_pools(), f=functions, g=functions, data=st.data())
    def test_interleaved_calls_match_shell_oracle(self, gammas, f, g, data):
        fs = [f, InvariantFunction(f.terms), g, integral_indicator()]
        calls = data.draw(st.lists(st.tuples(st.sampled_from(sorted(FUNCTIONALS)),
                                             st.sampled_from(gammas), st.sampled_from(fs)),
                                   min_size=1, max_size=12))
        for name, gamma, h in calls:
            functional, of_series = FUNCTIONALS[name]
            want = outcome(_orb_s_by_shells, gamma, h)
            got = outcome(functional, gamma, h)
            assert got == (want if want is DivergenceError else of_series(want))

    def test_divergence_is_raised_again(self):
        gamma = unramified_orbit(UNRAM, 2, 0)
        f = InvariantFunction.from_box(Box(i_a=Interval(0, 0), i_b=Interval(0, None),
                                           i_c=Interval(), i_d=Interval(0, 0)))
        orb(gamma, integral_indicator())  # a call that succeeds before the failing ones
        for functional in (orb, d_orb, orb, d_orb):
            with pytest.raises(DivergenceError):
                functional(gamma, f)


class TestAflRowCost:
    """Each afl row builds one series (for orb; d_orb builds none), the
    shared integral indicator fills its run-weight table once per setup, and
    omega is applied as a sign."""

    SWEEP = [(FieldSetup(q, ramified=False), t, v_b)
             for q in (3, 5, 7) for t in range(1, 10) for v_b in range(-2, 3)]

    def _count(self, monkeypatch, name):
        calls = []
        plain = getattr(orbital, name)

        def counting(*args):
            calls.append(args)
            return plain(*args)

        monkeypatch.setattr(orbital, name, counting)
        for row in self.SWEEP:
            assert afl_verify(*row).passed
        return len(calls)

    def test_one_shared_indicator(self):
        assert integral_indicator() is integral_indicator()

    def test_one_series_per_row(self, monkeypatch):
        assert self._count(monkeypatch, "orb_s") == len(self.SWEEP)

    def test_weight_table_fills_once_per_setup(self, monkeypatch):
        integral_indicator.cache_clear()
        assert 0 < self._count(monkeypatch, "unit_integral") <= 2 * 3

    def test_no_fraction_multiplication(self, monkeypatch):
        # omega = +-1 negates lhs and the transfer value instead of
        # multiplying them; the weight table is filled before counting
        for row in self.SWEEP:
            afl_verify(*row)
        products = []
        for name in ("__mul__", "__rmul__"):
            plain = getattr(Fraction, name)

            def counting(a, b, plain=plain):
                products.append((a, b))
                return plain(a, b)

            monkeypatch.setattr(Fraction, name, counting)
        for row in self.SWEEP:
            assert afl_verify(*row).passed
        assert products == []


def box_dens(gamma, f):
    """The run-weight denominators of the boxes of f that gamma meets."""
    return [den for den, _, _, _ in orbital._box_runs(gamma, f)]


class TestClosedFormDOrb:
    """d_orb sums each parity run in closed form over a running common
    denominator: it builds no series, and its work per box does not depend
    on how many shells the run holds."""

    def test_mixed_pins_match_shell_oracle(self):
        # ramified, an unpinned box asks eta = None, whose weights all vanish
        # over den 1, while the pinned boxes' weights lie over 2 * 21; in
        # both orders of the terms the denominators must be brought together
        mix = pinned_mix()
        reordered = InvariantFunction(mix.terms[::-1])
        mixed_dens = 0
        for setup in SETUPS:
            for gamma in grid(setup):
                for f in (mix, reordered):
                    want = _orb_s_by_shells(gamma, f)
                    assert d_orb(gamma, f) == want.d_ds_at_s0()
                    assert orb(gamma, f) == want.eval_at_s0()
                    mixed_dens += len(set(box_dens(gamma, f))) > 1
        assert mixed_dens > 0

    def test_builds_no_series(self, monkeypatch):
        def no_series(*args):
            raise AssertionError("d_orb built a series")

        built = []
        plain_of = LaurentPoly._of.__func__
        plain_init = LaurentPoly.__init__

        def counting_of(cls, *args):
            built.append(args)
            return plain_of(cls, *args)

        def counting_init(self, *args):
            built.append(args)
            plain_init(self, *args)

        cases = [(unramified_orbit(UNRAM, 20481, 0), integral_indicator())]
        cases += [(gamma, f) for setup in SETUPS for _, f in germ_battery(setup)
                  for gamma in grid(setup)[::11]]
        want = [outcome(d_orb, gamma, f) for gamma, f in cases]
        monkeypatch.setattr(orbital, "orb_s", no_series)
        monkeypatch.setattr(LaurentPoly, "_of", classmethod(counting_of))
        monkeypatch.setattr(LaurentPoly, "__init__", counting_init)
        assert [outcome(d_orb, gamma, f) for gamma, f in cases] == want
        assert built == []
        assert want[0] == -(1 + 20481) // 2  # the AFL value, omega = -1 at odd t

    @pytest.mark.parametrize("v_b", (0, -7, 300))
    def test_box_work_does_not_grow_with_t(self, monkeypatch, v_b):
        f = integral_indicator()
        d_orb(unramified_orbit(UNRAM, 1, 0), f)  # the box and weight tables are filled first
        work = {}
        for t in (41, 20481):
            gamma = unramified_orbit(UNRAM, t, v_b)
            runs = []
            plain = orbital._box_runs

            def counting(*args):
                out = plain(*args)
                runs.extend(out)
                return out

            def no_build(*args):
                raise AssertionError("a weight table was built again")

            monkeypatch.setattr(orbital, "_box_runs", counting)
            monkeypatch.setattr(InvariantFunction, "_run_weights", no_build)
            tracemalloc.start()
            try:
                d_orb(gamma, f)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                monkeypatch.undo()
            work[t] = (len(runs), peak)
        assert work[41][0] == work[20481][0] == 1
        # a series of 20482 monomials would take hundreds of kB
        assert work[20481][1] <= 2 * work[41][1] + 1024
