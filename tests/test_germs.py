from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from aflcalc.battery import germ_battery
from aflcalc.cli import _germ_row
from aflcalc.field import MINUS, PLUS, FieldSetup
from aflcalc.germs import (GermExpansion, GermGradingError, GermPiece,
                           GermPreconditionError, constant_germ, extract_germ,
                           function_from_germ, solve_transfer_germ)
from aflcalc.orbital import (Box, Interval, InvariantFunction, OrbitData,
                             clear_diagonal, d_orb, diagonal_killer,
                             integral_indicator, orb, orb_s, unramified_orbit)
from aflcalc.symbolic import LaurentPoly
from laws import value_at_s0_is_zero, zero_orbit_battery, zero_orbit_zero_germ

UNRAM = FieldSetup(3, ramified=False)
RAM = FieldSetup(3, ramified=True)
RAM_NEG = FieldSetup(3, ramified=True, eta_pi_f=MINUS)
SETUPS = (UNRAM, RAM, RAM_NEG)
ONE = LaurentPoly.monomial(0)
ALL = Interval()  # no level requirement


def near_diagonal_orbits(setup, threshold, t_span=6, vb2_range=range(-6, 7),
                         lvl_a=None, lvl_d=None):
    out = []
    for t in range(threshold, threshold + t_span):
        for vb2 in vb2_range:
            if setup.ramified:
                for bs in (PLUS, MINUS):
                    for ds in (PLUS, MINUS):
                        out.append(OrbitData(setup=setup, t=t, v_b2=vb2, b_sign=bs,
                                             defect_sign=ds, lvl_a=lvl_a, lvl_d=lvl_d))
            elif vb2 % 2 == 0:
                out.append(unramified_orbit(setup, t, vb2 // 2, lvl_a=lvl_a, lvl_d=lvl_d))
    return out


def derivative_is_zero(germ):
    """Both derivative-form coefficients vanish on every probe cell, so
    pieces that cancel on a cell count as zero."""
    return not any(any(germ.derivative_side(*cell)) for cell in germ._probe_cells(germ))


class TestExtraction:
    def test_single_shell_gives_unit_germ(self):
        box = Box(i_a=Interval(0, 0), i_b=Interval(0, 0), i_c=Interval(0, None),
                  i_d=Interval(0, 0))
        germ = extract_germ(UNRAM, InvariantFunction.from_box(box))
        assert germ.eval_side(0, None, None, 0) == ONE
        assert not germ.eval_side(1, None, None, 0)

    def test_zero_function(self):
        germ = extract_germ(UNRAM, InvariantFunction())
        assert value_at_s0_is_zero(germ)
        assert not germ.a0 and not germ.a1

    def test_precondition_enforced(self):
        with pytest.raises(GermPreconditionError):
            extract_germ(UNRAM, integral_indicator())
        with pytest.raises(GermPreconditionError):
            extract_germ(UNRAM, diagonal_killer())

    def test_killer_has_doubly_vanishing_germ(self):
        # the diagonal killer has zero integral and zero derivative integral;
        # after regularization its germ vanishes at s = 0 together with the
        # derivative-form coefficients
        for setup in SETUPS:
            alpha = diagonal_killer(Interval(0, 1))
            germ = extract_germ(setup, clear_diagonal(alpha))
            assert value_at_s0_is_zero(germ)
            assert derivative_is_zero(germ)


class TestRoundTrip:
    @pytest.mark.parametrize("setup", SETUPS, ids=["unram", "ram", "ram-neg"])
    def test_battery_round_trip(self, setup):
        for name, f in germ_battery(setup):
            germ = extract_germ(setup, f)
            rebuilt = function_from_germ(germ)
            again = extract_germ(setup, rebuilt)
            assert germ.equivalent(again), name

    def test_constant_germ_battery(self):
        cells = [
            (ALL, ALL),
            (Interval(0, 0), ALL),
            (Interval(1, None), Interval(0, 2)),
        ]
        values = [(1, 0), (0, 1), (Fraction(1, 2), Fraction(-3, 2)), (2, 2)]
        count = 0
        for setup in (UNRAM, RAM):
            for cell in cells:
                for a0, a1 in values:
                    germ = constant_germ(setup, [(cell[0], cell[1], a0, a1)])
                    again = extract_germ(setup, function_from_germ(germ))
                    assert germ.equivalent(again)
                    count += 1
        assert count >= 20

    def test_monomial_germ_round_trip(self):
        for setup in (UNRAM, RAM):
            for e2 in (-4, -2, 0, 2):
                piece = GermPiece(ALL, ALL, 0, LaurentPoly.monomial(e2, Fraction(5, 3)))
                germ = GermExpansion(setup, (piece,), (), threshold=1)
                again = extract_germ(setup, function_from_germ(germ))
                assert germ.equivalent(again)
        for e2 in (-3, -1, 1, 3):
            piece = GermPiece(ALL, ALL, 1, LaurentPoly.monomial(e2, 2))
            germ = GermExpansion(RAM, (), (piece,), threshold=1)
            again = extract_germ(RAM, function_from_germ(germ))
            assert germ.equivalent(again)

    def test_grading_mismatch_rejected(self):
        bad = GermExpansion(RAM, (GermPiece(ALL, ALL, 1, ONE),), (), 1)
        with pytest.raises(GermGradingError):
            function_from_germ(bad)
        bad_unram = GermExpansion(UNRAM, (GermPiece(ALL, ALL, 0, LaurentPoly.monomial(1)),), (), 1)
        with pytest.raises(GermGradingError):
            function_from_germ(bad_unram)
        no_class = GermExpansion(UNRAM, (GermPiece(ALL, ALL, 1, LaurentPoly.monomial(1)),), (), 1)
        with pytest.raises(GermGradingError):
            function_from_germ(no_class)  # no unramified element has v(b) in 1/2 + Z


class TestExpansionValidity:
    @pytest.mark.parametrize("setup", SETUPS, ids=["unram", "ram", "ram-neg"])
    def test_battery_expansion_exact(self, setup):
        for name, f in germ_battery(setup):
            germ = extract_germ(setup, f)
            for lvl_a, lvl_d in ((None, None), (1, 0), (0, 2)):
                for gamma in near_diagonal_orbits(setup, germ.threshold,
                                                  lvl_a=lvl_a, lvl_d=lvl_d):
                    want = germ.predicted_orb_s(gamma)
                    assert orb_s(gamma, f) == want, name

    def test_reconstruction_realizes_prescription(self):
        germ = constant_germ(UNRAM, [(ALL, ALL, 1, 0)])
        f = function_from_germ(germ)
        for gamma in near_diagonal_orbits(UNRAM, 2):
            # orbital series equals eta_s(b) exactly
            assert orb_s(gamma, f) == LaurentPoly.monomial(gamma.v_b2, gamma.b_sign)

    def test_reconstruction_c_side(self):
        germ = constant_germ(UNRAM, [(ALL, ALL, 0, Fraction(7, 2))])
        f = function_from_germ(germ)
        for gamma in near_diagonal_orbits(UNRAM, 2):
            want = (LaurentPoly.monomial(-gamma.v_c2, gamma.c_sign)
                    * LaurentPoly.monomial(0, Fraction(7, 2)))
            assert orb_s(gamma, f) == want

    def test_zero_germ_gives_zero_function(self):
        f = function_from_germ(GermExpansion(UNRAM, (), (), 1))
        assert not f.terms


class TestDerivativeForm:
    def test_constant_b_side(self):
        germ = GermExpansion(UNRAM, (GermPiece(ALL, ALL, 0, ONE),), (), 1)
        slope, const = germ.derivative_side(0, None, None, 0)
        assert slope == -1 and const == 0

    def test_constant_c_side(self):
        germ = GermExpansion(UNRAM, (), (GermPiece(ALL, ALL, 0, ONE),), 1)
        slope, const = germ.derivative_side(1, None, None, 0)
        assert slope == 1 and const == 0

    def test_zero_germ(self):
        assert derivative_is_zero(GermExpansion(UNRAM, (), (), 1))

    def test_cancelling_pieces_are_zero(self):
        T = LaurentPoly.monomial(2)
        germ = GermExpansion(UNRAM, (GermPiece(ALL, ALL, 0, T), GermPiece(ALL, ALL, 0, -T)),
                             (), 1)
        assert value_at_s0_is_zero(germ)
        assert not any(germ.eval_side(side, None, None, 0) for side in (0, 1))
        assert derivative_is_zero(germ)
        one_left = GermExpansion(UNRAM, germ.a0[:1], (), 1)
        assert not derivative_is_zero(one_left)

    @pytest.mark.parametrize("setup", SETUPS, ids=["unram", "ram", "ram-neg"])
    def test_derivative_form_matches_engine(self, setup):
        for name, f in germ_battery(setup):
            germ = extract_germ(setup, f)
            for gamma in near_diagonal_orbits(setup, germ.threshold, t_span=4,
                                              vb2_range=range(-4, 5)):
                assert d_orb(gamma, f) == germ.predicted_d_orb(gamma), name


class TestTransferSolve:
    def test_symmetric_case(self):
        assert solve_transfer_germ(5, 5) == (Fraction(0), Fraction(5))

    def test_half_split(self):
        assert solve_transfer_germ(1, 0) == (Fraction(1, 2), Fraction(1, 2))

    @pytest.mark.parametrize("e", [1, 2, 3, 6])
    def test_scaled_one_sided(self, e):
        a0, a1 = solve_transfer_germ(0, e)
        assert a0 == -Fraction(e, 2) and a1 == Fraction(e, 2)

    @pytest.mark.parametrize("c0", [-2, 0, 1, Fraction(3, 2)])
    @pytest.mark.parametrize("c1", [-1, 0, Fraction(5, 2)])
    @pytest.mark.parametrize("side", [PLUS, MINUS])
    def test_matching_system(self, c0, c1, side):
        # the eta(b) = side system weights a0 by side * defect_sign; for
        # side = -1 it is the +1 system with its two equations traded
        a0, a1 = solve_transfer_germ(*((c0, c1) if side == PLUS else (c1, c0)))
        # defect sign +1 equation and defect sign -1 equation
        assert PLUS * side * a0 + a1 == c0
        assert MINUS * side * a0 + a1 == c1


class TestZeroOrbitGermCheck:
    @pytest.mark.parametrize("setup", SETUPS, ids=["unram", "ram", "ram-neg"])
    def test_zero_orbit_battery(self, setup):
        for name, f in zero_orbit_battery(setup):
            # precondition: the plain integrals really vanish on a grid
            for gamma in near_diagonal_orbits(setup, 0, t_span=6, vb2_range=range(-4, 5)):
                assert orb(gamma, f) == 0, name
            assert zero_orbit_zero_germ(setup, f), name

    def test_nonzero_orbit_function_fails_guard(self):
        # the unit-shell function has nonvanishing integrals, and indeed a
        # nonvanishing value germ: the check is not applicable and reports it
        box = Box(i_a=Interval(0, 0), i_b=Interval(0, 0), i_c=Interval(0, None),
                  i_d=Interval(0, 0))
        f = InvariantFunction.from_box(box)
        assert orb(unramified_orbit(UNRAM, 2, 0), f) != 0
        assert not zero_orbit_zero_germ(UNRAM, f)


class TestThreshold:
    def test_threshold_from_window_sums(self):
        # a box bounded in b and open in c behaves like its germ only once
        # t clears the sum of the c-floor and the b-ceiling
        box = Box(i_a=Interval(0, 0), i_b=Interval(4, 10), i_c=Interval(2, None),
                  i_d=Interval(0, 0))
        f = InvariantFunction.from_box(box)
        germ = extract_germ(UNRAM, f)
        assert germ.threshold == 6
        below = unramified_orbit(UNRAM, t=5, v_b=3)
        assert orb_s(below, f) != germ.predicted_orb_s(below)
        for gamma in near_diagonal_orbits(UNRAM, germ.threshold, t_span=4):
            assert orb_s(gamma, f) == germ.predicted_orb_s(gamma)


class TestExtractionLinearity:
    @pytest.mark.parametrize("setup", SETUPS, ids=["unram", "ram", "ram-neg"])
    def test_germ_of_sum_is_sum_of_germs(self, setup):
        battery = germ_battery(setup)
        pairs = [(battery[0][1], battery[3][1]), (battery[1][1], battery[8][1]),
                 (battery[2][1], battery[5][1])]
        for f, g in pairs:
            combined = extract_germ(setup, f + g.scale(Fraction(-2, 3)))
            gf = extract_germ(setup, f)
            gg = extract_germ(setup, g)
            minus_two_thirds = LaurentPoly.monomial(0, Fraction(-2, 3))
            for la in (None, 0, 1, 2, 3):
                for ld in (None, 0, 1, 2, 3):
                    for cls in combined.setup.classes:
                        for side in (0, 1):
                            want = gf.eval_side(side, la, ld, cls) \
                                + gg.eval_side(side, la, ld, cls) * minus_two_thirds
                            assert combined.eval_side(side, la, ld, cls) == want


def grid_equivalent(g, h):
    """Reference for GermExpansion.equivalent: compare both germ maps on the
    brute-force grid of every level 0 .. (largest endpoint + 1), plus None."""
    if g.setup.ramified != h.setup.ramified:
        return False
    tops = [0]
    for germ in (g, h):
        for piece in germ.a0 + germ.a1:
            for iv in (piece.lvl_a, piece.lvl_d):
                tops.extend(x for x in (iv.lo, iv.hi) if x is not None)
    probes = list(range(0, max(tops) + 2)) + [None]
    classes = (0, 1) if g.setup.ramified else (0,)
    return all(g.eval_side(side, la, ld, cls) == h.eval_side(side, la, ld, cls)
               for la in probes for ld in probes for cls in classes for side in (0, 1))


@st.composite
def level_intervals(draw):
    if draw(st.booleans()):
        return ALL
    lo = draw(st.none() | st.integers(0, 4))
    # an interval ending below level 0 matches no level at all
    hi = draw(st.none() | st.integers(-3 if lo is None else lo, 5))
    return Interval(lo, hi)


@st.composite
def germ_pieces(draw, setup):
    poly = LaurentPoly(draw(st.dictionaries(st.integers(-3, 3), st.integers(-2, 2), max_size=2)))
    return GermPiece(draw(level_intervals()), draw(level_intervals()),
                     draw(st.sampled_from(setup.classes)), poly)


@st.composite
def germ_pairs(draw):
    """A random germ g and a germ h built from it: the same pieces in another
    order, pieces added on both sides of h that cancel, a level interval split
    in two, and sometimes one stray piece that may break equivalence."""
    setup = draw(st.sampled_from(SETUPS))
    sides = [draw(st.lists(germ_pieces(setup), max_size=4)) for _ in range(2)]
    h_sides = []
    for pieces in sides:
        out = list(reversed(pieces))
        for extra in draw(st.lists(germ_pieces(setup), max_size=2)):
            out += [extra, GermPiece(extra.lvl_a, extra.lvl_d, extra.vclass, -extra.poly)]
        if out and draw(st.booleans()):
            first = out.pop(0)
            iv = first.lvl_a
            if iv.lo is not None and iv.hi != iv.lo:
                cut = iv.lo if iv.hi is None else (iv.lo + iv.hi) // 2
                out += [GermPiece(Interval(iv.lo, cut), first.lvl_d, first.vclass, first.poly),
                        GermPiece(Interval(cut + 1, iv.hi), first.lvl_d, first.vclass, first.poly)]
            else:
                out.append(first)
        if draw(st.booleans()):
            out.append(draw(germ_pieces(setup)))
        h_sides.append(out)
    threshold = draw(st.integers(1, 3))
    return (GermExpansion(setup, tuple(sides[0]), tuple(sides[1]), threshold),
            GermExpansion(setup, tuple(h_sides[0]), tuple(h_sides[1]), 1))


class TestProbeCells:
    @given(germ_pairs())
    def test_equivalent_matches_the_level_grid(self, pair):
        g, h = pair
        assert g.equivalent(h) == grid_equivalent(g, h)
        assert h.equivalent(g) == grid_equivalent(h, g)
        assert g.equivalent(g)

    def test_intervals_below_level_zero_match_nothing(self):
        pieces = tuple(GermPiece(Interval(None, hi), ALL, 0, ONE) for hi in (-1, -3))
        below = GermExpansion(UNRAM, pieces, (), 1)
        assert below.equivalent(GermExpansion(UNRAM, (), (), 1))
        assert value_at_s0_is_zero(below)

    @given(germ_pairs())
    def test_value_at_s0_matches_the_level_grid(self, pair):
        g, _ = pair
        zero = GermExpansion(g.setup, (), (), 1)
        at_s0 = GermExpansion(g.setup, *(
            tuple(GermPiece(p.lvl_a, p.lvl_d, p.vclass, LaurentPoly.monomial(0, p.poly.eval_at_s0()))
                  for p in pieces) for pieces in g.sides), 1)
        assert value_at_s0_is_zero(g) == grid_equivalent(at_s0, zero)


class TestFoldedDerivativeForm:
    @given(germ_pairs(), st.none() | st.integers(0, 6), st.none() | st.integers(0, 6))
    def test_derivative_form_is_the_derivative_of_the_value_form(self, pair, lvl_a, lvl_d):
        # ties the slope/constant coefficients to predicted_orb_s without orb_s
        germ, _ = pair
        for gamma in near_diagonal_orbits(germ.setup, germ.threshold, t_span=2,
                                          vb2_range=range(-3, 4), lvl_a=lvl_a, lvl_d=lvl_d):
            assert germ.predicted_d_orb(gamma) == germ.predicted_orb_s(gamma).d_ds_at_s0()


class TestPredictedOrbS:
    @given(germ_pairs(), st.sampled_from((None, 0, 1)),
           st.none() | st.integers(0, 6), st.none() | st.integers(0, 6))
    def test_is_the_sum_of_the_side_products(self, pair, dropped, lvl_a, lvl_d):
        # eta_s(b) A0 + eta_s(c)^(-1) A1 with each side summed from its pieces;
        # dropped empties one side, so that side is zero on every cell
        germ, _ = pair
        if dropped is not None:
            sides = list(germ.sides)
            sides[dropped] = ()
            germ = GermExpansion(germ.setup, *sides, germ.threshold)
        for gamma in near_diagonal_orbits(germ.setup, germ.threshold, t_span=2,
                                          vb2_range=range(-3, 4), lvl_a=lvl_a, lvl_d=lvl_d):
            a0, a1 = (sum((p.poly for p in pieces
                           if p.matches(gamma.lvl_a, gamma.lvl_d, gamma.v_b2 % 2)),
                          LaurentPoly.zero())
                      for pieces in germ.sides)
            want = (LaurentPoly.monomial(gamma.v_b2, gamma.b_sign) * a0
                    + LaurentPoly.monomial(-gamma.v_c2, gamma.c_sign) * a1)
            assert germ.predicted_orb_s(gamma) == want

    def test_no_product_for_a_zero_side(self, monkeypatch):
        products = []
        plain = LaurentPoly.__mul__

        def counting(p, q):
            products.append((p, q))
            return plain(p, q)
        monkeypatch.setattr(LaurentPoly, "__mul__", counting)
        for setup in SETUPS:
            for a0, a1 in ((1, 0), (0, 2), (0, 0), (1, -1)):
                germ = constant_germ(setup, [(ALL, ALL, a0, a1)])
                for gamma in near_diagonal_orbits(setup, 1, t_span=2, vb2_range=range(-3, 4)):
                    products.clear()
                    germ.predicted_orb_s(gamma)
                    assert len(products) == (a0 != 0) + (a1 != 0)
                    assert all(p and q for p, q in products)


class TestCellMemo:
    """eval_side memoizes each cell's sum; the memo is invisible to ==, hash,
    repr and to_json, and each cell's pieces are summed once."""

    @staticmethod
    def hash_or_error(germ):
        # a germ with pieces holds LaurentPolys, which are unhashable
        try:
            return hash(germ)
        except TypeError as exc:
            return type(exc)

    @pytest.mark.parametrize("setup", SETUPS, ids=["unram", "ram", "ram-neg"])
    def test_filled_memo_is_invisible(self, setup):
        functions = germ_battery(setup) + [("zero", InvariantFunction())]
        for name, f in functions:
            filled, fresh = extract_germ(setup, f), extract_germ(setup, f)
            for gamma in near_diagonal_orbits(setup, filled.threshold, t_span=2):
                filled.predicted_orb_s(gamma)
            assert filled._cells and not fresh._cells, name
            assert filled == fresh and filled.equivalent(fresh), name
            assert self.hash_or_error(filled) == self.hash_or_error(fresh), name
            assert repr(filled) == repr(fresh), name
            assert filled.to_json() == fresh.to_json(), name
        empty = extract_germ(setup, InvariantFunction())
        empty.eval_side(0, None, None, 0)
        assert hash(empty) == hash(GermExpansion(setup, (), (), 1))

    @pytest.mark.parametrize("setup", SETUPS, ids=["unram", "ram", "ram-neg"])
    def test_germ_row_sums_each_cell_once(self, setup, monkeypatch):
        matched = []
        plain = GermPiece.matches

        def recording(piece, lvl_a, lvl_d, vclass):
            matched.append((piece, (lvl_a, lvl_d, vclass)))
            return plain(piece, lvl_a, lvl_d, vclass)

        monkeypatch.setattr(GermPiece, "matches", recording)
        total = 0
        for name, f in germ_battery(setup):
            matched.clear()
            assert _germ_row((setup, name, f))["passed"], name
            # the list keeps every piece alive, so no id is reused
            seen = [(id(piece), cell) for piece, cell in matched]
            assert len(seen) == len(set(seen)), name
            total += len(seen)
        assert total
