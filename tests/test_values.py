"""The value types are named tuples, checked on every path that builds one,
unpickling included.

The process pool ships rows' inputs (field setups, boxes inside functions)
to its workers by pickle, and a named tuple unpickles through its class's
__new__, so an unpickled value passes the same checks as a constructed one."""

import pickle

import pytest

from aflcalc.battery import germ_battery
from aflcalc.deformation import DeformQuery
from aflcalc.field import MINUS, PLUS, FieldSetup, ValClass
from aflcalc.germs import GermExpansion, GermPiece, extract_germ
from aflcalc.matching import (AflRow, EndToEndReport, EndToEndRow, EntryHeights, GrowthReport,
                              GrowthRow, MatchContext, afl_verify, ati_end_to_end,
                              ati_growth_check, context_orbit, entry_heights)
from aflcalc.orbital import Box, Interval, OrbitData, unramified_orbit
from aflcalc.symbolic import LaurentPoly

RAM = FieldSetup(3, True, MINUS)


def values():
    """One value of each of the fifteen types, built by the engine where it
    builds them."""
    box = Box(Interval(0, 0), Interval(0, 2), Interval(-1, 3), Interval(0, 0),
              sgn_b_req=MINUS, sgn_c_req=PLUS, lvl_a_req=Interval(1, None))
    germ = extract_germ(RAM, germ_battery(RAM)[0][1])
    germ.predicted_orb_s(context_orbit(MatchContext(RAM, 0, 0, 2), germ.threshold))
    ctx = MatchContext(RAM, 1, 0, 6)  # e_F = 2q, the level-1 class-field ramification
    growth = ati_growth_check(ctx, range(8), finite_lvl_a=0)
    end_to_end = ati_end_to_end(ctx)
    return [RAM, ValClass(2, MINUS), DeformQuery(RAM, 1, 2, 1, 3), Interval(0, None), box,
            OrbitData(RAM, 0, -3, MINUS, PLUS, v_a2=1, lvl_a=2, lvl_d=0),
            GermPiece(Interval(1, None), Interval(), 0, LaurentPoly.monomial(2, 3)), germ,
            ctx, entry_heights(context_orbit(ctx, 3, lvl_a=0), ctx),
            afl_verify(FieldSetup(3, False), 3, 1), growth.open_rows[1][0], growth,
            end_to_end.rows[0][0], end_to_end]


TYPES = [FieldSetup, ValClass, DeformQuery, Interval, Box, OrbitData, GermPiece, GermExpansion,
         MatchContext, EntryHeights, AflRow, GrowthRow, GrowthReport, EndToEndRow,
         EndToEndReport]


def test_every_value_type_survives_pickling():
    built = values()
    assert [type(value) for value in built] == TYPES
    for value in built:
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is type(value) and copy == value, type(value).__name__


# _replace skips the checks; each builds a value its class would refuse
INVALID = [
    (FieldSetup(3, False), {"eta_pi_f": PLUS}),
    (ValClass(2, MINUS), {"eta_sign": 0}),
    (DeformQuery(RAM, 0, 0, 1, 0), {"l": -1}),
    (Box(Interval(0, 0), Interval(0, 2), Interval(0, None), Interval(0, 0)), {"i_c": None}),
    (unramified_orbit(FieldSetup(3, False), 1, 0), {"t": -1}),
    (MatchContext(RAM, 0, 0, 2), {"e_f": 0}),
]


@pytest.mark.parametrize("value, change", INVALID,
                         ids=[type(value).__name__ for value, _ in INVALID])
def test_unpickling_runs_the_checks(value, change):
    with pytest.raises(ValueError):
        pickle.loads(pickle.dumps(value._replace(**change)))
