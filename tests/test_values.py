"""The value types are named tuples, checked on every path that builds one,
unpickling included.

The process pool ships rows' inputs (field setups, boxes inside functions)
to its workers by pickle, and a named tuple unpickles through its class's
__new__, so an unpickled value passes the same checks as a constructed one."""

import pickle

import pytest

from aflcalc.battery import germ_battery
from aflcalc.field import MINUS, PLUS, FieldSetup, ValClass
from aflcalc.germs import GermExpansion, GermPiece, extract_germ
from aflcalc.matching import (AflRow, EndToEndReport, EndToEndRow, EntryHeights, GrowthReport,
                              GrowthRow, MatchContext, afl_verify, ati_end_to_end,
                              ati_growth_check, context_orbit, entry_heights)
from aflcalc.orbital import Box, Interval, OrbitData, unramified_orbit
from aflcalc.symbolic import LaurentPoly

RAM = FieldSetup(3, True, MINUS)


def values():
    """One value of each of the fourteen types, built by the engine where it
    builds them."""
    box = Box(Interval(0, 0), Interval(0, 2), Interval(-1, 3), Interval(0, 0),
              sgn_b_req=MINUS, sgn_c_req=PLUS, lvl_a_req=Interval(1, None))
    germ = extract_germ(RAM, germ_battery(RAM)[0][1])
    germ.predicted_orb_s(context_orbit(MatchContext(RAM, 0, 0, 2), germ.threshold))
    ctx = MatchContext(RAM, 1, 0, 6)  # e_F = 2q, the level-1 class-field ramification
    growth = ati_growth_check(ctx, range(8), finite_lvl_a=0)
    end_to_end = ati_end_to_end(ctx)
    return [RAM, ValClass(2, MINUS), Interval(0, None), box,
            OrbitData(RAM, 0, -3, MINUS, PLUS, v_a2=1, lvl_a=2, lvl_d=0),
            GermPiece(Interval(1, None), Interval(), 0, LaurentPoly.monomial(2, 3)), germ,
            ctx, entry_heights(context_orbit(ctx, 3, lvl_a=0), ctx),
            afl_verify(FieldSetup(3, False), 3, 1), growth.open_rows[1][0], growth,
            end_to_end.rows[0][0], end_to_end]


TYPES = [FieldSetup, ValClass, Interval, Box, OrbitData, GermPiece, GermExpansion,
         MatchContext, EntryHeights, AflRow, GrowthRow, GrowthReport, EndToEndRow,
         EndToEndReport]


def test_every_value_type_survives_pickling():
    built = values()
    assert [type(value) for value in built] == TYPES
    for value in built:
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is type(value) and copy == value, type(value).__name__


# the reports hold dicts of rows, so they are equal by value but not hashable
UNHASHABLE = {GrowthReport, EndToEndReport}


def test_equal_values_hash_equal():
    for value, twin in zip(values(), values()):
        assert value == twin, type(value).__name__
        if type(value) in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == hash(twin), type(value).__name__


# _replace skips the checks; each builds a value its class would refuse
INVALID = [
    (FieldSetup(3, False), {"eta_pi_f": PLUS}),
    (ValClass(2, MINUS), {"eta_sign": 0}),
    (Box(Interval(0, 0), Interval(0, 2), Interval(0, None), Interval(0, 0)), {"i_c": None}),
    (unramified_orbit(FieldSetup(3, False), 1, 0), {"t": -1}),
    (MatchContext(RAM, 0, 0, 2), {"e_f": 0}),
]


@pytest.mark.parametrize("value, change", INVALID,
                         ids=[type(value).__name__ for value, _ in INVALID])
def test_unpickling_runs_the_checks(value, change):
    with pytest.raises(ValueError):
        pickle.loads(pickle.dumps(value._replace(**change)))


# a bool is an int, so True == 1 used to pass every check and reach report
# JSON: OrbitData(FieldSetup(3, True), True, 0, 1, 1).to_json() wrote "t": true.
# Each case builds with every field 0 or 1, and must refuse that field as a bool.
ORBIT = dict(t=1, v_b2=0, b_sign=PLUS, defect_sign=PLUS, v_a2=0, lvl_a=1, lvl_d=0)
BOX = dict(i_a=Interval(0, 0), i_b=Interval(0, 2), i_c=Interval(0, 1), i_d=Interval(0, 0),
           sgn_b_req=PLUS, sgn_c_req=PLUS)
BOOL_CASES = (
    [("OrbitData", lambda **kw: OrbitData(RAM, **{**ORBIT, **kw}), f) for f in ORBIT]
    + [("Interval", lambda **kw: Interval(**{"lo": 0, "hi": 1, **kw}), f) for f in ("lo", "hi")]
    + [("Box", lambda **kw: Box(**{**BOX, **kw}), f) for f in ("sgn_b_req", "sgn_c_req")]
    + [("ValClass", lambda **kw: ValClass(**{"half_val": 2, "eta_sign": PLUS, **kw}),
        "eta_sign")])


@pytest.mark.parametrize("build, field", [(build, field) for _, build, field in BOOL_CASES],
                         ids=[f"{name}.{field}" for name, _, field in BOOL_CASES])
def test_bool_is_no_int(build, field):
    value = getattr(build(), field)
    assert type(value) is int and value in (0, 1)
    with pytest.raises(TypeError):
        build(**{field: bool(value)})


# the reverse case: FieldSetup(3, 0) built, and OrbitData.to_json() then wrote
# "ramified": 0; FieldSetup(3, "no") built a ramified setup
@pytest.mark.parametrize("ramified", [0, 1, "no", None])
def test_ramified_is_exactly_bool(ramified):
    with pytest.raises(TypeError):
        FieldSetup(3, ramified)
