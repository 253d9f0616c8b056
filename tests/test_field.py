from fractions import Fraction

import pytest

from aflcalc.field import MINUS, PLUS, FieldSetup, ValClass, eta_s, unit_integral
from aflcalc.symbolic import LaurentPoly

UNRAM = FieldSetup(3, ramified=False)
RAM = FieldSetup(3, ramified=True)


def unram_class(v):
    """The class of a valuation-v element in the unramified setup."""
    return ValClass(2 * v, *UNRAM.signs(2 * v))


class TestFieldSetup:
    def test_unramified_forces_minus(self):
        assert UNRAM.eta_pi_f == MINUS
        with pytest.raises(ValueError):
            FieldSetup(3, ramified=False, eta_pi_f=PLUS)

    def test_ramified_default_plus_and_configurable(self):
        assert RAM.eta_pi_f == PLUS
        assert FieldSetup(3, ramified=True, eta_pi_f=MINUS).eta_pi_f == MINUS

    def test_q_bound(self):
        with pytest.raises(ValueError):
            FieldSetup(1, ramified=False)


class TestSigns:
    """FieldSetup.signs against the convention stated directly: unramified
    eta(x) = (-1)^v(x) and no half-integral valuations; ramified, both signs
    at every valuation."""

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_unramified(self, q):
        setup = FieldSetup(q, ramified=False)
        for v in range(-20, 21):
            assert setup.signs(2 * v) == ((-1) ** v,)
            assert setup.signs(2 * v + 1) == ()
        assert setup.classes == (0,)

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("eta_pi_f", [PLUS, MINUS])
    def test_ramified(self, q, eta_pi_f):
        setup = FieldSetup(q, ramified=True, eta_pi_f=eta_pi_f)
        for v2 in range(-41, 42):
            assert setup.signs(v2) == (PLUS, MINUS)
        assert setup.classes == (0, 1)

    def test_consistency_follows_signs(self):
        for setup in (UNRAM, RAM):
            for v2 in range(-9, 10):
                for sign in (PLUS, MINUS):
                    assert ValClass(v2, sign).consistent_with(setup) == (sign in setup.signs(v2))
        for v in range(-5, 6):
            assert unram_class(v) == ValClass(2 * v, (-1) ** v)


class TestValClassMonoid:
    def test_exhaustive_monoid_laws(self):
        grid = [ValClass(h, s) for h in range(-8, 9) for s in (PLUS, MINUS)]
        one = ValClass(0, PLUS)
        for x in grid:
            assert x * one == x and one * x == x
        small = [ValClass(h, s) for h in range(-4, 5, 2) for s in (PLUS, MINUS)]
        for x in small:
            for y in small:
                assert x * y == y * x
                for z in small:
                    assert (x * y) * z == x * (y * z)

    def test_multiplication_componentwise(self):
        x = ValClass(3, MINUS)
        y = ValClass(-1, MINUS)
        assert x * y == ValClass(2, PLUS)


class TestEtaS:
    def test_unramified_uniformizer(self):
        assert eta_s(unram_class(1), UNRAM) == LaurentPoly.monomial(2, -1)

    def test_unramified_unit(self):
        assert eta_s(unram_class(0), UNRAM) == LaurentPoly.monomial(0)

    def test_ramified_half_valuation(self):
        assert eta_s(ValClass(1, PLUS), RAM) == LaurentPoly.monomial(1, 1)

    def test_unramified_consistency_enforced(self):
        with pytest.raises(ValueError):
            eta_s(ValClass(2, PLUS), UNRAM)  # v = 1 needs sign -1

    def test_value_at_zero_is_sign_of_valuation(self):
        for v in range(-20, 21):
            value = eta_s(unram_class(v), UNRAM).eval_at_s0()
            assert value == (-1) ** v

    def test_inverse_flips_exponent(self):
        x = ValClass(3, MINUS)
        assert eta_s(x, RAM) * eta_s(x.inverse(), RAM) == LaurentPoly.monomial(0)


def unit_measure(setup, constraint, weighted):
    """unit_integral on the units, or for weighted=False the plain measure it
    implies: each sign coset carries weight eta = s, so s * unit_integral(s)
    is its measure."""
    if weighted:
        return unit_integral(setup, 0, constraint)
    signs = (PLUS, MINUS) if constraint is None else (constraint,)
    return sum(s * unit_integral(setup, 0, s) for s in signs)


class TestUnitIntegral:
    @pytest.mark.parametrize("constraint,weighted,expected", [
        (None, False, 1), (None, True, 1),
        (PLUS, False, 1), (PLUS, True, 1),
        (MINUS, False, 0), (MINUS, True, 0),
    ])
    def test_unramified_table(self, constraint, weighted, expected):
        assert unit_measure(UNRAM, constraint, weighted) == expected

    @pytest.mark.parametrize("constraint,weighted,expected", [
        (None, False, Fraction(1)), (None, True, Fraction(0)),
        (PLUS, False, Fraction(1, 2)), (PLUS, True, Fraction(1, 2)),
        (MINUS, False, Fraction(1, 2)), (MINUS, True, Fraction(-1, 2)),
    ])
    def test_ramified_table(self, constraint, weighted, expected):
        assert unit_measure(RAM, constraint, weighted) == expected


# unit_integral(setup, v2, pin) for pin = None, +1, -1, from the convention
# stated directly: unramified, one coset of weight (-1)^v and nothing at a
# half-integral v; ramified, cosets of weight +1 and -1 with measure 1/2 each
UNRAM_SHELLS = {-3: (0, 0, 0), -2: (-1, 0, -1), -1: (0, 0, 0), 0: (1, 1, 0),
                1: (0, 0, 0), 2: (-1, 0, -1), 3: (0, 0, 0), 4: (1, 1, 0)}
RAM_SHELL = (0, Fraction(1, 2), Fraction(-1, 2))


class TestShellMeasure:
    @pytest.mark.parametrize("v2", sorted(UNRAM_SHELLS))
    @pytest.mark.parametrize("setup", [UNRAM, RAM, FieldSetup(5, ramified=True, eta_pi_f=MINUS)],
                             ids=["unram", "ram", "ram-neg"])
    def test_table(self, setup, v2):
        expected = RAM_SHELL if setup.ramified else UNRAM_SHELLS[v2]
        got = tuple(unit_integral(setup, v2, pin) for pin in (None, PLUS, MINUS))
        assert got == expected

    @pytest.mark.parametrize("setup", [UNRAM, RAM], ids=["unram", "ram"])
    def test_signed_pins_sum_to_the_plain_shell_measure(self, setup):
        # the whole shell has measure 1 where the valuation occurs at all
        for v2 in range(-9, 10):
            plain = sum(s * unit_integral(setup, v2, s) for s in (PLUS, MINUS))
            assert plain == (1 if setup.ramified or v2 % 2 == 0 else 0)

    def test_rejects_other_constraints(self):
        with pytest.raises(ValueError):
            unit_integral(RAM, 0, 2)
