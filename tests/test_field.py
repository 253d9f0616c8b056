from fractions import Fraction

import pytest

from aflcalc.field import MINUS, PLUS, FieldSetup, ValClass, unit_integral
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


class TestValClass:
    @pytest.mark.parametrize("half_val", [True, Fraction(2), 2.0])
    def test_half_val_is_exactly_int(self, half_val):
        # ValClass(True, 1) used to build, and a monomial read it as T^True/2
        with pytest.raises(TypeError):
            ValClass(half_val, PLUS)


class TestEtaS:
    """eta_s(x) = eta(x) T^v(x), the twisted character value as a monomial in
    T = q^(-s), is LaurentPoly.monomial(*x) for x = (2v(x), eta(x))."""

    def test_unramified_uniformizer(self):
        assert LaurentPoly.monomial(*unram_class(1)) == LaurentPoly.monomial(2, -1)

    def test_unramified_unit(self):
        assert LaurentPoly.monomial(*unram_class(0)) == LaurentPoly.monomial(0)

    def test_ramified_half_valuation(self):
        x = ValClass(1, PLUS)
        assert x.eta_sign in RAM.signs(x.half_val)
        assert LaurentPoly.monomial(*x) == LaurentPoly.monomial(1, 1)

    def test_value_at_zero_is_sign_of_valuation(self):
        for v in range(-20, 21):
            assert LaurentPoly.monomial(*unram_class(v)).eval_at_s0() == (-1) ** v

    def test_inverse_flips_exponent(self):
        x, x_inverse = ValClass(3, MINUS), ValClass(-3, MINUS)
        product = LaurentPoly.monomial(*x) * LaurentPoly.monomial(*x_inverse)
        assert product == LaurentPoly.monomial(0)


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
