from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from aflcalc.symbolic import LaurentPoly, LogValue


def poly(*pairs):
    return LaurentPoly([(e2, Fraction(c)) for e2, c in pairs])


class TestBasics:
    def test_zero_coefficients_dropped(self):
        assert poly((2, 1), (2, -1)).is_zero
        assert poly((0, 0)).is_zero

    def test_doubled_exponent_type_checked(self):
        with pytest.raises(TypeError):
            LaurentPoly([(Fraction(1, 2), Fraction(1))])

    def test_arithmetic(self):
        p = poly((0, 1), (-2, -1))  # 1 - T^-1
        q = poly((2, 1))
        assert p * q == poly((2, 1), (0, -1))
        assert p + q - q == p
        assert (-p) + p == LaurentPoly.zero()
        assert p.scale(Fraction(1, 2)) == poly((0, Fraction(1, 2)), (-2, Fraction(-1, 2)))


class TestEvalAtZero:
    def test_one_minus_t_inverse(self):
        assert poly((0, 1), (-2, -1)).eval_at_s0() == 0

    def test_zero(self):
        assert LaurentPoly.zero().eval_at_s0() == 0

    def test_substitution(self):
        assert poly((4, 3), (0, 2)).eval_at_s0() == 5


class TestDerivativeAtZero:
    def test_one_minus_t_inverse(self):
        assert poly((0, 1), (-2, -1)).d_ds_at_s0() == LogValue.of(0, -1)

    def test_constant(self):
        assert poly((0, 7)).d_ds_at_s0() == LogValue.zero()

    def test_four_terms(self):
        p = poly((-2, -1), (0, 1), (2, -1), (4, 1))
        assert p.d_ds_at_s0() == LogValue.of(0, -2)


class TestFormalDerivative:
    """d/ds T^m = -m log(q) T^m, read at s = 0 term by term."""

    @pytest.mark.parametrize("k", [-3, -1, 0, 1, 2, 5])
    def test_monomial_rule(self, k):
        assert LaurentPoly.monomial(2 * k).d_ds_at_s0() == LogValue.of(0, -k)

    def test_constant(self):
        assert LaurentPoly.one().d_ds_at_s0().is_zero

    def test_termwise(self):
        p = poly((2, 1), (-2, 3))
        assert p.d_ds_at_s0() == LogValue.of(0, -1 + 3)

    def test_half_exponent(self):
        assert LaurentPoly.monomial(1).d_ds_at_s0() == LogValue.of(0, Fraction(-1, 2))


small_polys = st.dictionaries(
    st.integers(min_value=-20, max_value=20),
    st.fractions(min_value=-10, max_value=10, max_denominator=12),
    max_size=6,
).map(LaurentPoly)
rationals = st.fractions(min_value=-8, max_value=8, max_denominator=12)


class TestFunctionalProperties:
    @given(small_polys, small_polys, rationals)
    def test_linearity(self, p, q, c):
        combo = p + q.scale(c)
        assert combo.eval_at_s0() == p.eval_at_s0() + c * q.eval_at_s0()
        got = combo.d_ds_at_s0()
        want = p.d_ds_at_s0() + q.d_ds_at_s0().scale(c)
        assert got == want

    @given(small_polys, small_polys)
    def test_multiplicativity_at_zero(self, p, q):
        assert (p * q).eval_at_s0() == p.eval_at_s0() * q.eval_at_s0()

    @given(small_polys, small_polys)
    def test_product_rule(self, p, q):
        lhs = (p * q).d_ds_at_s0().log_q_part
        rhs = (p.d_ds_at_s0().log_q_part * q.eval_at_s0()
               + p.eval_at_s0() * q.d_ds_at_s0().log_q_part)
        assert lhs == rhs


class TestRendering:
    def test_canonical_text(self):
        p = poly((-2, -1), (0, 1), (2, -1), (4, 1))
        assert p.text() == "-T^-1 + 1 - T + T^2"

    def test_fractional_and_half_exponents(self):
        p = poly((1, Fraction(1, 2)), (-3, 1))
        assert p.text() == "T^-3/2 + 1/2*T^1/2"

    def test_zero(self):
        assert LaurentPoly.zero().text() == "0"

    def test_log_value_text(self):
        assert LogValue.of(0, -1).text() == "-log(q)"
        assert LogValue.of(Fraction(3, 2), 2).text() == "3/2 + 2*log(q)"
        assert LogValue.zero().text() == "0"
