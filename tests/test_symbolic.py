from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from aflcalc.symbolic import LaurentPoly, log_text


def poly(*pairs):
    return LaurentPoly([(e2, Fraction(c)) for e2, c in pairs])


class TestBasics:
    def test_zero_coefficients_dropped(self):
        assert not poly((2, 1), (2, -1))
        assert not poly((0, 0))

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
        value = poly((0, 1), (-2, -1)).d_ds_at_s0()
        assert type(value) is Fraction and value == -1

    def test_constant(self):
        assert poly((0, 7)).d_ds_at_s0() == 0

    def test_four_terms(self):
        p = poly((-2, -1), (0, 1), (2, -1), (4, 1))
        assert p.d_ds_at_s0() == -2


class TestFormalDerivative:
    """d/ds T^m = -m log(q) T^m, read at s = 0 term by term."""

    @pytest.mark.parametrize("k", [-3, -1, 0, 1, 2, 5])
    def test_monomial_rule(self, k):
        assert LaurentPoly.monomial(2 * k).d_ds_at_s0() == -k

    def test_constant(self):
        assert LaurentPoly.monomial(0).d_ds_at_s0() == 0

    def test_termwise(self):
        p = poly((2, 1), (-2, 3))
        assert p.d_ds_at_s0() == -1 + 3

    def test_half_exponent(self):
        assert LaurentPoly.monomial(1).d_ds_at_s0() == Fraction(-1, 2)


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
        want = p.d_ds_at_s0() + c * q.d_ds_at_s0()
        assert got == want

    @given(small_polys, small_polys)
    def test_multiplicativity_at_zero(self, p, q):
        assert (p * q).eval_at_s0() == p.eval_at_s0() * q.eval_at_s0()

    @given(small_polys, small_polys)
    def test_product_rule(self, p, q):
        lhs = (p * q).d_ds_at_s0()
        rhs = p.d_ds_at_s0() * q.eval_at_s0() + p.eval_at_s0() * q.d_ds_at_s0()
        assert lhs == rhs


# few exponents and coefficients, so that sums collide and often cancel
dense_polys = st.dictionaries(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(1, 2),
                     Fraction(1), Fraction(2)]),
    max_size=5,
).map(LaurentPoly)
polys = small_polys | dense_polys


class TestAddition:
    """The dict-merge sum against a rebuild from both term lists."""

    @given(polys, polys)
    def test_matches_rebuild_from_both_term_lists(self, p, q):
        total = p + q
        assert total == LaurentPoly(p.terms() + q.terms())
        assert total.text() == LaurentPoly(p.terms() + q.terms()).text()
        assert all(c for _, c in total.terms())

    @given(polys, polys)
    def test_cancellation(self, p, q):
        zero = p + (-p)
        assert not zero and zero.text() == "0" and zero == LaurentPoly.zero()
        assert (p + q) - q == p

    @given(polys, polys, rationals)
    def test_operands_unchanged(self, p, q, c):
        before = (dict(p._terms), dict(q._terms))
        _ = (p + q, q + p, p - q, -p, p.scale(c), p * q)
        assert (p._terms, q._terms) == before

    @given(polys, rationals)
    def test_scale_and_negation_match_public_constructor(self, p, c):
        assert p.scale(c) == LaurentPoly([(e2, c * v) for e2, v in p.terms()])
        assert -p == LaurentPoly([(e2, -v) for e2, v in p.terms()])
        assert not p.scale(0)


class TestProduct:
    """The dict-accumulated product against a rebuild from all pairwise products."""

    @given(polys, polys)
    def test_matches_rebuild_from_pairwise_products(self, p, q):
        product = p * q
        rebuilt = LaurentPoly([(e2 + f2, c * d) for e2, c in p.terms() for f2, d in q.terms()])
        assert product == rebuilt and product.text() == rebuilt.text()
        assert all(c for _, c in product.terms())

    @pytest.mark.parametrize("c", [2, Fraction(1, 2)])
    def test_scalars_multiply_through_scale_only(self, c):
        p = poly((0, 1), (2, -1))
        with pytest.raises(TypeError):
            p * c
        with pytest.raises(TypeError):
            c * p


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
        assert log_text(Fraction(-1)) == "-log(q)"
        assert log_text(Fraction(0)) == "0"
        assert log_text(Fraction(1)) == "log(q)"
        assert log_text(Fraction(2)) == "2*log(q)"
        assert log_text(Fraction(-3, 2)) == "-3/2*log(q)"
