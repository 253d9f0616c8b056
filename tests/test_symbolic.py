import operator
from fractions import Fraction
from math import gcd

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

    @pytest.mark.parametrize("e2", [Fraction(1, 2), Fraction(2), True, 2.0])
    def test_exponent_is_exactly_int_on_every_path(self, e2):
        # monomial used to take T^(1/2)/2, and a bool rendered as T^True/2
        with pytest.raises(TypeError):
            LaurentPoly([(e2, Fraction(1))])
        with pytest.raises(TypeError):
            LaurentPoly.monomial(e2)

    def test_arithmetic(self):
        p = poly((0, 1), (-2, -1))  # 1 - T^-1
        q = poly((2, 1))
        assert p * q == poly((2, 1), (0, -1))
        assert p + q - q == p
        assert (-p) + p == LaurentPoly.zero()
        half = LaurentPoly.monomial(0, Fraction(1, 2))
        assert p * half == poly((0, Fraction(1, 2)), (-2, Fraction(-1, 2)))


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


# denominators sharing little or no factor, large primes among them
unrelated_denominators = st.sampled_from(
    [1, 2, 3, 4, 9, 10, 12, 49, 97, 1024, 2**31 - 1, 10**9 + 7, 2**61 - 1])
wide_fractions = st.builds(Fraction, st.integers(-10**12, 10**12), unrelated_denominators)
CLOSING_E2 = 41  # outside the drawn exponents -20..20


@st.composite
def cancelling_polys(draw):
    """Polynomials with unrelated coefficient denominators, some closed by one
    more term so that the value or the slope sums to 0."""
    terms = draw(st.dictionaries(st.integers(-20, 20), wide_fractions, max_size=8))
    close = draw(st.sampled_from([None, "value", "slope"]))
    if close == "value":
        terms[CLOSING_E2] = -sum(terms.values(), Fraction(0))
    elif close == "slope":
        terms[CLOSING_E2] = -sum((e2 * c for e2, c in terms.items()), Fraction(0)) / CLOSING_E2
    return LaurentPoly(terms)


def normalized(x):
    assert type(x) is Fraction
    return x.numerator, x.denominator


class TestExactSums:
    """eval_at_s0 and d_ds_at_s0 sum the integer numerators over the
    polynomial's one denominator; both must give the plain Fraction sums, in
    lowest terms."""

    @given(cancelling_polys())
    def test_value_is_the_coefficient_sum(self, p):
        want = sum((c for _, c in p.terms()), Fraction(0))
        assert normalized(p.eval_at_s0()) == normalized(want)

    @given(cancelling_polys())
    def test_slope_is_the_weighted_coefficient_sum(self, p):
        want = -sum((Fraction(e2, 2) * c for e2, c in p.terms()), Fraction(0))
        assert normalized(p.d_ds_at_s0()) == normalized(want)

    def test_cancelling_sums_are_zero_over_one(self):
        p = poly((0, Fraction(1, 2**61 - 1)), (2, Fraction(-1, 2**61 - 1)), (4, Fraction(1, 6)),
                 (6, Fraction(-1, 6)))
        assert normalized(p.eval_at_s0()) == (0, 1)
        assert normalized(poly((2, Fraction(1, 3)), (-4, Fraction(1, 6))).d_ds_at_s0()) == (0, 1)


small_polys = st.dictionaries(
    st.integers(min_value=-20, max_value=20),
    st.fractions(min_value=-10, max_value=10, max_denominator=12),
    max_size=6,
).map(LaurentPoly)
rationals = st.fractions(min_value=-8, max_value=8, max_denominator=12)


class TestFunctionalProperties:
    @given(small_polys, small_polys, rationals)
    def test_linearity(self, p, q, c):
        combo = p + q * LaurentPoly.monomial(0, c)
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
        before = (dict(p._nums), p._den, dict(q._nums), q._den)
        _ = (p + q, q + p, p - q, -p, p * LaurentPoly.monomial(0, c), p * q)
        assert (p._nums, p._den, q._nums, q._den) == before

    @given(polys, rationals)
    def test_scale_and_negation_match_public_constructor(self, p, c):
        assert p * LaurentPoly.monomial(0, c) == LaurentPoly([(e2, c * v) for e2, v in p.terms()])
        assert -p == LaurentPoly([(e2, -v) for e2, v in p.terms()])
        assert not p * LaurentPoly.monomial(0, 0)


# the trusted constructor's inputs: nonzero int numerators over a positive
# denominator, not necessarily reduced
trusted_polys = st.builds(
    LaurentPoly._of,
    st.dictionaries(st.integers(-20, 20), st.integers(-10**6, 10**6).filter(bool), max_size=6),
    st.integers(1, 10**6))
scalars = rationals | st.integers(-5, 5)
expressions = st.recursive(
    polys | trusted_polys | st.builds(LaurentPoly.monomial, st.integers(-20, 20), scalars),
    lambda kids: st.builds(operator.add, kids, kids) | st.builds(operator.sub, kids, kids)
    | st.builds(operator.mul, kids, kids) | st.builds(operator.neg, kids)
    | st.builds(operator.mul, kids, st.builds(LaurentPoly.monomial, st.just(0), scalars)),
    max_leaves=6)


class TestCanonicalForm:
    """Every constructor and operation leaves integer numerators over one
    positive denominator in lowest terms, so that equal polynomials have
    equal fields and equal hashes."""

    @given(expressions)
    def test_every_path_builds_the_canonical_form(self, p):
        nums, den = p._nums, p._den
        assert all(type(e2) is int and type(n) is int and n for e2, n in nums.items())
        assert type(den) is int and den > 0
        assert gcd(den, *nums.values()) == 1  # and so den == 1 for the zero polynomial
        rebuilt = LaurentPoly(p.terms())
        assert (rebuilt._nums, rebuilt._den) == (nums, den)
        assert hash(rebuilt) == hash(p)

    @given(expressions, expressions)
    def test_equality_is_equality_of_terms(self, p, q):
        # the halved copy has p's numerators over twice its denominator
        for a, b in ((p, q), (p, p * LaurentPoly.monomial(0, Fraction(1, 2))),
                     (p, LaurentPoly(p.terms()))):
            assert (a == b) == (a.terms() == b.terms())

    def test_arithmetic_builds_no_fraction(self, fraction_builds):
        p = poly((-1, Fraction(1, 3)), (0, 2), (2, Fraction(-5, 6)))
        q = poly((0, Fraction(-2)), (2, Fraction(7, 10)), (4, Fraction(1, 4)))
        twin = LaurentPoly(p.terms())
        constants = [LaurentPoly.monomial(0, c) for c in (Fraction(-3, 4), 6, 0)]
        fraction_builds.clear()
        results = (p + q, q + p, p - q, -p, p * q, q * p, *(p * c for c in constants),
                   p == q, p == twin)
        assert fraction_builds == []
        assert results[-2:] == (False, True)


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
