"""Exact Laurent polynomials in T = q^(-s) and their values at s = 0.

Coefficients are rationals, exponents are half-integers stored doubled, so all
arithmetic is exact.  Two functionals matter downstream: evaluation at s = 0
(substitute T = 1) and the s-derivative at s = 0, which is a rational
multiple of log(q) because d/ds T^m = -m log(q) T^m.  log(q) stays formal and
is never evaluated numerically: a derivative is the Fraction coefficient of
log(q), and log_text renders it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Mapping, Union

Rational = Union[int, Fraction]


def _ratio(value: Rational) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational, in lowest terms."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"expected an exact rational, got {type(value).__name__}")
    return value.as_integer_ratio()


def as_fraction(value: Rational) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(*_ratio(value))


def _check_exponent(e2: object) -> None:
    # exactly int: a bool is an int, but T^True is no exponent
    if type(e2) is not int:
        raise TypeError("exponents are stored doubled and must be int")


class LaurentPoly:
    """Finite sum of c * T^(e2/2), keyed by the doubled exponent e2.

    Integer numerators over one positive denominator, kept canonical: no
    numerator is 0, no factor is common to the denominator and all of them,
    and zero has denominator 1.  So equal polynomials have equal fields."""

    __slots__ = ("_nums", "_den")

    def __init__(self, terms: Mapping[int, Rational] | Iterable[tuple[int, Rational]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, Fraction] = {}
        for e2, coeff in items:
            _check_exponent(e2)
            acc[e2] = acc.get(e2, 0) + as_fraction(coeff)
        acc = {e2: c for e2, c in acc.items() if c}
        # over the lcm of the reduced denominators the form is already canonical
        den = lcm(*(c.denominator for c in acc.values()))
        self._nums = {e2: c.numerator * (den // c.denominator) for e2, c in acc.items()}
        self._den = den

    @classmethod
    def _of(cls, nums: dict[int, int], den: int = 1) -> "LaurentPoly":
        """Trusted constructor: nonzero int numerators over a positive den,
        reduced here; nums becomes the polynomial's own dict, unchecked."""
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {e2: n // g for e2, n in nums.items()}
        poly = cls.__new__(cls)
        poly._nums = nums
        poly._den = den
        return poly

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._of({})

    @classmethod
    def monomial(cls, e2: int, coeff: Rational = 1) -> "LaurentPoly":
        _check_exponent(e2)
        n, d = _ratio(coeff)
        return cls._of({e2: n} if n else {}, d)

    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple((e2, Fraction(n, self._den)) for e2, n in sorted(self._nums.items()))

    def __bool__(self) -> bool:
        return bool(self._nums)

    def monomial_count(self) -> int:
        return len(self._nums)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._den == other._den and self._nums == other._nums
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._nums.items())))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        # merge the shorter dict into a copy of the longer, over the lcm of the
        # denominators; a polynomial never changes, so p + 0 can be p itself
        big, small = (self, other) if len(self._nums) >= len(other._nums) else (other, self)
        if not small._nums:
            return big
        acc, den, small_den, small = big._nums, big._den, small._den, small._nums
        if den == small_den:
            acc = dict(acc)
        else:
            g = gcd(den, small_den)
            acc = {e2: n * (small_den // g) for e2, n in acc.items()}
            small = {e2: n * (den // g) for e2, n in small.items()}
            den = den // g * small_den
        for e2, n in small.items():
            if e2 in acc:
                n += acc[e2]
                if not n:
                    del acc[e2]
                    continue
            acc[e2] = n
        return LaurentPoly._of(acc, den)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of({e2: -n for e2, n in self._nums.items()}, self._den)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not (self._nums and other._nums):
            return LaurentPoly.zero()
        acc: dict[int, int] = {}
        for e2, n in self._nums.items():
            for f2, m in other._nums.items():
                k = e2 + f2
                acc[k] = acc[k] + n * m if k in acc else n * m
        return LaurentPoly._of({e2: n for e2, n in acc.items() if n}, self._den * other._den)

    def eval_at_s0(self) -> Fraction:
        """Value at s = 0, i.e. the coefficient sum, built as one Fraction
        from an exact integer sum."""
        return Fraction(sum(self._nums.values()), self._den)

    def d_ds_at_s0(self) -> Fraction:
        """s-derivative at s = 0 in log(q) units: -(sum of m*c_m) with m = e2/2,
        built as one Fraction from an exact integer sum."""
        return Fraction(-sum(map(mul, self._nums, self._nums.values())), 2 * self._den)

    def text(self) -> str:
        """Canonical rendering, exponents ascending; bit-exact across runs."""
        if not self._nums:
            return "0"
        chunks: list[str] = []
        for e2, n in sorted(self._nums.items()):
            mag = Fraction(abs(n), self._den)
            if e2 == 0:
                body = str(mag)
            else:
                if e2 == 2:
                    tpart = "T"
                elif e2 % 2 == 0:
                    tpart = f"T^{e2 // 2}"
                else:
                    tpart = f"T^{e2}/2"
                body = tpart if mag == 1 else f"{mag}*{tpart}"
            if not chunks:
                chunks.append(f"-{body}" if n < 0 else body)
            else:
                chunks.append(f"{'-' if n < 0 else '+'} {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.text()})"


def log_text(x: Fraction) -> str:
    """Canonical rendering of x * log(q), the form derivatives at s = 0 take."""
    if not x:
        return "0"
    if abs(x) == 1:
        return "log(q)" if x > 0 else "-log(q)"
    return f"{x}*log(q)"
