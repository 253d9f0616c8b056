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
from math import gcd
from typing import Iterable, Mapping, Union

Rational = Union[int, Fraction]


def as_fraction(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class LaurentPoly:
    """Finite sum of c * T^(e2/2), keyed by the doubled exponent e2."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Rational] | Iterable[tuple[int, Rational]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, Fraction] = {}
        for e2, coeff in items:
            if not isinstance(e2, int):
                raise TypeError("exponents are stored doubled and must be int")
            c = as_fraction(coeff)
            if c:
                acc[e2] = acc.get(e2, Fraction(0)) + c
        self._terms = {e2: c for e2, c in acc.items() if c}

    @classmethod
    def _of(cls, terms: dict[int, Fraction]) -> "LaurentPoly":
        """Trusted constructor: terms maps int exponents to nonzero Fractions
        and becomes the new polynomial's own dict, unchecked and uncopied."""
        poly = cls.__new__(cls)
        poly._terms = terms
        return poly

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._of({})

    @classmethod
    def monomial(cls, e2: int, coeff: Rational = 1) -> "LaurentPoly":
        c = as_fraction(coeff)
        return cls._of({e2: c} if c else {})

    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple(sorted(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def monomial_count(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        return NotImplemented

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        # merge the shorter term dict into a copy of the longer one
        big, small = self._terms, other._terms
        if len(big) < len(small):
            big, small = small, big
        acc = dict(big)
        for e2, c in small.items():
            if e2 in acc:
                c += acc[e2]
                if not c:
                    del acc[e2]
                    continue
            acc[e2] = c
        return LaurentPoly._of(acc)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of({e2: -c for e2, c in self._terms.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc: dict[int, Fraction] = {}
        for e2, c in self._terms.items():
            for f2, d in other._terms.items():
                k = e2 + f2
                acc[k] = acc[k] + c * d if k in acc else c * d
        return LaurentPoly._of({e2: c for e2, c in acc.items() if c})

    def scale(self, c: Rational) -> "LaurentPoly":
        c = as_fraction(c)
        if not c:
            return LaurentPoly.zero()
        return LaurentPoly._of({e2: c * v for e2, v in self._terms.items()})

    def _s0_sum(self, by_exponent: bool) -> tuple[int, int]:
        """(num, den) with num/den the sum of the coefficients, each times its
        doubled exponent when by_exponent.  Integer numerators are summed over
        a running common denominator, grown by lcm only when a coefficient's
        denominator does not divide it; den may share a factor with num."""
        num, den = 0, 1
        for e2, c in self._terms.items():
            d = c.denominator
            if den % d:
                scale = d // gcd(den, d)
                num *= scale
                den *= scale
            n = c.numerator * (den // d)
            num += e2 * n if by_exponent else n
        return num, den

    def eval_at_s0(self) -> Fraction:
        """Value at s = 0, i.e. the coefficient sum, built as one Fraction
        from an exact integer sum."""
        num, den = self._s0_sum(False)
        return Fraction(num, den)

    def d_ds_at_s0(self) -> Fraction:
        """s-derivative at s = 0 in log(q) units: -(sum of m*c_m) with m = e2/2,
        built as one Fraction from an exact integer sum."""
        num, den = self._s0_sum(True)
        return Fraction(-num, 2 * den)

    def text(self) -> str:
        """Canonical rendering, exponents ascending; bit-exact across runs."""
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for e2 in sorted(self._terms):
            c = self._terms[e2]
            mag = abs(c)
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
                chunks.append(f"-{body}" if c < 0 else body)
            else:
                chunks.append(f"{'-' if c < 0 else '+'} {body}")
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
