"""Exact Laurent polynomials in T = q^(-s) and formal values a + b*log(q).

Coefficients are rationals, exponents are half-integers stored doubled, so all
arithmetic is exact.  Two functionals matter downstream: evaluation at s = 0
(substitute T = 1) and the s-derivative at s = 0, which lands in rational
multiples of log(q) because d/ds T^m = -m log(q) T^m.  log(q) stays formal and
is never evaluated numerically; identity checks compare components.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: Fraction(1)})

    @classmethod
    def constant(cls, c: Rational) -> "LaurentPoly":
        return cls({0: as_fraction(c)})

    @classmethod
    def monomial(cls, e2: int, coeff: Rational = 1) -> "LaurentPoly":
        return cls({e2: as_fraction(coeff)})

    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple(sorted(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def monomial_count(self) -> int:
        return len(self._terms)

    def integral_exponents(self) -> bool:
        return all(e2 % 2 == 0 for e2 in self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        return NotImplemented

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly(list(self._terms.items()) + list(other._terms.items()))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e2: -c for e2, c in self._terms.items()})

    def __mul__(self, other: Union["LaurentPoly", Rational]) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            acc: list[tuple[int, Fraction]] = []
            for e2, c in self._terms.items():
                for f2, d in other._terms.items():
                    acc.append((e2 + f2, c * d))
            return LaurentPoly(acc)
        return self.scale(other)

    def __rmul__(self, other: Rational) -> "LaurentPoly":
        return self.scale(other)

    def scale(self, c: Rational) -> "LaurentPoly":
        c = as_fraction(c)
        return LaurentPoly({e2: c * v for e2, v in self._terms.items()})

    def eval_at_s0(self) -> Fraction:
        """Value at s = 0, i.e. the coefficient sum."""
        return sum(self._terms.values(), Fraction(0))

    def d_ds_at_s0(self) -> "LogValue":
        """s-derivative at s = 0: -(sum of m*c_m) as a multiple of log(q)."""
        log_part = -sum((Fraction(e2, 2) * c for e2, c in self._terms.items()), Fraction(0))
        return LogValue(Fraction(0), log_part)

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


@dataclass(frozen=True)
class LogValue:
    """A value rational_part + log_q_part * log(q), componentwise exact."""

    rational_part: Fraction
    log_q_part: Fraction

    @classmethod
    def zero(cls) -> "LogValue":
        return cls(Fraction(0), Fraction(0))

    @classmethod
    def of(cls, rational: Rational = 0, log_q: Rational = 0) -> "LogValue":
        return cls(as_fraction(rational), as_fraction(log_q))

    def __add__(self, other: "LogValue") -> "LogValue":
        return LogValue(self.rational_part + other.rational_part,
                        self.log_q_part + other.log_q_part)

    def __sub__(self, other: "LogValue") -> "LogValue":
        return LogValue(self.rational_part - other.rational_part,
                        self.log_q_part - other.log_q_part)

    def __neg__(self) -> "LogValue":
        return LogValue(-self.rational_part, -self.log_q_part)

    def scale(self, c: Rational) -> "LogValue":
        c = as_fraction(c)
        return LogValue(c * self.rational_part, c * self.log_q_part)

    def __rmul__(self, c: Rational) -> "LogValue":
        return self.scale(c)

    @property
    def is_zero(self) -> bool:
        return not self.rational_part and not self.log_q_part

    def text(self) -> str:
        if self.is_zero:
            return "0"
        chunks = []
        if self.rational_part:
            chunks.append(str(self.rational_part))
        if self.log_q_part:
            if self.log_q_part == 1:
                chunks.append("log(q)")
            elif self.log_q_part == -1:
                chunks.append("-log(q)")
            else:
                chunks.append(f"{self.log_q_part}*log(q)")
        out = chunks[0]
        for part in chunks[1:]:
            out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return out

    def __repr__(self) -> str:
        return f"LogValue({self.text()})"
