"""Quadratic extension data reduced to (valuation, character sign) invariants.

Field elements never appear as p-adic expansions.  Everything downstream
consumes an element x of the quadratic extension only through v(x), the
normalized base-field valuation extended to the top (so valued in (1/2)Z,
stored doubled), and eta(x), the sign of the quadratic character attached to
the extension.  The chosen extension of eta to the top field is Galois
invariant, so eta of an element equals eta of its conjugate.

Conventions: for an unramified extension eta(x) = (-1)^v(x), which pins
eta(pi_F) = -1, and no element has a half-integral valuation.  For a ramified
extension eta is nontrivial on units, so both signs occur at every valuation,
and eta(pi_F) is a configurable sign (two uniformizer classes exist); units
split into two cosets of measure 1/2 each under Vol(O_F^x) = 1.

FieldSetup.signs is the one place this convention lives: every other module
asks it which eta values a valuation admits, and FieldSetup.classes (the
valuation classes modulo the base field that occur) is derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .symbolic import LaurentPoly

PLUS = 1
MINUS = -1


def _unramified_signs(v2: int) -> tuple[int, ...]:
    """eta at doubled valuation v2 over an unramified extension: (-1)^v, and
    no sign at all at a half-integral valuation."""
    return () if v2 % 2 else (MINUS if v2 % 4 else PLUS,)


@dataclass(frozen=True)
class FieldSetup:
    """Residue size q, ramification flag, and the sign eta(pi_F)."""

    q: int
    ramified: bool
    eta_pi_f: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.q, int) or self.q < 2:
            raise ValueError("residue size q must be an integer >= 2")
        if self.eta_pi_f is None:
            object.__setattr__(self, "eta_pi_f", PLUS if self.ramified else MINUS)
        if self.eta_pi_f not in self.signs(2):
            raise ValueError("eta(pi_F) must be +1 or -1; unramified setups force -1")

    def eta_shift(self, n: int) -> int:
        """eta(pi_F)^n."""
        return self.eta_pi_f if n % 2 else PLUS

    def signs(self, v2: int) -> tuple[int, ...]:
        """The eta values an element of doubled valuation v2 can have."""
        return (PLUS, MINUS) if self.ramified else _unramified_signs(v2)

    @property
    def classes(self) -> tuple[int, ...]:
        """Valuation classes that occur: 0 for integral v(x), 1 for half-integral."""
        return tuple(cls for cls in (0, 1) if self.signs(cls))


@dataclass(frozen=True)
class ValClass:
    """An element of the top field seen as (2*v(x), eta(x)), or zero."""

    half_val: int = 0  # stores 2*v(x)
    eta_sign: int = PLUS
    is_zero: bool = False

    def __post_init__(self) -> None:
        if self.eta_sign not in (PLUS, MINUS):
            raise ValueError("eta sign must be +1 or -1")
        if not isinstance(self.half_val, int):
            raise TypeError("half_val stores 2*v(x) and must be int")

    def __mul__(self, other: "ValClass") -> "ValClass":
        if not isinstance(other, ValClass):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ValClass(is_zero=True)
        return ValClass(self.half_val + other.half_val, self.eta_sign * other.eta_sign)

    def inverse(self) -> "ValClass":
        if self.is_zero:
            raise ZeroDivisionError("zero has no inverse")
        return ValClass(-self.half_val, self.eta_sign)

    def consistent_with(self, setup: FieldSetup) -> bool:
        return self.is_zero or self.eta_sign in setup.signs(self.half_val)


def unramified_class(v: int) -> ValClass:
    """The class of a valuation-v element in an unramified setup."""
    return ValClass(2 * v, *_unramified_signs(2 * v))


def eta_s(x: ValClass, setup: FieldSetup) -> LaurentPoly:
    """eta(x) * T^v(x), the twisted character value as a monomial in T = q^(-s)."""
    if x.is_zero:
        raise ValueError("eta_s is undefined at zero")
    if not x.consistent_with(setup):
        raise ValueError("class is inconsistent with the unramified sign convention")
    return LaurentPoly.monomial(x.half_val, x.eta_sign)


def eta_s_inverse(x: ValClass, setup: FieldSetup) -> LaurentPoly:
    """eta(x)^(-1) * T^(-v(x)); the sign is its own inverse."""
    if x.is_zero:
        raise ValueError("eta_s is undefined at zero")
    if not x.consistent_with(setup):
        raise ValueError("class is inconsistent with the unramified sign convention")
    return LaurentPoly.monomial(-x.half_val, x.eta_sign)


def norm_valclass(x: ValClass) -> ValClass:
    """Invariant-level norm to the base field: v doubles, the sign becomes +1."""
    if x.is_zero:
        return ValClass(is_zero=True)
    return ValClass(2 * x.half_val, PLUS)


def unit_integral(setup: FieldSetup, sign_constraint: int | None) -> Fraction:
    """eta-weighted measure of the units with eta equal to sign_constraint
    (None = all), under Vol(O_F^x) = 1.

    Unramified: eta is trivial on units, so the -1 coset is empty.  Ramified:
    eta cuts the units into two cosets of measure 1/2 and weight +-1; the full
    eta-weighted integral vanishes.
    """
    if sign_constraint not in (None, PLUS, MINUS):
        raise ValueError("sign constraint must be None, +1 or -1")
    if not setup.ramified:
        return Fraction(0) if sign_constraint == MINUS else Fraction(1)
    if sign_constraint is None:
        return Fraction(0)
    return Fraction(sign_constraint, 2)
