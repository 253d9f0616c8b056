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
and eta(pi_F) is a configurable sign (two uniformizer classes exist).

FieldSetup.signs is the one place this convention lives: every other module
asks it which eta values a valuation admits.  FieldSetup.classes (the
valuation classes modulo the base field that occur) and unit_integral (the
eta-weighted measure of a valuation shell, the one weight every orbital and
germ integral is built from) are derived from it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

PLUS = 1
MINUS = -1


class _FieldSetup(NamedTuple):
    q: int
    ramified: bool
    eta_pi_f: int


class FieldSetup(_FieldSetup):
    """Residue size q, ramification flag, and the sign eta(pi_F)."""

    __slots__ = ()

    def __new__(cls, q: int, ramified: bool, eta_pi_f: int | None = None) -> "FieldSetup":
        if not isinstance(q, int) or q < 2:
            raise ValueError("residue size q must be an integer >= 2")
        if type(ramified) is not bool:  # 0 would reach report JSON as "ramified": 0
            raise TypeError("the ramification flag must be a bool")
        if eta_pi_f is None:
            eta_pi_f = PLUS if ramified else MINUS
        self = tuple.__new__(cls, (q, ramified, eta_pi_f))
        if eta_pi_f not in self.signs(2):
            raise ValueError("eta(pi_F) must be +1 or -1; unramified setups force -1")
        return self

    def signs(self, v2: int) -> tuple[int, ...]:
        """The eta values an element of doubled valuation v2 can have: both
        when ramified; unramified, (-1)^v, and none at a half-integral v."""
        if self.ramified:
            return PLUS, MINUS
        return () if v2 % 2 else (MINUS if v2 % 4 else PLUS,)

    @property
    def classes(self) -> tuple[int, ...]:
        """Valuation classes that occur: 0 for integral v(x), 1 for half-integral."""
        return tuple(cls for cls in (0, 1) if self.signs(cls))


class _ValClass(NamedTuple):
    half_val: int  # stores 2*v(x)
    eta_sign: int


class ValClass(_ValClass):
    """A nonzero element of the top field seen as (2*v(x), eta(x))."""

    __slots__ = ()

    def __new__(cls, half_val: int, eta_sign: int) -> "ValClass":
        if type(eta_sign) is bool:  # True == 1, but a bool is no sign
            raise TypeError("eta sign must be an int, not a bool")
        if eta_sign not in (PLUS, MINUS):
            raise ValueError("eta sign must be +1 or -1")
        if type(half_val) is not int:  # exactly int: T^True is no monomial
            raise TypeError("half_val stores 2*v(x) and must be int")
        return tuple.__new__(cls, (half_val, eta_sign))


def unit_integral(setup: FieldSetup, v2: int, sign_constraint: int | None) -> Fraction:
    """eta-weighted measure of the elements of doubled valuation v2 whose eta
    is sign_constraint (None = all), as a fraction of the whole shell.

    The signs the valuation admits cut the shell into cosets of equal
    measure, each weighted by its sign; so the measure is the sum of the
    admitted signs the constraint keeps over their number, and 0 where the
    valuation admits no sign.  An unramified shell is one coset of weight
    (-1)^v; a ramified shell is two cosets of weight +-1 and measure 1/2, so
    its unconstrained measure vanishes.  Vol(O_F^x) = 1 makes
    unit_integral(setup, 0, pin) the measure on the units.
    """
    if sign_constraint not in (None, PLUS, MINUS):
        raise ValueError("sign constraint must be None, +1 or -1")
    signs = setup.signs(v2)
    if not signs:
        return Fraction(0)
    return Fraction(sum(s for s in signs if sign_constraint in (None, s)), len(signs))
