"""Deformation lengths of quasi-homomorphisms between quasi-canonical lifts.

A lift of level s has endomorphism order of conductor s; the unit-group index
of that order in the maximal one is 1 at level 0 and otherwise 2q^s (ramified)
or q^s + q^(s-1) (unramified).  The ring class field of level s has the same
ramification index over the unramified base for s >= 1, but at level 0 it is
the completed extension itself: index 2 when ramified, 1 when not.  The
closed-form lift bound and the step recursion below both use the second
normalization; with the unit index at level 0 the level-(0,0) ramified case
would produce non-integral lengths and the wrong growth slope.

Inputs are the two levels i, j, the ramification index e_rel of the
deformation base over the larger ring class field, and the class height l of
the quasi-homomorphism relative to the module of honest homomorphisms.  The
closed form and the recursion are independent routes to the same integer; the
test suite insists they agree everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import FieldSetup


class InadmissibleParityError(ValueError):
    """Height/level parity that no genuine quasi-homomorphism class attains."""


def unit_index(setup: FieldSetup, s: int) -> int:
    """Index of the conductor-s unit group in the maximal units."""
    if s < 0:
        raise ValueError("conductor level must be >= 0")
    if s == 0:
        return 1
    if setup.ramified:
        return 2 * setup.q ** s
    return setup.q ** s + setup.q ** (s - 1)


def ramification_index(setup: FieldSetup, s: int) -> int:
    """Ramification index of the level-s ring class field over the unramified base."""
    if s < 0:
        raise ValueError("conductor level must be >= 0")
    if s == 0:
        return 2 if setup.ramified else 1
    return unit_index(setup, s)


def geometric_sum(n: int, q: int) -> int:
    """1 + q + ... + q^n for q >= 2, with the empty sum 0 at n = -1."""
    if n < -1:
        raise ValueError("geometric sum defined for n >= -1")
    return (q ** (n + 1) - 1) // (q - 1)


@dataclass(frozen=True)
class DeformQuery:
    """Levels (i, j), base ramification e_rel over the larger class field, and
    class height l; rejects parities no genuine class attains."""

    setup: FieldSetup
    i: int
    j: int
    e_rel: int
    l: int

    def __post_init__(self) -> None:
        if self.i < 0 or self.j < 0:
            raise ValueError("levels are >= 0")
        if self.e_rel < 1:
            raise ValueError("ramification index e_rel is >= 1")
        if self.l < 0:
            raise ValueError("class height is >= 0")
        if self.l >= self.i + self.j:
            prod = (self.l - (self.i + self.j - 1)) * ramification_index(self.setup, max(self.i, self.j))
            if prod % 2:
                raise InadmissibleParityError(
                    f"height {self.l} at levels ({self.i}, {self.j}) has no attainable parity")


def lift_bound(query: DeformQuery) -> int:
    """First infinitesimal thickness at which the class fails to deform
    (closed form).  Symmetric in the two levels."""
    q = query.setup.q
    i, j = sorted((query.i, query.j))
    d = j - i
    l = query.l
    e = query.e_rel
    if l < d:
        return e * geometric_sum(l, q)
    if l <= i + j - 1:
        n = (l + d) // 2
        if (l + d) % 2 == 0:
            return e * (geometric_sum(n, q) + geometric_sum(n - 1, q) - geometric_sum(d - 1, q))
        return e * (2 * geometric_sum(n, q) - geometric_sum(d - 1, q))
    prod = (l - (i + j - 1)) * ramification_index(query.setup, j)
    assert prod % 2 == 0  # guaranteed by DeformQuery
    return e * (2 * geometric_sum(j - 1, q) - geometric_sum(d - 1, q)) + e * (prod // 2)


def lift_bound_recursive(query: DeformQuery) -> int:
    """Independent route to the lift bound: shell the height down to a base
    case on equal levels, then climb back one level at a time, each step
    adding the ramification of the deformation base over that level's class
    field.  Must agree with lift_bound on every admissible input."""
    q = query.setup.q
    i, j = sorted((query.i, query.j))
    d = j - i
    l = query.l
    e = query.e_rel
    # e * q^(j - k) is the base ramification over the level-k class field, k >= 1
    climb = lambda k_from, k_to: sum(e * q ** (j - k) for k in range(k_from, k_to + 1))
    if l < d:
        base = e * q ** l  # height-zero class over level j - l
        return base + climb(j - l + 1, j)
    lp = l - d
    ehat_j = ramification_index(query.setup, j)
    ehat_i = ramification_index(query.setup, i)
    assert ehat_j % ehat_i == 0
    ratio = ehat_j // ehat_i
    if lp < 2 * i:
        half = lp // 2
        if lp % 2 == 0:
            base = e * ratio * (geometric_sum(half, q) + geometric_sum(half - 1, q))
        else:
            base = e * ratio * 2 * geometric_sum(half, q)
    else:
        prod = (lp - (2 * i - 1)) * ehat_j
        assert prod % 2 == 0
        base = e * ratio * 2 * geometric_sum(i - 1, q) + e * (prod // 2)
    return base + climb(i + 1, j)


def hom_height_attainable(setup: FieldSetup, i: int, j: int, l: int) -> bool:
    """Whether some honest homomorphism between lifts of levels i and j has
    height exactly l.

    The module is a shift by d = |i - j| of the conductor-min(i,j) order, whose
    nonzero elements have every even height, plus (ramified only) the odd
    heights from 2*min(i,j)+1 up."""
    d = abs(i - j)
    if l < d:
        return False
    lp = l - d
    if lp % 2 == 0:
        return True
    return setup.ramified and lp >= 2 * min(i, j) + 1


def reduction_commutes(setup: FieldSetup, i: int, j: int) -> bool:
    """Whether reductions of homomorphisms between level-i and level-j lifts
    commute with the quadratic-order action (otherwise they conjugate it)."""
    return setup.ramified or (i + j) % 2 == 0
