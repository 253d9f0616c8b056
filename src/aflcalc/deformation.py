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
closed form and the recursion are independent routes to the same integer.
Their agreement is sampled, not proved: the test suite checks it on a sweep
grid and on random queries at every admissible height, including heights no
honest homomorphism attains (ATI bounds the odd heights below 2k at equal
levels k), and every `deform` report row, at an attainable height, checks it
again at that row's input, together with the closed form at the swapped
levels, which is the transposed row's closed value.
"""

from __future__ import annotations

from typing import NamedTuple

from .field import FieldSetup


class InadmissibleParityError(ValueError):
    """Height/level parity that no genuine quasi-homomorphism class attains."""


def ramification_index(setup: FieldSetup, s: int) -> int:
    """Ramification index of the level-s ring class field over the unramified base.

    Above level 0 it equals the unit index: 2q^s ramified, q^s + q^(s-1) not."""
    if s <= 0:
        if s == 0:
            return 2 if setup.ramified else 1
        raise ValueError("conductor level must be >= 0")
    q = setup.q
    if setup.ramified:
        return 2 * q ** s
    return (q + 1) * q ** (s - 1)


def geometric_sum(n: int, q: int) -> int:
    """1 + q + ... + q^n for q >= 2, with the empty sum 0 at n = -1."""
    if n < -1:
        raise ValueError("geometric sum defined for n >= -1")
    return (q ** (n + 1) - 1) // (q - 1)


class _DeformQuery(NamedTuple):
    setup: FieldSetup
    i: int
    j: int
    e_rel: int
    l: int


class DeformQuery(_DeformQuery):
    """Levels (i, j), base ramification e_rel over the larger class field, and
    class height l; rejects parities no genuine class attains."""

    __slots__ = ()

    def __new__(cls, setup: FieldSetup, i: int, j: int, e_rel: int, l: int) -> "DeformQuery":
        if i < 0 or j < 0:
            raise ValueError("levels are >= 0")
        if e_rel < 1:
            raise ValueError("ramification index e_rel is >= 1")
        if l < 0:
            raise ValueError("class height is >= 0")
        if l >= i + j:
            prod = (l - (i + j - 1)) * ramification_index(setup, max(i, j))
            if prod % 2:
                raise InadmissibleParityError(
                    f"height {l} at levels ({i}, {j}) has no attainable parity")
        return tuple.__new__(cls, (setup, i, j, e_rel, l))


def lift_bound(query: DeformQuery) -> int:
    """First infinitesimal thickness at which the class fails to deform
    (closed form).  Symmetric in the two levels."""
    if not isinstance(query, DeformQuery):  # a plain tuple skips the parity check
        raise TypeError(f"expected a DeformQuery, got {type(query).__name__}")
    setup, i, j, e, l = query
    if i > j:
        i, j = j, i
    q = setup.q
    d = j - i
    if l < d:
        return e * geometric_sum(l, q)
    if l <= i + j - 1:
        n = (l + d) // 2
        if (l + d) % 2 == 0:
            return e * (geometric_sum(n, q) + geometric_sum(n - 1, q) - geometric_sum(d - 1, q))
        return e * (2 * geometric_sum(n, q) - geometric_sum(d - 1, q))
    prod = (l - (i + j - 1)) * ramification_index(setup, j)
    assert prod % 2 == 0  # guaranteed by DeformQuery
    return e * (2 * geometric_sum(j - 1, q) - geometric_sum(d - 1, q)) + e * (prod // 2)


def lift_bound_recursive(query: DeformQuery) -> int:
    """Independent route to the lift bound: shell the height down to a base
    case on equal levels, then climb back one level at a time, each step
    adding the ramification of the deformation base over that level's class
    field.  Must agree with lift_bound on every admissible input."""
    if not isinstance(query, DeformQuery):  # a plain tuple skips the parity check
        raise TypeError(f"expected a DeformQuery, got {type(query).__name__}")
    setup, i, j, e, l = query
    if i > j:
        i, j = j, i
    q = setup.q
    d = j - i
    if l < d:
        base = e * q ** l  # height-zero class over level j - l
        low = j - l + 1
    else:
        lp = l - d
        ehat_j = ramification_index(setup, j)
        ehat_i = ramification_index(setup, i)
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
        low = i + 1
    # climb: one level k at a time for k = j, j - 1, ..., low, add e * q^(j - k),
    # the base ramification over the level-k class field (k >= 1)
    step = e
    for _ in range(low, j + 1):
        base += step
        step *= q
    return base


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
