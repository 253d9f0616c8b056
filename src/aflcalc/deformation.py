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
deformation base over the larger ring class field, and a column of class
heights l of the quasi-homomorphism relative to the module of honest
homomorphisms.  Each route takes its level-pair constants once per call and
gives one bound per height, None at a height whose parity no genuine class
attains; inadmissible_heights is the one check of the inputs, and a single
point is a one-height column.  The closed form and the recursion are
independent routes to the same integers: the recursion reads neither
ramification_index nor geometric_sum, and builds the class-field
ramification and its sums level by level.  Their agreement is sampled, not
proved: the test suite checks it on a sweep grid and on random columns at
every admissible height, including heights no honest homomorphism attains
(ATI bounds the odd heights below 2k at equal levels k), and every `deform`
report row, at an attainable height, checks it again at that row's input,
together with the closed form at the swapped levels, which is the
transposed row's closed value.
"""

from __future__ import annotations

from typing import Optional, Sequence

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


def inadmissible_heights(setup: FieldSetup, i: int, j: int, e_rel: int,
                         heights: Sequence[int]) -> set[int]:
    """The heights of the column whose parity no genuine class attains at
    levels (i, j): past i + j - 1, (l - (i + j - 1)) * e_hat(max(i, j)) must
    be even.  Rejects a negative level or height and e_rel < 1."""
    if i < 0 or j < 0:
        raise ValueError("levels are >= 0")
    if e_rel < 1:
        raise ValueError("ramification index e_rel is >= 1")
    if heights and min(heights) < 0:
        raise ValueError("class height is >= 0")
    inadmissible = set()
    if ramification_index(setup, max(i, j)) % 2:
        for l in heights:
            if l >= i + j and (l - (i + j - 1)) % 2:
                inadmissible.add(l)
    return inadmissible


def lift_bound(setup: FieldSetup, i: int, j: int, e_rel: int,
               heights: Sequence[int]) -> list[Optional[int]]:
    """First infinitesimal thickness at which a class of each height fails
    to deform (closed form), None at an inadmissible height.  Symmetric in
    the two levels."""
    inadmissible = inadmissible_heights(setup, i, j, e_rel, heights)
    if i > j:
        i, j = j, i
    q, e, d = setup.q, e_rel, j - i
    gap = geometric_sum(d - 1, q)
    top = 2 * geometric_sum(j - 1, q) - gap
    ehat_j, last = ramification_index(setup, j), i + j - 1
    out: list[Optional[int]] = []
    for l in heights:
        if l in inadmissible:
            out.append(None)
        elif l < d:
            out.append(e * geometric_sum(l, q))
        elif l <= last:
            n = (l + d) // 2
            if (l + d) % 2 == 0:
                out.append(e * (geometric_sum(n, q) + geometric_sum(n - 1, q) - gap))
            else:
                out.append(e * (2 * geometric_sum(n, q) - gap))
        else:
            prod = (l - last) * ehat_j
            assert prod % 2 == 0  # guaranteed by inadmissible_heights
            out.append(e * (top + prod // 2))
    return out


def lift_bound_recursive(setup: FieldSetup, i: int, j: int, e_rel: int,
                         heights: Sequence[int]) -> list[Optional[int]]:
    """Independent route to the lift bounds: shell each height down to a
    base case on equal levels, then climb back one level at a time, each
    step adding the ramification of the deformation base over that level's
    class field.  It reads neither ramification_index nor geometric_sum:
    the class-field ramification grows one unit-group step per level, and
    its sums run in its own loop.  Must agree with lift_bound on every
    admissible input."""
    inadmissible = inadmissible_heights(setup, i, j, e_rel, heights)
    if i > j:
        i, j = j, i
    q, e, d = setup.q, e_rel, j - i
    # ramification over the unramified base: 2 or 1 at level 0, the completed
    # extension itself; the unit index grows by q, or q + 1 unramified, from
    # level 0 to 1, then by q per level.  ratio is e_hat(j) / e_hat(i).
    ehat_i, ratio = (2 if setup.ramified else 1), 1
    for k in range(1, j + 1):
        step = q + 1 if k == 1 and not setup.ramified else q
        if k <= i:
            ehat_i *= step
        else:
            ratio *= step
    ehat_j = ehat_i * ratio
    # powers[n] = q^n and sums[n] = 1 + q + ... + q^(n - 1)
    powers, sums = [1], [0]
    for _ in range(max(i, d)):
        sums.append(sums[-1] + powers[-1])
        powers.append(powers[-1] * q)
    # a height past d climbs from level i + 1 to j, adding e * q^(j - k) at level k
    climb = e * sums[d]
    out: list[Optional[int]] = []
    for l in heights:
        if l in inadmissible:
            out.append(None)
        elif l < d:
            # the height-zero class over level j - l, climbed back over l levels
            out.append(e * powers[l] + e * sums[l])
        else:
            lp = l - d
            half = lp // 2
            if lp >= 2 * i:
                base = e * ratio * 2 * sums[i] + e * ((lp - (2 * i - 1)) * ehat_j // 2)
            elif lp % 2 == 0:
                base = e * ratio * (sums[half + 1] + sums[half])
            else:
                base = e * ratio * 2 * sums[half + 1]
            out.append(base + climb)
    return out


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
