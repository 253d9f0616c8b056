"""Orbits on the norm-one symmetric space and their exact orbital integrals.

A regular semisimple element gamma = [[a, b], [c, d]] with c = (1 - N(a))/conj(b)
and d = -conj(a) b/conj(b) is stored through invariants only: the valuation and
conductor level of a (and d), the valuation t and character sign of the norm
defect 1 - N(a), and the valuation and sign of b.  Conjugation by a base-field
element of valuation n moves (v(b), v(c)) to (v(b) - n, v(c) + n) and twists
both signs, which is all the integrals can see.

Test functions are finite rational combinations of boxes: valuation intervals
on the four entries, conductor-level intervals (Interval() when
unconstrained) and optional sign pins on the off-diagonal entries.  The
weighted orbit integral of a box collapses to a finite sum of monomials T^n,
one per conjugator valuation shell, each shell weighted by its eta-weighted
measure under the box's sign pins.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Optional

from .field import MINUS, PLUS, FieldSetup, ValClass, unit_integral
from .symbolic import LaurentPoly, Rational, as_fraction


class DivergenceError(ValueError):
    """The orbit meets the support in a set of infinite measure."""


class _Interval(NamedTuple):
    lo: Optional[int]
    hi: Optional[int]


class Interval(_Interval):
    """Integer interval with None endpoints meaning -oo / +oo.

    Used both for doubled valuations and for conductor levels; contains(None)
    asks about the point +oo.  Interval() admits everything: it is an
    unconstrained level requirement.
    """

    __slots__ = ()

    def __new__(cls, lo: Optional[int] = None, hi: Optional[int] = None) -> "Interval":
        if type(lo) is bool or type(hi) is bool:  # True == 1, but [false, true] is no interval
            raise TypeError("interval ends are ints or None, not bools")
        return tuple.__new__(cls, (lo, hi))

    def contains(self, x: Optional[int]) -> bool:
        if x is None:
            return self.hi is None
        if self.lo is not None and x < self.lo:
            return False
        if self.hi is not None and x > self.hi:
            return False
        return True

    def shift(self, d: int) -> "Interval":
        return Interval(None if self.lo is None else self.lo + d,
                        None if self.hi is None else self.hi + d)

    @property
    def bounded_above(self) -> bool:
        return self.hi is not None

    def to_json(self) -> list:
        return [self.lo, self.hi]


INTEGRAL = Interval(0, None)  # v >= 0


class _Box(NamedTuple):
    i_a: Interval
    i_b: Interval
    i_c: Interval
    i_d: Interval
    sgn_b_req: Optional[int]
    sgn_c_req: Optional[int]
    lvl_a_req: Interval
    lvl_d_req: Interval


class Box(_Box):
    """One constraint box; the four intervals are in doubled-valuation units."""

    __slots__ = ()

    def __new__(cls, i_a: Interval, i_b: Interval, i_c: Interval, i_d: Interval,
                sgn_b_req: Optional[int] = None, sgn_c_req: Optional[int] = None,
                lvl_a_req: Interval = Interval(), lvl_d_req: Interval = Interval()) -> "Box":
        if type(sgn_b_req) is bool or type(sgn_c_req) is bool:
            raise TypeError("sign requirements are ints or None, not bools")
        for req in (sgn_b_req, sgn_c_req):
            if req not in (None, PLUS, MINUS):
                raise ValueError("sign requirement must be None, +1 or -1")
        # a plain tuple compares equal to the Interval of its values, so the
        # type check is what rejects one
        intervals = (i_a, i_b, i_c, i_d, lvl_a_req, lvl_d_req)
        if not all(isinstance(interval, Interval) for interval in intervals):
            raise ValueError("valuation intervals and level requirements are Intervals; "
                             "Interval() admits all")
        # closure rule keeping every box an open compact condition: a
        # sign-pinned entry cannot reach 0.
        if sgn_b_req is not None and not i_b.bounded_above:
            raise ValueError("sign-constrained b-interval must be bounded above")
        if sgn_c_req is not None and not i_c.bounded_above:
            raise ValueError("sign-constrained c-interval must be bounded above")
        return tuple.__new__(cls, (i_a, i_b, i_c, i_d, sgn_b_req, sgn_c_req,
                                   lvl_a_req, lvl_d_req))

    def pulled_back(self, lam: ValClass) -> "Box":
        """The box of gamma -> f(lam^-1 gamma lam): shift b up, c down, twist signs."""
        _require_base(lam)
        h = lam.half_val
        s = lam.eta_sign
        return Box(self.i_a, self.i_b.shift(h), self.i_c.shift(-h), self.i_d,
                   None if self.sgn_b_req is None else self.sgn_b_req * s,
                   None if self.sgn_c_req is None else self.sgn_c_req * s,
                   self.lvl_a_req, self.lvl_d_req)

    def touches_diagonal(self) -> bool:
        """Whether the box contains degenerate diagonal points (b = c = 0)."""
        return (not self.i_b.bounded_above
                and not self.i_c.bounded_above
                and self.i_a.contains(0)
                and self.i_d.contains(0))

    def to_json(self) -> dict:
        out = {
            "i_a": self.i_a.to_json(),
            "i_b": self.i_b.to_json(),
            "i_c": self.i_c.to_json(),
            "i_d": self.i_d.to_json(),
        }
        if self.sgn_b_req is not None:
            out["sgn_b"] = self.sgn_b_req
        if self.sgn_c_req is not None:
            out["sgn_c"] = self.sgn_c_req
        for key, req in (("lvl_a", self.lvl_a_req), ("lvl_d", self.lvl_d_req)):
            if req != Interval():
                out[key] = req.to_json()
        return out


class _OrbitData(NamedTuple):
    setup: FieldSetup
    t: int
    v_b2: int
    b_sign: int
    defect_sign: int
    v_a2: int
    lvl_a: Optional[int]
    lvl_d: Optional[int]


class OrbitData(_OrbitData):
    """Invariants of a regular semisimple orbit.

    t = v(1 - N(a)) and defect_sign = eta(1 - N(a)), which is +1 exactly
    when the orbit matches into U0; lvl_a / lvl_d are the conductor levels of
    the diagonal entries with None meaning the entry lies in the base field;
    v(d) = v(a), and v(b) and eta(b) determine the c-entry data through
    v(c) = t - v(b) and eta(c) = defect_sign * eta(b).
    """

    __slots__ = ()

    def __new__(cls, setup: FieldSetup, t: int, v_b2: int, b_sign: int, defect_sign: int,
                v_a2: int = 0, lvl_a: Optional[int] = None,
                lvl_d: Optional[int] = None) -> "OrbitData":
        # True == 1 passes every check below, but "t": true is no valuation
        if (type(t) is bool or type(v_b2) is bool or type(b_sign) is bool
                or type(defect_sign) is bool or type(v_a2) is bool
                or type(lvl_a) is bool or type(lvl_d) is bool):
            raise TypeError("orbit invariants are ints, not bools")
        if t < 0:
            raise ValueError("the defect valuation t must be >= 0")
        if v_a2 < 0:
            raise ValueError("the a-entry must be integral")
        for lvl in (lvl_a, lvl_d):
            if lvl is not None and lvl < 0:
                raise ValueError("conductor levels are >= 0")
        if v_a2 > 0 and (t != 0 or defect_sign != PLUS):
            raise ValueError("a non-unit a-entry forces t = 0 with sign +1")
        signs = setup.signs
        if not signs(v_a2):
            raise ValueError("no element of the setup has valuation v(a)")
        if b_sign not in signs(v_b2):
            raise ValueError("eta(b) is not a sign valuation v(b) admits")
        if defect_sign not in signs(2 * t):
            raise ValueError("eta(1 - N(a)) is not a sign valuation t admits")
        return tuple.__new__(cls, (setup, t, v_b2, b_sign, defect_sign, v_a2, lvl_a, lvl_d))

    @property
    def v_c2(self) -> int:
        return 2 * self.t - self.v_b2

    @property
    def c_sign(self) -> int:
        return self.defect_sign * self.b_sign

    def to_json(self) -> dict:
        return {
            "q": self.setup.q,
            "ramified": self.setup.ramified,
            "eta_pi_f": self.setup.eta_pi_f,
            "t": self.t,
            "defect_sign": self.defect_sign,
            "v_b2": self.v_b2,
            "b_sign": self.b_sign,
            "v_a2": self.v_a2,
            "lvl_a": self.lvl_a,
            "lvl_d": self.lvl_d,
        }


def orbits_at(setup: FieldSetup, t: int, v_b2: int,
              lvl_a: Optional[int] = None, lvl_d: Optional[int] = None) -> list[OrbitData]:
    """Every orbit with unit diagonal entries and the given invariants, one
    per sign pair (eta(b), eta(1 - N(a))) the setup admits."""
    return [OrbitData(setup=setup, t=t, v_b2=v_b2, b_sign=b_sign, defect_sign=defect_sign,
                      lvl_a=lvl_a, lvl_d=lvl_d)
            for b_sign in setup.signs(v_b2) for defect_sign in setup.signs(2 * t)]


def unramified_orbit(setup: FieldSetup, t: int, v_b: int,
                     lvl_a: Optional[int] = None, lvl_d: Optional[int] = None) -> OrbitData:
    """The one unramified orbit with unit diagonal entries and these invariants."""
    if setup.ramified:
        raise ValueError("expected an unramified setup")
    (gamma,) = orbits_at(setup, t, 2 * v_b, lvl_a, lvl_d)
    return gamma


def _require_base(lam: ValClass) -> None:
    if lam.half_val % 2:
        raise ValueError("the twisting element must lie in the base field")


class InvariantFunction:
    """Finite rational combination of boxes, modeling a locally constant
    compactly supported test function of the orbit invariants."""

    __slots__ = ("_terms", "_weights")

    def __init__(self, terms: Iterable[tuple[Rational, Box]] = ()):
        self._terms = tuple((as_fraction(c), box) for c, box in terms)
        self._weights: dict[tuple[FieldSetup, Optional[int]],
                            tuple[int, tuple[tuple[int, int], ...]]] = {}

    @property
    def terms(self) -> tuple[tuple[Fraction, Box], ...]:
        return self._terms

    def _run_weights(self, setup: FieldSetup, eta: Optional[int]
                     ) -> tuple[int, tuple[tuple[int, int], ...]]:
        """(den, per term (even, odd)): integer numerators over den of
        coeff * unit_integral(setup, 0, eta) and coeff * unit_integral(setup,
        2, eta), the weights of the term's even and odd conjugator shells when
        eta is asked of the conjugator.  Built on first use for each (setup,
        eta); the terms never change, so the table is exact."""
        key = (setup, eta)
        weights = self._weights.get(key)
        if weights is None:
            even, odd = unit_integral(setup, 0, eta), unit_integral(setup, 2, eta)
            pairs = [(c * even, c * odd) for c, _ in self._terms]
            den = lcm(*(w.denominator for pair in pairs for w in pair))
            weights = self._weights[key] = (den, tuple(
                tuple(w.numerator * (den // w.denominator) for w in pair) for pair in pairs))
        return weights

    @classmethod
    def from_box(cls, box: Box, coeff: Rational = 1) -> "InvariantFunction":
        return cls([(coeff, box)])

    def __add__(self, other: "InvariantFunction") -> "InvariantFunction":
        return InvariantFunction(self._terms + other._terms)

    def __sub__(self, other: "InvariantFunction") -> "InvariantFunction":
        return self + other.scale(-1)

    def scale(self, c: Rational) -> "InvariantFunction":
        c = as_fraction(c)
        return InvariantFunction([(c * coeff, box) for coeff, box in self._terms])

    def pulled_back(self, lam: ValClass) -> "InvariantFunction":
        """f composed with conjugation by lam from the base field."""
        return InvariantFunction([(c, box.pulled_back(lam)) for c, box in self._terms])

    def diagonal_value(self, lvl_a: Optional[int], lvl_d: Optional[int]) -> Fraction:
        """Value at a degenerate diagonal point with the given conductor levels."""
        total = Fraction(0)
        for coeff, box in self._terms:
            if not box.touches_diagonal():
                continue
            if box.lvl_a_req.contains(lvl_a) and box.lvl_d_req.contains(lvl_d):
                total += coeff
        return total

    def diagonal_cells(self) -> list[tuple[Interval, Interval, Fraction]]:
        """The restriction to the degenerate diagonal as constant level cells."""
        touching = [box for _, box in self._terms if box.touches_diagonal()]
        cells_a = level_cells([box.lvl_a_req for box in touching])
        cells_d = level_cells([box.lvl_d_req for box in touching])
        out = []
        for ca in cells_a:
            for cd in cells_d:
                value = self.diagonal_value(ca.lo, cd.lo)
                out.append((ca, cd, value))
        return out

    def vanishes_on_diagonal(self) -> bool:
        return all(value == 0 for _, _, value in self.diagonal_cells())

    def to_json(self) -> dict:
        return {"terms": [{"coeff": str(c), "box": box.to_json()} for c, box in self._terms]}


def level_cells(reqs: Iterable[Interval]) -> list[Interval]:
    """Partition the level range (0, 1, ..., oo) into cells on which every
    given requirement interval is constant."""
    bounds = {0}
    for req in reqs:
        if req.lo is not None:
            bounds.add(max(req.lo, 0))
        if req.hi is not None:
            bounds.add(max(req.hi + 1, 0))
    ordered = sorted(bounds)
    cells = []
    for lo, nxt in zip(ordered, ordered[1:]):
        cells.append(Interval(lo, nxt - 1))
    cells.append(Interval(ordered[-1], None))
    return cells


def _box_runs(gamma: OrbitData, f: InvariantFunction) -> list[tuple]:
    """A list of (den, (even, odd), n_lo, n_hi), one per box of f the orbit
    meets: the conjugator valuations n putting v(b) - 2n in i_b and v(c) + 2n
    in i_c, and the integer weights over den of their even and odd shells, each
    the eta-weighted measure of the conjugators h with eta(h) = req * eta(entry)
    at every pin, which reads n only through its parity (see _run_weights)."""
    setup, t, v_b2, b_sign, defect_sign, v_a2, lvl_a, lvl_d = gamma
    v_c2 = 2 * t - v_b2
    c_sign = defect_sign * b_sign
    runs = []
    for k, (coeff, box) in enumerate(f.terms):
        ((a_lo, a_hi), (b_lo, b_hi), (c_lo, c_hi), (d_lo, d_hi), sgn_b, sgn_c,
         (la_lo, la_hi), (ld_lo, ld_hi)) = box
        # the constraints that do not move along the orbit; a level of None
        # is the point +oo, which only an interval open above admits
        if (not coeff or (a_lo is not None and v_a2 < a_lo) or (a_hi is not None and v_a2 > a_hi)
                or (d_lo is not None and v_a2 < d_lo) or (d_hi is not None and v_a2 > d_hi)
                or (la_hi is not None if lvl_a is None else
                    (la_lo is not None and lvl_a < la_lo) or (la_hi is not None and lvl_a > la_hi))
                or (ld_hi is not None if lvl_d is None else
                    (ld_lo is not None and lvl_d < ld_lo) or (ld_hi is not None and lvl_d > ld_hi))):
            continue
        # where one interval leaves a side open the other bounds it
        if (b_lo is None and c_hi is None) or (b_hi is None and c_lo is None):
            raise DivergenceError("the orbit meets the box in an unbounded set")
        n_hi = min((c_hi - v_c2) // 2 if b_lo is None else (v_b2 - b_lo) // 2,
                   (v_b2 - b_lo) // 2 if c_hi is None else (c_hi - v_c2) // 2)
        n_lo = max(-((v_c2 - c_lo) // 2) if b_hi is None else -((b_hi - v_b2) // 2),
                   -((b_hi - v_b2) // 2) if c_lo is None else -((v_c2 - c_lo) // 2))
        if n_lo > n_hi:
            continue
        eta_b = None if sgn_b is None else sgn_b * b_sign
        eta_h = eta_b if sgn_c is None else sgn_c * c_sign
        if eta_b is not None and eta_h != eta_b:
            continue
        den, weights = f._run_weights(setup, eta_h)
        runs.append((den, weights[k], n_lo, n_hi))
    return runs


def orb_s(gamma: OrbitData, f: InvariantFunction) -> LaurentPoly:
    """The orbital integral as an exact polynomial in T = q^(-s), one weight
    times T^n per shell n of _box_runs' parity runs: one dict entry per shell
    and one polynomial addition per box, linear in the output monomials."""
    total = LaurentPoly.zero()
    for den, weights, n_lo, n_hi in _box_runs(gamma, f):
        run: dict[int, int] = {}
        for parity, w in enumerate(weights):
            if w:
                first = n_lo + (parity - n_lo) % 2
                run.update(dict.fromkeys(range(2 * first, 2 * n_hi + 1, 4), w))
        if run:
            total = total + LaurentPoly._of(run, den)
    return total


def orb(gamma: OrbitData, f: InvariantFunction) -> Fraction:
    """orb_s at s = 0, the coefficient sum of the series."""
    return orb_s(gamma, f).eval_at_s0()


def d_orb(gamma: OrbitData, f: InvariantFunction) -> Fraction:
    """The s-derivative of orb_s at s = 0 in log(q) units, minus the sum of
    n * weight over the shells, in closed form: a run of weight w from first
    to last in steps of 2 gives w * count * (first + last) / 2, so the cost
    does not grow with t.  Integer sums over a running common denominator."""
    num, den = 0, 1
    for box_den, weights, n_lo, n_hi in _box_runs(gamma, f):
        part = 0
        for parity, w in enumerate(weights):
            first, last = n_lo + (parity - n_lo) % 2, n_hi - (n_hi - parity) % 2
            part += w * ((last - first) // 2 + 1) * (first + last)  # count 0 if first > last
        g = gcd(den, box_den)
        num, den = num * (box_den // g) + part * (den // g), den // g * box_den
    return Fraction(-num, 2 * den)


def transfer_factor(gamma: OrbitData) -> int:
    """The sign eta(c) that makes orbital integrals descend to matched orbits."""
    return gamma.c_sign


@functools.cache
def integral_indicator() -> InvariantFunction:
    """Characteristic function of the elements with all four entries integral.

    One shared instance per process: its terms never change and its run-weight
    table is keyed by (setup, eta), so every caller can read the same table,
    which then fills once per setup."""
    return InvariantFunction.from_box(Box(i_a=INTEGRAL, i_b=INTEGRAL, i_c=INTEGRAL, i_d=INTEGRAL))


def unit_diag_indicator(lvl_a_req: Interval = Interval(),
                        lvl_d_req: Interval = Interval()) -> InvariantFunction:
    """Characteristic function of unit diagonal entries in the given level
    windows with integral off-diagonal entries."""
    return InvariantFunction.from_box(Box(
        i_a=Interval(0, 0), i_b=INTEGRAL, i_c=INTEGRAL, i_d=Interval(0, 0),
        lvl_a_req=lvl_a_req, lvl_d_req=lvl_d_req))


TWIST = ValClass(2, MINUS)  # valuation one, eta = -1; exists in every setup


def diagonal_killer(lvl_a_req: Interval = Interval(),
                    lvl_d_req: Interval = Interval()) -> InvariantFunction:
    """A combination with value 1 on the chosen diagonal cell whose plain and
    derivative orbital integrals both vanish identically.

    Built as a quarter of (1 + pullback) applied twice to the cell indicator,
    pulling back by TWIST: its eta = -1 kills the integral, and the
    second application its derivative."""
    base = unit_diag_indicator(lvl_a_req, lvl_d_req)
    once = base + base.pulled_back(TWIST)
    return (once + once.pulled_back(TWIST)).scale(Fraction(1, 4))


def clear_diagonal(f: InvariantFunction) -> InvariantFunction:
    """A function with the same plain and derivative orbital integrals as f
    whose restriction to the degenerate diagonal vanishes."""
    out = f
    for cell_a, cell_d, value in f.diagonal_cells():
        if value:
            out = out - diagonal_killer(cell_a, cell_d).scale(value)
    return out
