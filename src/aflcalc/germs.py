"""Germ expansions of orbital integrals near the degenerate diagonal.

For a test function vanishing on the degenerate diagonal, the orbital integral
of any orbit close enough to it (defect valuation t at least a computable
threshold) splits as

    orb_s(gamma, f) = eta_s(b) * A0 + eta_s(c)^(-1) * A1,

where A0 and A1 are locally constant in the diagonal-entry levels and in the
class of b (resp. c) modulo the base field, with values in exact Laurent
polynomials.  This module extracts (A0, A1) from a box function, rebuilds a
box function from prescribed germ data using valuation-homogeneous shells,
solves the two-sided transfer system for germ values, and exposes the
derivative-form coefficients of the germ.  The two sides are one
construction with b and c swapped and the exponent sign flipped, so every
routine here takes the side (0 = b, 1 = c) as a parameter.

Invariant classes modulo the base field are FieldSetup.classes: the parity of
the doubled valuation of b (0 integral, 1 half-integral), of which only class
0 occurs in the unramified case.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence

from .field import PLUS, FieldSetup, unit_integral
from .orbital import (Box, DivergenceError, Interval, InvariantFunction, OrbitData,
                      clear_diagonal, level_cells)
from .symbolic import LaurentPoly, Rational, as_fraction


class GermPreconditionError(ValueError):
    """The function does not vanish on the degenerate diagonal, so its
    orbital integrals have unboundedly many monomials near it and no germ."""


class GermGradingError(ValueError):
    """A germ monomial grading incompatible with its valuation class."""


class GermPiece(NamedTuple):
    """One additive piece: constant on a level cell and one valuation class."""

    lvl_a: Interval
    lvl_d: Interval
    vclass: int  # 0 = integral b/c valuation, 1 = half-integral (ramified)
    poly: LaurentPoly

    def matches(self, lvl_a: Optional[int], lvl_d: Optional[int], vclass: int) -> bool:
        return (self.vclass == vclass and self.lvl_a.contains(lvl_a)
                and self.lvl_d.contains(lvl_d))

    def to_json(self) -> dict:
        return {
            "lvl_a": self.lvl_a.to_json(),
            "lvl_d": self.lvl_d.to_json(),
            "vclass": self.vclass,
            "poly": self.poly.text(),
        }


# The b-side (A0) is side 0, the c-side (A1) side 1.  A0 enters through
# eta_s(b) and A1 through eta_s(c)^(-1), so a shell at doubled valuation w2
# contributes T^(SIDE_SIGN * w2 / 2) to its side, and the derivative slope in
# v(b) resp. v(c) is SIDE_SIGN * A(1).
SIDES = (0, 1)
SIDE_SIGN = (-1, 1)


def _off_diagonal(gamma: OrbitData) -> tuple[tuple[int, int], tuple[int, int]]:
    """(doubled valuation, eta sign) of b and of c, indexed by side; the
    side's twisted character factor is eta * T^(-SIDE_SIGN * v)."""
    return (gamma.v_b2, gamma.b_sign), (gamma.v_c2, gamma.c_sign)


class _GermExpansion(NamedTuple):
    setup: FieldSetup
    a0: tuple[GermPiece, ...]
    a1: tuple[GermPiece, ...]
    threshold: int


class GermExpansion(_GermExpansion):
    # No __slots__: _cells, eval_side's sums by (side, lvl_a, lvl_d, vclass),
    # lives in the instance dict, outside the fields, so it takes no part in
    # ==, hash or repr.  The pieces never change, so the memo is exact.

    def __new__(cls, setup: FieldSetup, a0: tuple[GermPiece, ...], a1: tuple[GermPiece, ...],
                threshold: int) -> "GermExpansion":
        self = tuple.__new__(cls, (setup, a0, a1, threshold))
        self._cells = {}
        return self

    @property
    def sides(self) -> tuple[tuple[GermPiece, ...], tuple[GermPiece, ...]]:
        return self.a0, self.a1

    def eval_side(self, side: int, lvl_a: Optional[int], lvl_d: Optional[int],
                  vclass: int) -> LaurentPoly:
        """Sum of the side's pieces matching the cell (A0 for side 0, A1 for 1),
        summed on the cell's first lookup."""
        key = (side, lvl_a, lvl_d, vclass)
        out = self._cells.get(key)
        if out is None:
            out = LaurentPoly.zero()
            for piece in self.sides[side]:
                if piece.matches(lvl_a, lvl_d, vclass):
                    out += piece.poly
            self._cells[key] = out
        return out

    def _probe_cells(self, other: Optional["GermExpansion"] = None
                     ) -> Iterator[tuple[int, Optional[int], Optional[int], int]]:
        """(side, lvl_a, lvl_d, vclass) for every side of every probe cell.

        Every piece matches a whole level cell or none of it, and level None
        (a base-field entry) matches like the last, unbounded cell, so one
        representative level per cell probes everything."""
        pieces = [piece for germ in ((self,) if other is None else (self, other))
                  for piece in germ.a0 + germ.a1]
        for ca in level_cells(piece.lvl_a for piece in pieces):
            for cd in level_cells(piece.lvl_d for piece in pieces):
                for cls in self.setup.classes:
                    for side in SIDES:
                        yield side, ca.lo, cd.lo, cls

    def equivalent(self, other: "GermExpansion") -> bool:
        """Equality of both germ maps on every probe cell (thresholds are
        metadata and are not compared)."""
        if self.setup.ramified != other.setup.ramified:
            return False
        return all(self.eval_side(*cell) == other.eval_side(*cell)
                   for cell in self._probe_cells(other))

    def value_at_s0_is_zero(self) -> bool:
        return not any(self.eval_side(*cell).eval_at_s0() for cell in self._probe_cells())

    def predicted_orb_s(self, gamma: OrbitData) -> LaurentPoly:
        """eta_s(b) A0 + eta_s(c)^(-1) A1 evaluated at the orbit's invariants."""
        cls = gamma.v_b2 % 2
        b_part, c_part = (
            LaurentPoly.monomial(-SIDE_SIGN[side] * v2, sign)
            * self.eval_side(side, gamma.lvl_a, gamma.lvl_d, cls)
            for side, (v2, sign) in enumerate(_off_diagonal(gamma)))
        return b_part + c_part

    def derivative_side(self, side: int, lvl_a: Optional[int], lvl_d: Optional[int],
                        vclass: int) -> tuple[Fraction, Fraction]:
        """Derivative-form coefficients (slope, constant) of the side on the
        cell: SIDE_SIGN * A(1) and d/ds A at s = 0 in log(q) units.

        Near the diagonal the derivative integral at s = 0 is
        eta(b)[v(b)*slope0 + const0] + eta(c)^(-1)[v(c)*slope1 + const1],
        times log(q): the b-side enters through eta_s(b), whose derivative
        contributes -v(b) log(q) times the value, and the c-side enters
        inverted, flipping the slope sign.  Both coefficients are linear in
        the side polynomial, so they are read off the summed polynomial."""
        poly = self.eval_side(side, lvl_a, lvl_d, vclass)
        return SIDE_SIGN[side] * poly.eval_at_s0(), poly.d_ds_at_s0()

    def predicted_d_orb(self, gamma: OrbitData) -> Fraction:
        """The derivative integral at s = 0 the germ predicts, in log(q) units."""
        cls = gamma.v_b2 % 2
        out = Fraction(0)
        for side, (v2, sign) in enumerate(_off_diagonal(gamma)):
            slope, constant = self.derivative_side(side, gamma.lvl_a, gamma.lvl_d, cls)
            out += sign * (Fraction(v2, 2) * slope + constant)
        return out

    def derivative_is_zero(self) -> bool:
        """Both derivative-form coefficients vanish on every probe cell, so
        pieces that cancel on a cell count as zero."""
        return not any(any(self.derivative_side(*cell)) for cell in self._probe_cells())

    def to_json(self) -> dict:
        return {
            "threshold": self.threshold,
            "a0": [p.to_json() for p in self.a0],
            "a1": [p.to_json() for p in self.a1],
        }


def _ceil_half(x2: int) -> int:
    """Smallest integer >= x2/2."""
    return -((-x2) // 2)


def _box_threshold(box: Box) -> int:
    """Smallest t from which the box behaves exactly like its germ shadow."""
    ivs = (box.i_b, box.i_c)
    if any(iv.lo is None for iv in ivs):
        raise DivergenceError("box support is unbounded below in valuation")
    # an entry bounded above reaches up to its ceiling, an open one only its floor
    reach = sum(iv.lo if iv.hi is None else iv.hi for iv in ivs)
    open_sides = sum(iv.hi is None for iv in ivs)
    if open_sides == 2:
        return _ceil_half(reach - 2)
    if open_sides == 1:
        return _ceil_half(reach)
    return reach // 2 + 1


def _near_diagonal_terms(f: InvariantFunction) -> list[tuple[Fraction, Box]]:
    """The nonzero terms of f whose box admits unit diagonal entries; no
    other box is active near the diagonal, where v(a) = 0."""
    return [(coeff, box) for coeff, box in f.terms
            if coeff and box.i_a.contains(0) and box.i_d.contains(0)]


def validity_threshold(f: InvariantFunction) -> int:
    return max([1] + [_box_threshold(box) for _, box in _near_diagonal_terms(f)])


def _shell_interval(box: Box, side: int) -> Interval:
    return box.i_c if side else box.i_b


def _sign_pin(box: Box, side: int) -> Optional[int]:
    return box.sgn_c_req if side else box.sgn_b_req


def shell_box(side: int, w2: int, pin: Optional[int], floor2: int = 0,
              lvl_a: Interval = Interval(), lvl_d: Interval = Interval()) -> Box:
    """One valuation shell with unit diagonal entries: the side's entry
    (0 = b, 1 = c) at doubled valuation w2 with an optional sign pin, the
    other off-diagonal entry at doubled valuation floor2 or more."""
    shell, floor = Interval(w2, w2), Interval(floor2, None)
    i_b, i_c = (floor, shell) if side else (shell, floor)
    sgn_b, sgn_c = (None, pin) if side else (pin, None)
    return Box(i_a=Interval(0, 0), i_b=i_b, i_c=i_c, i_d=Interval(0, 0),
               sgn_b_req=sgn_b, sgn_c_req=sgn_c, lvl_a_req=lvl_a, lvl_d_req=lvl_d)


def _collect_side(setup: FieldSetup, boxes: Sequence[tuple[Fraction, Box]],
                  cells_a: Sequence[Interval], cells_d: Sequence[Interval],
                  side: int) -> list[GermPiece]:
    """Aggregate shell sums per level cell and valuation class.

    The shells of a side run over that side's interval of every box whose
    other off-diagonal interval is unbounded.  Boxes reaching the diagonal have
    unbounded shell ranges; their tails cancel cell by cell because the
    function vanishes on the diagonal, so summation stops once only unbounded
    boxes remain active."""
    pieces: list[GermPiece] = []
    for ca in cells_a:
        for cd in cells_d:
            in_cell = [(coeff, _shell_interval(box, side), _sign_pin(box, side))
                       for coeff, box in boxes
                       if box.lvl_a_req.contains(ca.lo) and box.lvl_d_req.contains(cd.lo)]
            if not in_cell:
                continue
            if any(iv.lo is None for _, iv, _ in in_cell):
                raise DivergenceError("germ integral diverges: shell range unbounded below")
            lo2 = min(iv.lo for _, iv, _ in in_cell)
            hi2 = max((iv.hi if iv.hi is not None else iv.lo) for _, iv, _ in in_cell)
            for cls in setup.classes:
                terms: list[tuple[int, Fraction]] = []
                for w2 in range(lo2, hi2 + 1):
                    if w2 % 2 != cls:
                        continue
                    weight = Fraction(0)
                    for coeff, iv, pin in in_cell:
                        if iv.contains(w2):
                            weight += coeff * unit_integral(setup, w2, pin)
                    if weight:
                        terms.append((SIDE_SIGN[side] * w2, weight))
                if terms:
                    pieces.append(GermPiece(ca, cd, cls, LaurentPoly(terms)))
    return pieces


def extract_germ(setup: FieldSetup, f: InvariantFunction) -> GermExpansion:
    """Germ data (A0, A1) of a function vanishing on the degenerate diagonal.

    A0 collects the boxes open towards c = 0 (upper-triangular limit), A1
    those open towards b = 0; each box contributes one invariant monomial per
    accepted valuation shell."""
    if not f.vanishes_on_diagonal():
        raise GermPreconditionError(
            "function does not vanish on the degenerate diagonal; its orbital "
            "integrals acquire unboundedly many monomials near it")
    side_boxes: tuple[list, list] = ([], [])
    for coeff, box in _near_diagonal_terms(f):
        for side in SIDES:
            if not _shell_interval(box, 1 - side).bounded_above:
                side_boxes[side].append((coeff, box))
    in_play = [box for boxes in side_boxes for _, box in boxes]
    cells_a = level_cells(box.lvl_a_req for box in in_play)
    cells_d = level_cells(box.lvl_d_req for box in in_play)
    a0, a1 = (tuple(_collect_side(setup, side_boxes[side], cells_a, cells_d, side))
              for side in SIDES)
    return GermExpansion(setup, a0, a1, validity_threshold(f))


def function_from_germ(germ: GermExpansion) -> InvariantFunction:
    """A box function whose orbital integrals realize the prescribed germ for
    every orbit with defect valuation past the (recomputed) threshold.

    Each germ monomial c*T^(k) becomes a single valuation shell: on the b-side
    the shell at v = -k, and dually on the c-side, with coefficient c over
    the shell's measure unit_integral.  A ramified shell is pinned to eta =
    +1, since unpinned it integrates to 0.  The monomial grading must agree
    with the valuation class, which the setup must admit."""
    setup = germ.setup
    pin = PLUS if setup.ramified else None
    terms: list[tuple[Fraction, Box]] = []
    for side, pieces in enumerate(germ.sides):
        for piece in pieces:
            for e2, c in piece.poly.terms():
                w2 = SIDE_SIGN[side] * e2
                if w2 % 2 != piece.vclass or not setup.signs(w2):
                    raise GermGradingError(
                        f"{'bc'[side]}-side monomial T^{e2}/2 cannot be realized "
                        f"on class {piece.vclass}")
                terms.append((c / unit_integral(setup, w2, pin),
                              shell_box(side, w2, pin, lvl_a=piece.lvl_a, lvl_d=piece.lvl_d)))
    return InvariantFunction(terms)


def constant_germ(setup: FieldSetup,
                  cells: Sequence[tuple[Interval, Interval, Rational, Rational]]
                  ) -> GermExpansion:
    """Germ with prescribed s0-constant values (a0, a1) on each level cell.

    On the integral valuation class the values sit in grading T^0; on the
    ramified half-integral class the nearest realizable gradings T^(-1/2)
    (b-side) and T^(1/2) (c-side) are used, so the s = 0 shadow is the
    prescribed constant on every class.  The threshold is 1, the floor of
    validity_threshold."""
    sides: tuple[list, list] = ([], [])
    for lvl_a, lvl_d, a0_val, a1_val in cells:
        for side, value in enumerate((a0_val, a1_val)):
            value = as_fraction(value)
            if not value:
                continue
            for cls in setup.classes:
                sides[side].append(GermPiece(lvl_a, lvl_d, cls,
                                             LaurentPoly.monomial(cls * SIDE_SIGN[side], value)))
    return GermExpansion(setup, tuple(sides[0]), tuple(sides[1]), 1)


def solve_transfer_germ(c0: Rational, c1: Rational) -> tuple[Fraction, Fraction]:
    """Solve the matched-orbit system for germ values on the eta(b) = +1 side.

    Returns (a0, a1) with defect_sign * a0 + a1 equal to c0 on the +1 side
    and c1 on the -1 side:
        a0 = (c0 - c1)/2,   a1 = (c0 + c1)/2.
    """
    c0 = as_fraction(c0)
    c1 = as_fraction(c1)
    return (c0 - c1) / 2, (c0 + c1) / 2


def zero_orbit_zero_germ(setup: FieldSetup, f: InvariantFunction) -> bool:
    """For f whose plain orbital integrals vanish identically (checked by the
    caller on a sweep), the value germ at s = 0 must be zero.

    The function is first replaced by a diagonal-vanishing representative with
    the same integrals, then extracted.  A False return signals an engine bug."""
    germ = extract_germ(setup, clear_diagonal(f))
    return germ.value_at_s0_is_zero()
