"""Orbit matching, intersection lengths, and the AFL / ATI verifiers.

An orbit matches into the split unitary group U0 exactly when its norm
defect 1 - N(a) has character sign +1, and into U1 when the sign is -1, so
OrbitData.defect_sign names the group.  A context fixes two lift levels
(i, j) and the ramification index e_F of the deformation base over the
unramified base; its locus is U1 (defect sign -1) when the extension is
ramified or i + j is even, and U0 (defect sign +1) otherwise.  The matched
element has two off-diagonal entries of height t = v(1 - N(a)) governed by
the (i, j) deformation problem and two diagonal entries governed by (i, i)
and (j, j); its intersection length Int is the minimum of the four lift
bounds, the diagonal ones being infinite exactly when the diagonal entries
sit inside the level orders.

AFL here means the unramified level-(0,0) identity
    omega(gamma) * dOrb(1_K) = Int * log q = (1 + t)/2 * log q,
checked against the orbit engine with no shared code path.  The ATI checks
are the computable skeleton of the general identity: the linear growth of
Int in t, and the constancy of the difference between omega * dOrb(f) and
Int * log q for a test function f realizing the prescribed transfer germ.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence

from .deformation import DeformQuery, lift_bound, ramification_index, reduction_commutes
from .field import MINUS, PLUS, FieldSetup
from .germs import (GermExpansion, constant_germ, function_from_germ, solve_transfer_germ,
                    validity_threshold)
from .orbital import (Interval, OrbitData, d_orb, integral_indicator, orb,
                      transfer_factor, unramified_orbit)
from .symbolic import log_text


class MatchingError(ValueError):
    """Orbit outside the matching locus of the context."""


class _MatchContext(NamedTuple):
    setup: FieldSetup
    i: int
    j: int
    e_f: int


class MatchContext(_MatchContext):
    """Lift levels and the ramification index e_F of the deformation base
    over the completed unramified base field."""

    __slots__ = ()

    def __new__(cls, setup: FieldSetup, i: int, j: int, e_f: int) -> "MatchContext":
        if i < 0 or j < 0:
            raise ValueError("levels are >= 0")
        if e_f < 1:
            raise ValueError("e_F is >= 1")
        if e_f % ramification_index(setup, max(i, j)):
            raise ValueError("e_F must be divisible by the larger class-field ramification")
        return tuple.__new__(cls, (setup, i, j, e_f))

    @property
    def first_case(self) -> bool:
        """Ramified or i + j even, i.e. reductions commute with the order
        action; decides the unitary group the context uses."""
        return reduction_commutes(self.setup, self.i, self.j)

    @property
    def defect_sign(self) -> int:
        """eta(1 - N(a)) of the orbits in the context's locus: -1 (U1) in
        the first case, +1 (U0) otherwise."""
        return MINUS if self.first_case else PLUS

    def e_rel(self, level_i: int, level_j: int) -> int:
        return self.e_f // ramification_index(self.setup, max(level_i, level_j))


class EntryHeights(NamedTuple):
    """Heights of the four entries of the matched element; None means the
    entry deforms arbitrarily far."""

    off_diag: int
    diag_1: Optional[int]
    diag_4: Optional[int]


def derived_diag_height(setup: FieldSetup, lvl: int) -> int:
    """Canonical class height of a unit diagonal entry of conductor level lvl
    below the lift level: the base-field part absorbs, the rest survives at
    twice the level (shifted by one half when ramified)."""
    return 2 * lvl + (1 if setup.ramified else 0)


def entry_heights(gamma: OrbitData, ctx: MatchContext) -> EntryHeights:
    """Entry heights of the matched element.

    Off-diagonal heights equal t in every case (the twisting element is a unit
    times at most one uniformizer, and the defect norm accounts for the rest).
    Diagonal entries deform arbitrarily far exactly when their conductor level
    reaches the lift level; otherwise their height is the derived class
    height of their level."""
    if gamma.defect_sign != ctx.defect_sign:
        raise MatchingError("orbit does not match into the context's unitary group")
    return EntryHeights(gamma.t, *(
        None if lvl is None or lvl >= level else derived_diag_height(ctx.setup, lvl)
        for lvl, level in ((gamma.lvl_a, ctx.i), (gamma.lvl_d, ctx.j))))


def diag_height_attainable(setup: FieldSetup, level: int, h: int) -> bool:
    """Whether h is a class height a diagonal entry of some conductor level
    below the lift level can have: the derived values 2*lvl (plus one when
    ramified) for lvl in [0, level)."""
    return any(h == derived_diag_height(setup, lvl) for lvl in range(level))


def _diag_bound(ctx: MatchContext, level: int, h: int) -> int:
    """Lift bound of a diagonal entry of finite class height h whose lift
    level is level; h must be a class height that level admits."""
    if not diag_height_attainable(ctx.setup, level, h):
        raise MatchingError(f"diagonal class height {h} is not attainable at level {level}")
    return lift_bound(DeformQuery(ctx.setup, level, level, ctx.e_rel(level, level), h))


def intersection_length(heights: EntryHeights, ctx: MatchContext) -> int:
    """Minimum of the four entrywise lift bounds.

    The off-diagonal entries always give a finite bound, so the length is
    finite; finite diagonal heights must be class heights their level admits."""
    off_query = DeformQuery(ctx.setup, ctx.i, ctx.j, ctx.e_rel(ctx.i, ctx.j), heights.off_diag)
    bounds = [lift_bound(off_query)]  # two identical off-diagonal entries
    for level, h in ((ctx.i, heights.diag_1), (ctx.j, heights.diag_4)):
        if h is not None:
            bounds.append(_diag_bound(ctx, level, h))
    return min(bounds)


def context_orbit(ctx: MatchContext, t: int, v_b2: int = 0,
                  lvl_a: Optional[int] = None, lvl_d: Optional[int] = None) -> OrbitData:
    """An orbit with defect valuation t inside the context's matching locus,
    with the first eta(b) the setup admits at v(b): +1 where both occur.

    An orbit is fixed by its invariants, so every context with the same
    setup and defect sign shares one orbit per (t, v_b2, lvl_a, lvl_d)."""
    return _locus_orbit(ctx.setup, ctx.defect_sign, t, v_b2, lvl_a, lvl_d)


# typed: True == 1, and an orbit cached at t = 1 must not answer t = True,
# which OrbitData refuses
@lru_cache(maxsize=1024, typed=True)
def _locus_orbit(setup: FieldSetup, defect_sign: int, t: int, v_b2: int,
                 lvl_a: Optional[int], lvl_d: Optional[int]) -> OrbitData:
    b_signs = setup.signs(v_b2)
    if not b_signs or defect_sign not in setup.signs(2 * t):
        raise MatchingError(f"no orbit with t = {t}, v_b2 = {v_b2} is in this context")
    return OrbitData(setup=setup, t=t, v_b2=v_b2, b_sign=b_signs[0],
                     defect_sign=defect_sign, lvl_a=lvl_a, lvl_d=lvl_d)


def _int_at(gamma: OrbitData, ctx: MatchContext) -> int:
    """Int of the element an orbit of the context's locus matches."""
    return intersection_length(entry_heights(gamma, ctx), ctx)


# ---------------------------------------------------------------------------
# AFL verification (unramified, levels (0, 0), e_F = 1)

class AflRow(NamedTuple):
    q: int
    t: int
    v_b: int
    omega: int
    d_orb_value: Fraction  # in log(q) units, like lhs
    lhs: Fraction
    int_value: Optional[int]
    closed_form: Optional[Fraction]
    orb_value: Fraction
    transfer_value: Optional[Fraction]
    passed: bool

    def to_json(self) -> dict:
        return {
            "q": self.q, "t": self.t, "v_b": self.v_b, "omega": self.omega,
            "d_orb": log_text(self.d_orb_value), "lhs": log_text(self.lhs),
            "int": self.int_value,
            "closed_form": None if self.closed_form is None else str(self.closed_form),
            "orb": str(self.orb_value),
            "transfer": None if self.transfer_value is None else str(self.transfer_value),
            "passed": self.passed,
        }


def afl_verify(setup: FieldSetup, t: int, v_b: int) -> AflRow:
    """Check the level-(0,0) identity at one orbit.

    Odd t: omega * dOrb(1_K) must equal Int * log q and (1 + t)/2 * log q, and
    the plain integral must vanish.  Even t: the transfer statement
    omega * Orb(1_K) = 1 for unit diagonal data."""
    if setup.ramified:
        raise ValueError("the level-(0,0) identity is stated for unramified setups")
    gamma = unramified_orbit(setup, t, v_b)
    f = integral_indicator()
    omega = transfer_factor(gamma)
    d_value = d_orb(gamma, f)
    lhs = d_value if omega == PLUS else -d_value
    orb_value = orb(gamma, f)
    if gamma.defect_sign == MINUS:  # odd t
        int_value = _int_at(gamma, MatchContext(setup, 0, 0, e_f=1))
        closed = Fraction(1 + t, 2)
        passed = lhs == int_value and int_value == closed and orb_value == 0
        return AflRow(setup.q, t, v_b, omega, d_value, lhs, int_value, closed,
                      orb_value, None, passed)
    transfer_value = orb_value if omega == PLUS else -orb_value
    passed = transfer_value == 1
    return AflRow(setup.q, t, v_b, omega, d_value, lhs, None, None,
                  orb_value, transfer_value, passed)


# ---------------------------------------------------------------------------
# ATI skeleton: growth of Int and the end-to-end residual constancy

class GrowthRow(NamedTuple):
    t: int
    int_value: int
    residual: Fraction  # Int - e_F * t / 2 in the open regime, Int itself when saturated

    def to_json(self) -> dict:
        return {"t": self.t, "int": self.int_value, "residual": str(self.residual)}


class GrowthReport(NamedTuple):
    open_rows: dict[int, tuple[GrowthRow, ...]]  # parity -> rows, diagonals unbounded
    open_constants: dict[int, Fraction]
    saturated_rows: tuple[GrowthRow, ...]
    saturation_value: Optional[int]
    passed: bool

    def to_json(self) -> dict:
        return {
            "open": {str(p): [r.to_json() for r in rows] for p, rows in self.open_rows.items()},
            "open_constants": {str(p): str(c) for p, c in self.open_constants.items()},
            "saturated": [r.to_json() for r in self.saturated_rows],
            "saturation_value": self.saturation_value,
            "passed": self.passed,
        }


def _context_ts(ctx: MatchContext, ts: Sequence[int]) -> list[int]:
    """The defect valuations t admitting the context's defect sign."""
    defect_sign, signs = ctx.defect_sign, ctx.setup.signs
    return [t for t in ts if defect_sign in signs(2 * t)]


def _constant(values: Iterable[Fraction]) -> Optional[Fraction]:
    """The one value all values share, or None when they differ or are none."""
    values = iter(values)
    first = next(values, None)
    if first is None or any(value != first for value in values):
        return None
    return first


def ati_growth_check(ctx: MatchContext, ts: Sequence[int],
                     finite_lvl_a: Optional[int] = None) -> GrowthReport:
    """Growth of Int(t): with unbounded diagonals, 2*Int - e_F*t is constant
    per defect parity from t = i + j on; with a finite diagonal bound, Int
    saturates to that bound.  No t at or above i + j in the context's parity
    leaves nothing to check, which is reported as a failure.

    Int reads an orbit of the context only through its entry heights, so
    each row reads Int from heights and builds no orbit: off-diagonal
    height t, and diagonals unbounded (open regime) or at the derived
    height of finite_lvl_a (finite regime).  The orbit those heights stand
    for exists at every t kept: v(b) = 0 admits eta(b) = +1 in every setup,
    and _context_ts keeps only the t whose defect sign the context admits.
    Int is the minimum of the entrywise lift bounds, and the finite regime
    adds only the first diagonal's, which does not depend on t: so its Int
    at t is the open regime's capped by one diagonal bound per context."""
    ts = [t for t in _context_ts(ctx, ts) if t >= ctx.i + ctx.j]
    if not ts:
        return GrowthReport({}, {}, (), None, False)
    # an orbit refuses a bool t, and the heights would not
    if any(type(t) is bool for t in ts):
        raise TypeError("defect valuations are ints, not bools")
    e_f = ctx.e_f
    values = [intersection_length(EntryHeights(t, None, None), ctx) for t in ts]
    open_rows: dict[int, list[GrowthRow]] = {}
    for t, value in zip(ts, values):
        row = GrowthRow(t, value, Fraction(2 * value - e_f * t, 2))
        open_rows.setdefault(t % 2, []).append(row)
    constants = {p: _constant(row.residual for row in rows) for p, rows in open_rows.items()}
    open_constants = {p: c for p, c in constants.items() if c is not None}
    passed = len(open_constants) == len(open_rows)
    saturated_rows: list[GrowthRow] = []
    saturation_value: Optional[int] = None
    if finite_lvl_a is not None:
        if finite_lvl_a >= ctx.i:
            raise ValueError("finite regime needs a conductor level below the lift level")
        # the checks an orbit makes on its level, which the heights skip
        if type(finite_lvl_a) is bool:
            raise TypeError("conductor levels are ints, not bools")
        if finite_lvl_a < 0:
            raise ValueError("conductor levels are >= 0")
        bound = _diag_bound(ctx, ctx.i, derived_diag_height(ctx.setup, finite_lvl_a))
        for t, value in zip(ts, values):
            capped = min(value, bound)
            saturated_rows.append(GrowthRow(t, capped, Fraction(capped)))
        saturation_value = saturated_rows[ts.index(max(ts))].int_value
        # Int must saturate: the rows at the diagonal bound are a non-empty suffix.
        at_bound = [row.int_value == saturation_value for row in saturated_rows]
        if True not in at_bound or not all(at_bound[at_bound.index(True):]):
            passed = False
    return GrowthReport({p: tuple(r) for p, r in open_rows.items()}, open_constants,
                        tuple(saturated_rows), saturation_value, passed)


class EndToEndRow(NamedTuple):
    t: int
    v_b2: int
    analytic: Fraction       # omega * dOrb(f) in log(q) units
    int_value: int
    analytic_residual: Fraction
    geometric_residual: Fraction
    correction: Fraction     # analytic - Int, the correction-term witness

    def to_json(self) -> dict:
        return {"t": self.t, "v_b2": self.v_b2, "analytic": str(self.analytic),
                "int": self.int_value, "analytic_residual": str(self.analytic_residual),
                "geometric_residual": str(self.geometric_residual),
                "correction": str(self.correction)}


class EndToEndReport(NamedTuple):
    rows: dict[int, tuple[EndToEndRow, ...]]  # valuation class -> rows
    witnesses: dict[int, Fraction]            # constant correction per class
    outside_rows: tuple[EndToEndRow, ...]
    outside_witness: Optional[Fraction]
    threshold: int
    passed: bool

    def to_json(self) -> dict:
        return {
            "rows": {str(c): [r.to_json() for r in rows] for c, rows in self.rows.items()},
            "witnesses": {str(c): str(w) for c, w in self.witnesses.items()},
            "outside": [r.to_json() for r in self.outside_rows],
            "outside_witness": None if self.outside_witness is None else str(self.outside_witness),
            "threshold": self.threshold,
            "passed": self.passed,
        }


def prescribed_transfer_germ(ctx: MatchContext) -> GermExpansion:
    """Germ of a test function transferring e_F times the lattice-stabilizer
    indicator in the context's unitary group: solve the matched system with
    (C0, C1) = (e_F, 0) in the first case and (0, e_F) otherwise, supported on
    diagonal levels at least (i, j)."""
    c0, c1 = (ctx.e_f, 0) if ctx.first_case else (0, ctx.e_f)
    a0, a1 = solve_transfer_germ(c0, c1)
    cell = (Interval(ctx.i, None), Interval(ctx.j, None), a0, a1)
    return constant_germ(ctx.setup, [cell])


T_COUNT = 8  # defect valuations t per valuation class in ati_end_to_end


def ati_end_to_end(ctx: MatchContext) -> EndToEndReport:
    """Full desk-scale transfer-identity skeleton.

    Builds a test function realizing the prescribed transfer germ, then checks
    on orbits past the validity threshold that omega * dOrb(f) and Int * log q
    both grow with slope e_F/2 in t and that their difference is a constant,
    the correction-term germ witness, per valuation class (and per diagonal
    cell: inside the prescribed support and, when i >= 1, outside it).

    The v(b) sample of a valuation class repeats an orbit at some t; each
    distinct orbit's row is computed once and reported at every place the
    sample puts it."""
    f = function_from_germ(prescribed_transfer_germ(ctx))
    threshold = max(validity_threshold(f), ctx.i + ctx.j)
    ts = _context_ts(ctx, range(threshold, threshold + 2 * T_COUNT))[:T_COUNT]

    # Int sees an orbit of the context only through its heights, so Int and
    # its geometric residual Int - offset are computed once per (t, lvl_a,
    # lvl_d), on which the offset depends too, and not once per v(b)
    geometric: dict[tuple[int, Optional[int], Optional[int]], tuple[int, Fraction]] = {}
    # an orbit fixes its row: the offset follows from lvl_a, None on the
    # support and i - 1 outside it
    known_rows: dict[OrbitData, EndToEndRow] = {}

    def row(gamma: OrbitData, offset: Fraction) -> EndToEndRow:
        known_row = known_rows.get(gamma)
        if known_row is not None:
            return known_row
        d_value = d_orb(gamma, f)
        analytic = d_value if transfer_factor(gamma) == PLUS else -d_value  # omega = +-1
        key = (gamma.t, gamma.lvl_a, gamma.lvl_d)
        known = geometric.get(key)
        if known is None:
            int_value = _int_at(gamma, ctx)
            known = geometric[key] = (int_value, int_value - offset)
        int_value, geometric_residual = known
        known_row = known_rows[gamma] = EndToEndRow(
            gamma.t, gamma.v_b2, analytic, int_value, analytic - offset, geometric_residual,
            analytic - int_value)
        return known_row

    def steady(group: Sequence[EndToEndRow]) -> bool:
        """Both residuals are constant over the group, and so is their
        difference, the correction."""
        return None not in (_constant(r.analytic_residual for r in group),
                            _constant(r.geometric_residual for r in group))

    offsets = {t: Fraction(ctx.e_f * t, 2) for t in ts}
    rows = {cls: tuple(row(context_orbit(ctx, t, v_b2=v_b2), offsets[t])
                       for t in ts for v_b2 in (2 * ((t // 2) % 3) - 2 + cls, cls, 4 + cls))
            for cls in ctx.setup.classes}
    corrections = {cls: _constant(r.correction for r in group) for cls, group in rows.items()}
    witnesses = {cls: c for cls, c in corrections.items() if c is not None}
    passed = all(steady(group) for group in rows.values())
    outside_rows: tuple[EndToEndRow, ...] = ()
    outside_witness: Optional[Fraction] = None
    if ctx.i >= 1:
        zero = Fraction(0)
        outside_rows = tuple(row(context_orbit(ctx, t, lvl_a=ctx.i - 1), zero) for t in ts)
        if steady(outside_rows) and all(r.analytic == 0 for r in outside_rows):
            outside_witness = outside_rows[0].correction
        else:
            passed = False
    return EndToEndReport(rows, witnesses, outside_rows, outside_witness, threshold, passed)
