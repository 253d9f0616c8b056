"""Helpers through which several test modules state laws of the engine.

The engine never runs these; they build the law's inputs from its
primitives."""

from aflcalc.germs import extract_germ
from aflcalc.orbital import (TWIST, Interval, OrbitData, clear_diagonal, diagonal_killer,
                             integral_indicator, unit_diag_indicator)


def along_orbit(gamma, lam):
    """gamma conjugated by a base-field element of class lam: (v(b), eta(b))
    twisted by lam."""
    return OrbitData(gamma.setup, gamma.t, gamma.v_b2 - lam.half_val,
                     gamma.b_sign * lam.eta_sign, gamma.defect_sign, gamma.v_a2,
                     gamma.lvl_a, gamma.lvl_d)


def zero_orbit_battery(setup):
    """Named functions whose plain orbital integrals vanish on every orbit."""
    base = unit_diag_indicator()
    entries = [
        ("diag_killer_all", diagonal_killer()),
        ("diag_killer_cell", diagonal_killer(Interval(0, 1), Interval(2, None))),
        ("eta_pair_units", base + base.pulled_back(TWIST)),
        ("eta_pair_integral", integral_indicator() + integral_indicator().pulled_back(TWIST)),
    ]
    if setup.ramified:
        # every sign-free function integrates to zero against the character
        entries.append(("ram_sign_free", integral_indicator()))
    return entries


def value_at_s0_is_zero(germ):
    """Both sides of the germ vanish at s = 0 on every probe cell."""
    return not any(germ.eval_side(*cell).eval_at_s0() for cell in germ._probe_cells(germ))


def zero_orbit_zero_germ(setup, f):
    """For f whose plain orbital integrals vanish identically (checked by the
    caller on a sweep), the value germ at s = 0 must be zero.

    The function is first replaced by a diagonal-vanishing representative with
    the same integrals, then extracted.  A False return signals an engine bug."""
    return value_at_s0_is_zero(extract_germ(setup, clear_diagonal(f)))
