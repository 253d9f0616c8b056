"""The named test-function battery shared by the germ checks and the CLI:
per field setup, functions vanishing on the degenerate diagonal, so that
their germs can be extracted.
"""

from __future__ import annotations

from fractions import Fraction

from .field import MINUS, PLUS, FieldSetup
from .germs import constant_germ, function_from_germ, shell_box
from .orbital import (TWIST, Box, Interval, InvariantFunction, clear_diagonal,
                      integral_indicator, unit_diag_indicator)


def germ_battery(setup: FieldSetup) -> list[tuple[str, InvariantFunction]]:
    """Functions vanishing on the degenerate diagonal."""
    ram = setup.ramified
    pin = PLUS if ram else None
    neg = MINUS if ram else None
    entries: list[tuple[str, InvariantFunction]] = [
        ("b_shell_0", InvariantFunction.from_box(shell_box(0, 0, pin))),
        ("b_shell_neg", InvariantFunction.from_box(shell_box(0, -4, pin), Fraction(3, 2))),
        ("b_shell_pos", InvariantFunction.from_box(shell_box(0, 2, pin), -2)),
        ("c_shell_0", InvariantFunction.from_box(shell_box(1, 0, pin))),
        ("c_shell_pos", InvariantFunction.from_box(shell_box(1, 4, pin), Fraction(-1, 2))),
        ("b_plus_c_shells", InvariantFunction.from_box(shell_box(0, 0, pin))
         + InvariantFunction.from_box(shell_box(1, 2, pin), Fraction(1, 3))),
        ("levelled_shell", InvariantFunction.from_box(
            shell_box(0, 0, pin, lvl_a=Interval(1, None), lvl_d=Interval(0, 2)))),
        ("wide_b_window", InvariantFunction.from_box(Box(
            i_a=Interval(0, 0), i_b=Interval(-2, 2), i_c=Interval(0, None),
            i_d=Interval(0, 0), sgn_b_req=pin))),
        ("cleared_units", clear_diagonal(unit_diag_indicator())),
        ("cleared_integral", clear_diagonal(integral_indicator())),
        ("pulled_shell", InvariantFunction.from_box(shell_box(0, 0, pin)).pulled_back(TWIST)),
        ("deep_c_floor", InvariantFunction.from_box(shell_box(0, 0, pin, floor2=4))),
    ]
    if ram:
        entries.extend([
            ("ram_odd_b_shell", InvariantFunction.from_box(shell_box(0, 1, PLUS))),
            ("ram_odd_b_shell_neg", InvariantFunction.from_box(shell_box(0, -3, MINUS), 5)),
            ("ram_odd_c_shell", InvariantFunction.from_box(shell_box(1, 1, PLUS))),
            ("ram_minus_pins", InvariantFunction.from_box(shell_box(0, 0, MINUS))
             + InvariantFunction.from_box(shell_box(1, 2, MINUS), -1)),
        ])
    else:
        entries.extend([
            ("transfer_00", function_from_germ(constant_germ(
                setup, [(Interval(), Interval(), Fraction(1, 2), Fraction(1, 2))]))),
            ("transfer_01", function_from_germ(constant_germ(
                setup, [(Interval(0, None), Interval(1, None), Fraction(-1, 2), Fraction(1, 2))]))),
            ("unram_mixed_sign_shell", InvariantFunction.from_box(shell_box(0, -2, neg))),
        ])
    return entries
