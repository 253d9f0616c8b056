"""Exact-arithmetic orbital integrals on the GL(2) norm-one symmetric space,
quasi-canonical-lift deformation lengths, and the AFL / ATI identity sweeps."""

from .deformation import (InadmissibleParityError, geometric_sum, hom_height_attainable,
                          inadmissible_heights, lift_bound, lift_bound_recursive,
                          ramification_index, reduction_commutes)
from .field import MINUS, PLUS, FieldSetup, ValClass, unit_integral
from .germs import (GermExpansion, GermGradingError, GermPiece,
                    GermPreconditionError, constant_germ, extract_germ,
                    function_from_germ, solve_transfer_germ, validity_threshold)
from .matching import (AflRow, EndToEndReport, EntryHeights, GrowthReport,
                       MatchContext, MatchingError, afl_verify, ati_end_to_end,
                       ati_growth_check, context_orbit, derived_diag_height,
                       entry_heights, intersection_length,
                       prescribed_transfer_germ)
from .orbital import (Box, DivergenceError, Interval, InvariantFunction, OrbitData,
                      clear_diagonal, d_orb, diagonal_killer, integral_indicator, orb,
                      orb_s, orbits_at, transfer_factor, unit_diag_indicator,
                      unramified_orbit)
from .symbolic import LaurentPoly, log_text

__all__ = [name for name in dir() if not name.startswith("_")]
