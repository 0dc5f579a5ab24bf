"""Exact equivariant-localization and iterated-residue calculator."""

from .algebra import (LaurentSeries, Monomial, Polynomial, Var, cvar,
                      parse_polynomial, svar, term_list, wvar, zvar)
from .hyperbolicity import (EulerResult, GGResult, euler_characteristic,
                            intersection_polynomial, leading_constant,
                            positivity_threshold)
from .jets import (JetCurve, ReparamJet, compose, gk_matrix, invariant_minors,
                   rho)
from .localization import (flag_fixed_sum, flag_residue, grass_integrate,
                           run_flag_trials)
from .residue import ResidueForm, iterated_residue, residue_job
from .thom import (QTable, ThomResult, positivity_check, ratio_check,
                   thom_polynomial)

__version__ = "0.1.0"
