"""Exact equivariant-localization and iterated-residue calculator.

The public names below resolve on first access (PEP 562), so importing
the package, or ``equiloc.cli`` for one subcommand, loads no computing
module that the caller does not use."""

import importlib

#: Each public name and the module that defines it.
_EXPORTS = {
    **dict.fromkeys(("Monomial", "Polynomial", "Var", "cvar",
                     "parse_polynomial", "svar", "term_list", "wvar",
                     "zvar"), "algebra"),
    **dict.fromkeys(("EulerResult", "GGResult", "euler_characteristic",
                     "intersection_polynomial", "leading_constant",
                     "positivity_threshold"), "hyperbolicity"),
    **dict.fromkeys(("JetCurve", "ReparamJet", "compose", "gk_matrix",
                     "invariant_minors", "rho"), "jets"),
    **dict.fromkeys(("flag_fixed_sum", "flag_residue", "grass_integrate",
                     "run_flag_trials"), "localization"),
    **dict.fromkeys(("ResidueForm", "iterated_residue", "residue_job"),
                    "residue"),
    **dict.fromkeys(("QTable", "ThomResult", "positivity_check",
                     "ratio_check", "thom_polynomial"), "thom"),
}

#: The submodules that ``import equiloc`` alone makes reachable as
#: attributes, each imported on first access like the names.
_MODULES = frozenset(_EXPORTS.values()) | {"errors"}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name, name)
    if module not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f"{__name__}.{module}")
    return loaded if module == name else getattr(loaded, name)
