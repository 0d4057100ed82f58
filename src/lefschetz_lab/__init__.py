"""Exact-arithmetic toolkit for graded Gorenstein quotients of operator rings.

Build the algebra attached to a homogeneous form by differentiation, compute
its Hilbert vector and higher Hessians, decide Strong/Weak Lefschetz
properties, and generate certified counterexample families.

Every public name below is importable from the package root.  Its submodule
is imported on the first use of the name (PEP 562), so a command that never
touches the family generators or the suite does not load them.  The facts of
one form (bases, Hilbert vector, Hessians, verdicts, certificates) are read
through the methods of its `Analysis`, which computes each once; the
functions that compute them stay in their submodules and are not listed here.
"""

import importlib

__version__ = "0.1.0"

# each public name and the submodule that defines it
_SOURCE = {
    "Analysis": "analysis",
    "AkBasis": "apolar",
    "HilbertVector": "apolar",
    "is_unimodal": "apolar",
    "DegenerateInstanceError": "errors",
    "HomogeneityError": "errors",
    "InfeasibleParametersError": "errors",
    "LefschetzLabError": "errors",
    "PolyParseError": "errors",
    "SingularMatrixError": "errors",
    "VariableMismatchError": "errors",
    "ZeroPolynomialError": "errors",
    "FamilyInstance": "families",
    "FamilySpec": "families",
    "Manifest": "families",
    "gen_exceptional": "families",
    "gen_gn": "families",
    "gen_gnp": "families",
    "gen_ikeda": "families",
    "gen_perazzo": "families",
    "gen_permutti": "families",
    "gen_prop44": "families",
    "gen_thmwlp": "families",
    "gen_wlpodd": "families",
    "generate": "families",
    "replay_manifest": "families",
    "ConeReport": "hessian",
    "VanishingVerdict": "hessian",
    "hess_profile": "hessian",
    "is_cone": "hessian",
    "LefschetzReport": "lefschetz",
    "LinearForm": "lefschetz",
    "rank_at": "lefschetz",
    "slp_check_element": "lefschetz",
    "slp_generic": "lefschetz",
    "wlp_check_element": "lefschetz",
    "wlp_generic": "lefschetz",
    "catalecticant": "oracles",
    "diff_apply": "oracles",
    "linear_change": "oracles",
    "mult_map": "oracles",
    "DiffOp": "polycore",
    "Monomial": "polycore",
    "Poly": "polycore",
    "VariableSet": "polycore",
    "mono_basis": "polycore",
    "parse_poly": "polycore",
    "ZeroBlock": "support",
    "verify_zero_block": "support",
}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    """Import the submodule that defines `name` and keep the name here."""
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
