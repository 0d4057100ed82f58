"""Exact-arithmetic toolkit for graded Gorenstein quotients of operator rings.

Build the algebra attached to a homogeneous form by differentiation, compute
its Hilbert vector and higher Hessians, decide Strong/Weak Lefschetz
properties, and generate certified counterexample families.
"""

__version__ = "0.1.0"

from .analysis import Analysis
from .apolar import (
    AkBasis,
    HilbertVector,
    ak_basis,
    catalecticant,
    hilbert_vector,
    is_unimodal,
)
from .errors import (
    DegenerateInstanceError,
    HomogeneityError,
    InfeasibleParametersError,
    LefschetzLabError,
    NoSplitError,
    PolyParseError,
    SingularMatrixError,
    VariableMismatchError,
    ZeroPolynomialError,
)
from .families import (
    FamilyInstance,
    FamilySpec,
    Manifest,
    gen_exceptional,
    gen_gn,
    gen_gnp,
    gen_ikeda,
    gen_perazzo,
    gen_permutti,
    gen_prop44,
    gen_thmwlp,
    gen_wlpodd,
    generate,
    replay_manifest,
)
from .hessian import (
    ConeReport,
    VanishingVerdict,
    hess_profile,
    hessian_matrix,
    hessian_vanishes,
    is_cone,
    mixed_hessian,
)
from .lefschetz import (
    KeyCertificate,
    LefschetzReport,
    LinearForm,
    ObstructionCertificate,
    key_criterion,
    mult_map,
    rank_at,
    slp_check_element,
    slp_generic,
    verify_key_certificate,
    verify_obstruction_certificate,
    wlp_check_element,
    wlp_generic,
    wlp_obstruction,
)
from .polycore import (
    DiffOp,
    Monomial,
    Poly,
    VariableSet,
    diff_apply,
    eval_poly,
    linear_change,
    mono_basis,
    parse_poly,
)
