"""Exact transforms of acyclic complexes of graded free modules.

Given an acyclic complex of graded free modules over a polynomial ring and
a homogeneous system of parameters, this package constructs an acyclic
complex of the same length resolving the colon module of the degree-zero
image by the parameter ideal, with all unit entries removed from the top
map, and verifies every output by independent Groebner-basis and
Hilbert-series certificates.
"""

from .complexes import (
    AcyclicityCertificate,
    ComplexDefect,
    FreeComplex,
    SopData,
    certify_acyclic,
    check_complex,
    check_qf_containment,
    decompose_images,
    koszul,
    validate_sop,
)
from .errors import (
    DimensionMismatch,
    IncompatibleField,
    InternalError,
    IterationLimit,
    MonomialOverflow,
    NotASop,
    NotInModule,
    ParseError,
    PreconditionFailed,
    StarTransError,
    ValidationError,
)
from .fields import PrimeField, RationalField, field_from_spec
from .modules import (
    GradedFreeModule,
    HilbertData,
    HilbertSeries,
    ModuleVector,
    SubmoduleGB,
    buchberger,
    colon,
    hilbert_data,
    intersect,
    lift_witness,
    normal_form,
    submodule_equal,
    syzygies,
)
from .poly import (
    Polynomial,
    PolyMatrix,
    PolyRing,
    format_polynomial,
    parse_polynomial,
)
from .problemfile import (
    ProblemFile,
    emit_problem,
    emit_star,
    parse_problem,
    star_from_problem,
)
from .transform import (
    BasisSelection,
    ChainMap,
    StarComplex,
    StarResult,
    build_chain_map,
    build_star_top,
    chain_map_image_checks,
    mapping_cone,
    select_basis,
    split_top,
    star_transform,
)
from .verify import (
    CheckResult,
    VerificationReport,
    colon_quotient_count,
    depth_positive_check,
    saturate,
    star_iteration_driver,
    verify_star,
)

__version__ = "0.1.0"
