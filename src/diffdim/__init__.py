"""Dimension polynomials and ideal comparison for differential chains."""

from .chains import (
    DiffChain,
    InvalidChainError,
    NotTriangularError,
    ReductionTrace,
    ValidationReport,
    delta_polynomial,
    full_pseudo_reduce,
    membership,
    validate,
)
from .compare import (
    CompareVerdict,
    Containment,
    RankingMismatchError,
    Relation,
    compare_ideals,
    containment_check,
)
from .diffpoly import (
    ConstantPolynomialError,
    Derivative,
    DiffPoly,
    Ranking,
    RingSpec,
    make_derivative,
)
from .dimension import (
    InternalDisagreementError,
    JanetBox,
    LeaderSpec,
    OmegaResult,
    janet_boxes,
    janet_complete,
    krull_oracle,
    omega,
    omega_incl_excl,
    omega_janet,
)
from .numpoly import NumericalPolynomial, Ordering
from .systemfile import (
    ArityMismatchError,
    ParseError,
    SystemFile,
    UnknownIdentifierError,
    parse_system,
)

__version__ = "0.1.0"
