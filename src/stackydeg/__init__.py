"""Exact limits of twisted nodal curves with torus gluing data.

The package computes, with exact rational arithmetic throughout, the
limit of a one-parameter family described combinatorially: a decorated
dual graph with per-factor line-bundle degrees, plus an invertible
gluing matrix over Q(t) at every node that stays nodal. Chains of stacky
rational curves are inserted where the gluing obstructs extension, and
rational components on which the limit data becomes torsion are
contracted away.
"""

from .blowup import (
    AnSing,
    BlowupParams,
    BlowupResult,
    ContractionError,
    MuActionReport,
    an_blowup_step,
    contract_singularity,
    mu_action_on_blowup,
    resolve_An,
    twisted_blowup,
)
from .curve import (
    Component,
    CurveError,
    GradingSpec,
    Marking,
    MultiDegree,
    Node,
    TwistedCurve,
    Violation,
    arithmetic_genus,
    is_torsion_on_component,
    validate_twisted_map,
)
from .dvrlinalg import (
    Mat,
    NonSquareMatrixError,
    SingularMatrixError,
    SnfResult,
    clear_denominators,
    smith_normal_form,
)
from .engine import (
    DegenerationInput,
    DegenerationOutput,
    DegenerationValidationError,
    EngineError,
    TorsionContractionError,
    degenerate,
    degeneration_input_from_json,
)
from .errors import SchemaError
from .field import (
    INFINITE,
    DegreeCapExceeded,
    ParseError,
    RatFunc,
    format_ratfunc,
    parse_ratfunc,
    t_power,
)

__version__ = "0.1.0"
