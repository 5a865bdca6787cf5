"""Exact interval-set logic modulo null sets, filter-base states, smeared
position questions, and seeded finite-precision measurement simulation."""

from .common import DEFAULT_SEED, DIVERGENT, UNDETERMINED, as_fraction, snap_to_rational
from .effects import (
    BoxDensity,
    Effect,
    GaussianDensity,
    LeqResult,
    TriangleDensity,
    box,
    constant,
    evaluate,
    gaussian,
    leq,
    neg,
    oplus,
    scale,
    smear,
    triangle,
    vanishes_at_infinity,
)
from .errors import (
    CannotCertify,
    FmpViolation,
    NotOrthogonal,
    QuadratureFailure,
    SetExprError,
    UnsharpError,
    ZeroClassError,
)
from .filters import (
    FilterBase,
    FmpCertificate,
    adjoin,
    converges_to,
    disjoint_family,
    escaping_base,
    filter_base,
    has_fmp,
    neighborhood_base,
)
from .intervals import (
    EMPTY,
    REALS,
    Interval,
    IntervalSet,
    closed,
    combine,
    complement,
    interval,
    intersect,
    difference,
    is_subset,
    measure,
    membership,
    points,
    singleton,
    symmetric_difference,
    union,
)
from .measurement import (
    MeasurementRecord,
    PrecisionScheme,
    ScoreSheet,
    dyadic_cell,
    indistinguishability_experiment,
    run_protocol,
    sample,
    scorekeeper,
)
from .quotient import (
    UNIT,
    ZERO,
    QuotientClass,
    point_membership_state,
    project,
    q_combine,
    q_diff,
    q_join,
    q_leq,
    q_meet,
    q_not,
    q_symmdiff,
    split,
)
from .setexpr import parse_set_expr
from .states import (
    Mixture,
    eval_density,
    eval_point,
    eval_sharp,
    filter_effect_value,
    mixture,
    mixture_expectation,
    normal,
    sharp_probability,
    uniform,
)

__version__ = "0.1.0"
