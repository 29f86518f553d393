"""boxlab: exact-rational analysis of the five-context parity scenario.

The library models probability boxes over five measurement contexts built
from six two-outcome observables, with exact rational arithmetic end to end:
validation (nonnegativity, normalization, no-disturbance), the 64-vertex
polytope of deterministic noncontextual assignments, an exact-rational
simplex LP, contextuality measures (inequality value, noncontextual fraction
and cost, parity-box strength), minimal hidden-variable dimension searches
(supernoncontextuality and superlocality), covariance witnesses with a
semi-device-independent criterion, and quantum box generation from two-qubit
states.  The ``boxlab`` CLI exposes generation, analysis, sweeps, and vertex
dumps.
"""

from .boxes import noise_box, noisy_peres_box, peres_box, uniform_box
from .decompose import (
    DEFAULT_BUDGET,
    Decomposition,
    DimensionResult,
    EXACT,
    LHV_VERTEX_SET,
    LOWER_BOUND_ONLY,
    NC_VERTEX_SET,
    ProductTerm,
    bell_affine_dimension,
    bell_local_membership,
    contextual_fraction,
    decomposition_from_json,
    decomposition_to_json,
    is_superlocal,
    is_supernoncontextual,
    lhv_decomposition,
    min_lhv_dimension,
    min_nc_dimension,
    nc_affine_dimension,
    nc_decomposition,
    nc_membership,
    peres_strength,
    product_lhv_terms,
    product_terms_marginal,
)
from .errors import (
    BoxParseError,
    BoxValidationError,
    BoxlabError,
    ContextNotCommuting,
    Inconclusive,
    MalformedProgram,
    NegativeEntry,
    NegativeProbability,
    NoDisturbanceViolation,
    NoExactRationalization,
    NotDecomposable,
    NotLocal,
    NotNoncontextual,
    NotNormalized,
    PairNotJoint,
    ParameterOutOfRange,
)
from .exactlp import INFEASIBLE, LPResult, LinearProgram, OPTIMAL, solve
from .quantum import (
    ObservableSet,
    PeresIdentityReport,
    PureQubit,
    box_from_state,
    make_observables,
    make_state,
    quantum_box,
    rationalize_box,
    verify_peres_identities,
    werner_third_from_products,
    werner_third_product_terms,
)
from .scenario import (
    BELL_SETTINGS,
    BellMarginal,
    Box,
    CONTEXT_IDS,
    bell_correlator,
    bell_marginal,
    bell_single,
    box_from_json_dict,
    box_to_json_dict,
    expectation,
    format_rational,
    inequality_lhs,
    mix_boxes,
    rational_to_decimal,
    single_marginal,
    validate_bell_marginal,
    validate_box,
)
from .vertices import (
    DetBoxId,
    LocalDetBoxId,
    det_box,
    enumerate_local_vertices,
    enumerate_nc_vertices,
    local_det_box,
    parse_det_label,
    parse_local_label,
)
from .witnesses import (
    Report,
    SdiCheck,
    classify,
    covariance,
    q_witness,
    report_to_csv_row,
    report_to_json_dict,
    sdi_contextuality_check,
)

__version__ = "0.1.0"
