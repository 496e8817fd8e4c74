"""Stabilizer codes with transversal phase gates.

Construction of the minimal k-orthogonal matrices and sub-dual Hamming CSS
family, exact verification of transversal (controlled) phase gates by
modular arithmetic, CSS distance computation, and exhaustive desk-scale
minimality searches.
"""

from .codes import (
    DegeneracyClass,
    DegeneracyPartition,
    PauliOp,
    ReducedView,
    StabilizerCode,
    StandardFormCode,
    code_from_json,
    code_to_json,
    css_standard_form,
    degeneracy_classes,
    is_css,
    logical_zero_support,
    nondegenerate_reduction,
    to_standard_form,
)
from .distance import DistanceReport, ThreeColumnCheck, css_distances, z_distance_floor
from .errors import (
    CongruenceError,
    DegenerateCodeError,
    DimensionError,
    InvalidCodeError,
    KorthError,
    MatrixParseError,
    NoSyndromeError,
    RangeError,
    UnsupportedCodeError,
)
from .families import (
    SubdualParts,
    hamming_parity_check,
    minimal_korth_matrix,
    subdual_css,
    subdual_parts,
)
from .gates import (
    ControlledPhaseReport,
    GateDescriptor,
    PhaseActionResult,
    PhaseSolutionSet,
    controlled_phase_action,
    find_transversal_phases,
    logical_phase_action,
    phase_quantization_exponent,
    verify_korth_necessity,
)
from .gf2 import (
    BitMat,
    BitVec,
    and_product,
    covered_columns_count,
    format_matrix_text,
    in_rowspan,
    null_space,
    parse_matrix_text,
    rank,
    span_enumerate,
)
from .ortho import (
    OrthogonalityReport,
    OrthogonalityWitness,
    is_k_orthogonal,
    isolate_column,
    max_orthogonality,
)
from .phases import DyadicPhase, DyadicPhaseVector
from .search import (
    SearchReport,
    SearchSpace,
    SearchWitness,
    minimality_search,
)

__version__ = "0.1.0"
