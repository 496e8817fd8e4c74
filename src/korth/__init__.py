"""Stabilizer codes with transversal phase gates.

Construction of the minimal k-orthogonal matrices and sub-dual Hamming CSS
family, exact verification of transversal (controlled) phase gates by
modular arithmetic, CSS distance computation, and exhaustive desk-scale
minimality searches.

``import korth`` loads no submodule: each re-exported name below imports its
submodule on first access (PEP 562), so a command pays only for the layers
it runs.
"""

from importlib import import_module

_EXPORTS = {
    name: module
    for module, names in {
        "codes": "PauliOp StabilizerCode StandardFormCode code_from_json code_to_json "
                 "css_standard_form is_css to_standard_form",
        "degenerate": "DegeneracyClass DegeneracyPartition ReducedView degeneracy_classes "
                      "nondegenerate_reduction",
        "distance": "DistanceReport css_distances",
        "errors": "DimensionError InvalidCodeError KorthError MatrixParseError RangeError "
                  "UnsupportedCodeError",
        "families": "SubdualParts hamming_parity_check minimal_korth_matrix subdual_css "
                    "subdual_parts",
        "gates": "ControlledPhaseReport GateDescriptor PhaseActionResult PhaseSolutionSet "
                 "controlled_phase_action find_transversal_phases logical_phase_action",
        "gf2": "BitMat BitVec and_product format_matrix_text in_rowspan null_space "
               "parse_matrix_text rank",
        "lemmas": "CongruenceError DegenerateCodeError NoSyndromeError ThreeColumnCheck "
                  "isolate_column logical_zero_support phase_quantization_exponent "
                  "verify_korth_necessity z_distance_floor",
        "ortho": "OrthogonalityReport OrthogonalityWitness is_k_orthogonal",
        "phases": "DyadicPhase DyadicPhaseVector",
        "search": "SearchReport SearchSpace SearchWitness minimality_search",
    }.items()
    for name in names.split()
}

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
