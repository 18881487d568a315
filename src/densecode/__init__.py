"""Superdense coding simulator.

A dense state-vector core plus three protocol layers: Bell-pair coding of
even-length messages, GHZ coding of arbitrary-length messages, and the
distributed variant that splits a message across several senders.  The
entanglement module audits the resource states (marginals, entropies,
capacity against the Holevo bound) and the security module implements the
two-basis eavesdropping check with an explicit attack model.
"""

from .statevec import (
    PauliLabel,
    PauliString,
    StateVector,
    apply_pauli_string,
    apply_two_qubit,
    basis_ket,
    compose_labels,
    equal_up_to_global_phase,
    ghz_state,
    hadamard_all,
    hadamard_on,
    tensor_product,
)
from .entanglement import (
    AmeReport,
    Bipartition,
    DensityOperator,
    OptimalityReport,
    capacity,
    entanglement_verdicts,
    holevo_bound,
    is_ame,
    is_gme_pure,
    layout_optimality,
    layout_verdicts,
    optimality_report,
    partial_trace,
    reduced_density,
    schmidt_spectrum,
    von_neumann_entropy,
)
from .coding import (
    AuditReport,
    CodeBasis,
    DnkSpec,
    GramReport,
    Message,
    NoMatchError,
    PartyShare,
    all_messages,
    bell_code_basis,
    bell_pairs_state,
    decode_bell,
    decode_ghz,
    dnk_code_basis,
    dnk_combined_string,
    dnk_decode,
    dnk_encode,
    dnk_encoded_state,
    dnk_gram_report,
    dnk_spec,
    dnk_state,
    encode_bell,
    encode_ghz,
    encoded_bell_state,
    encoded_state,
    ghz_code_basis,
    layout_audit,
    pauli_equivalent,
    verify_code_orthonormality,
)
from .security import (
    ATTACK_PRESETS,
    CertificateReport,
    DetectionReport,
    EveAttack,
    ParityClass,
    SimulationReport,
    apply_eve,
    detection_closed_form,
    detection_probability,
    detection_report,
    parity_class,
    pm_support,
    security_simulation,
    undetectable_certificate,
    unitarity_residual,
)

__version__ = "0.1.0"
