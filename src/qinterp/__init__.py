"""Fejér-kernel amplitude encoding and interpolated readout on a dense simulator."""

from .errors import (
    CapacityError,
    DomainError,
    LayoutError,
    NormalizationError,
    ParseError,
    QInterpError,
    ValueRangeError,
)
from .kernels import (
    EncodingDomain,
    SampledSignal,
    classical_interpolate,
    fejer_kernel_row,
    normalize_to_domain,
)
from .sim import (
    MAX_QUBITS,
    Circuit,
    ControlledPhase,
    DiagonalPhase,
    HadamardLayer,
    PhaseLadder,
    QftGate,
    Register,
    RegisterLayout,
    StatePrep,
    StateVector,
    zero_state,
)
from .encoding import (
    ValueEncoding,
    encode_value,
    encode_value_real,
    phase_correction_circuit,
    real_encoding_circuit,
    value_encoding_circuit,
)
from .dictionary import (
    BinaryPolynomial,
    dictionary_circuit,
    format_polynomial,
    parse_polynomial,
    polynomial_from_table,
    validate_values,
)
from .patterns import (
    InterpolationResult,
    Sweep,
    direct_weighted_identity_sum,
    direct_weighted_sum,
    generalized_inner_product,
    kernel_double_sum,
    lambda_amplitudes,
    nu2_amplitudes,
    prepare_amplitudes,
    prepare_lambda,
    prepare_nu2,
    quantum_interpolate,
    quantum_interpolate_sweep,
    weighted_sum,
)

__version__ = "0.1.0"
