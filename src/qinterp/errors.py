"""Exception types shared across the package.

The CLI maps these onto exit codes: :class:`ParseError` (configuration and
parse problems) exits with 2, every other :class:`QInterpError` (domain,
range, capacity, layout and normalization problems) with 3.
"""


class QInterpError(Exception):
    """Base class for all package-specific errors."""


class CapacityError(QInterpError):
    """Requested register size exceeds the simulator cap."""


class LayoutError(QInterpError):
    """Register or control qubits do not fit the state's qubit layout."""


class DomainError(QInterpError):
    """A value lies outside the encodable domain."""


class ValueRangeError(QInterpError):
    """A function value would alias across the encodable range."""


class NormalizationError(QInterpError):
    """A vector that must have unit norm does not."""


class ParseError(QInterpError):
    """Malformed polynomial or configuration text."""
