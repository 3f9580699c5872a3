"""Quantum multi-value dictionaries.

A real-valued function on ``{0..N-1}`` is represented as a polynomial of
binary variables (one coefficient per subset of variables) and written into
an entangled key-value state: each key ``k`` carries the scalar encoding of
``f(k)`` in its value register.  The phase-corrected variant leaves every
value slice with real amplitudes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .encoding import correction_ops, encoder_ops
from .errors import DomainError, ParseError, ValueRangeError
from .kernels import INTEGER_TOLERANCE, EncodingDomain, domain_bounds, normalize_to_domain
from .sim import Circuit, DiagonalPhase, HadamardLayer, RegisterLayout, subset_sums

_TERM_RE = re.compile(r"^k(\d+)$")


@dataclass(frozen=True)
class BinaryPolynomial:
    """Sum of monomials ``c_J * prod_{j in J} k_j`` over binary variables.

    ``terms`` maps the variable subset J, stored as a bitmask (bit j set means
    variable ``k_j`` participates, and ``k_j`` is bit j of the key), to its
    real coefficient.
    """

    num_vars: int
    terms: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.num_vars < 1:
            raise DomainError("polynomial needs at least one variable")
        for mask in self.terms:
            if not 0 <= mask < (1 << self.num_vars):
                raise DomainError(f"term mask {mask} outside {self.num_vars} variables")
        object.__setattr__(self, "terms", {int(m): float(c) for m, c in self.terms.items()})

    @property
    def num_keys(self) -> int:
        return 1 << self.num_vars

    def evaluate(self, k: int) -> float:
        """Sum of the coefficients whose variable subset is covered by ``k``'s bits."""
        if not 0 <= k < self.num_keys:
            raise DomainError(f"key {k} outside [0, {self.num_keys})")
        return float(sum(c for mask, c in self.terms.items() if mask & ~k == 0))

    def values_table(self) -> np.ndarray:
        """``evaluate`` at every key, as one subset-sum (zeta) transform of the coefficients."""
        coeffs = np.zeros(self.num_keys)
        coeffs[list(self.terms)] = list(self.terms.values())
        return subset_sums(coeffs)

    def scaled(self, factor: float) -> "BinaryPolynomial":
        return BinaryPolynomial(self.num_vars, {m: c * factor for m, c in self.terms.items()})

    def sorted_terms(self) -> list[tuple[int, float]]:
        return sorted(self.terms.items())


def polynomial_from_table(values) -> BinaryPolynomial:
    """Interpolating polynomial of a full value table (length a power of two).

    Inverts the subset-sum relation with the Moebius transform over the
    subset lattice, so ``evaluate`` reproduces the table entries.
    """
    table = np.asarray(values, dtype=np.float64)
    n = int(math.log2(table.size)) if table.size > 0 else 0
    if table.size < 2 or (1 << n) != table.size:
        raise DomainError(f"table length {table.size} is not a power of two >= 2")
    coeffs = subset_sums(table, inverse=True)
    terms = {mask: float(c) for mask, c in enumerate(coeffs) if c != 0.0}
    if not terms:
        terms = {0: 0.0}
    return BinaryPolynomial(n, terms)


def parse_polynomial(text: str, num_vars: int | None = None) -> BinaryPolynomial:
    """Parse the one-term-per-line format ``<coefficient>: <term>``.

    A term is ``1`` for the constant or ``*``-joined variables like
    ``k0*k2``; ``#`` starts a comment.  Repeated terms accumulate.
    """
    terms: dict[int, float] = {}
    max_var = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"line {lineno}: expected '<coefficient>: <term>', got {raw!r}")
        coef_part, term_part = line.split(":", 1)
        try:
            coef = float(coef_part.strip())
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad coefficient {coef_part.strip()!r}") from exc
        if not math.isfinite(coef):
            raise ParseError(f"line {lineno}: coefficient {coef_part.strip()!r} is not finite")
        term_part = term_part.strip()
        mask = 0
        if term_part != "1":
            for factor in term_part.split("*"):
                match = _TERM_RE.match(factor.strip())
                if not match:
                    raise ParseError(f"line {lineno}: bad term factor {factor.strip()!r}")
                var = int(match.group(1))
                mask |= 1 << var
                max_var = max(max_var, var)
        terms[mask] = terms.get(mask, 0.0) + coef
    if not terms:
        raise ParseError("no polynomial terms found")
    inferred = max(max_var + 1, 1)
    if num_vars is None:
        num_vars = inferred
    elif num_vars < inferred:
        raise ParseError(f"term uses variable k{max_var} but only {num_vars} variables declared")
    return BinaryPolynomial(num_vars, terms)


def format_polynomial(poly: BinaryPolynomial) -> str:
    """Inverse of :func:`parse_polynomial`, terms ordered by mask."""
    lines = []
    for mask, coef in poly.sorted_terms():
        if mask == 0:
            term = "1"
        else:
            term = "*".join(f"k{j}" for j in range(poly.num_vars) if mask & (1 << j))
        lines.append(f"{coef!r}: {term}")
    return "\n".join(lines) + "\n"


def validate_values(poly: BinaryPolynomial, value_width: int, domain: EncodingDomain):
    """Reject values whose encoding would alias across the domain boundary.

    Non-integer values must sit strictly inside the declared domain; integer
    values (within ``INTEGER_TOLERANCE`` of one) are exact and may use the
    full unsigned range either way.  The lower bound applies to the rounded
    value, so a 0 with negative round-off is accepted in both domains.  The
    error names the lowest offending key.
    """
    modulus = 1 << value_width
    values = poly.values_table()
    lo, hi = domain_bounds(domain, modulus)
    nearest = np.round(values)
    is_integer = np.abs(values - nearest) < INTEGER_TOLERANCE
    allowed = (is_integer & (nearest >= 0) & (values < modulus)) | ((values >= lo) & (values < hi))
    offending = np.flatnonzero(~allowed)
    if offending.size:
        k = int(offending[0])
        value = float(values[k])
        try:
            normalize_to_domain(value, domain, modulus)
        except DomainError as exc:
            raise ValueRangeError(
                f"value {value} at key {k} would alias in a {value_width}-qubit register: {exc}"
            ) from exc


def _wrap_compensation(layout: RegisterLayout, poly: BinaryPolynomial) -> DiagonalPhase | None:
    """Sign fix for values that the domain mapping shifts by M.

    The kernel is anti-periodic in its target (period M flips the sign), so
    keys whose raw value is negative would come out with flipped real
    amplitudes if the correction used the raw value alone.  A diagonal pi
    phase on those keys restores the normalized-kernel sign.  Values within
    ``INTEGER_TOLERANCE`` of an integer count as that integer, as in the
    kernel row, so a value that is 0 up to negative round-off is not wrapped.
    """
    modulus = layout.num_values
    raw = poly.values_table()
    nearest = np.round(raw)
    raw = np.where(np.abs(raw - nearest) < INTEGER_TOLERANCE, nearest, raw)
    phases = math.pi * np.round((np.mod(raw, modulus) - raw) / modulus)
    if not phases.any():
        return None
    return DiagonalPhase(layout.key_register, phases)


def dictionary_circuit(
    layout: RegisterLayout,
    poly: BinaryPolynomial,
    domain: EncodingDomain = EncodingDomain.UNSIGNED,
    phase_corrected: bool = False,
    prepare_keys: bool = True,
) -> Circuit:
    """The key-value encoder: :func:`~qinterp.encoding.encoder_ops` with one term per monomial.

    Each term is controlled by its monomial's key qubits.  The plain form is
    the paper's operator F: value slices carry the kernel magnitudes and the
    residual phases.  The phase-corrected form is F': it appends the
    correction of :func:`~qinterp.encoding.correction_ops` (a value-register
    ladder, one controlled phase per monomial) and, for values the domain
    mapping wraps, the per-key compensation, so every value slice is real.

    With ``prepare_keys`` the key register is brought into equal
    superposition first, for a circuit applied to the all-zeros state.
    Pass ``prepare_keys=False`` when the caller has prepared the key
    register; only the value register, which must be zero, is encoded.
    """
    if poly.num_vars != layout.key_width:
        raise DomainError(
            f"polynomial over {poly.num_vars} variables does not match key width {layout.key_width}"
        )
    validate_values(poly, layout.value_width, domain)
    key_offset = layout.key_register.offset
    terms = [
        (tuple(key_offset + j for j in range(poly.num_vars) if mask & (1 << j)), coef)
        for mask, coef in poly.sorted_terms()
    ]
    ops = [HadamardLayer(layout.key_register)] if prepare_keys else []
    ops += encoder_ops(layout.value_register, terms)
    if phase_corrected:
        ops += correction_ops(layout.value_register, terms)
        compensation = _wrap_compensation(layout, poly)
        if compensation is not None:
            ops.append(compensation)
    return Circuit(layout.num_qubits, tuple(ops))
