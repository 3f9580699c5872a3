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
from .sim import MAX_QUBITS, Circuit, HadamardLayer, RegisterLayout, check_capacity, subset_sums

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
        coeffs, count = np.zeros(self.num_keys), len(self.terms)
        coeffs[np.fromiter(self.terms, np.int64, count)] = np.fromiter(self.terms.values(), np.float64, count)
        return subset_sums(coeffs)

    def scaled(self, factor: float) -> "BinaryPolynomial":
        return BinaryPolynomial(self.num_vars, {m: c * factor for m, c in self.terms.items()})


def _power_of_two_width(size: int, what: str) -> int:
    """The width ``log2(size)`` of a power-of-two length ``size >= 2``, else :class:`DomainError` naming ``what``."""
    if size < 2 or size & (size - 1):
        raise DomainError(f"{what} length {size} is not a power of two >= 2")
    return size.bit_length() - 1


def polynomial_from_table(values) -> BinaryPolynomial:
    """Interpolating polynomial of a full value table (length a power of two).

    Inverts the subset-sum relation with the Moebius transform over the
    subset lattice, so ``evaluate`` reproduces the table entries.
    """
    table = np.asarray(values, dtype=np.float64)
    n = _power_of_two_width(table.size, "table")
    coeffs = subset_sums(table, inverse=True)
    terms = {mask: float(c) for mask, c in enumerate(coeffs) if c != 0.0}
    return BinaryPolynomial(n, terms or {0: 0.0})


def parse_polynomial(text: str, num_vars: int | None = None) -> BinaryPolynomial:
    """Parse the one-term-per-line format ``<coefficient>: <term>``.

    A term is ``1`` for the constant or ``*``-joined variables like
    ``k0*k2``; ``#`` starts a comment.  Repeated terms accumulate.  A
    variable index must lie below ``num_vars``, or below ``MAX_QUBITS`` when
    no count is declared; one that does not is refused from its digits,
    before it is converted or shifted into a mask.  A factor is looked up by
    its canonical name ``k<j>``; only another spelling, such as ``k01``, is
    matched and converted.
    """
    if num_vars is not None and num_vars < 1:
        raise ParseError(f"a polynomial needs at least one variable, but {num_vars} declared")
    bound, limit = (MAX_QUBITS, "supported") if num_vars is None else (num_vars, "declared")
    bits = {f"k{j}": 1 << j for j in range(min(bound, MAX_QUBITS))}
    terms: dict[int, float] = {}
    used = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"line {lineno}: expected '<coefficient>: <term>', got {raw!r}")
        coef_part, term_part = line.split(":", 1)
        try:
            coef = float(coef_part)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad coefficient {coef_part.strip()!r}") from exc
        if not math.isfinite(coef):
            raise ParseError(f"line {lineno}: coefficient {coef_part.strip()!r} is not finite")
        term_part = term_part.strip()
        mask = 0
        for factor in term_part.split("*") if term_part != "1" else ():
            bit = bits.get(factor.strip())
            if bit is None:
                match = _TERM_RE.match(factor.strip())
                if not match:
                    raise ParseError(f"line {lineno}: bad term factor {factor.strip()!r}")
                index = match.group(1).lstrip("0") or "0"
                if len(index) > len(str(bound)) or int(index) >= bound:
                    raise ParseError(
                        f"line {lineno}: term uses variable k{index}, but only {bound} variables are {limit}"
                    )
                bit = 1 << int(index)
            mask |= bit
        used |= mask
        terms[mask] = terms.get(mask, 0.0) + coef
    if not terms:
        raise ParseError("no polynomial terms found")
    return BinaryPolynomial(max(used.bit_length(), 1) if num_vars is None else num_vars, terms)


def format_polynomial(poly: BinaryPolynomial) -> str:
    """Inverse of :func:`parse_polynomial`, terms ordered by mask."""
    lines = []
    for mask, coef in sorted(poly.terms.items()):
        term = "*".join(f"k{j}" for j in range(poly.num_vars) if mask & (1 << j)) or "1"
        lines.append(f"{coef!r}: {term}")
    return "\n".join(lines) + "\n"


def validate_values(poly: BinaryPolynomial, value_width: int, domain: EncodingDomain) -> np.ndarray:
    """Each key's value mapped into [0, M); reject values whose encoding would alias.

    Non-integer values must sit strictly inside the declared domain; integer
    values (within ``INTEGER_TOLERANCE`` of one) are exact and may use the
    full unsigned range either way.  The lower bound applies to the rounded
    value, so a 0 with negative round-off is accepted in both domains.  A
    value that is not finite, such as a sum that overflows, is refused
    first.  The error names the lowest offending key.  The returned table
    holds each integer value as that integer, taken mod M like the others.
    """
    modulus = 1 << value_width
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below, without a warning
        values = poly.values_table()
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueRangeError(f"value {values[k]} at key {k} is not finite")
    lo, hi = domain_bounds(domain, modulus)
    nearest = np.round(values)
    is_integer = np.abs(values - nearest) < INTEGER_TOLERANCE
    allowed = (is_integer & (nearest >= 0) & (values < modulus)) | ((values >= lo) & (values < hi))
    if not allowed.all():
        k = int(np.argmin(allowed))  # the first key refused
        value = float(values[k])
        try:
            normalize_to_domain(value, domain, modulus)
        except DomainError as exc:
            raise ValueRangeError(
                f"value {value} at key {k} would alias in a {value_width}-qubit register: {exc}"
            ) from exc
    return np.mod(np.where(is_integer, nearest, values), modulus)


def dictionary_circuit(
    layout: RegisterLayout,
    poly: BinaryPolynomial,
    domain: EncodingDomain = EncodingDomain.UNSIGNED,
    phase_corrected: bool = False,
    prepare_keys: bool = True,
) -> Circuit:
    """The key-value encoder: :func:`~qinterp.encoding.encoder_ops` with one term per monomial.

    Each term is controlled by its monomial's key qubits, so the constant
    term is one uncontrolled ladder and the others are one controlled ladder
    holding one term per monomial, not one ladder each.  The plain form is
    the paper's operator F: value slices carry the kernel magnitudes and the
    residual phases.  The phase-corrected form is F': it appends the
    correction of :func:`~qinterp.encoding.correction_ops`, a value-register
    ladder and one key-register :class:`~qinterp.sim.DiagonalPhase`, so every
    value slice is real.  The table holds each key's value mapped into
    [0, M); a value within ``INTEGER_TOLERANCE`` of an integer counts as
    that integer, as in the kernel row, so a 0 with negative round-off is
    not wrapped.  The kernel is anti-periodic in its target (a shift by M
    flips its sign), so the mapped value, not the raw one, keeps the
    normalized-kernel sign.

    With ``prepare_keys`` the key register is brought into equal
    superposition first, for a circuit applied to the all-zeros state.
    Pass ``prepare_keys=False`` when the caller has prepared the key
    register; only the value register, which must be zero, is encoded.
    A layout past :data:`~qinterp.sim.MAX_QUBITS` raises
    :class:`~qinterp.errors.CapacityError` before any table is built.
    """
    check_capacity(layout.num_qubits)
    if poly.num_vars != layout.key_width:
        raise DomainError(
            f"polynomial over {poly.num_vars} variables does not match key width {layout.key_width}"
        )
    table = validate_values(poly, layout.value_width, domain)
    masks = np.fromiter(poly.terms, dtype=np.int64, count=len(poly.terms))
    controlled = masks != 0
    values = np.fromiter(poly.terms.values(), dtype=np.float64, count=len(poly.terms))[controlled]
    ops = [HadamardLayer(layout.key_register)] if prepare_keys else []
    ops += encoder_ops(layout.value_register, poly.terms.get(0), masks[controlled] << layout.value_width, values)
    if phase_corrected:
        ops += correction_ops(layout.value_register, table, layout.key_register)
    return Circuit(layout.num_qubits, tuple(ops))
