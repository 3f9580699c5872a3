"""State dumps and tabular output.

The JSON schema is ``{num_qubits, key_width?, value_width?, amplitudes}``
with amplitudes as ``[re, im]`` pairs in basis-index order.  CSV values are
printed with 9 significant digits so they re-parse to within 1e-8, and a
value within ``8 eps`` of its column's largest magnitude prints as 0.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ParseError
from .patterns import Sweep
from .sim import MAX_QUBITS, RegisterLayout, StateVector


ROUND_OFF = 8 * np.finfo(np.float64).eps  # relative to a CSV column's largest magnitude
_FORMAT = "%.9g"


def format_value(value: float) -> str:
    return _FORMAT % value


def state_to_dict(state: StateVector, layout: RegisterLayout | None = None) -> dict:
    data: dict = {"num_qubits": state.num_qubits}
    if layout is not None:
        data["key_width"] = layout.key_width
        data["value_width"] = layout.value_width
    data["amplitudes"] = [[float(a.real), float(a.imag)] for a in state.amplitudes]
    return data


def state_to_json(state: StateVector, layout: RegisterLayout | None = None) -> str:
    return json.dumps(state_to_dict(state, layout), indent=2) + "\n"


def _integer_field(data: dict, name: str) -> int:
    value = data[name]
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def state_from_dict(data: dict) -> tuple[StateVector, RegisterLayout | None]:
    try:
        num_qubits = _integer_field(data, "num_qubits")
        amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
        widths = None
        if "key_width" in data and "value_width" in data:
            widths = _integer_field(data, "key_width"), _integer_field(data, "value_width")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed state dump: {exc}") from exc
    if not 1 <= num_qubits <= MAX_QUBITS or amps.size != 1 << num_qubits:
        raise ParseError(f"{amps.size} amplitudes are not a state of num_qubits {num_qubits}")
    layout = None
    if widths is not None:
        if min(widths) < 1:
            raise ParseError(f"key_width {widths[0]} and value_width {widths[1]} must be >= 1")
        if sum(widths) != num_qubits:
            raise ParseError(
                f"key_width {widths[0]} + value_width {widths[1]} != num_qubits {num_qubits}"
            )
        layout = RegisterLayout(*widths)
    return StateVector(num_qubits, amps), layout


def state_from_json(text: str) -> tuple[StateVector, RegisterLayout | None]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return state_from_dict(data)


def _round_off_to_zero(column) -> np.ndarray:
    """A float64 copy of ``column``, its round-off set to 0.

    An entry within ``ROUND_OFF`` of the column's largest finite magnitude
    is a zero up to round-off, so a table changes only when its numbers do,
    not when the order of floating-point work does.
    """
    values = np.array(column, dtype=np.float64)
    magnitude = np.abs(values)
    values[magnitude <= ROUND_OFF * magnitude[np.isfinite(magnitude)].max(initial=0.0)] = 0.0
    return values


def _csv(header: list[str], columns) -> str:
    """One line per row of the equal-length ``columns``; a None column prints as empty fields."""
    present = [_round_off_to_zero(column) for column in columns if column is not None]
    line = ",".join("" if column is None else _FORMAT for column in columns) + "\n"
    fields = np.column_stack(present).ravel().tolist()
    body = (line * len(present[0])) % tuple(fields)
    return ",".join(header) + "\n" + body


def sweep_to_csv(sweep: Sweep) -> str:
    """Interpolation sweep table: columns t, quantum, classical, exact."""
    return _csv(
        ["t", "quantum", "classical", "exact"],
        [sweep.t, sweep.quantum, sweep.classical, sweep.exact],
    )


def table_to_csv(header: list[str], columns: list[np.ndarray | None]) -> str:
    """A table given by its columns, under ``header``."""
    return _csv(header, columns)
