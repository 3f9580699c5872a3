"""State dumps and tabular output.

The JSON schema is ``{num_qubits, key_width?, value_width?, amplitudes}``
with amplitudes as ``[re, im]`` pairs in basis-index order.  CSV values are
printed with 9 significant digits so they re-parse to within 1e-8.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ParseError
from .sim import MAX_QUBITS, RegisterLayout, StateVector


def format_value(value: float) -> str:
    return f"{value:.9g}"


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


def sweep_to_csv(rows: list[tuple[float, float, float, float | None]]) -> str:
    """Interpolation sweep table: columns t, quantum, classical, exact."""
    lines = ["t,quantum,classical,exact"]
    for t, quantum, classical, exact in rows:
        exact_text = format_value(exact) if exact is not None else ""
        lines.append(
            f"{format_value(t)},{format_value(quantum)},{format_value(classical)},{exact_text}"
        )
    return "\n".join(lines) + "\n"


def table_to_csv(header: list[str], rows: list[list[float]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    return "\n".join(lines) + "\n"
