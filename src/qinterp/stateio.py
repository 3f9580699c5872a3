"""State dumps and tabular output, written only: nothing reads a dump back.

The JSON schema is ``{num_qubits, key_width?, value_width?, amplitudes}``
with amplitudes as ``[re, im]`` pairs in basis-index order.  CSV values are
printed with 9 significant digits so they re-parse to within 1e-8, and a
value within ``8 eps`` of its column's largest magnitude prints as 0.
"""

from __future__ import annotations

import json

import numpy as np

from .patterns import Sweep
from .sim import RegisterLayout, StateVector


ROUND_OFF = 8 * np.finfo(np.float64).eps  # relative to a CSV column's largest magnitude
_FORMAT = "%.9g"


def format_value(value: float) -> str:
    return _FORMAT % value


def state_to_json(state: StateVector, layout: RegisterLayout | None = None) -> str:
    data: dict = {"num_qubits": state.num_qubits}
    if layout is not None:
        data["key_width"] = layout.key_width
        data["value_width"] = layout.value_width
    data["amplitudes"] = [[float(a.real), float(a.imag)] for a in state.amplitudes]
    return json.dumps(data, indent=2) + "\n"


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
