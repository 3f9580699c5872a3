"""Whole circuits against the independent reference in ``reference_sim``.

Every check compares a :class:`Circuit` entry point with the reference's
matrix product, to 1e-12: ``state()``, ``apply`` on a random state, the
adjoint circuit and its round trip, and ``readout`` with and without kept
keys.  Two strategies draw the circuits.  General ones have 1 to 7 qubits
and up to 8 ops of every kind, with random controls and many-term masks;
readout-shaped ones have local ops on each register before and after a
middle that fuses into one phase table over the value register, with the
layout's cut anywhere in the qubits.  Each example runs under a slice bound
``sim._CHUNK`` of 8, 64 or its real value, so small widths also take the
sliced tables and the Fourier start's doubling levels and fold.
"""

import numpy as np
import pytest
import reference_sim
from hypothesis import given, settings
from hypothesis import strategies as st

from qinterp import (
    Circuit,
    ControlledPhase,
    DiagonalPhase,
    HadamardLayer,
    LayoutError,
    PhaseLadder,
    QftGate,
    Register,
    RegisterLayout,
    StatePrep,
    StateVector,
)
from qinterp import sim

TOL = 1e-12
CHUNKS = [8, 64, sim._CHUNK]


def unit_vector(size, rng):
    v = rng.normal(size=size) + 1j * rng.normal(size=size)
    return v / np.linalg.norm(v)


def sub_register(reg, rng):
    offset = int(rng.integers(reg.offset, reg.offset + reg.width))
    return Register(offset, int(rng.integers(1, reg.offset + reg.width - offset + 1)))


def subset(qubits, rng):
    return tuple(q for q in qubits if rng.random() < 0.5)


def mask_ladder(reg, qubits, rng):
    """A ladder on ``reg`` of 1 to 6 terms, each controlled by a random mask over ``qubits``; masks may repeat."""
    count = int(rng.integers(1, 7))
    masks = np.array([sum(1 << q for q in subset(qubits, rng)) for _ in range(count)], dtype=np.int64)
    return PhaseLadder(reg, rng.uniform(-4, 4, count), masks)


def random_op(kind, reg, qubits, rng):
    """An op of ``kind`` on ``reg``; controls are drawn from ``qubits`` outside it."""
    outside = [q for q in qubits if q not in reg.qubits()]
    if kind == "hadamard":
        return HadamardLayer(reg)
    if kind == "ladder":
        return PhaseLadder(reg, rng.uniform(-4, 4), subset(outside, rng))
    if kind == "terms":
        return mask_ladder(reg, outside, rng)
    if kind == "phase":
        return ControlledPhase(subset(outside, rng), rng.uniform(-4, 4))
    if kind == "table":
        return DiagonalPhase(reg, rng.uniform(-4, 4, reg.size))
    if kind == "qft":
        return QftGate(reg, inverse=bool(rng.integers(2)))
    if kind == "basis-prep":  # a target on |0>, up to a phase: the reflection is the identity
        return StatePrep(reg, np.eye(reg.size)[0] * np.exp(1j * rng.uniform(-4, 4)))
    prep = StatePrep(reg, unit_vector(reg.size, rng))
    return prep.adjoint() if kind == "prep-dagger" else prep


def encoder(reg, qubits, corrected, rng):
    """An encoder's ops after its Hadamards: ladders on ``reg``, its QFT, and with ``corrected`` a ladder after it."""
    ops = [random_op("ladder", reg, qubits, rng), random_op("terms", reg, qubits, rng)]
    ops.append(QftGate(reg, inverse=bool(rng.integers(2))))
    return ops + [random_op("ladder", reg, qubits, rng)] * corrected


KINDS = ["hadamard", "ladder", "terms", "phase", "table", "qft", "prep", "prep-dagger", "basis-prep"]


@st.composite
def general_circuits(draw):
    """(circuit, seed, chunk): 1 to 7 qubits, up to 8 ops of every kind on random registers."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(1, 8))  # from the seed, so widths spread evenly, not toward hypothesis's smallest
    whole = Register(0, n)
    front = draw(st.sampled_from(["none", "hadamard", "encoder"]))
    ops = [] if front == "none" else [HadamardLayer(whole)]
    if front == "encoder":
        ops += encoder(sub_register(whole, rng), range(n), draw(st.booleans()), rng)
    for kind in draw(st.lists(st.sampled_from(KINDS), min_size=int(front == "none"), max_size=8)):
        ops.append(random_op(kind, sub_register(whole, rng), range(n), rng))
    return Circuit(n, tuple(ops)), int(rng.integers(2**32)), draw(st.sampled_from(CHUNKS))


@st.composite
def readout_circuits(draw):
    """(circuit, layout, chunk): local ops on each register, a middle that fuses over the values, local ops.

    The middle is a mix of ladders on the value register controlled by
    keys, one-term and many-term, controlled phases and key tables, and may
    be empty.  Local ops on either register come before it and after it,
    diagonal ones among them, so the readout's split has local ops on both
    sides of each of its cuts.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(2, 8))
    layout = RegisterLayout(n - (cut := int(rng.integers(1, n))), cut)
    values, keys = layout.value_register, layout.key_register

    def local():
        reg = (values, keys)[int(rng.integers(2))]
        return random_op(draw(st.sampled_from(KINDS)), sub_register(reg, rng), reg.qubits(), rng)

    middle = []
    for kind in draw(st.lists(st.sampled_from(["ladder", "terms", "phase", "table"]), max_size=5)):
        if kind in ("ladder", "terms", "phase"):
            middle.append(random_op(kind, values, range(n), rng))
        else:
            middle.append(DiagonalPhase(sub := sub_register(keys, rng), rng.uniform(-4, 4, sub.size)))
    front = [HadamardLayer(values), HadamardLayer(keys)]
    if draw(st.booleans()):  # the value factor starts as an encoder does
        front += encoder(values, values.qubits(), draw(st.booleans()), rng)
    front += [local() for _ in range(draw(st.integers(0, 3)))]
    back = [local() for _ in range(draw(st.integers(0, 3)))]
    return Circuit(n, tuple(front + middle + back)), layout, draw(st.sampled_from(CHUNKS))


def gap(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


class TestAgainstReference:
    @settings(max_examples=60)
    @given(case=general_circuits())
    def test_state_apply_and_adjoint(self, case):
        circuit, seed, chunk = case
        n = circuit.num_qubits
        matrix = reference_sim.circuit_matrix(circuit.ops, n)
        psi = unit_vector(1 << n, np.random.default_rng(seed))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "_CHUNK", chunk)
            assert gap(circuit.state().amplitudes, matrix[:, 0]) < TOL
            out = circuit.apply(StateVector(n, psi)).amplitudes
            assert gap(out, matrix @ psi) < TOL
            adjoint = circuit.adjoint()
            assert gap(adjoint.apply(StateVector(n, psi)).amplitudes, matrix.conj().T @ psi) < TOL
            assert gap(adjoint.apply(StateVector(n, out)).amplitudes, psi) < TOL

    @settings(max_examples=60)
    @given(case=general_circuits())
    def test_readout_where_it_plans(self, case):
        # any cut of a general circuit: where the readout plans, it reads the reference's amplitudes
        circuit, seed, chunk = case
        n = circuit.num_qubits
        if n < 2:
            return
        layout = RegisterLayout(n - (cut := 1 + seed % (n - 1)), cut)
        matrix = reference_sim.circuit_matrix(circuit.ops, n)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "_CHUNK", chunk)
            try:
                amplitude = circuit.readout(layout)
            except LayoutError:
                return
            assert abs(amplitude - reference_sim.readout(matrix, cut)) < TOL
            assert gap(circuit.readout(layout, keep_keys=True), reference_sim.readout(matrix, cut, True)) < TOL

    @settings(max_examples=80)
    @given(case=readout_circuits())
    def test_readout_shaped(self, case):
        circuit, layout, chunk = case
        matrix = reference_sim.circuit_matrix(circuit.ops, circuit.num_qubits)
        cut = layout.value_width
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "_CHUNK", chunk)
            assert abs(circuit.readout(layout) - reference_sim.readout(matrix, cut)) < TOL
            assert gap(circuit.readout(layout, keep_keys=True), reference_sim.readout(matrix, cut, True)) < TOL
            assert gap(circuit.state().amplitudes, matrix[:, 0]) < TOL
