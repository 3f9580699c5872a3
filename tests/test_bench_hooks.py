"""The benchmark's hooks into qinterp still work.

``perfbench/run.py --trace 1`` patches qinterp's public names where their
callers look them up, and times each op kind that ``perfbench/layers.py``
builds on its own; a renamed or deleted name, or an op form the simulator no
longer accepts, would make it crash.
"""

import sys
from pathlib import Path

import numpy as np

from qinterp.sim import StateVector

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import layers
    import tracer
finally:
    sys.path.remove(PERFBENCH)


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_install_patches_every_name_and_restore_puts_the_originals_back():
    hooks = tracer.Tracer()
    try:
        tracer.install(hooks)
        patched = hooks.patched
        wrapped = [current(owner, attr) for owner, attr, _ in patched]
    finally:
        hooks.restore()
    assert patched
    originals = {}
    for owner, attr, original in patched:
        originals.setdefault((owner, attr), original)
    for (owner, attr, original), wrapper in zip(patched, wrapped):
        assert wrapper is not original, f"{owner.__name__}.{attr} was not wrapped"
    for (owner, attr), original in originals.items():
        assert current(owner, attr) is original, f"{owner.__name__}.{attr} was not restored"
    assert not hooks.patched


def test_every_layer_op_builds_and_applies_at_a_small_width():
    # the same op forms the layer table times at 16 and 20 qubits, including its controlled
    # one-term ladder and controlled phase, each applied alone to a seeded 4-qubit state
    q = 4
    rng = np.random.default_rng(q)
    ops = layers._ops(q, rng)
    assert sorted(ops) == sorted(tracer.SIM_KINDS)
    amps = rng.normal(size=1 << q) + 1j * rng.normal(size=1 << q)
    state = StateVector(q, amps / np.linalg.norm(amps))
    before = state.amplitudes.copy()
    for kind, op in ops.items():
        out = op.apply(state)
        assert out.num_qubits == q, kind
        assert abs(out.norm() - 1.0) < 1e-12, kind
        assert np.array_equal(state.amplitudes, before), kind
