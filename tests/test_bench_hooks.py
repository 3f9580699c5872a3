"""The benchmark's tracer still finds every qinterp name it wraps and puts each one back.

``perfbench/run.py --trace 1`` patches qinterp's public names where their
callers look them up; a renamed or deleted name would make it crash.
"""

import sys
from pathlib import Path

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
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
