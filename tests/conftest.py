"""Shared test configuration: one hypothesis profile for every property test.

Examples are derived from each test's name rather than drawn at random, so
every run checks the same inputs; there is no per-example deadline (wide
states take a while) and no example database on disk.  Each test still sets
its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("qinterp", derandomize=True, deadline=None, database=None)
settings.load_profile("qinterp")
