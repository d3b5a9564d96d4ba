"""Test-suite settings.

Property tests run under one registered hypothesis profile: derandomized, so
the tier-1 suite draws the same examples on every run, with a bounded example
count and no per-example deadline (wall time is not a test outcome).
Nothing is written to a hypothesis example database.
"""

from hypothesis import settings

settings.register_profile(
    "bhforms", derandomize=True, max_examples=200, deadline=None, database=None
)
settings.load_profile("bhforms")
