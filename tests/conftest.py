"""Shared test settings: one reproducible `hypothesis` profile.

Property tests draw the same examples on every run (derandomize), so
they keep no example database; a fixed number of them, with no
per-example deadline, since the first `analyze` of a session pays for
imports and FFT plans.
"""

from hypothesis import settings

settings.register_profile(
    "wlab", derandomize=True, max_examples=10, deadline=None, database=None
)
settings.load_profile("wlab")
