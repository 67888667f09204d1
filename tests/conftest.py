"""Tier-1 test configuration.

Hypothesis runs derandomized: every run draws the same examples, so
"tier-1 no worse than the seed" is a statement about the code, not about
the draw (a seed-dependent failure is reproduced with
``--hypothesis-seed=N``, which overrides the profile). Per-test
``max_examples`` are unchanged.

The ``sweep`` profile is the slow tier: the same derandomized draws at
10⁴ examples a test, for tests that do not pin ``max_examples`` (CI runs
``tests/test_format_fuzz.py`` under it with ``--hypothesis-profile=sweep``).
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("sweep", derandomize=True, max_examples=10_000)
settings.load_profile("tier1")
