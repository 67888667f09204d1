"""Tier-1 test configuration.

Hypothesis runs derandomized: every run draws the same examples, so
"tier-1 no worse than the seed" is a statement about the code, not about
the draw (a seed-dependent failure is reproduced with
``--hypothesis-seed=N``, which overrides the profile). Per-test
``max_examples`` are unchanged.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")
