"""Shared test settings.

Every hypothesis test draws its examples from a fixed seed
(``derandomize=True``), so a run of the suite tries the same examples as
the last one; each test's own ``max_examples`` is left as it is.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
