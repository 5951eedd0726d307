"""Hypothesis runs derandomized and without deadlines, so property tests
replay the same examples on every run and on slow machines."""

from hypothesis import settings

settings.register_profile("cutcodes", derandomize=True, deadline=None)
settings.load_profile("cutcodes")
