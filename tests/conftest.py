"""Shared test settings.

``--hypothesis-profile=ci`` draws the same examples on every run and keeps no
example database, so a CI failure reproduces from the commit alone.  Without
the flag, property tests keep exploring new examples on every run.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
