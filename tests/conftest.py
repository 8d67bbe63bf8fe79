"""Hypothesis profiles of the suite.

``deterministic``, loaded by default, replays one fixed sequence of draws
per test (``derandomize``) and keeps no example database: every run draws
what every other run draws, so a failing draw fails every run, and no draw
stored by an earlier run is replayed where a fresh checkout would not
replay it. ``explore`` draws at random, again without a database, and
prints the reproduction blob of each failing draw; select it with
``--hypothesis-profile=explore``.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None, print_blob=True)
settings.load_profile("deterministic")
