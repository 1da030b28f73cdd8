"""Suite-wide Hypothesis settings.

The default profile draws the same examples on every run of the same tree
(``derandomize``) and keeps no example database, so the suite cannot fail
on a fresh random draw, nor on a counterexample that an earlier run left
in ``.hypothesis``.  ``--hypothesis-profile=random`` draws at random, at
every property's own example count; CI's ``hypothesis-random`` job runs
the properties so.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.register_profile("random", database=None)
settings.load_profile("derandomized")
