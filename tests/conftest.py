"""Hypothesis settings for the whole suite: derandomize, and no example
database.  What that fixes, and what it does not:

* Each test draws from a generator seeded by a digest of that test's own
  source and signature, so the same test at the same hypothesis version
  draws the same examples run after run; editing the test changes them.
* No earlier failure is read back or stored: there is no example database.
* Hypothesis (6.155) also mixes literals from the source of the local
  modules it has imported, the epolylog modules here, into its choices
  (with probability 0.05 each), and caches them under .hypothesis/constants/
  whatever the database setting says.  A changed literal in src/epolylog can
  therefore change what a test draws, and two trees need not check the same
  inputs.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
