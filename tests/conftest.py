"""Hypothesis settings for the whole suite: examples are drawn from a fixed
seed (derandomize) and no example database is read or written, so two runs
of the same tests, on any tree, check the same inputs."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
