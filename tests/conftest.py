"""Shared fixtures: coefficient tables and distributions are expensive for the
largest configurations, so they are built once per session and shared."""

from functools import lru_cache

import pytest

from sledist import coefficient_table, sle_distribution

# the (K, N) set the exactness criteria run over
EXACT_CONFIGS = [(2, 2), (2, 10), (3, 10), (4, 10), (6, 6), (4, 100)]
# the subset the Monte Carlo goodness-of-fit criterion runs over
MC_CONFIGS = [(2, 10), (3, 10), (4, 10), (6, 6), (4, 100)]
# the integer moment and mass sums are held to their Fraction oracles here
MOMENT_CONFIGS = EXACT_CONFIGS + [(4, 50), (4, 63), (8, 8), (9, 10)]


@lru_cache(maxsize=None)
def cached_table(K: int, N: int):
    return coefficient_table(K, N)


@lru_cache(maxsize=None)
def cached_dist(K: int, N: int):
    return sle_distribution(cached_table(K, N))


@pytest.fixture(scope="session")
def get_table():
    return cached_table


@pytest.fixture(scope="session")
def get_dist():
    return cached_dist
