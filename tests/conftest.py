"""Fixtures shared by the test modules."""

import types

import pytest

from asymcover.table import TableSpec, build_grid


@pytest.fixture(scope="session")
def acceptance_grid():
    """`table --n-max 13 --r-max 11`'s grid, every cell from n = 1 and R = 0,
    built once for the tests that only read it.  It is read-only, so that no
    test can change what a later one reads; a test that times the build makes
    its own."""
    return types.MappingProxyType(build_grid(TableSpec(1, 13, 0, 11)))
