import numpy as np
import pytest

import normloc as nl


@pytest.fixture(scope="session")
def c6():
    return nl.generate_family("cycle", {"n": 6})


@pytest.fixture(scope="session")
def c60():
    return nl.generate_family("cycle", {"n": 60})


@pytest.fixture(scope="session")
def p4():
    return nl.generate_family("path", {"n": 4})


@pytest.fixture(scope="session")
def grid3():
    return nl.generate_family("grid", {"rows": 3, "cols": 3})


@pytest.fixture(scope="session")
def grid8():
    return nl.generate_family("grid", {"rows": 8, "cols": 8})


@pytest.fixture(scope="session")
def btree6():
    return nl.generate_family("binary_tree", {"depth": 6})


@pytest.fixture(scope="session")
def broken16():
    """A seeded symmetric integer table on 16 points that breaks the
    triangle inequality."""
    table = np.random.default_rng(0).integers(1, 6, size=(16, 16))
    table = np.triu(table, 1)
    return nl.FiniteMetricSpace(
        tuple(map(str, range(16))), table + table.T, name="broken16"
    )
