import numpy as np
import pytest

from su3paths import get_graph, shipped_cells

# numpy.exceptions holds ComplexWarning from numpy 1.25 on, numpy before
ComplexWarning = getattr(np, "exceptions", np).ComplexWarning


def pytest_configure(config):
    # a complex-to-float cast drops the imaginary part: fail the test
    name = f"{ComplexWarning.__module__}.{ComplexWarning.__qualname__}"
    config.addinivalue_line("filterwarnings", f"error::{name}")


@pytest.fixture(scope="session")
def a2():
    return get_graph("a2")


@pytest.fixture(scope="session")
def a3():
    return get_graph("a3")


@pytest.fixture(scope="session")
def e5():
    return get_graph("e5")


@pytest.fixture(scope="session")
def a2_cells(a2):
    return shipped_cells(a2)


@pytest.fixture(scope="session")
def e5_cells(e5):
    return shipped_cells(e5)
