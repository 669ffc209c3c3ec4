import pytest

from specherm.grids import default_half_width, make_grid
from specherm.indices import Truncation


@pytest.fixture(scope="session")
def tr4():
    return Truncation(1, 4)


@pytest.fixture(scope="session")
def grid4():
    return make_grid(1, default_half_width(1, 4), 48)


@pytest.fixture(scope="session")
def nt16():
    return 16
