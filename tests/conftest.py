import numpy as np
import pytest

from torusmix import default_cellular_flow, sin_shear
from torusmix.operators import _one_blas_pool


@pytest.fixture(scope="session", autouse=True)
def one_blas_pool():
    """The suite computes on the BLAS threads of ``torusmix run``."""
    with _one_blas_pool():
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def shear():
    return sin_shear()


@pytest.fixture(scope="session")
def cellular():
    return default_cellular_flow()
