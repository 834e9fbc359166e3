import ctypes

import numpy as np
import pytest

from fcslab import Scenario
from fcslab.scenarios import SIGMA_X, random_scenario

SIGMA_Y = np.array([[0, -1j], [1j, 0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)


@pytest.fixture
def qubit_qubit():
    """Small nondegenerate scenario with a non-thermal, non-diagonal start."""
    h_sys = np.diag([0.0, 1.0]).astype(complex)
    h_res = 0.5 * SIGMA_Z + 0.1 * SIGMA_X
    v = np.kron(SIGMA_X, SIGMA_X) + 0.3 * np.kron(SIGMA_Z, SIGMA_Y)
    rho_sys = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]], dtype=complex)
    return Scenario(h_sys=h_sys, h_res=h_res, v=v, lam=0.2, beta=1.0, rho_sys=rho_sys)


@pytest.fixture
def scenario_factory():
    def make(seed, d_sys=2, d_res=4, **kw):
        return random_scenario(np.random.default_rng(seed), d_sys, d_res, **kw)

    return make


@pytest.fixture
def openblas_threads():
    """(get, set) of numpy's bundled OpenBLAS thread count, read through
    ctypes apart from the library; the count is restored after the test."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        pytest.skip("numpy is not built on its bundled OpenBLAS")
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    before = get()
    yield get, set_
    set_(before)
