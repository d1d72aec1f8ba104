import ctypes
import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that ends with a live thread it did not start with, such
    as a direction read-ahead helper leaked on an error path, and name it."""
    before = set(threading.enumerate())
    yield
    new = [t.name for t in threading.enumerate() if t not in before]
    if new:
        pytest.fail(f"{len(new)} thread(s) outlived the test: {new}")


def openblas_core():
    """The OpenBLAS kernel numpy runs, such as "SkylakeX", or "unknown" when
    its bundled OpenBLAS does not say."""
    try:
        from numpy._core import _multiarray_umath

        corename = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_corename64_
    except (ImportError, OSError, AttributeError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    name = corename().decode()
    # an x86-64 OpenBLAS runs its Prescott kernel for the 32-bit Katmai core
    # and reports the 32-bit name
    return "Prescott" if name == "Katmai" else name


@pytest.fixture(scope="session")
def blas_core():
    """openblas_core().  Kernels sum products in different orders, so the
    digest tests look up their pins by it and name it when they fail."""
    return openblas_core()
