import ctypes
import os
import threading
from pathlib import Path

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


def numpy_target():
    """numpy's highest enabled SIMD dispatch target, such as "AVX512_SPR", or
    its highest baseline target, such as "X86_V2", when none is enabled;
    "unknown" when numpy does not say."""
    try:
        from numpy._core._multiarray_umath import (
            __cpu_baseline__,
            __cpu_dispatch__,
            __cpu_features__,
        )
    except ImportError:
        return "unknown"
    enabled = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    return (enabled or list(__cpu_baseline__) or ["unknown"])[-1]


# x86-64 numpy targets, lowest first; numpy's own loops are chosen by them
NUMPY_TARGETS = ("X86_V2", "X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")


def pin_pairs(*groups):
    """{(kernel, target): pin} from groups (kernels, targets, pin): the pin
    holds for each kernel in `kernels` with each numpy target in `targets`."""
    return {(k, t): pin for kernels, targets, pin in groups for k in kernels for t in targets}


def src_env():
    """The environment for a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def pinned(pins, pair):
    """pins[pair], the pin of an (OpenBLAS kernel, numpy target) pair; a
    pair with no pin fails and is named."""
    assert pair in pins, "no digest pinned for OpenBLAS kernel {} with numpy target {}".format(*pair)
    return pins[pair]


@pytest.fixture(scope="session")
def simd_pair():
    """(openblas_core(), numpy_target()).  OpenBLAS kernels sum products in
    different orders and numpy's dispatch picks its own loops, so the digest
    tests look up their pins by both and name both when they fail."""
    return openblas_core(), numpy_target()
