"""The digest tests on every pinned OpenBLAS kernel this CPU can run.

OpenBLAS picks a kernel per CPU, and kernels sum products in different
orders, so the digest tests pin bytes per kernel.  In-process they check
the running kernel; here a child process forced onto each other pinned
kernel (OPENBLAS_CORETYPE) computes the same five digests.  A kernel is
forced only when /proc/cpuinfo lists its instructions, since a kernel the
CPU lacks could crash.  The variables are set in the child's environment
only.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_diagnostics import SUITE_DIGESTS
from test_harness import CSV_DIGESTS

# kernel -> the /proc/cpuinfo flags its instructions need ("pni" is SSE3)
KERNEL_FLAGS = {
    "SkylakeX": {"avx512f", "avx512cd", "avx512bw", "avx512dq", "avx512vl"},
    "Haswell": {"avx2", "fma"},
    "Sandybridge": {"avx"},
    "Prescott": {"pni"},
}
# numpy's own AVX-512 loops off too, so the child runs what an AVX2-only host would
NUMPY_FEATURES_OFF = {"Haswell": "X86_V4,AVX512_ICL,AVX512_SPR"}

CHILD = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from conftest import openblas_core
from test_diagnostics import SUITE_DIGESTS, suite_digest
from test_harness import csv_digest
with tempfile.TemporaryDirectory() as tmp:
    csv = {name: csv_digest(name, Path(tmp)) for name in ("ncrs", "ncrs_vote", "rsgf")}
suite = {seed: suite_digest(seed) for seed in SUITE_DIGESTS["SkylakeX"]}
print(json.dumps({"core": openblas_core(), "csv": csv, "suite": suite}))
"""


def _cpu_flags():
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags")
            for flag in line.split(":", 1)[1].split()}


@pytest.mark.parametrize("kernel", list(KERNEL_FLAGS))
def test_digests_on_a_forced_kernel(kernel, blas_core):
    if kernel == blas_core:
        pytest.skip(f"{kernel} is the running kernel, which the digest tests check in-process")
    missing = KERNEL_FLAGS[kernel] - _cpu_flags()
    if missing:
        pytest.skip(f"this CPU lacks {sorted(missing)} for {kernel}")
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if kernel in NUMPY_FEATURES_OFF:
        env["NPY_DISABLE_CPU_FEATURES"] = NUMPY_FEATURES_OFF[kernel]
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(Path(__file__).parent)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    got = json.loads(child.stdout)
    assert got["core"] == kernel
    assert got["csv"] == CSV_DIGESTS[kernel], f"OpenBLAS kernel {kernel}"
    assert {int(s): d for s, d in got["suite"].items()} == SUITE_DIGESTS[kernel], (
        f"OpenBLAS kernel {kernel}")
