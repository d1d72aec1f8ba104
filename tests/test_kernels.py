"""The digest tests on every pinned (OpenBLAS kernel, numpy target) pair
this CPU can run.

OpenBLAS picks a kernel per CPU, and kernels sum products in different
orders; numpy picks its own SIMD loops by its highest enabled dispatch
target.  So the digest tests pin bytes per pair.  In-process they check the
running pair; here a child process forced onto each other pinned pair
(OPENBLAS_CORETYPE for the kernel, NPY_DISABLE_CPU_FEATURES for every
dispatch target above the numpy target) computes the same eight digests.
The children run two at a time, started together by one module fixture.  A
pair is forced only when /proc/cpuinfo lists the instructions of both its
parts, since code the CPU lacks could crash.  The variables are set in the
child's environment only.  A failing child's whole report is printed, so
one run of this file reads the new pins of every pair.
"""
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from conftest import pinned
from test_diagnostics import SUITE_DIGESTS, SUITE_SEEDS
from test_harness import CSV_DIGESTS

# kernel -> the /proc/cpuinfo flags its instructions need ("pni" is SSE3)
KERNEL_FLAGS = {
    "SkylakeX": {"avx512f", "avx512cd", "avx512bw", "avx512dq", "avx512vl"},
    "Haswell": {"avx2", "fma"},
    "Sandybridge": {"avx"},
    "Prescott": {"pni"},
}
# numpy target -> the /proc/cpuinfo flags it adds to the target below it
_TARGET_STEPS = {
    "X86_V2": {"cx16", "lahf_lm", "popcnt", "sse4_1", "sse4_2", "ssse3"},
    "X86_V3": {"avx", "avx2", "bmi1", "bmi2", "f16c", "fma", "abm", "movbe", "xsave"},
    "X86_V4": {"avx512f", "avx512cd", "avx512bw", "avx512dq", "avx512vl"},
    "AVX512_ICL": {"avx512ifma", "avx512vbmi", "avx512_vbmi2", "avx512_vnni",
                   "avx512_bitalg", "avx512_vpopcntdq", "gfni", "vaes", "vpclmulqdq"},
    "AVX512_SPR": {"avx512_fp16"},
}
# numpy target -> the /proc/cpuinfo flags it needs
TARGET_FLAGS = {
    target: set().union(*list(_TARGET_STEPS.values())[: i + 1])
    for i, target in enumerate(_TARGET_STEPS)
}

CHILD = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from conftest import numpy_target, openblas_core
from test_diagnostics import SUITE_SEEDS, suite_digest
from test_harness import _digest_configs, csv_digest
with tempfile.TemporaryDirectory() as tmp:
    csv = {name: csv_digest(name, Path(tmp)) for name in _digest_configs()}
suite = {seed: suite_digest(seed) for seed in SUITE_SEEDS}
print(json.dumps({"core": openblas_core(), "target": numpy_target(), "csv": csv,
                  "suite": suite}, indent=1))
"""


def _cpu_flags():
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags")
            for flag in line.split(":", 1)[1].split()}


def _targets_above(target):
    """This numpy's dispatch targets above `target`: the ones to turn off."""
    from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__

    dispatch = list(__cpu_dispatch__)
    if target in dispatch:
        return dispatch[dispatch.index(target) + 1:]
    if target in __cpu_baseline__:
        return dispatch
    pytest.skip(f"this numpy build has no {target} target")


def _forced_env(pair, simd_pair):
    """The environment of a child forced onto pair; pytest.skip when the pair
    is the running one or cannot run on this CPU or numpy build."""
    kernel, target = pair
    if pair == simd_pair:
        pytest.skip(f"{kernel}/{target} is the running pair, which the digest tests check "
                    "in-process")
    missing = (KERNEL_FLAGS[kernel] | TARGET_FLAGS[target]) - _cpu_flags()
    if missing:
        pytest.skip(f"this CPU lacks {sorted(missing)} for {kernel}/{target}")
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    off = _targets_above(target)
    if off:
        env["NPY_DISABLE_CPU_FEATURES"] = ",".join(off)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def _run_child(env):
    return subprocess.run(
        [sys.executable, "-c", CHILD, str(Path(__file__).parent)],
        env=env, capture_output=True, text=True, timeout=300,
    )


PAIRS = sorted(set(SUITE_DIGESTS) | set(CSV_DIGESTS))


@pytest.fixture(scope="module")
def children(simd_pair):
    """{pair: the future of its child's CompletedProcess, or the skip that
    _forced_env raised}.  The children run two at a time, one per core of a
    two-core host, while the tests wait on their own pair's."""
    pool = ThreadPoolExecutor(2, thread_name_prefix="forced-pair")
    try:
        runs = {}
        for pair in PAIRS:
            try:
                runs[pair] = pool.submit(_run_child, _forced_env(pair, simd_pair))
            except pytest.skip.Exception as skip:
                runs[pair] = skip
        yield runs
    finally:
        pool.shutdown(cancel_futures=True)


@pytest.mark.parametrize("pair", PAIRS, ids="-".join)
def test_digests_on_a_forced_pair(pair, children):
    kernel, target = pair
    run = children[pair]
    if isinstance(run, pytest.skip.Exception):
        pytest.skip(run.msg)
    child = run.result()
    assert child.returncode == 0, child.stderr
    got = json.loads(child.stdout)
    expected = {
        "core": kernel,
        "target": target,
        "csv": CSV_DIGESTS.get(pair),
        "suite": {str(seed): d for seed, d in SUITE_DIGESTS.get(pair, {}).items()},
    }
    assert got == expected, f"OpenBLAS kernel {kernel}, numpy target {target}:\n{child.stdout}"


def test_a_pair_with_no_pin_fails_and_names_both_parts():
    with pytest.raises(AssertionError, match="OpenBLAS kernel Zen with numpy target X86_V4"):
        pinned(SUITE_DIGESTS, ("Zen", "X86_V4"))
