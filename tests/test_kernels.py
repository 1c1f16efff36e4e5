import os
import subprocess
import sys

import numpy as np
import pytest

from clusterbal import _kernels
from clusterbal.core import enumerate_patterns


_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(_kernels.__file__)))
needs_numba = pytest.mark.skipif(not _kernels.NUMBA_OK, reason="numba unavailable")


def test_active_backend_reported():
    assert _kernels.active_backend() in ("numpy", "numba")


@needs_numba
def test_backends_agree(rng):
    npi = _kernels.IMPLS["numpy"]
    nbi = _kernels.IMPLS["numba"]
    probs = rng.uniform(0.05, 0.95, size=9)
    assert np.allclose(npi["pb_pmf"](probs), nbi["pb_pmf"](probs), atol=1e-14)

    mat = rng.uniform(0.05, 0.95, size=(7, 5))
    assert np.allclose(npi["pb_pmf_batch"](mat), nbi["pb_pmf_batch"](mat), atol=1e-14)

    bits = np.ascontiguousarray(enumerate_patterns(9))
    assert np.allclose(
        npi["pattern_masses"](bits, probs), nbi["pattern_masses"](bits, probs), atol=1e-14
    )

    deps = np.array([4, 1, 7], dtype=np.int64)
    assert np.array_equal(npi["slot_indices"](bits, deps), nbi["slot_indices"](bits, deps))
    assert np.array_equal(npi["count_slots"](bits, deps), nbi["count_slots"](bits, deps))

    slots = rng.integers(0, 6, size=200)
    w = rng.standard_normal(200)
    assert np.allclose(
        npi["weighted_slot_sums"](slots, w, 6), nbi["weighted_slot_sums"](slots, w, 6), atol=1e-12
    )


def test_pb_pmf_matches_convolution(rng):
    probs = rng.uniform(0.1, 0.9, 6)
    pmf = _kernels.pb_pmf(probs)
    brute = np.array([1.0])
    for p in probs:
        brute = np.convolve(brute, [1 - p, p])
    assert np.allclose(pmf, brute, atol=1e-14)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_pattern_masses_sum_to_one(rng):
    bits = np.ascontiguousarray(enumerate_patterns(7))
    probs = rng.uniform(0.05, 0.95, 7)
    assert _kernels.pattern_masses(bits, probs).sum() == pytest.approx(1.0, abs=1e-10)


def test_slot_indices_msb_first():
    bits = np.ascontiguousarray(enumerate_patterns(3))
    deps = np.array([0, 1, 2], dtype=np.int64)
    assert _kernels.slot_indices(bits, deps).tolist() == list(range(8))
    rev = np.array([2, 1, 0], dtype=np.int64)
    assert _kernels.slot_indices(bits, rev)[1] == 4  # pattern 001 reversed -> 100


def test_env_flag_selects_numpy_backend():
    code = (
        "import clusterbal._kernels as k; "
        "print(k.active_backend())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={
            "PATH": "/usr/bin:/bin",
            # the directory this package was imported from, whether it came
            # through PYTHONPATH or pytest's `pythonpath` setting
            "PYTHONPATH": os.pathsep.join(
                filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH", "")])
            ),
            "CLUSTERBAL_DISABLE_NUMBA": "1",
        },
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "numpy"
