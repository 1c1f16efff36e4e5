import numpy as np
import pytest

from clusterbal import _kernels
from clusterbal.core import enumerate_patterns
from clusterbal.structures import _msb_slots


def test_active_backend_reported():
    assert _kernels.active_backend() == "numpy"


def test_impls_name_the_module_level_kernels():
    # per-layer tracing rebinds the module attribute of each name in IMPLS["numpy"]
    for name, fn in _kernels.IMPLS["numpy"].items():
        assert getattr(_kernels, name) is fn


def test_pb_pmf_matches_convolution(rng):
    probs = rng.uniform(0.1, 0.9, (3, 6))
    pmf = _kernels.pb_pmf_batch(probs)
    for row, got in zip(probs, pmf):
        brute = np.array([1.0])
        for p in row:
            brute = np.convolve(brute, [1 - p, p])
        assert np.allclose(got, brute, atol=1e-14)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)
    # no units: all mass on a count of zero
    assert _kernels.pb_pmf_batch(np.empty((1, 0))).tolist() == [[1.0]]


def test_pattern_masses_sum_to_one(rng):
    bits = np.ascontiguousarray(enumerate_patterns(7))
    probs = rng.uniform(0.05, 0.95, 7)
    assert _kernels.pattern_masses(bits, probs).sum() == pytest.approx(1.0, abs=1e-10)


def test_slot_indices_msb_first():
    bits = enumerate_patterns(3)
    assert _msb_slots(bits, 3).tolist() == list(range(8))
    rev = np.array([2, 1, 0], dtype=np.int64)
    assert _msb_slots(bits[:, rev], 3)[1] == 4  # pattern 001 reversed -> 100
    # two bits of three slots: the missing low bit is zero
    assert _msb_slots(bits[:, :2], 3).tolist() == [0, 0, 2, 2, 4, 4, 6, 6]
