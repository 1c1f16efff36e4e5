"""What the benchmark's tracer (`perfbench/tracing.py`) reads of the package:
a traced fit and nesting check run and are counted, so a change that breaks
the tracer fails here before a traced benchmark run does."""

import os
import sys

import numpy as np

from clusterbal import estimators
from clusterbal.core import uniform_intervention
from clusterbal.structures import KnnPattern, TensorWithCovariates

from conftest import make_dataset

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))

import tracing  # noqa: E402


def test_the_tracer_counts_a_traced_fit_and_nesting_check(rng):
    d = make_dataset(rng, 8, sizes=(2, 4), p=2)
    f = uniform_intervention()
    small, large = (TensorWithCovariates(KnnPattern(k), columns=[0, 1]) for k in (1, 2))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        fit = estimators.balancing_fit(d, large, f)
        ops_s, ops_l = (estimators.build_design(s, d, f).ops() for s in (small, large))
        nested = ops_l.contains(ops_s)
    finally:
        tracer.uninstall()
    assert fit.feasible and nested
    # the fit and the nesting check read the dataset's one decomposition of `large`
    assert tracer.counts["numerics.design_ops_calls"] == 2
    assert tracer.counts["numerics.svd_flops"] > 0
    assert np.isfinite(fit.point)
    assert {"estimators.balancing_fit", "numerics.design_ops"} <= {s[0] for s in tracer.spans}
