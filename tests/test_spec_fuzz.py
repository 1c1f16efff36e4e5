"""Fuzz test of the `bernoulli` weight and propensity spec documents.

Fields of a valid document are replaced by strings, None, lists, bools, NaN,
+-inf and huge numbers. Each document must either build a model whose
probabilities on a small dataset are finite and in range, or raise
InvalidSpec; no other exception may escape.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterbal.core import ClusterSample, Dataset
from clusterbal.errors import InvalidSpec
from clusterbal.specio import propensity_from_json, weight_from_json

from conftest import make_dataset

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

VALID = [
    {"kind": "bernoulli", "prob": 0.3},
    {"kind": "bernoulli", "family": "probit_mean", "kappa": 0.2},
    {"kind": "bernoulli", "family": "probit_mean"},
]
VALUES = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["0.5", "nan", "-inf", "1e400", "probit_mean"]),
    st.none(),
    st.lists(st.floats(0.0, 1.0), max_size=2),
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 10**400, -(10**400)]),
    st.floats(-2.0, 2.0),
    st.integers(-3, 3),
)
MUTATIONS = st.dictionaries(st.sampled_from(["prob", "family", "kappa"]), VALUES, max_size=2)

# one cluster's unit means reach 3, so kappa = 1e308 overflows to inf
DATASET = Dataset(
    clusters=make_dataset(np.random.default_rng(7), 5, sizes=(1, 4)).clusters
    + (ClusterSample(covariates=[[3.0, 3.0], [-3.0, -3.0]], treatments=[1, 0],
                     outcomes=[0.0, 0.0], cluster_id=99),)
)
BUILD = {
    "weight": (weight_from_json, lambda pi: (pi >= 0) & (pi <= 1)),
    "propensity": (propensity_from_json, lambda pi: (pi > 0) & (pi < 1)),
}


def _probabilities(model):
    """The model's `probs_batch` on DATASET, per size group and per cluster."""
    groups = list(DATASET.groups) + [c.group for c in DATASET.clusters]
    return [model.probs_batch(group) for group in groups]


@FUZZ
@given(base=st.sampled_from(VALID), mutation=MUTATIONS, role=st.sampled_from(sorted(BUILD)))
def test_bernoulli_spec_builds_a_valid_model_or_raises_invalid_spec(base, mutation, role):
    build, in_range = BUILD[role]
    doc = {**base, **mutation}
    try:
        probs = _probabilities(build(doc))
    except InvalidSpec:
        return
    for pi in probs:
        assert np.isfinite(pi).all() and in_range(pi).all(), (doc, pi)
