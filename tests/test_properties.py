"""Property tests over every structure family.

Data are drawn from a seed, so a failing example is reported as a short
tuple (family, parameters, seed, cluster sizes) and replays exactly.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from clusterbal.core import (
    ClusterSample,
    Dataset,
    Gate,
    enumerate_patterns,
    pattern_index,
    probit_intervention,
)
from clusterbal.structures import (
    AdditiveTypes,
    CoarsenedCount,
    Compose,
    ConstantMapping,
    FromExposureMapping,
    KnnPattern,
    NeighborCount,
    NeighborPattern,
    NoInterference,
    OwnTreatment,
    StratifiedCount,
    TensorWithCovariates,
    design_matrix,
    target_contributions,
)

from oracles import fresh_copy, per_cluster_contributions, per_cluster_design

PROPERTY = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
MAX_SIZE = 5  # 2^5 patterns per cluster keeps enumeration cheap

ks = st.integers(1, 3)
ONE_HOT = {
    "no_interference": st.just(NoInterference()),
    "stratified_count": st.builds(StratifiedCount, ks, include_own=st.booleans()),
    "knn_pattern": st.builds(KnnPattern, ks),
    "exposure_own": st.just(FromExposureMapping(OwnTreatment())),
    "exposure_pattern": st.builds(lambda k: FromExposureMapping(NeighborPattern(k)), ks),
    "exposure_count": st.builds(
        lambda k, own: FromExposureMapping(NeighborCount(k, include_own=own)), ks, st.booleans()
    ),
    "exposure_constant": st.just(FromExposureMapping(ConstantMapping())),
}
OTHERS = {
    "additive_types": st.builds(AdditiveTypes, st.integers(MAX_SIZE, MAX_SIZE + 2)),
    "coarsened_count": st.builds(
        lambda order, k, low: CoarsenedCount(order=order, thresholds=(low, low + 1), k=k),
        st.sampled_from([1, 2]), st.integers(1, 2), st.integers(0, 1),
    ),
    "compose": st.builds(
        Compose,
        st.one_of(st.builds(KnnPattern, ks), st.just(AdditiveTypes(2))),
        st.builds(KnnPattern, ks),
    ),
}
one_hot_inner = st.one_of(*ONE_HOT.values())
any_inner = st.one_of(one_hot_inner, *OTHERS.values())
columns = st.sampled_from([None, [0], [1, {"cluster_mean": 0}]])
any_structure = st.one_of(
    any_inner, st.builds(lambda inner, cols: TensorWithCovariates(inner, columns=cols),
                         any_inner, columns)
)


@st.composite
def datasets(draw):
    """Mixed cluster sizes up to MAX_SIZE (so m <= k occurs), two covariates."""
    sizes = draw(st.lists(st.integers(1, MAX_SIZE), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    clusters = []
    for ci, m in enumerate(sizes):
        x = rng.standard_normal((m, 2))
        if rng.random() < 0.3:
            x[rng.integers(m)] = 0.0  # an all-zero covariate row
        clusters.append(
            ClusterSample(
                covariates=x,
                treatments=rng.integers(0, 2, m),
                outcomes=rng.standard_normal(m),
                cluster_id=ci,
            )
        )
    return Dataset(clusters=tuple(clusters))


def _probs(c):
    return np.random.default_rng(c.size + 100 * int(c.cluster_id)).uniform(0.05, 0.95, c.size)


@PROPERTY
@given(any_structure, datasets())
def test_expected_rows_are_the_enumeration_average(structure, d):
    for c in d.clusters:
        probs = _probs(c)
        bits = enumerate_patterns(c.size)
        masses = np.prod(np.where(bits == 1, probs, 1.0 - probs), axis=1)
        average = sum(m * structure.rows_at(c, a) for m, a in zip(masses, bits))
        np.testing.assert_allclose(
            structure.expected_rows(c, probs), average, rtol=1e-12, atol=1e-12
        )


@PROPERTY
@given(one_hot_inner, datasets())
def test_one_hot_rows_sum_to_one(structure, d):
    for c in d.clusters:
        for i in range(c.size):
            rows = structure.all_pattern_rows(c, i)
            assert set(np.unique(rows)) <= {0.0, 1.0}
            assert (rows.sum(axis=1) == 1.0).all()
        assert (structure.rows_at(c, c.treatments).sum(axis=1) == 1.0).all()


@PROPERTY
@given(any_structure, datasets())
def test_all_pattern_rows_at_the_observed_pattern_are_the_observed_rows(structure, d):
    for c in d.clusters:
        observed = structure.rows_at(c, c.treatments)
        r = pattern_index(c.treatments)
        for i in range(c.size):
            assert np.array_equal(structure.all_pattern_rows(c, i)[r], observed[i])


@PROPERTY
@given(one_hot_inner, columns, datasets(), st.booleans())
def test_size_batched_design_and_target_equal_the_per_cluster_oracle(inner, cols, d, gate):
    structure = TensorWithCovariates(inner, columns=cols)
    weight = Gate() if gate else probit_intervention(0.3)
    assert np.array_equal(design_matrix(structure, d), per_cluster_design(structure, fresh_copy(d)))
    want = per_cluster_contributions(structure, fresh_copy(d), weight)
    scale = max(float(np.abs(want).max(initial=0.0)), 1.0)
    np.testing.assert_allclose(
        target_contributions(structure, d, weight), want, rtol=1e-12, atol=1e-12 * scale
    )
