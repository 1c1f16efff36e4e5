"""The size-batched Monte-Carlo replicate against its per-cluster oracles:
the DGP draw, the calibration signal, the IPW weights and the sandwich loads."""

from dataclasses import replace

import numpy as np
import pytest

from clusterbal import simulate
from clusterbal.core import (
    ClusterSample,
    Dataset,
    Gate,
    IndependentBernoulli,
    JointTable,
    PropensityModel,
    enumerate_patterns,
    probit_intervention,
    probit_propensity,
    uniform_intervention,
)
from clusterbal.errors import InvalidSpec, PositivityViolation
from clusterbal.estimators import balancing_fit, build_design, ipw_weights, projection_fit
from clusterbal.inference import _per_cluster_feature_loads, sandwich_variance
from clusterbal.simulate import (
    DGPConfig,
    _calibration_report,
    calibrate_snr,
    gen_dataset,
    monte_carlo,
)
from clusterbal.structures import AdditiveTypes, KnnPattern, StratifiedCount, TensorWithCovariates

from conftest import make_dataset
from oracles import (
    per_cluster_calibration_moments,
    per_cluster_gen_dataset,
    per_cluster_ipw_weights,
)

KINDS = ("knn1", "knn2", "knn3", "knn4", "knn5", "stratified5", "additive")
# default sizes, sizes at or below k (size-1 clusters have no neighbors), one size only
SIZES = (((10, 0.5), (15, 0.5)), ((1, 0.25), (2, 0.25), (3, 0.25), (6, 0.25)), ((4, 1.0),))


def _cfg(kind, sizes, **over):
    return DGPConfig(**{"n": 40, "interference": kind, "cluster_sizes": sizes, "seed": 5,
                        "gamma": 0.7, **over})


def _old_covariate_rows(x):
    """The DGP's covariate slots [0, 1, 2, mean of 3], as a per-cluster column stack."""
    return np.column_stack([x[:, 0], x[:, 1], x[:, 2], np.full(x.shape[0], x[:, 3].mean())])


# ---------- DGP draw and calibration ----------


@pytest.mark.parametrize("sizes", SIZES)
@pytest.mark.parametrize("kind", KINDS)
def test_gen_dataset_equals_per_cluster_draw(kind, sizes):
    cfg = _cfg(kind, sizes)
    for r in range(2):
        got, _, _, _ = gen_dataset(cfg, r, truth=False)
        want = per_cluster_gen_dataset(cfg, r)
        assert got.n == want.n
        for a, b in zip(got.clusters, want.clusters):
            assert a.cluster_id == b.cluster_id
            assert np.array_equal(a.covariates, b.covariates)
            assert np.array_equal(a.treatments, b.treatments)
            assert np.array_equal(a.outcomes, b.outcomes)
            # the same caches come back warm, with the same contents
            assert set(a._cache) == set(b._cache)
            for key in a._cache:
                assert np.array_equal(a._cache[key], b._cache[key]), key
            key = ("tensor_cov", str(simulate._DGP_COLUMNS))
            assert np.array_equal(a._cache[key], _old_covariate_rows(a.covariates))


def test_size_one_clusters_keep_the_dot_product_bits():
    # knn1's 8-column rows are where a one-row dot product and the gather differ
    cfg = _cfg("knn1", ((1, 1.0),), n=200)
    got, _, _, _ = gen_dataset(cfg, 0, truth=False)
    want = per_cluster_gen_dataset(cfg, 0)
    assert np.array_equal(got.stacked_outcomes(), want.stacked_outcomes())


@pytest.mark.parametrize("kind", KINDS)
def test_calibration_equals_per_cluster_moments(kind):
    for sizes in SIZES[:2]:
        cfg = _cfg(kind, sizes, gamma=None)
        signal, norm2 = per_cluster_calibration_moments(cfg, draws=400)
        got = simulate._calibration_moments(cfg, 400)
        assert np.array_equal(got[0], signal) and np.array_equal(got[1], norm2)
        report = calibrate_snr(cfg, draws=400)
        assert report.gamma.hex() == _calibration_report(cfg, signal, norm2).gamma.hex()


def test_default_calibration_equals_per_cluster_moments():
    cfg = DGPConfig(n=1, interference="knn5", seed=3)
    want = _calibration_report(cfg, *per_cluster_calibration_moments(cfg))
    assert calibrate_snr(cfg).gamma.hex() == want.gamma.hex()


# ---------- IPW weights ----------


def _joint_table(dataset, rng):
    tables = {}
    for c in dataset.clusters:
        probs = rng.random(2**c.size) + 0.1
        probs /= probs.sum()
        tables[c.cluster_id] = {tuple(a): p for a, p in zip(enumerate_patterns(c.size), probs)}
    return JointTable(tables)


PROPENSITIES = {
    "probit": lambda d, rng: probit_propensity(0.0),
    "probit-tilted": lambda d, rng: probit_propensity(0.7),
    "constant": lambda d, rng: IndependentBernoulli(lambda c: np.full(c.size, 0.3)),
    "joint-table": _joint_table,
}
WEIGHTS = {
    "gate": Gate(),
    "probit": probit_intervention(0.2),
    "uniform": uniform_intervention(),
}


@pytest.mark.parametrize("weight", sorted(WEIGHTS))
@pytest.mark.parametrize("propensity", sorted(PROPENSITIES))
def test_batched_ipw_weights_equal_per_cluster_path(rng, propensity, weight):
    d = make_dataset(rng, 30, sizes=(1, 5), p=3)
    e = PROPENSITIES[propensity](d, rng)
    f = WEIGHTS[weight]
    got = ipw_weights(d, f, e)
    want = per_cluster_ipw_weights(d, f, e)
    assert np.allclose(got, want, rtol=1e-15, atol=0)


def test_ipw_weights_of_the_dgp_are_bitwise_the_per_cluster_ones():
    cfg = _cfg("knn5", SIZES[0], n=60)
    d, _, e, f = gen_dataset(cfg, 0, truth=False)
    assert np.array_equal(ipw_weights(d, f, e), per_cluster_ipw_weights(d, f, e))


def _tiny_probability_cluster(cid, m):
    return ClusterSample(np.full((m, 1), -1.0), np.ones(m, dtype=np.int8), np.zeros(m),
                         cluster_id=cid)


def test_positivity_violation_names_the_first_cluster_in_dataset_order(rng):
    # both "bad-3" (size 3) and "bad-2" (size 2) have a zero product mass; the
    # size-2 group is evaluated first, but "bad-3" comes first in the dataset
    clusters = [
        ClusterSample(rng.standard_normal((2, 1)), [1, 0], [0.0, 1.0], cluster_id="ok"),
        _tiny_probability_cluster("bad-3", 3),
        _tiny_probability_cluster("bad-2", 2),
    ]
    d = Dataset(clusters=tuple(clusters))
    e = IndependentBernoulli(lambda c: np.where(c.covariates[:, 0] < 0, 1e-200, 0.5))
    with pytest.raises(PositivityViolation, match="'bad-3'"):
        ipw_weights(d, uniform_intervention(), e)
    with pytest.raises(PositivityViolation, match="'bad-3'"):
        per_cluster_ipw_weights(d, uniform_intervention(), e)


class _ZeroAt(PropensityModel):
    """A non-product propensity that is 0 on the clusters named."""

    def __init__(self, zero_ids):
        self.zero_ids = zero_ids

    def probability(self, pattern, cluster):
        return 0.0 if cluster.cluster_id in self.zero_ids else 0.5**cluster.size


def test_positivity_violation_on_the_per_cluster_fallback(rng):
    d = make_dataset(rng, 8, sizes=(1, 4))
    zero = {d.clusters[5].cluster_id, d.clusters[2].cluster_id}
    with pytest.raises(PositivityViolation, match=f"cluster {d.clusters[2].cluster_id!r}"):
        ipw_weights(d, Gate(), _ZeroAt(zero))


def test_batched_propensity_range_check(rng):
    d = make_dataset(rng, 4, sizes=(3, 3))
    e = IndependentBernoulli(lambda c: np.full(c.size, 1.0))
    with pytest.raises(InvalidSpec, match="strictly in"):
        e.unit_probs_batch(d.clusters)
    with pytest.raises(InvalidSpec, match="strictly in"):
        ipw_weights(d, Gate(), e)
    good = IndependentBernoulli(lambda c: np.full(c.size, 0.25))
    assert np.array_equal(good.unit_probs_batch(d.clusters), np.full((4, 3), 0.25))


# ---------- sandwich loads ----------


def _tensor(inner):
    return TensorWithCovariates(inner, columns=[0, 1, {"cluster_mean": 2}])


@pytest.mark.parametrize("inner", [KnnPattern(2), KnnPattern(3), StratifiedCount(2)])
def test_scattered_loads_equal_dense_loads(rng, inner):
    d = make_dataset(rng, 40, sizes=(1, 5), p=3)
    structure = _tensor(inner)
    f, e = probit_intervention(0.3), probit_propensity(0.0)
    design = build_design(structure, d, f)
    assert design.one_hot is not None
    dense = replace(design, one_hot=None)
    w = rng.standard_normal(d.total_units)
    got = _per_cluster_feature_loads(design.phi, w, design.slices, design.one_hot)
    want = _per_cluster_feature_loads(design.phi, w, design.slices)
    assert np.allclose(got, want, rtol=1e-12, atol=0)
    for kind, fit_fn in (("bal", balancing_fit), ("proj", projection_fit)):
        extra = {} if kind == "bal" else {"propensity": e}
        args = (d, structure, f) + ((e,) if kind == "proj" else ())
        fits = [fit_fn(*args, design=ds) for ds in (design, dense)]
        if kind == "bal" and not fits[0].feasible:
            continue
        got, want = (
            sandwich_variance(d, structure, f, fit, kind, **extra).sigma2_hat for fit in fits
        )
        assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_non_one_hot_designs_keep_dense_loads(rng):
    d = make_dataset(rng, 10, sizes=(2, 4), p=2)
    design = build_design(TensorWithCovariates(AdditiveTypes(4)), d, uniform_intervention())
    assert design.one_hot is None and design.pieces is None


# ---------- Monte-Carlo failures by exception class ----------


def _forced(dataset):
    return dataset.clusters[0].size == 15


def test_monte_carlo_reports_failures_by_exception_class(monkeypatch):
    cfg = DGPConfig(n=20, interference="additive", seed=2, gamma=0.5)
    real = simulate.balancing_fit

    def flaky(dataset, *args, **kwargs):
        if _forced(dataset):
            raise FloatingPointError("forced")
        return real(dataset, *args, **kwargs)

    monkeypatch.setattr(simulate, "balancing_fit", flaky)
    res = monte_carlo(cfg, 6, estimators=("ipw", "balancing", "exposure-ipw"), truth_draws=2000)
    forced = sum(_forced(gen_dataset(cfg, r, truth=False)[0]) for r in range(6))
    assert 0 < forced < 6
    assert res.error_classes == {
        "ipw": {},
        "balancing": {"FloatingPointError": forced},
        "exposure-ipw": {"InvalidSpec": 6},  # the additive DGP has no exposure mapping
    }
    assert res.metrics["balancing"]["errors"] == forced
    assert res.metrics["exposure-ipw"]["errors"] == 6
    assert res.metrics["ipw"]["errors"] == 0
    assert res.metrics["balancing"]["n_used"] <= 6 - forced
