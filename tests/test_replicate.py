"""The size-batched Monte-Carlo replicate against its per-cluster oracles:
the DGP draw, the calibration signal, the IPW weights and the sandwich's loads form."""

import gc
import weakref

import numpy as np
import pytest

from clusterbal import inference, simulate
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
from clusterbal.inference import sandwich_variance
from clusterbal.simulate import (
    DGPConfig,
    _calibration_report,
    calibrate_snr,
    gen_dataset,
    monte_carlo,
)
from clusterbal.structures import (
    AdditiveTypes,
    CoarsenedCount,
    Compose,
    KnnPattern,
    NoInterference,
    StratifiedCount,
    TensorWithCovariates,
)

from conftest import make_dataset
from oracles import (
    knn_lists,
    loads_form_sigma2,
    per_cluster_calibration_moments,
    per_cluster_gen_dataset,
    per_cluster_ipw_weights,
    with_dense_ops,
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


def _assert_signal_matches(kind, got, want):
    """The gather of one block's h entries gives the bits of the per-cluster
    rows @ h of a cluster of two or more units. A one-unit cluster's product
    is a dot product, and the additive signal sums one gather per type, so
    those agree to rounding."""
    if kind != "additive" and got.size > 1:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14)


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
            _assert_signal_matches(kind, a.outcomes, b.outcomes)
            # the caches the signal filled come back warm: the covariate rows
            # and, for a neighbor-based kind, each unit's full k-NN order
            key = ("tensor_cov", str(simulate._DGP_COLUMNS))
            assert np.array_equal(a._cache[key], _old_covariate_rows(a.covariates))
            if kind != "additive":
                assert a._cache["knn_order"].tolist() == knn_lists(a, a.size - 1)


def test_size_one_clusters_agree_with_the_dot_product_to_rounding():
    # knn1's 8-column rows are where a one-row dot product and the gather differ
    cfg = _cfg("knn1", ((1, 1.0),), n=200)
    got, _, _, _ = gen_dataset(cfg, 0, truth=False)
    want = per_cluster_gen_dataset(cfg, 0)
    np.testing.assert_allclose(got.stacked_outcomes(), want.stacked_outcomes(), rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("kind", KINDS)
def test_calibration_equals_per_cluster_moments(kind):
    for sizes in SIZES[:2]:
        cfg = _cfg(kind, sizes, gamma=None)
        signal, norm2 = per_cluster_calibration_moments(cfg, draws=400)
        got = simulate._calibration_moments(cfg, 400)
        assert np.array_equal(got[1], norm2)
        report = calibrate_snr(cfg, draws=400)
        want = _calibration_report(cfg, signal, norm2).gamma
        if kind == "additive" or min(m for m, _ in sizes) == 1:
            # the signals of one-unit clusters and of several blocks agree to rounding
            np.testing.assert_allclose(got[0], signal, rtol=1e-13, atol=1e-14)
            assert report.gamma == pytest.approx(want, rel=1e-13)
        else:
            assert np.array_equal(got[0], signal)
            assert report.gamma.hex() == want.hex()


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

    def masses(self, bits, cluster):
        return np.full(bits.shape[0], 0.0 if cluster.cluster_id in self.zero_ids else 0.5**cluster.size)


def test_positivity_violation_on_the_per_cluster_fallback(rng):
    d = make_dataset(rng, 8, sizes=(1, 4))
    zero = {d.clusters[5].cluster_id, d.clusters[2].cluster_id}
    with pytest.raises(PositivityViolation, match=f"cluster {d.clusters[2].cluster_id!r}"):
        ipw_weights(d, Gate(), _ZeroAt(zero))


def test_batched_propensity_range_check(rng):
    d = make_dataset(rng, 4, sizes=(3, 3))
    e = IndependentBernoulli(lambda c: np.full(c.size, 1.0))
    with pytest.raises(InvalidSpec, match="strictly in"):
        e.probs_batch(d.clusters)
    with pytest.raises(InvalidSpec, match="strictly in"):
        ipw_weights(d, Gate(), e)
    good = IndependentBernoulli(lambda c: np.full(c.size, 0.25))
    assert np.array_equal(good.probs_batch(d.clusters), np.full((4, 3), 0.25))


# ---------- the sandwich against its loads form ----------


def _tensor(inner):
    return TensorWithCovariates(inner, columns=[0, 1, {"cluster_mean": 2}])


LOADS_FORM_CASES = [
    _tensor(KnnPattern(2)),
    _tensor(KnnPattern(3)),
    _tensor(StratifiedCount(2)),
    TensorWithCovariates(AdditiveTypes(5)),
    Compose(AdditiveTypes(3), KnnPattern(2)),
    _tensor(CoarsenedCount(order=2, thresholds=(0, 1), k=2)),
]


def _zero_covariates(dataset, ci):
    """The dataset with cluster ci's covariate rows all 0, so a covariate
    tensor gives its units zero design rows, which no decomposition piece covers."""
    clusters = list(dataset.clusters)
    c = clusters[ci]
    clusters[ci] = ClusterSample(np.zeros_like(c.covariates), c.treatments, c.outcomes,
                                 cluster_id=c.cluster_id)
    return Dataset(clusters=tuple(clusters))


def _assert_loads_form(d, structure, f, e, fits):
    for fit, kind in fits:
        got = sandwich_variance(d, structure, f, fit, kind, propensity=e, allow_infeasible=True)
        w_ipw = ipw_weights(d, f, e) if kind == "proj" else None
        want = loads_form_sigma2(d, fit.design, fit, w_ipw)
        assert got.sigma2_hat == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("zeroed", [False, True], ids=["data", "zeroed-cluster"])
@pytest.mark.parametrize("structure", LOADS_FORM_CASES, ids=lambda s: s.label)
def test_sandwich_equals_its_loads_form(rng, structure, zeroed):
    """The residual-form `bal` and `proj` sandwich against the loads form
    (L_c(w) - v_c) . h - (s_c - theta) on the dense design and its SVD, and
    against the sandwich of fits on the dense SVD."""
    d = make_dataset(rng, 40, sizes=(1, 5), p=3)
    if zeroed:
        d = _zero_covariates(d, 3)
    f, e = probit_intervention(0.3), probit_propensity(0.0)
    design = build_design(structure, d, f)
    fits = ((balancing_fit(d, structure, f, design=design), "bal"),
            (projection_fit(d, structure, f, e, design=design), "proj"))
    _assert_loads_form(d, structure, f, e, fits)
    dense = with_dense_ops(design)
    dense_fits = (balancing_fit(d, structure, f, design=dense),
                  projection_fit(d, structure, f, e, design=dense))
    for (fit, kind), dense_fit in zip(fits, dense_fits):
        got, want = (sandwich_variance(d, structure, f, x, kind, propensity=e, allow_infeasible=True)
                     for x in (fit, dense_fit))
        assert got.sigma2_hat == pytest.approx(want.sigma2_hat, rel=1e-12, abs=0)


def test_infeasible_sandwich_equals_its_loads_form(rng):
    """An untreated dataset leaves the treated columns of the design empty,
    so balancing the all-treated gate is infeasible."""
    d = make_dataset(rng, 30, sizes=(1, 4), p=2)
    d = Dataset(clusters=tuple(
        ClusterSample(c.covariates, np.zeros(c.size, dtype=int), c.outcomes, cluster_id=c.cluster_id)
        for c in d.clusters
    ))
    structure, f, e = TensorWithCovariates(NoInterference()), Gate(), probit_propensity(0.0)
    fit = balancing_fit(d, structure, f)
    assert not fit.feasible
    _assert_loads_form(d, structure, f, e, [(fit, "bal")])


# ---------- Monte-Carlo failures by exception class ----------


def _forced(dataset):
    return dataset.clusters[0].size == 15


def test_monte_carlo_reports_failures_by_exception_class(monkeypatch):
    cfg = DGPConfig(n=20, interference="additive", seed=2, gamma=0.5)
    real = inference.balancing_fit

    def flaky(dataset, *args, **kwargs):
        if _forced(dataset):
            raise FloatingPointError("forced")
        return real(dataset, *args, **kwargs)

    # the estimator table calls the fits by their inference-module names
    monkeypatch.setattr(inference, "balancing_fit", flaky)
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


# ---------- IPW weights once per set of fits ----------


def test_the_dataset_keeps_one_read_only_ipw_array_per_pair_of_laws(rng):
    d = make_dataset(rng, 12, sizes=(2, 3), p=1)
    f = Gate()
    laws = [IndependentBernoulli(lambda c, q=q: np.full(c.size, q)) for q in (0.3, 0.3, 0.6)]
    got = [ipw_weights(d, f, e) for e in laws]
    for w, e in zip(got, laws):
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 0.0
        assert ipw_weights(d, f, e) is w
        assert np.allclose(w, per_cluster_ipw_weights(d, f, e), rtol=1e-15, atol=0)
    # equal laws that are distinct objects get their own entries
    assert got[0] is not got[1] and np.array_equal(got[0], got[1])
    assert not np.array_equal(got[0], got[2])
    # the entry holds its laws, so a dropped law's id cannot be taken by another
    law = IndependentBernoulli(lambda c: np.full(c.size, 0.4))
    ref = weakref.ref(law)
    ipw_weights(d, f, law)
    del law
    gc.collect()
    assert ref() is not None


def _count_ipw_weights(monkeypatch):
    from clusterbal import estimators

    calls = []
    real = estimators._ipw_weights

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(estimators, "_ipw_weights", counted)
    return calls


def test_ipw_weights_are_taken_once_per_replicate(monkeypatch):
    cfg = DGPConfig(n=20, interference="additive", seed=2, gamma=0.5)
    names = ("ipw", "balancing", "projection")
    # each fit and variance on its own, every one taking its own weights and design
    dataset, _, propensity, weight = gen_dataset(cfg, 0, truth=False)
    want = {}
    for name in names:
        fit, var = inference.fit_estimator(
            name, dataset, weight, propensity, simulate.dgp_structure(cfg)
        )
        want[name] = (fit.point, var.ci_low, var.ci_high)
    calls = _count_ipw_weights(monkeypatch)
    for order in (names, names[::-1]):
        calls.clear()
        got = simulate._replicate(cfg, 0, order, 0.95)
        assert len(calls) == 1
        assert {n: (r["point"], r["ci_low"], r["ci_high"]) for n, r in got.items()} == want
    calls.clear()
    monte_carlo(cfg, 3, estimators=names, truth_draws=2000)
    assert len(calls) == 3
