import numpy as np
import pytest

from clusterbal import inference
from clusterbal.core import (
    ClusterSample,
    Dataset,
    Gate,
    IndependentBernoulli,
    uniform_intervention,
)
from clusterbal.errors import (
    DegenerateContrast,
    DegenerateDF,
    InfeasibleFit,
    InvalidSpec,
    PropensityUnavailable,
)
from clusterbal.estimators import (
    balancing_fit,
    build_design,
    exposure_collapsed_ipw,
    ipw_fit,
    projection_fit,
    weighted_projection_fit,
)
from clusterbal.inference import (
    ESTIMATORS,
    fit_estimator,
    iid_cluster_variance,
    sandwich_variance,
    select_structure,
    sigma_noise_hat,
    structure_test,
)
from clusterbal.structures import (
    FromExposureMapping,
    KnnPattern,
    LowRankStructure,
    NoInterference,
    OwnTreatment,
    StratifiedCount,
    TensorWithCovariates,
    design_matrix,
)

from conftest import make_cluster, make_dataset
from oracles import dense_loads, design_rows


def half_bernoulli():
    return IndependentBernoulli(lambda c: np.full(c.size, 0.5))


def replicated_dataset(cluster, n):
    return Dataset(
        clusters=tuple(
            ClusterSample(
                covariates=cluster.covariates,
                treatments=cluster.treatments,
                outcomes=cluster.outcomes,
                cluster_id=i,
            )
            for i in range(n)
        )
    )


def linear_dataset(rng, n, structure, h, sizes=(2, 4), p=2, sigma=0.0):
    base = make_dataset(rng, n, sizes=sizes, p=p)
    clusters = []
    for c in base.clusters:
        y = design_rows(structure, c, c.treatments) @ h + sigma * rng.standard_normal(c.size)
        clusters.append(
            ClusterSample(c.covariates, c.treatments, y, cluster_id=c.cluster_id)
        )
    return Dataset(clusters=tuple(clusters))


# ---------- sandwich variance ----------


def test_identical_clusters_zero_variance(rng):
    c = make_cluster(rng, 3, p=1, treatments=np.array([1, 0, 1]))
    structure = NoInterference()
    h = np.array([0.5, -1.0])
    y = design_rows(structure, c, c.treatments) @ h
    base = ClusterSample(c.covariates, c.treatments, y, cluster_id=0)
    d = replicated_dataset(base, 6)
    f = Gate()
    fit = balancing_fit(d, structure, f)
    assert fit.feasible
    var = sandwich_variance(d, structure, f, fit, "bal")
    assert var.sigma2_hat == pytest.approx(0.0, abs=1e-16)
    assert var.ci_low == pytest.approx(var.ci_high)


def test_eta_first_block_ties_to_imbalance(rng):
    d = make_dataset(rng, 5, sizes=(2, 4), p=2)
    structure = TensorWithCovariates(StratifiedCount(1))
    f = uniform_intervention()
    fit = balancing_fit(d, structure, f)
    design = fit.design
    loads = dense_loads(design, fit.weights.values)
    first_block_sum = (loads - design.contributions).sum(axis=0)
    assert np.allclose(first_block_sum, d.n * fit.imbalance, atol=1e-10)
    if fit.feasible:
        assert np.abs(first_block_sum).max() <= 1e-8 * (1 + np.abs(design.target).max())


def test_sandwich_requires_feasible_bal(rng):
    d = Dataset(
        clusters=(
            ClusterSample([[0.0]], [1], [1.0], cluster_id=0),
            ClusterSample([[0.0]], [1], [2.0], cluster_id=1),
        )
    )
    f = Gate()
    fit = balancing_fit(d, NoInterference(), f)
    assert not fit.feasible
    with pytest.raises(InfeasibleFit):
        sandwich_variance(d, NoInterference(), f, fit, "bal")
    var = sandwich_variance(d, NoInterference(), f, fit, "bal", allow_infeasible=True)
    assert np.isfinite(var.sigma2_hat)


def test_proj_variance_needs_propensity(rng):
    d = make_dataset(rng, 3, sizes=(2, 3))
    structure = NoInterference()
    f = Gate()
    e = half_bernoulli()
    fit = projection_fit(d, structure, f, e)
    with pytest.raises(PropensityUnavailable):
        sandwich_variance(d, structure, f, fit, "proj")
    var = sandwich_variance(d, structure, f, fit, "proj", propensity=e)
    assert var.sigma2_hat >= 0


def test_wproj_variance_is_sample_variance(rng):
    d = make_dataset(rng, 4, sizes=(2, 3), p=1)
    e = half_bernoulli()
    f = Gate()
    fit = weighted_projection_fit(d, FromExposureMapping(OwnTreatment()), f, e)
    var = sandwich_variance(d, None, f, fit, "wproj", propensity=e)
    expected = iid_cluster_variance(d, fit)
    assert var.sigma2_hat == pytest.approx(expected.sigma2_hat)


def test_ci_halfwidth_scales_with_n(rng):
    structure = TensorWithCovariates(NoInterference())
    h = np.array([1.0, 2.0, -0.5, 0.25])
    c = make_cluster(rng, 3, p=2, treatments=np.array([1, 0, 0]))
    c2 = make_cluster(rng, 3, p=2, treatments=np.array([0, 1, 1]))

    def noiseless(cl, cid):
        return ClusterSample(
            cl.covariates, cl.treatments, design_rows(structure, cl, cl.treatments) @ h, cluster_id=cid
        )

    pair = [noiseless(c, 0), noiseless(c2, 1)]

    def repeat(k):
        return Dataset(
            clusters=tuple(
                ClusterSample(x.covariates, x.treatments, x.outcomes, cluster_id=i)
                for i, x in enumerate(pair * k)
            )
        )

    d1, d2 = repeat(10), repeat(20)
    f = Gate()
    v1 = sandwich_variance(d1, structure, f, balancing_fit(d1, structure, f), "bal")
    v2 = sandwich_variance(d2, structure, f, balancing_fit(d2, structure, f), "bal")
    assert v1.sigma2_hat > 0
    ratio = (v2.ci_length / 2) ** 2 / ((v1.ci_length / 2) ** 2)
    assert ratio == pytest.approx(0.5, rel=0.05)


# ---------- noise scale ----------


def test_sigma_hat_zero_in_span(rng):
    structure = NoInterference()
    h = np.array([0.3, 1.7])
    d = linear_dataset(rng, 6, structure, h, sigma=0.0)
    assert sigma_noise_hat(d, structure) == pytest.approx(0.0, abs=1e-10)


def test_sigma_hat_zero_column_design(rng):
    d = make_dataset(rng, 4, sizes=(2, 3), p=1)

    class ZeroColumns(LowRankStructure):
        """No indicator block and no column."""

        def dim(self, cluster=None):
            return 0

        def indicator_blocks(self, clusters):
            return []

    y = d.stacked_outcomes()
    got = sigma_noise_hat(d, ZeroColumns())
    assert got == pytest.approx(np.sqrt(y @ y / d.total_units), abs=1e-12)


def test_sigma_hat_dof_modes(rng):
    structure = NoInterference()
    h = np.array([0.3, 1.7])
    d = linear_dataset(rng, 8, structure, h, sigma=1.0)
    s_units = sigma_noise_hat(d, structure, dof="units")
    s_clusters = sigma_noise_hat(d, structure, dof="clusters")
    rank = 2
    expected_ratio = np.sqrt((d.n - rank) / (d.total_units - rank))
    assert s_units / s_clusters == pytest.approx(expected_ratio, rel=1e-10)


def test_sigma_hat_degenerate_df(rng):
    d = make_dataset(rng, 1, sizes=(2, 2), p=1)
    with pytest.raises(DegenerateDF):
        sigma_noise_hat(d, NoInterference(), dof="clusters")


def test_sigma_hat_recovers_noise_scale(rng):
    structure = TensorWithCovariates(StratifiedCount(1))
    h = rng.standard_normal(structure.inner.dim() * 2)
    d = linear_dataset(rng, 120, structure, h, sizes=(4, 6), sigma=1.0)
    got = sigma_noise_hat(d, structure)
    assert got == pytest.approx(1.0, rel=0.12)


# ---------- structure test and selection ----------


def test_structure_test_degenerate_contrast(rng):
    structure = NoInterference()
    d = linear_dataset(rng, 6, structure, np.array([1.0, 2.0]), sigma=0.5)
    with pytest.raises(DegenerateContrast):
        structure_test(d, Gate(), structure, NoInterference(), sigma_hat=1.0)


def test_structure_test_rescaling_invariance(rng):
    small = TensorWithCovariates(KnnPattern(1))
    large = TensorWithCovariates(KnnPattern(2))
    h = rng.standard_normal(8)
    d = linear_dataset(rng, 30, large, h, sizes=(3, 5), sigma=1.0)
    sigma_hat = sigma_noise_hat(d, large)
    s1, _ = structure_test(d, uniform_intervention(), small, large, sigma_hat)
    scaled = Dataset(
        clusters=tuple(
            ClusterSample(c.covariates, c.treatments, 3.0 * c.outcomes, cluster_id=c.cluster_id)
            for c in d.clusters
        )
    )
    s2, _ = structure_test(scaled, uniform_intervention(), small, large, 3.0 * sigma_hat)
    assert s1 == pytest.approx(s2, abs=1e-10)


def test_structure_test_requires_feasible(rng):
    d = Dataset(
        clusters=(
            ClusterSample([[0.0]], [1], [1.0], cluster_id=0),
            ClusterSample([[0.0]], [1], [2.0], cluster_id=1),
        )
    )
    with pytest.raises(InfeasibleFit):
        structure_test(d, Gate(), NoInterference(), TensorWithCovariates(NoInterference()), 1.0)


def test_select_single_candidate(rng):
    structure = TensorWithCovariates(KnnPattern(1))
    h = rng.standard_normal(structure.inner.dim() * 2)
    d = linear_dataset(rng, 12, structure, h, sizes=(3, 5), sigma=0.5)
    report = select_structure(d, uniform_intervention(), [structure])
    assert report.chosen == 0
    assert report.statistics == ()


def test_select_first_candidate_when_below_threshold(rng):
    # correctly specified small structure: the test should accept it
    small = TensorWithCovariates(KnnPattern(1))
    large = TensorWithCovariates(KnnPattern(2))
    h_small = rng.standard_normal(small.inner.dim() * 2)
    d = linear_dataset(rng, 40, small, h_small, sizes=(3, 5), sigma=1.0)
    report = select_structure(d, uniform_intervention(), [small, large], alpha=0.05)
    assert len(report.statistics) == 1
    if report.statistics[0] < 3.84:
        assert report.chosen == 0


def test_select_warns_on_non_nested(rng):
    structure_a = TensorWithCovariates(NoInterference())
    structure_b = TensorWithCovariates(StratifiedCount(1))
    h = rng.standard_normal(structure_b.inner.dim() * 2)
    d = linear_dataset(rng, 25, structure_b, h, sizes=(3, 4), sigma=1.0)
    with pytest.warns(UserWarning, match="not nested"):
        select_structure(d, uniform_intervention(), [structure_a, structure_b])


def test_iid_variance_single_cluster_is_nan(rng):
    d = make_dataset(rng, 1, sizes=(3, 3))
    fit = ipw_fit(d, Gate(), half_bernoulli())
    var = iid_cluster_variance(d, fit)
    assert np.isnan(var.sigma2_hat)


# ---------- the estimator table ----------


def _direct(name, d, structure, f, e, level):
    """The fit and variance of `name`, called without the table."""
    if name == "ipw":
        fit = ipw_fit(d, f, e)
        return fit, iid_cluster_variance(d, fit, level)
    if name == "exposure-ipw":
        fit = exposure_collapsed_ipw(d, structure.exposure_mapping, f, e)
        return fit, iid_cluster_variance(d, fit, level)
    if name == "balancing":
        fit = balancing_fit(d, structure, f)
        return fit, sandwich_variance(d, structure, f, fit, "bal", level=level)
    if name == "projection":
        fit = projection_fit(d, structure, f, e)
        return fit, sandwich_variance(d, structure, f, fit, "proj", propensity=e, level=level)
    fit = weighted_projection_fit(d, structure, f, e)
    return fit, sandwich_variance(d, structure, f, fit, "wproj", propensity=e, level=level)


@pytest.mark.parametrize("name", list(ESTIMATORS))
@pytest.mark.parametrize("shared", [False, True])
def test_fit_estimator_matches_the_direct_fit(rng, name, shared):
    d = make_dataset(rng, 30, sizes=(2, 4), p=2)
    structure = TensorWithCovariates(KnnPattern(1))
    f, e = uniform_intervention(), half_bernoulli()
    design = build_design(structure, d, f) if shared else None
    fit, var = fit_estimator(
        name, d, f, e, structure, design, structure.exposure_mapping, level=0.9
    )
    want_fit, want_var = _direct(name, d, structure, f, e, 0.9)
    assert fit.feasible and fit.kind == want_fit.kind
    np.testing.assert_allclose(fit.weights.values, want_fit.weights.values, rtol=1e-12, atol=1e-15)
    assert (var.point, var.level) == (fit.point, 0.9)
    assert var.sigma2_hat == pytest.approx(want_var.sigma2_hat, rel=1e-12)


@pytest.mark.parametrize(
    "name, missing",
    [
        ("balancing", "structure"),
        ("projection", "structure"),
        ("wproj", "structure"),
        ("exposure-ipw", "exposure mapping"),
    ],
)
def test_fit_estimator_names_the_missing_input(rng, name, missing):
    d = make_dataset(rng, 5)
    with pytest.raises(InvalidSpec, match=f"estimator '{name}' needs the {missing} input"):
        fit_estimator(name, d, Gate(), half_bernoulli())


def test_fit_estimator_rejects_unknown_names(rng):
    with pytest.raises(InvalidSpec, match="unknown estimator 'foo'"):
        fit_estimator("foo", make_dataset(rng, 5), Gate(), half_bernoulli())


@pytest.mark.parametrize("level", [1.5, -1.0, float("nan"), 0.0, 1.0])
def test_levels_and_alphas_outside_the_unit_interval_raise_before_any_fit(
    rng, monkeypatch, level
):
    def forbidden(*args, **kwargs):
        raise AssertionError("fitted before the level was checked")

    for name in ("ipw_fit", "balancing_fit", "build_design"):
        monkeypatch.setattr(inference, name, forbidden)
    d = make_dataset(rng, 6)
    with pytest.raises(InvalidSpec, match=r"level must lie in \(0, 1\)"):
        fit_estimator("ipw", d, Gate(), half_bernoulli(), level=level)
    with pytest.raises(InvalidSpec, match=r"level must lie in \(0, 1\)"):
        fit_estimator("balancing", d, Gate(), half_bernoulli(), NoInterference(), level=level)
    with pytest.raises(InvalidSpec, match=r"alpha must lie in \(0, 1\)"):
        select_structure(d, Gate(), [NoInterference()], alpha=level)
    # the variances called directly refuse it too
    e = half_bernoulli()
    with pytest.raises(InvalidSpec, match=r"level must lie in \(0, 1\)"):
        iid_cluster_variance(d, ipw_fit(d, Gate(), e), level=level)
    fit = projection_fit(d, NoInterference(), Gate(), e)
    with pytest.raises(InvalidSpec, match=r"level must lie in \(0, 1\)"):
        sandwich_variance(d, NoInterference(), Gate(), fit, "proj", propensity=e, level=level)


def test_fit_estimator_infeasible_balancing_variance_only_when_allowed():
    d = Dataset(
        clusters=(
            ClusterSample([[0.0]], [1], [1.0], cluster_id=0),
            ClusterSample([[0.0]], [1], [2.0], cluster_id=1),
        )
    )
    fit, var = fit_estimator("balancing", d, Gate(), half_bernoulli(), NoInterference())
    assert not fit.feasible and var is None
    fit, var = fit_estimator(
        "balancing", d, Gate(), half_bernoulli(), NoInterference(), allow_infeasible=True
    )
    assert not fit.feasible and np.isfinite(var.sigma2_hat)


@pytest.mark.parametrize(
    "name, names",
    [
        ("ipw", ("ipw_fit", "iid_cluster_variance")),
        ("balancing", ("balancing_fit", "sandwich_variance")),
        ("projection", ("projection_fit", "sandwich_variance")),
        ("wproj", ("weighted_projection_fit", "sandwich_variance")),
        ("exposure-ipw", ("exposure_collapsed_ipw", "iid_cluster_variance")),
    ],
)
def test_table_calls_the_module_names_at_call_time(rng, monkeypatch, name, names):
    # per-layer tracing rebinds these module attributes after import
    called = []

    def recording(attr, real):
        def wrapper(*args, **kwargs):
            called.append(attr)
            return real(*args, **kwargs)

        return wrapper

    for attr in names:
        monkeypatch.setattr(inference, attr, recording(attr, getattr(inference, attr)))
    d = make_dataset(rng, 12)
    structure = TensorWithCovariates(KnnPattern(1))
    fit_estimator(name, d, uniform_intervention(), half_bernoulli(), structure,
                  mapping=structure.exposure_mapping)
    assert called == list(names)
