import dataclasses
import tracemalloc

import numpy as np
import pytest

from clusterbal.core import (
    PATTERN_CAP,
    BernoulliIntervention,
    ClusterSample,
    Dataset,
    DirectEffect,
    Gate,
    IndependentBernoulli,
    JointTable,
    PropensityModel,
    UnknownPropensity,
    enumerate_patterns,
    pattern_index,
    probit_intervention,
    uniform_intervention,
)
from clusterbal.errors import CapExceeded, InvalidInput, PositivityViolation, PropensityUnavailable
from clusterbal.estimators import (
    _block_closed_form,
    _wproj_svd,
    balancing_fit,
    build_design,
    exposure_collapsed_ipw,
    ipw_fit,
    ipw_weights,
    ols_plugin,
    projection_fit,
    weighted_projection_fit,
)
from clusterbal.inference import sandwich_variance
from clusterbal.numerics import project_colspace
from clusterbal.simulate import DGPConfig, dgp_structure, gen_dataset
from clusterbal.structures import (
    AdditiveTypes,
    CoarsenedCount,
    Compose,
    ExposureMapping,
    FromExposureMapping,
    KnnPattern,
    IdentityMapping,
    ConstantMapping,
    NeighborCount,
    NeighborGraph,
    NeighborPattern,
    NoInterference,
    OwnTreatment,
    StratifiedCount,
    TensorWithCovariates,
    build_structure,
    design_matrix,
    target_vector,
)

from conftest import make_cluster, make_dataset
from oracles import (
    DenseOps,
    design_rows,
    expectation_over_assignments,
    loads_form_sigma2,
    mu_f_direct,
    structure_rows,
    served_designs,
    with_covariate,
)


def singleton(a, y, cid=0, x=0.0):
    return ClusterSample(covariates=[[x]], treatments=[a], outcomes=[y], cluster_id=cid)


def half_bernoulli():
    return IndependentBernoulli(lambda c: np.full(c.size, 0.5))


# ---------- IPW ----------


def test_ipw_singleton_example():
    d = Dataset(clusters=(singleton(1, 3.0),))
    fit = ipw_fit(d, Gate(), half_bernoulli())
    assert np.allclose(fit.weights.values, [2.0])
    assert fit.point == pytest.approx(6.0)


def test_ipw_zero_weight_everywhere():
    d = Dataset(clusters=(singleton(1, 3.0, 0), singleton(0, 5.0, 1)))

    class ZeroGate(Gate):
        def support(self, cluster):
            return []

    assert ipw_fit(d, ZeroGate(), half_bernoulli()).point == 0.0


def test_ipw_needs_propensity():
    d = Dataset(clusters=(singleton(1, 3.0),))
    with pytest.raises(PropensityUnavailable):
        ipw_fit(d, Gate(), UnknownPropensity())


@pytest.mark.parametrize(
    "fit",
    [
        # one block: the closed form sums the propensity's support
        lambda d, f, e: weighted_projection_fit(d, NoInterference(), f, e),
        # several blocks and no product form: the per-unit SVD
        lambda d, f, e: weighted_projection_fit(d, AdditiveTypes(4), f, e),
        lambda d, f, e: exposure_collapsed_ipw(d, NeighborPattern(2), f, e),
    ],
    ids=["wproj_one_block", "wproj_several_blocks", "exposure_ipw"],
)
def test_weighted_projection_needs_propensity(rng, fit):
    d = make_dataset(rng, 4, sizes=(2, 4))
    for f in (Gate(), uniform_intervention()):
        with pytest.raises(PropensityUnavailable):
            fit(d, f, UnknownPropensity())


def _linear_outcomes(structure, h):
    def outcome_fn(ci, cluster, a):
        return design_rows(structure, cluster, a) @ h

    return outcome_fn


def test_ipw_exact_unbiasedness_bruteforce(rng):
    """E[T_IPW] over the exhaustive joint assignment law equals mu_f."""
    d = make_dataset(rng, 2, sizes=(2, 3), p=2)
    structure = TensorWithCovariates(StratifiedCount(1))
    h = rng.standard_normal(structure.inner.dim() * 2)
    outcome_fn = _linear_outcomes(structure, h)
    probs = {c.cluster_id: rng.uniform(0.3, 0.7, c.size) for c in d.clusters}
    e = IndependentBernoulli(lambda c: probs[c.cluster_id])
    for f in (Gate(), BernoulliIntervention(lambda c: np.full(c.size, 0.4))):
        got, mass = expectation_over_assignments(
            d, e, outcome_fn, lambda ds: (ipw_fit(ds, f, e).point, True)
        )
        assert mass == pytest.approx(1.0, abs=1e-12)
        assert got == pytest.approx(mu_f_direct(d, f, outcome_fn), abs=1e-10)


# ---------- balancing ----------


def two_singletons(a1, a2, y1=1.0, y2=2.0):
    return Dataset(clusters=(singleton(a1, y1, 0), singleton(a2, y2, 1)))


def test_balancing_two_singletons_difference_in_means():
    d = two_singletons(1, 0, y1=5.0, y2=2.0)
    fit = balancing_fit(d, NoInterference(), Gate())
    assert fit.feasible
    assert np.allclose(fit.weights.values, [2.0, -2.0])
    assert fit.point == pytest.approx(5.0 - 2.0)
    assert np.allclose(fit.imbalance, 0.0, atol=1e-12)


def test_balancing_infeasible_all_treated():
    d = two_singletons(1, 1)
    fit = balancing_fit(d, NoInterference(), Gate())
    assert not fit.feasible
    assert np.abs(fit.imbalance).max() > 0
    # point still reported
    assert np.isfinite(fit.point)


def test_balancing_noiseless_linear_recovery(rng):
    d = make_dataset(rng, 6, sizes=(2, 4), p=2)
    structure = TensorWithCovariates(StratifiedCount(1))
    h = rng.standard_normal(structure.inner.dim() * 2)
    ds = Dataset(
        clusters=tuple(
            ClusterSample(
                covariates=c.covariates,
                treatments=c.treatments,
                outcomes=design_rows(structure, c, c.treatments) @ h,
                cluster_id=c.cluster_id,
            )
            for c in d.clusters
        )
    )
    f = uniform_intervention()
    fit = balancing_fit(ds, structure, f)
    assert fit.feasible
    t = target_vector(structure, ds, f)
    assert fit.point == pytest.approx(t @ h / ds.n, abs=1e-8)


def test_balancing_conditional_unbiasedness_bruteforce(rng):
    """E[T_bal | feasible] = (1/n) E[t^T h | feasible] over exhaustive assignments."""
    d = make_dataset(rng, 2, sizes=(2, 2), p=1)
    structure = NoInterference()
    h = rng.standard_normal(2)
    outcome_fn = _linear_outcomes(structure, h)
    e = half_bernoulli()
    f = Gate()
    t = target_vector(structure, d, f)  # depends on covariates only

    def stat(ds):
        fit = balancing_fit(ds, structure, f)
        return fit.point, fit.feasible

    got, mass = expectation_over_assignments(d, e, outcome_fn, stat)
    assert 0 < mass < 1  # some assignments are infeasible
    assert got == pytest.approx(t @ h / d.n, abs=1e-10)


# ---------- OLS plug-in ----------


def test_ols_equals_balancing_when_feasible(rng):
    for trial in range(20):
        d = make_dataset(rng, 5, sizes=(2, 4), p=2)
        structure = TensorWithCovariates(StratifiedCount(1))
        f = uniform_intervention()
        fit = balancing_fit(d, structure, f)
        if not fit.feasible:
            continue
        plug = ols_plugin(d, structure, f)
        assert abs(fit.point - plug) <= 1e-8 * (1 + abs(fit.point))


def test_ols_zero_outcomes(rng):
    d = make_dataset(rng, 3, sizes=(2, 3), p=2)
    ds = Dataset(
        clusters=tuple(
            ClusterSample(c.covariates, c.treatments, np.zeros(c.size), cluster_id=c.cluster_id)
            for c in d.clusters
        )
    )
    assert ols_plugin(ds, NoInterference(), Gate()) == pytest.approx(0.0, abs=1e-14)


def test_ols_square_invertible_design():
    d = two_singletons(1, 0, y1=3.0, y2=7.0)
    structure = NoInterference()
    f = Gate()
    phi = design_matrix(structure, d)
    t = target_vector(structure, d, f)
    y = d.outcomes
    expected = t @ np.linalg.inv(phi) @ y / d.n
    assert ols_plugin(d, structure, f) == pytest.approx(expected, abs=1e-12)


# ---------- projection ----------


def test_projection_full_row_rank_is_identity(rng):
    # 2 singletons, design [[0,1],[1,0]] has full row rank
    d = two_singletons(1, 0)
    e = half_bernoulli()
    fit = projection_fit(d, NoInterference(), Gate(), e)
    assert np.allclose(fit.weights.values, ipw_weights(d, Gate(), e), atol=1e-12)


def test_projection_intercept_column_gives_mean(rng):
    d = make_dataset(rng, 3, sizes=(2, 3), p=1)

    intercept = FromExposureMapping(ConstantMapping())  # one column of ones
    e = half_bernoulli()
    fit = projection_fit(d, intercept, Gate(), e)
    w_ipw = ipw_weights(d, Gate(), e)
    assert np.allclose(fit.weights.values, w_ipw.mean(), atol=1e-12)


def test_projection_orthogonality_and_contraction(rng):
    for trial in range(20):
        d = make_dataset(rng, 4, sizes=(2, 4), p=2)
        structure = TensorWithCovariates(StratifiedCount(1))
        probs = {c.cluster_id: rng.uniform(0.3, 0.7, c.size) for c in d.clusters}
        e = IndependentBernoulli(lambda c: probs[c.cluster_id])
        fit = projection_fit(d, structure, uniform_intervention(), e)
        w_ipw = ipw_weights(d, uniform_intervention(), e)
        phi = design_matrix(structure, d)
        resid = phi.T @ (fit.weights.values - w_ipw)
        assert np.linalg.norm(resid) <= 1e-8 * (1 + np.linalg.norm(phi.T @ w_ipw))
        assert fit.weights.norm() <= np.linalg.norm(w_ipw) + 1e-10


def test_projection_exact_unbiasedness_bruteforce(rng):
    """E[T_proj] = mu_f under a correctly specified structure."""
    d = make_dataset(rng, 2, sizes=(2, 3), p=1)
    structure = NoInterference()
    h = rng.standard_normal(2)
    outcome_fn = _linear_outcomes(structure, h)
    probs = {c.cluster_id: rng.uniform(0.3, 0.7, c.size) for c in d.clusters}
    e = IndependentBernoulli(lambda c: probs[c.cluster_id])
    f = Gate()
    got, _ = expectation_over_assignments(
        d, e, outcome_fn, lambda ds: (projection_fit(ds, structure, f, e).point, True)
    )
    assert got == pytest.approx(mu_f_direct(d, f, outcome_fn), abs=1e-10)


# ---------- weighted projection ----------


def test_wproj_saturated_basis_reduces_to_ipw(rng):
    d = make_dataset(rng, 2, sizes=(2, 3), p=1)
    probs = {c.cluster_id: rng.uniform(0.3, 0.7, c.size) for c in d.clusters}
    e = IndependentBernoulli(lambda c: probs[c.cluster_id])
    f = uniform_intervention()
    saturated = FromExposureMapping(IdentityMapping())
    fit = weighted_projection_fit(d, saturated, f, e)
    assert np.allclose(fit.weights.values, ipw_weights(d, f, e), atol=1e-10)


def test_wproj_own_treatment_hand_value():
    # M_c=2, e=0.5 i.i.d., GATE, own-treatment classes, observed a_ci=1 -> weight 1
    c = ClusterSample(covariates=[[0.0], [0.0]], treatments=[1, 0], outcomes=[0.0, 0.0], cluster_id=0)
    d = Dataset(clusters=(c,))
    fit = weighted_projection_fit(d, FromExposureMapping(OwnTreatment()), Gate(), half_bernoulli())
    assert fit.weights.values[0] == pytest.approx(1.0, abs=1e-10)
    assert fit.weights.values[1] == pytest.approx(-1.0, abs=1e-10)


def test_wproj_matches_exposure_collapsed_ipw(rng):
    d = make_dataset(rng, 3, sizes=(2, 4), p=2)
    probs = {c.cluster_id: rng.uniform(0.3, 0.7, c.size) for c in d.clusters}
    e = IndependentBernoulli(lambda c: probs[c.cluster_id])
    for mapping in (OwnTreatment(), ConstantMapping()):
        for f in (Gate(), uniform_intervention()):
            w1 = weighted_projection_fit(d, FromExposureMapping(mapping), f, e)
            w2 = exposure_collapsed_ipw(d, mapping, f, e)
            assert np.allclose(w1.weights.values, w2.weights.values, atol=1e-8)


# ---------- exposure-collapsed IPW ----------


def test_exposure_identity_reduces_to_ipw(rng):
    d = make_dataset(rng, 3, sizes=(2, 3), p=1)
    probs = {c.cluster_id: rng.uniform(0.3, 0.7, c.size) for c in d.clusters}
    e = IndependentBernoulli(lambda c: probs[c.cluster_id])
    f = uniform_intervention()
    fit = exposure_collapsed_ipw(d, IdentityMapping(), f, e)
    assert np.allclose(fit.weights.values, ipw_weights(d, f, e), atol=1e-12)


def test_exposure_constant_mapping_gate_is_zero(rng):
    d = make_dataset(rng, 2, sizes=(2, 3), p=1)
    e = half_bernoulli()
    fit = exposure_collapsed_ipw(d, ConstantMapping(), Gate(), e)
    assert np.allclose(fit.weights.values, 0.0, atol=1e-12)
    assert fit.point == 0.0


def test_exposure_own_treatment_hand_value():
    c = ClusterSample(covariates=[[0.0], [0.0]], treatments=[1, 1], outcomes=[0.0, 0.0], cluster_id=0)
    d = Dataset(clusters=(c,))
    fit = exposure_collapsed_ipw(d, OwnTreatment(), Gate(), half_bernoulli())
    # f_class = f(1,0)+f(1,1) = 1, e_class = 0.5, M_c = 2 -> weight 1
    assert np.allclose(fit.weights.values, [1.0, 1.0], atol=1e-12)


def test_exposure_enumeration_matches_analytic(rng):
    """Force the enumeration path and compare with the analytic class probability."""
    d = make_dataset(rng, 2, sizes=(3, 4), p=2)
    probs = {c.cluster_id: rng.uniform(0.3, 0.7, c.size) for c in d.clusters}
    e = IndependentBernoulli(lambda c: probs[c.cluster_id])

    class NoAnalytic(OwnTreatment):
        def class_masses_batch(self, clusters, probs):
            return None

    f = uniform_intervention()
    w_fast = exposure_collapsed_ipw(d, OwnTreatment(), f, e)
    w_slow = exposure_collapsed_ipw(d, NoAnalytic(), f, e)
    assert np.allclose(w_fast.weights.values, w_slow.weights.values, atol=1e-12)


# ---------- block-diagonal design factorization ----------


def _with(d, covariates=None, treatments=None):
    """Copy of a dataset with per-cluster covariates/treatments replaced."""
    return Dataset(
        clusters=tuple(
            ClusterSample(
                covariates=c.covariates if covariates is None else covariates(c),
                treatments=c.treatments if treatments is None else treatments(c),
                outcomes=c.outcomes,
                cluster_id=c.cluster_id,
            )
            for c in d.clusters
        )
    )


def _close(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return np.allclose(a, b, rtol=1e-10, atol=1e-10 * max(np.abs(b).max(initial=0.0), 1.0))


def _design_fits(d, structure, f, e):
    """The balancing and projection fits, the OLS plug-in and the `proj`
    sandwich, and the `bal` one when the balancing fit is feasible."""
    bal, proj = balancing_fit(d, structure, f), projection_fit(d, structure, f, e)
    return (bal, proj, ols_plugin(d, structure, f),
            sandwich_variance(d, structure, f, proj, "proj", propensity=e),
            sandwich_variance(d, structure, f, bal, "bal") if bal.feasible else None)


def _assert_block_path_matches_single_piece(d, structure):
    f, e = uniform_intervention(), half_bernoulli()
    blocks = build_design(structure, d, f)
    width = blocks.factors[0][2].shape[2]
    assert all(np.unique(cols // width).size == 1 for _, cols, *_ in blocks.ops()._pieces)
    bal, proj, ols, var_proj, var_bal = _design_fits(d, structure, f, e)
    with served_designs() as served:
        single = _design_fits(d, structure, f, e)
    assert len(served) == (5 if single[0].feasible else 4)
    for got, want in ((bal, single[0]), (proj, single[1])):
        assert got.feasible == want.feasible
        assert got.design_rank == want.design_rank
        assert _close(got.weights.values, want.weights.values)
        assert _close(got.point, want.point)
    assert _close(bal.imbalance, single[0].imbalance)
    assert _close(ols, single[2])
    assert _close(var_proj.sigma2_hat, single[3].sigma2_hat)
    if single[0].feasible:
        assert _close(var_bal.sigma2_hat, single[4].sigma2_hat)
    return single[0]


@pytest.mark.parametrize(
    "inner", [KnnPattern(2), NoInterference(), StratifiedCount(2)], ids=lambda s: s.label
)
def test_block_path_random_one_hot(rng, inner):
    d = make_dataset(rng, 40, sizes=(3, 5), p=2)
    fit = _assert_block_path_matches_single_piece(d, TensorWithCovariates(inner, columns=[0, 1]))
    assert fit.feasible


def test_block_path_rank_deficient(rng):
    d = _with(make_dataset(rng, 40, sizes=(3, 5), p=2),
              covariates=lambda c: c.covariates[:, [0, 1, 1]])
    structure = TensorWithCovariates(KnnPattern(2), columns=[0, 1, 2])
    fit = _assert_block_path_matches_single_piece(d, structure)
    assert fit.feasible
    assert fit.design_rank == 4 * 2


def test_block_path_empty_effective_treatment(rng):
    d = _with(make_dataset(rng, 30, sizes=(3, 5), p=2),
              treatments=lambda c: np.ones(c.size, dtype=np.int8))
    fit = _assert_block_path_matches_single_piece(d, TensorWithCovariates(KnnPattern(2), columns=[0, 1]))
    assert not fit.feasible


def test_block_path_zero_covariate_rows(rng):
    def zero_first(c):
        x = c.covariates.copy()
        x[0] = 0.0
        return x

    d = _with(make_dataset(rng, 40, sizes=(3, 5), p=2), covariates=zero_first)
    structure = TensorWithCovariates(KnnPattern(2), columns=[0, 1])
    _assert_block_path_matches_single_piece(d, structure)
    pieces = build_design(structure, d, uniform_intervention()).ops()._pieces
    rows = np.concatenate([r for r, *_ in pieces])
    assert rows.size == d.total_units - d.n


def test_block_path_clusters_smaller_than_k_plus_one(rng):
    d = make_dataset(rng, 40, sizes=(1, 4), p=2)
    assert min(c.size for c in d.clusters) < 3
    _assert_block_path_matches_single_piece(d, TensorWithCovariates(KnnPattern(2), columns=[0, 1]))


def test_block_path_without_columns(rng):
    # a spec without `columns` tensors every raw covariate column
    d = make_dataset(rng, 40, sizes=(3, 5), p=3)
    structure = build_structure({"kind": "tensor", "inner": {"kind": "knn_pattern", "k": 2}})
    assert structure.columns is None
    fit = _assert_block_path_matches_single_piece(d, structure)
    assert fit.feasible
    pieces = build_design(structure, d, uniform_intervention()).ops()._pieces
    assert {cols.size for _, cols, *_ in pieces} == {3}


@pytest.mark.parametrize(
    "inner",
    [AdditiveTypes(4), CoarsenedCount(order=1, thresholds=(0.0, 1.0), k=2)],
    ids=lambda s: s.label,
)
def test_non_one_hot_tensors_take_single_piece_path(rng, inner):
    d = make_dataset(rng, 20, sizes=(3, 4), p=2)
    design = build_design(TensorWithCovariates(inner, columns=[0, 1]), d, uniform_intervention())
    assert len(design.ops()._pieces) == 1


# ---------- the factored design of every structure vs the dense SVD ----------


def _shared_row_dataset(rng):
    """Three clusters of each size 1-15 with four covariate columns, so some
    clusters have fewer units than a tensor's four covariate slots; one
    cluster's covariate rows are all zero and another's all equal."""
    clusters = []
    for m in range(1, 16):
        for _ in range(3):
            clusters.append(make_cluster(rng, m, p=4, cluster_id=len(clusters)))
    zero, same = clusters[20], clusters[31]
    clusters[20] = dataclasses.replace(zero, covariates=np.zeros_like(zero.covariates))
    clusters[31] = dataclasses.replace(same, covariates=np.tile(same.covariates[0], (same.size, 1)))
    return Dataset(clusters=tuple(clusters))


def _typed_shared_row_dataset(rng):
    """Three clusters of each size 1-7 whose column 4 holds distinct types
    from 1..7, so each cluster lacks some types, and one cluster of size 3
    that alone carries type 8, on a treated unit. Types 6 and 7 occur in
    the same clusters, so the inner rows' null space holds a direction off
    the coordinate axes. Columns 0-3 are covariates, all zero in one
    cluster and all equal in another."""
    clusters = []
    for m in range(1, 8):
        for b in range(3):
            c = make_cluster(rng, m, p=5, cluster_id=len(clusters))
            pair = [6, 7] if m >= 6 or (m >= 2 and b == 0) else []
            rest = rng.choice(5, size=m - len(pair), replace=False) + 1
            c.covariates[:, 4] = rng.permutation(np.concatenate([rest, pair]))
            clusters.append(c)
    only = make_cluster(rng, 3, p=5, cluster_id=len(clusters), treatments=np.array([1, 0, 1]))
    only.covariates[:, 4] = [8, 2, 5]
    clusters.append(only)
    clusters[10].covariates[:, :4] = 0.0
    clusters[16].covariates[:, :4] = clusters[16].covariates[0, :4]
    return Dataset(clusters=tuple(clusters))


def _linked_typed_dataset(rng):
    """Three clusters under AdditiveTypes(3) on column 4: types 1 and 2 both
    treated, 1 and 3 both untreated, and 2 treated with 3 untreated. Their
    inner rows hold columns {1, 3}, {0, 4} and {3, 4}; only the last row
    joins the first two into one component."""
    clusters = []
    for types, treated in (([1, 2], [1, 1]), ([1, 3], [0, 0]), ([2, 3], [1, 0])):
        c = make_cluster(rng, 2, p=5, cluster_id=len(clusters), treatments=np.array(treated))
        c.covariates[:, 4] = types
        clusters.append(c)
    return Dataset(clusters=tuple(clusters))


def _relative_gap(a, b):
    return np.linalg.norm(np.asarray(a) - b) / max(np.linalg.norm(b), 1e-300)


def _all_treated(d):
    """The dataset with every unit treated: each one-hot slot of an untreated
    unit, and each additive block's untreated column, is empty."""
    return Dataset(clusters=tuple(
        dataclasses.replace(c, treatments=np.ones(c.size, dtype=np.int8)) for c in d.clusters
    ))


FACTORED_DATASETS = {
    "sizes": _shared_row_dataset,
    "treated": lambda rng: _all_treated(_shared_row_dataset(rng)),
    "typed": _typed_shared_row_dataset,
    "linked": _linked_typed_dataset,
}
DGP_COLUMNS = [0, 1, 2, {"cluster_mean": 3}]


def _factored_cases():
    """Bare and tensor one-hot and other indicator structures on the sizes
    and all-treated datasets, and the additive cases on those, the typed
    one and the linked one."""
    # KnnPattern(7)'s 128 slots take two 64-bit words per inner row
    one_hot = [KnnPattern(2), StratifiedCount(2), NoInterference(),
               FromExposureMapping(NeighborCount(2, include_own=True)), KnnPattern(7)]
    others = [CoarsenedCount(order=1, thresholds=(0, 1), k=2),
              CoarsenedCount(order=2, thresholds=(0, 1), k=2),
              Compose(KnnPattern(2), KnnPattern(1)), Compose(AdditiveTypes(3), KnnPattern(2))]
    cases = []
    for inner in one_hot + others:
        for structure in (inner, TensorWithCovariates(inner, columns=DGP_COLUMNS)):
            for data in ("sizes", "treated"):
                cases.append(pytest.param(structure, data, id=f"{structure.label}-{data}"))
    additive = ((AdditiveTypes(15), "sizes", ""), (AdditiveTypes(15), "treated", "treated-"),
                (AdditiveTypes(8, type_source={"column": 4}), "typed", "typed-"),
                (AdditiveTypes(3, type_source={"column": 4}), "linked", "linked-"))
    for inner, data, prefix in additive:
        cases += [
            pytest.param(inner, data, id=f"{prefix}bare"),
            pytest.param(TensorWithCovariates(inner, columns=DGP_COLUMNS), data,
                         id=f"{prefix}dgp-columns"),
            pytest.param(
                TensorWithCovariates(
                    TensorWithCovariates(inner, columns=[0, 1]), columns=[{"cluster_mean": 2}, 3]
                ),
                data,
                id=f"{prefix}nested",
            ),
        ]
    return cases


def _projector(ops, n):
    """U U^T of a DesignOps' kept left singular vectors: (N, N)."""
    p = np.zeros((n, n))
    for rows, _, u, _, _ in ops._pieces:
        p[np.ix_(np.arange(n)[rows], np.arange(n)[rows])] += u @ u.T
    return p


@pytest.mark.parametrize("structure, data", _factored_cases())
def test_factored_design_matches_the_dense_svd(rng, structure, data):
    """The factored decomposition of every structure kind against np.linalg.svd
    of its phi: the same rank, singular values within 1e-13 s_max, U U^T
    within 1e-12, the three solves within 1e-10 relative and `contains`
    both ways; the balancing imbalance times n plus t against phi^T w
    within 1e-12, the `bal` and `proj` sandwich variances within 1e-12 of
    their loads form on the dense SVD (`loads_form_sigma2`), and within
    1e-10 of those of fits on the dense SVD. A one-hot design takes one
    component per slot."""
    d = FACTORED_DATASETS[data](rng)
    f, e = probit_intervention(0.3), half_bernoulli()
    design = build_design(structure, d, f)
    phi, n = design_matrix(structure, d), d.total_units
    factored, dense = design.ops(), DenseOps(phi)
    u, s, _ = np.linalg.svd(phi, full_matrices=False)
    assert factored.rank == dense.rank == int((s > max(phi.shape) * np.finfo(float).eps * s[0]).sum())
    s_f = np.sort(np.concatenate([p[3] for p in factored._pieces]))[::-1]
    assert np.abs(s_f - s[: factored.rank]).max() <= 1e-13 * s[0]
    u = u[:, : factored.rank]
    assert np.abs(_projector(factored, n) - u @ u.T).max() <= 1e-12
    if structure.exposure_mapping is not None:
        width = design.factors[0][2].shape[2]
        assert all(np.unique(cols // width).size == 1 for _, cols, *_ in factored._pieces)

    y = rng.standard_normal(n)
    t = phi.T @ rng.standard_normal(n)
    got, want = factored.min_norm_row_solve(t), dense.min_norm_row_solve(t)
    assert got.feasible() and want.feasible() and got.rank == want.rank
    assert _relative_gap(got.solution, want.solution) <= 1e-10
    assert _relative_gap(factored.ols_coefficients(y), dense.ols_coefficients(y)) <= 1e-10
    assert _relative_gap(factored.project(y), dense.project(y)) <= 1e-10

    knn1 = TensorWithCovariates(KnnPattern(1), columns=[0, 1])
    other = build_design(knn1, d, f)
    assert factored.contains(dense) and dense.contains(factored)
    for ops in (other.ops(), DenseOps(design_matrix(knn1, d))):
        assert factored.contains(ops) == dense.contains(ops)
        assert ops.contains(factored) == ops.contains(dense)

    def fits():
        bal, proj = balancing_fit(d, structure, f), projection_fit(d, structure, f, e)
        return [(fit, kind, sandwich_variance(d, structure, f, fit, kind, propensity=e,
                                              allow_infeasible=True))
                for fit, kind in ((bal, "bal"), (proj, "proj"))]

    factored_fits = fits()
    bal = factored_fits[0][0]
    want = phi.T @ bal.weights.values
    got = bal.imbalance * d.n + bal.target
    assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300)
    for fit, kind, got in factored_fits:
        want = loads_form_sigma2(d, design, fit, ipw_weights(d, f, e) if kind == "proj" else None)
        assert got.sigma2_hat == pytest.approx(want, rel=1e-12, abs=0)
    with served_designs() as served:
        dense_fits = fits()
    assert len(served) == 4
    for (_, _, got), (_, _, want) in zip(factored_fits, dense_fits):
        assert abs(got.sigma2_hat - want.sigma2_hat) <= 1e-10 * abs(want.sigma2_hat)


@pytest.mark.parametrize("inner", [KnnPattern(2), AdditiveTypes(15)], ids=lambda s: s.label)
def test_factored_design_refuses_non_finite_covariates(rng, inner):
    """The factored path reads the covariate rows in place of phi, whose
    entries are theirs or 0, and refuses a non-finite one as the dense SVD
    does."""
    d = with_covariate(_shared_row_dataset(rng), 5, (0, 1), np.nan)
    structure = TensorWithCovariates(inner, columns=DGP_COLUMNS)
    design = build_design(structure, d, uniform_intervention())
    for ops in (design.ops, lambda: DenseOps(design_matrix(structure, d))):
        with pytest.raises(InvalidInput, match="non-finite"):
            ops()


def test_factored_fits_match_the_dense_svd(rng):
    d = _shared_row_dataset(rng)
    structure = TensorWithCovariates(AdditiveTypes(15), columns=DGP_COLUMNS)
    f, e = probit_intervention(0.3), half_bernoulli()
    factored = _design_fits(d, structure, f, e)
    with served_designs() as served:
        dense = _design_fits(d, structure, f, e)
    assert len(served) == (5 if dense[0].feasible else 4)
    for got, want in zip(factored[:2], dense[:2]):
        assert got.feasible == want.feasible
        assert got.design_rank == want.design_rank
        assert _close(got.weights.values, want.weights.values)
    assert _close(factored[2], dense[2])


def test_no_fit_allocates_the_dense_design():
    """build_design, the balancing and projection fits and both sandwich
    variances on knn5 data peak below N x d float64s, the dense design's
    size: none of them forms it."""
    cfg = DGPConfig(n=200, interference="knn5", seed=3)
    d, _, e, f = gen_dataset(cfg, 0, truth=False)
    structure = dgp_structure(cfg)
    dense_bytes = d.total_units * structure.dim(d.clusters[0]) * 8
    tracemalloc.start()
    try:
        bal = balancing_fit(d, structure, f)
        proj = projection_fit(d, structure, f, e)
        sandwich_variance(d, structure, f, bal, "bal")
        sandwich_variance(d, structure, f, proj, "proj", propensity=e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes


# ---------- weighted projection: exposure-class closed form vs per-unit SVD ----------


def _probs_in(low, high):
    """Independent-Bernoulli propensity with per-cluster probabilities fixed on first use."""
    rng = np.random.default_rng(7)
    table = {}

    def probs(c):
        if c.cluster_id not in table:
            table[c.cluster_id] = rng.uniform(low, high, c.size)
        return table[c.cluster_id]

    return IndependentBernoulli(probs)


def _assert_closed_form_matches_svd(d, structure, f, e):
    got = _block_closed_form(d, structure, f, e)
    assert got is not None
    assert np.array_equal(weighted_projection_fit(d, structure, f, e).weights.values, got)
    want = _wproj_svd(d, structure, f, e)
    scale = max(np.abs(want).max(initial=0.0), 1.0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)
    return got


ONE_HOT = [
    TensorWithCovariates(KnnPattern(2), columns=[0, 1]),
    TensorWithCovariates(KnnPattern(3)),
    StratifiedCount(2),
    StratifiedCount(2, include_own=True),
    TensorWithCovariates(StratifiedCount(1, include_own=True), columns=[1]),
    NoInterference(),
    FromExposureMapping(NeighborCount(2)),
    FromExposureMapping(NeighborPattern(1)),
]


def _zero_rows(c):
    x = c.covariates.copy()
    x[:: 2] = 0.0  # units 0, 2, ...
    return x


# structures whose rows are sums of several indicator blocks over disjoint units
BLOCKS = [
    AdditiveTypes(5),
    TensorWithCovariates(AdditiveTypes(5), columns=[0, 1]),
    TensorWithCovariates(AdditiveTypes(5), columns=[0, {"cluster_mean": 1}]),
    TensorWithCovariates(TensorWithCovariates(AdditiveTypes(5), columns=[1]), columns=[0]),
    CoarsenedCount(order=1, thresholds=(0.0, 1.0), k=2),
    CoarsenedCount(order=2, thresholds=(0.0, 1.0), k=2),
    TensorWithCovariates(CoarsenedCount(order=2, thresholds=(1.0, 2.0), k=3), columns=[1]),
]
WEIGHTS = {
    "gate": Gate(),
    "uniform": uniform_intervention(),
    "probit": probit_intervention(0.5),
    "direct_effect": DirectEffect(uniform_intervention()),
}


@pytest.mark.parametrize("structure", ONE_HOT + BLOCKS, ids=lambda s: s.label)
@pytest.mark.parametrize("weight", list(WEIGHTS.values()), ids=list(WEIGHTS))
def test_wproj_closed_form_matches_svd(rng, structure, weight):
    d = make_dataset(rng, 6, sizes=(1, 5), p=2)
    assert min(c.size for c in d.clusters) < 3  # clusters smaller than k+1
    for data in (d, _with(d, covariates=_zero_rows)):
        _assert_closed_form_matches_svd(data, structure, weight, _probs_in(0.2, 0.8))


def _enumerated_class_ipw(d, mapping, f, e):
    """f_class / (M_c e_class) from sums over all 2^m pattern masses, unit by unit."""
    out = []
    for c in d.clusters:
        bits = enumerate_patterns(c.size)
        e_all, f_all = e.masses(bits, c), f.masses(bits, c)
        obs = pattern_index(c.treatments)
        classes = mapping.classes_batch(c.group, bits)
        for i in range(c.size):
            same = classes[:, i] == classes[obs, i]
            out.append(f_all[same].sum() / (c.size * e_all[same].sum()))
    return np.array(out)


@pytest.mark.parametrize("structure", ONE_HOT[:4], ids=lambda s: s.label)
def test_wproj_closed_form_extreme_propensities(rng, structure):
    d = make_dataset(rng, 6, sizes=(2, 4), p=2)
    table = {c.cluster_id: np.where(rng.random(c.size) < 0.5, 1e-6, 1 - 1e-6) for c in d.clusters}
    e = IndependentBernoulli(lambda c: table[c.cluster_id])
    for f in (uniform_intervention(), Gate()):
        got = weighted_projection_fit(d, structure, f, e).weights.values
        want = _enumerated_class_ipw(d, structure.exposure_mapping, f, e)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        # the SVD's own error grows with sqrt(largest / smallest class mass), here up
        # to 1e9; 4e-11 relative was seen on tensor[knn_pattern] k=3
        svd = _wproj_svd(d, structure, f, e)
        np.testing.assert_allclose(got, svd, rtol=1e-9, atol=1e-12 * np.abs(svd).max())


def _block_columns(structure, c, i):
    """Unit i's all-pattern rows of the base structure under any covariate
    tensors, split into its indicator blocks: AdditiveTypes' two columns per
    present type, CoarsenedCount's own pair and three bins per level."""
    while isinstance(structure, TensorWithCovariates):
        structure = structure.inner
    rows = structure.all_pattern_rows(c, i)
    widths = [2] * structure.s if isinstance(structure, AdditiveTypes) else [2] + [3] * structure.order
    blocks = np.split(rows, np.cumsum(widths)[:-1], axis=1)
    return [b for b in blocks if b.any()]


def _enumerated_block_anova(d, structure, f, e):
    """(F0 + sum_b [F_b(k_b) / e_b(k_b) - F0]) / M_c from sums over all 2^m
    pattern masses, unit by unit, with the rank cut: a class with sqrt(e_b)
    <= max(2^m, d) * eps * sqrt(largest class mass of block b) gives F_b / e_b = 0."""
    out = []
    for c in d.clusters:
        bits = enumerate_patterns(c.size)
        e_all, f_all = e.masses(bits, c), f.masses(bits, c)
        obs = pattern_index(c.treatments)
        rcond = max(2**c.size, structure.dim(c)) * np.finfo(np.float64).eps
        for i in range(c.size):
            total = f_all.sum()
            for block in _block_columns(structure, c, i):
                cls = block.argmax(axis=1)
                e_cls = np.bincount(cls, weights=e_all, minlength=block.shape[1])
                f_cls = np.bincount(cls, weights=f_all, minlength=block.shape[1])
                k = cls[obs]
                cut = np.sqrt(e_cls[k]) <= rcond * np.sqrt(e_cls.max())
                total += (0.0 if cut else f_cls[k] / e_cls[k]) - f_all.sum()
            out.append(total / c.size)
    return np.array(out)


def _svd_tolerance(d, e, got):
    """Per-unit bound on `_wproj_svd`'s error: 1e3 * eps * sqrt(largest /
    smallest pattern mass of the unit's cluster) * max |w|. At most 172 *
    eps * (...) was seen on AdditiveTypes over 40 datasets of cluster sizes
    2-4 and propensities 1e-6 from 0 or 1, where the closed form matched a
    60-digit projection to 1e-16."""
    out = []
    for c in d.clusters:
        masses = e.masses(enumerate_patterns(c.size), c)
        spread = np.sqrt(masses.max() / masses.min())
        out += [1e3 * np.finfo(np.float64).eps * spread * np.abs(got).max()] * c.size
    return np.array(out)


BLOCKS_EXTREME = [
    AdditiveTypes(4),
    TensorWithCovariates(AdditiveTypes(4), columns=[0, 1]),
    CoarsenedCount(order=1, thresholds=(0.0, 1.0), k=2),
    CoarsenedCount(order=2, thresholds=(0.0, 1.0), k=1),
]


@pytest.mark.parametrize("structure", BLOCKS_EXTREME, ids=lambda s: s.label)
def test_wproj_block_closed_form_extreme_propensities(rng, structure):
    d = make_dataset(rng, 6, sizes=(2, 4), p=2)
    table = {c.cluster_id: np.where(rng.random(c.size) < 0.5, 1e-6, 1 - 1e-6) for c in d.clusters}
    e = IndependentBernoulli(lambda c: table[c.cluster_id])
    for f in (uniform_intervention(), Gate(), probit_intervention(0.3)):
        got = _block_closed_form(d, structure, f, e)
        want = _enumerated_block_anova(d, structure, f, e)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        svd = _wproj_svd(d, structure, f, e)
        assert (np.abs(got - svd) <= _svd_tolerance(d, e, got)).all()


@pytest.mark.parametrize("structure", BLOCKS_EXTREME, ids=lambda s: s.label)
def test_wproj_block_closed_form_rank_cut(structure):
    """Unit 0 of each cluster is treated with probability 1e-32: its own-bit
    class of mass 1e-32 falls under the rank cut, and contributes F_b / e_b = 0.

    In cluster 0 that unit is treated, so the cut class is observed; the SVD
    is not determined there (its entry divides by sqrt(e(A_c)) <= 1e-16). In
    cluster 1 it is untreated, and the weight puts mass 1e-32 on the class
    too, so the cut changes nothing and the SVD agrees.
    """
    x = np.array([[0.0, 1.0], [1.0, 0.5], [2.0, -1.0], [0.5, 2.0]])
    d = Dataset(clusters=(
        ClusterSample(covariates=x, treatments=[1, 1, 0, 1], outcomes=np.zeros(4), cluster_id=0),
        ClusterSample(covariates=x, treatments=[0, 1, 0, 1], outcomes=np.zeros(4), cluster_id=1),
    ))
    probs = np.array([1e-32, 0.3, 0.6, 0.45])
    e = IndependentBernoulli(lambda c: probs)
    f = BernoulliIntervention(lambda c: np.array([1e-32, 0.5, 0.5, 0.5]))
    got = weighted_projection_fit(d, structure, f, e).weights.values
    want = _enumerated_block_anova(d, structure, f, e)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    assert np.isfinite(got).all()
    svd = _wproj_svd(d, structure, f, e)
    np.testing.assert_allclose(got[4:], svd[4:], rtol=1e-9, atol=0)


def test_wproj_closed_form_zero_covariate_rows(rng):
    def zero_first(c):
        x = c.covariates.copy()
        x[0] = 0.0
        return x

    d = _with(make_dataset(rng, 6, sizes=(2, 4), p=2), covariates=zero_first)
    structure = TensorWithCovariates(KnnPattern(2), columns=[0, 1])
    w = _assert_closed_form_matches_svd(d, structure, uniform_intervention(), half_bernoulli())
    starts = d.starts[:-1]
    assert (w[starts] == 0.0).all()
    assert (np.delete(w, starts) != 0.0).all()


def test_wproj_closed_form_rank_cut():
    # the treated unit's class mass 1e-32 falls under the SVD's rank cut (sqrt(e) <= 4 eps);
    # the 1e-20 class passes it
    d = Dataset(clusters=(singleton(1, 1.0, 0), singleton(1, 1.0, 1)))
    table = {0: np.array([1e-32]), 1: np.array([1e-20])}
    e = IndependentBernoulli(lambda c: table[c.cluster_id])
    w = _assert_closed_form_matches_svd(d, NoInterference(), uniform_intervention(), e)
    assert w[0] == 0.0
    assert w[1] == pytest.approx(0.5 / 1e-20)


def test_wproj_closed_form_exposure_identity_is_ipw(rng):
    d = make_dataset(rng, 4, sizes=(1, 4), p=1)
    e, f = _probs_in(0.3, 0.7), uniform_intervention()
    w = _assert_closed_form_matches_svd(d, FromExposureMapping(IdentityMapping()), f, e)
    assert np.allclose(w, ipw_weights(d, f, e), rtol=1e-12, atol=0)


def test_wproj_closed_form_joint_table_enumerates(rng):
    d = make_dataset(rng, 4, sizes=(1, 4), p=2)
    tables = {}
    for c in d.clusters:
        masses = rng.uniform(0.5, 1.5, 2**c.size)
        masses /= masses.sum()
        tables[c.cluster_id] = {tuple(a): p for a, p in zip(enumerate_patterns(c.size), masses)}
    e = JointTable(tables)
    assert e.probs_batch(d.clusters[0].group) is None  # no product form: class masses by enumeration
    for structure in (ONE_HOT[0], ONE_HOT[3], ONE_HOT[5]):
        for f in (Gate(), uniform_intervention()):
            w = _assert_closed_form_matches_svd(d, structure, f, e)
            mapping = structure.exposure_mapping
            assert np.allclose(w, exposure_collapsed_ipw(d, mapping, f, e).weights.values,
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "structure",
    [
        TensorWithCovariates(AdditiveTypes(4), columns=[0, 1]),
        CoarsenedCount(order=1, thresholds=(0.0, 1.0), k=2),
        Compose(AdditiveTypes(2), KnnPattern(2)),
    ],
    ids=lambda s: s.label,
)
def test_wproj_non_one_hot_takes_svd_path(rng, monkeypatch, structure):
    """Several indicator blocks, a Compose's with an additive outer among them,
    take the per-unit SVD only under a propensity without product form: the
    same masses as a JointTable, under which the blocks need not be
    independent."""
    from clusterbal import estimators

    assert structure.exposure_mapping is None
    calls = []
    monkeypatch.setattr(estimators, "_wproj_svd", lambda *a: calls.append(a) or _wproj_svd(*a))
    d = make_dataset(rng, 3, sizes=(2, 4), p=2)
    f, e = uniform_intervention(), _probs_in(0.2, 0.8)
    product = weighted_projection_fit(d, structure, f, e).weights.values
    assert len(calls) == 0
    joint = JointTable({
        c.cluster_id: dict(zip(map(tuple, enumerate_patterns(c.size)),
                               e.masses(enumerate_patterns(c.size), c)))
        for c in d.clusters
    })
    got = weighted_projection_fit(d, structure, f, joint).weights.values
    assert len(calls) == 1
    np.testing.assert_allclose(got, product, rtol=1e-12, atol=1e-12)


COMPOSED = [
    Compose(KnnPattern(2), NoInterference()),
    Compose(KnnPattern(2), KnnPattern(3)),
    Compose(AdditiveTypes(2), KnnPattern(2)),
    Compose(AdditiveTypes(2), NoInterference()),
    Compose(KnnPattern(1), Compose(KnnPattern(2), KnnPattern(3))),
    TensorWithCovariates(Compose(KnnPattern(2), KnnPattern(2)), columns=[0, 1]),
    TensorWithCovariates(Compose(AdditiveTypes(3), KnnPattern(1)), columns=[1]),
]


@pytest.mark.parametrize("structure", COMPOSED, ids=lambda s: s.label)
@pytest.mark.parametrize("weight", [Gate(), uniform_intervention()], ids=["gate", "uniform"])
def test_wproj_compose_takes_closed_form(rng, monkeypatch, structure, weight):
    """A Compose's rows are its outer's blocks over lists of distinct units,
    so under a product-form propensity its weighted projection is the block
    closed form, equal to the per-unit SVD, and never calls `_wproj_svd`."""
    from clusterbal import estimators

    calls = []
    monkeypatch.setattr(estimators, "_wproj_svd", lambda *a: calls.append(a) or _wproj_svd(*a))
    d = make_dataset(rng, 6, sizes=(1, 6), p=2)
    _assert_closed_form_matches_svd(d, structure, weight, _probs_in(0.2, 0.8))
    assert calls == []


def test_wproj_compose_over_empty_lists_is_zero(rng):
    """A size-1 cluster's k-NN list is empty, so an additive outer has no
    block there: the rows are zero, their span is {0}, and the weight is 0,
    as the SVD's is."""
    sizes = (1, 4, 1, 4, 4)
    d = Dataset(clusters=tuple(make_cluster(rng, m, cluster_id=ci) for ci, m in enumerate(sizes)))
    structure = Compose(AdditiveTypes(2), KnnPattern(2))
    assert structure.indicator_blocks(d.clusters[0].group) == []
    w = _assert_closed_form_matches_svd(d, structure, uniform_intervention(), _probs_in(0.2, 0.8))
    single = np.repeat(np.array(sizes) == 1, sizes)
    assert (w[single] == 0.0).all()
    assert (w[~single] != 0.0).all()


def test_wproj_given_graph_takes_closed_form(rng):
    """A given graph lists distinct other units (`NeighborGraph.neighbors`
    refuses anything else), so CoarsenedCount's blocks read disjoint units
    and its weights take the closed form, equal to the SVD's."""
    d = make_dataset(rng, 3, sizes=(3, 3), p=2)
    lists = {c.cluster_id: np.array([[1], [2], [0]]) for c in d.clusters}
    for order in (1, 2):
        structure = CoarsenedCount(order=order, thresholds=(0.0, 1.0), graph=NeighborGraph(1, lists))
        _assert_closed_form_matches_svd(d, structure, uniform_intervention(), half_bernoulli())


def test_wproj_closed_form_above_pattern_cap(rng):
    m = PATTERN_CAP + 1
    d = Dataset(clusters=(make_cluster(rng, m, cluster_id=0), make_cluster(rng, 3, cluster_id=1)))
    structure = TensorWithCovariates(KnnPattern(2), columns=[0, 1])
    e, f = _probs_in(0.3, 0.7), probit_intervention(0.2)
    w = weighted_projection_fit(d, structure, f, e).weights.values
    expo = exposure_collapsed_ipw(d, structure.exposure_mapping, f, e).weights.values
    assert np.array_equal(w, expo)
    with pytest.raises(CapExceeded):
        _wproj_svd(d, structure, f, e)


class _OwnTreatmentByEnumeration(OwnTreatment):
    def class_masses_batch(self, clusters, probs):
        return None


# every 2^m enumeration path, called on a cluster of PATTERN_CAP + 1 units
_BEYOND_CAP = {
    "mapping_expected_rows": lambda c: FromExposureMapping(
        _OwnTreatmentByEnumeration()).expected_rows(c, np.full(c.size, 0.5)),
    "weight_support_fallback": lambda c: uniform_intervention().support(c),
    "direct_effect_over_bernoulli": lambda c: DirectEffect(uniform_intervention()).support(c),
    "wproj_svd": lambda c: _wproj_svd(
        Dataset(clusters=(c,)), NoInterference(), uniform_intervention(), half_bernoulli()),
    "knn_pattern": lambda c: KnnPattern(c.size),
}


@pytest.mark.parametrize("path", list(_BEYOND_CAP))
def test_pattern_enumeration_raises_beyond_cap(rng, path):
    c = make_cluster(rng, PATTERN_CAP + 1)
    with pytest.raises(CapExceeded) as err:
        _BEYOND_CAP[path](c)
    what = "k-NN k" if path == "knn_pattern" else "cluster size"
    assert err.value.m == PATTERN_CAP + 1
    assert f"{what} {PATTERN_CAP + 1} exceeds the pattern enumeration cap {PATTERN_CAP};" in str(
        err.value
    )


def test_wproj_closed_form_positivity():
    class NeverTreatFirst(PropensityModel):
        def masses(self, bits, cluster):
            return np.where(bits[:, 0] == 1, 0.0, 0.5)

    c = ClusterSample(covariates=[[1.0], [2.0]], treatments=[1, 0], outcomes=[0.0, 0.0], cluster_id=0)
    d = Dataset(clusters=(c,))
    for fit in (
        lambda: weighted_projection_fit(d, NoInterference(), uniform_intervention(), NeverTreatFirst()),
        lambda: exposure_collapsed_ipw(d, OwnTreatment(), uniform_intervention(), NeverTreatFirst()),
        lambda: _wproj_svd(d, NoInterference(), uniform_intervention(), NeverTreatFirst()),
    ):
        with pytest.raises(PositivityViolation):
            fit()


def test_exposure_positivity_names_the_first_cluster_in_dataset_order():
    """Size groups run smallest first; the error still names the dataset's first offender."""

    def cluster(cid, x, a):
        return ClusterSample(covariates=[[v] for v in x], treatments=a,
                             outcomes=[0.0] * len(a), cluster_id=cid)

    # enumeration: units marked here have no mass on being treated
    never = {"a": (), "b": (2,), "c": (0,)}

    class NeverTreat(PropensityModel):
        def masses(self, bits, cluster):
            return np.where(bits[:, list(never[cluster.cluster_id])].any(axis=1), 0.0, 0.5)

    d = Dataset(clusters=(cluster("a", [0, 1], [1, 1]), cluster("b", [0, 1, 2], [0, 0, 1]),
                          cluster("c", [0, 1], [1, 0])))
    with pytest.raises(PositivityViolation, match="unit 2 of cluster 'b'"):
        exposure_collapsed_ipw(d, OwnTreatment(), uniform_intervention(), NeverTreat())

    # product form: two treated neighbors of mass 1e-200 each underflow to class mass 0
    tiny = 1e-200
    probs = {"a": [0.5] * 3, "b": [0.5, 0.5, tiny, tiny, tiny], "c": [tiny] * 3}
    e = IndependentBernoulli(lambda c: np.array(probs[c.cluster_id]))
    d = Dataset(clusters=(cluster("a", [0, 1, 2], [1, 1, 1]),
                          cluster("b", [-10, -9, 0, 1, 2], [1, 0, 1, 1, 1]),
                          cluster("c", [0, 1, 2], [1, 1, 1])))
    with pytest.raises(PositivityViolation, match="unit 2 of cluster 'b'"):
        exposure_collapsed_ipw(d, NeighborPattern(2), uniform_intervention(), e)


# ---------- weighted projection: one SVD per distinct unit matrix ----------


def _wproj_per_unit(d, structure, f, e):
    """Weighted-projection weights by one SVD of sqrt(e) * all_pattern_rows per unit."""
    out = []
    for c in d.clusters:
        bits = enumerate_patterns(c.size)
        e_all = e.masses(bits, c)
        w_tilde = f.masses(bits, c) / (c.size * e_all)
        sqrt_e = np.sqrt(e_all)
        obs = pattern_index(c.treatments)
        for i in range(c.size):
            lam = structure.all_pattern_rows(c, i) * sqrt_e[:, None]
            out.append(project_colspace(lam, sqrt_e * w_tilde)[obs] / sqrt_e[obs])
    return np.array(out)


MULTI_BLOCK = {
    "additive": AdditiveTypes(5),
    "coarsened2": CoarsenedCount(order=2, thresholds=(0.0, 1.0), k=2),
    "compose_additive_knn": Compose(AdditiveTypes(3), KnnPattern(2)),
}
TENSORS = {  # a covariate tensor over a structure, and whether `_zero_rows` zeroes its rows
    "bare": (lambda s: s, False),
    "tensor": (lambda s: TensorWithCovariates(s, columns=[0, 1]), True),
    "cluster_mean": (lambda s: TensorWithCovariates(s, columns=[0, {"cluster_mean": 1}]), False),
    "tensor_of_tensor": (
        lambda s: TensorWithCovariates(TensorWithCovariates(s, columns=[1]), columns=[0]), True
    ),
}


@pytest.mark.parametrize("case", list(MULTI_BLOCK))
@pytest.mark.parametrize("wrap", list(TENSORS))
def test_wproj_svd_one_svd_per_distinct_unit_matrix(rng, monkeypatch, case, wrap):
    """Several blocks under a joint table take `_wproj_svd`: one SVD per
    distinct unit matrix of inner rows (one per cluster for `AdditiveTypes`,
    whose units all have the same rows), equal to the per-unit SVD of the
    full rows, with weight 0 where a unit's covariate row is zero."""
    from clusterbal import estimators

    tensor, zeroed = TENSORS[wrap]
    base = MULTI_BLOCK[case]
    structure = tensor(base)
    d = _with(make_dataset(rng, 8, sizes=(1, 5), p=2), covariates=_zero_rows)
    tables = {}
    for c in d.clusters:
        p = rng.uniform(0.5, 1.5, 2**c.size)
        tables[c.cluster_id] = dict(zip(map(tuple, enumerate_patterns(c.size).tolist()), p / p.sum()))
    e, f = JointTable(tables), probit_intervention(0.4)
    want = _wproj_per_unit(d, structure, f, e)
    calls = []
    monkeypatch.setattr(
        estimators, "project_colspace", lambda *a: calls.append(a) or project_colspace(*a)
    )
    got = _wproj_svd(d, structure, f, e)
    distinct = sum(
        np.unique(np.stack([base.all_pattern_rows(c, i) for i in range(c.size)]), axis=0).shape[0]
        for c in d.clusters
    )
    assert len(calls) == distinct
    if case == "additive":
        assert distinct == d.n
    scale = max(np.abs(want).max(), 1.0)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * scale)
    assert (got[want == 0.0] == 0.0).all()
    if zeroed:
        assert (got[d.starts[:-1]] == 0.0).all()


# ---------- weighted projection: each block's classes once per cluster ----------


class _SpyBlock(ExposureMapping):
    """A block that records the pattern rows of each `classes_batch` call."""

    def __init__(self, block, calls):
        self.block, self.calls, self.fixed_dim = block, calls, block.fixed_dim

    def classes_batch(self, clusters, patterns):
        self.calls.append(patterns.shape[0])
        return self.block.classes_batch(clusters, patterns)

    def class_masses_batch(self, clusters, probs):
        return self.block.class_masses_batch(clusters, probs)


class _SpiedCoarsenedCount(CoarsenedCount):
    def __init__(self, calls, **kwargs):
        super().__init__(**kwargs)
        self.calls = calls

    def indicator_blocks(self, clusters):
        return [_SpyBlock(b, self.calls) for b in super().indicator_blocks(clusters)]


def test_wproj_svd_takes_each_blocks_classes_once_per_cluster(rng):
    """Under a JointTable several blocks take `_wproj_svd`; its inner rows
    are read from each block's classes at the 2^m patterns, taken once per
    cluster and not once per unit, and the weights are the per-unit
    projections of rows built from the definitions."""
    d = make_dataset(rng, 4, sizes=(4, 6), p=2)
    tables = {}
    for c in d.clusters:
        probs = rng.random(2**c.size) + 0.1
        tables[c.cluster_id] = dict(zip(map(tuple, enumerate_patterns(c.size)), probs / probs.sum()))
    e, f = JointTable(tables), uniform_intervention()
    calls = []
    structure = _SpiedCoarsenedCount(calls, order=2, thresholds=(0.0, 1.0), k=2)
    got = weighted_projection_fit(d, structure, f, e).weights.values
    assert calls == [2**c.size for c in d.clusters for _ in range(3)]
    want = []
    for c in d.clusters:
        bits = enumerate_patterns(c.size)
        rows = np.stack([structure_rows(structure, c, a) for a in bits])  # (2^m, m, d)
        e_all, f_all = e.masses(bits, c), f.masses(bits, c)
        sqrt_e, obs = np.sqrt(e_all), pattern_index(c.treatments)
        for i in range(c.size):
            w = project_colspace(rows[:, i] * sqrt_e[:, None], sqrt_e * f_all / (c.size * e_all))
            want.append(w[obs] / sqrt_e[obs])
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
