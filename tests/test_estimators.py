import dataclasses

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
from clusterbal.errors import CapExceeded, PositivityViolation, PropensityUnavailable
from clusterbal.estimators import (
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
from clusterbal.structures import (
    AdditiveTypes,
    CoarsenedCount,
    Compose,
    FromExposureMapping,
    KnnPattern,
    IdentityMapping,
    ConstantMapping,
    NeighborCount,
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
from oracles import expectation_over_assignments, mu_f_direct


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
        def weight(self, pattern, cluster):
            return 0.0

    assert ipw_fit(d, ZeroGate(), half_bernoulli()).point == 0.0


def test_ipw_needs_propensity():
    d = Dataset(clusters=(singleton(1, 3.0),))
    with pytest.raises(PropensityUnavailable):
        ipw_fit(d, Gate(), UnknownPropensity())


def _linear_outcomes(structure, h):
    def outcome_fn(ci, cluster, a):
        return structure.rows_at(cluster, a) @ h

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
                outcomes=structure.rows_at(c, c.treatments) @ h,
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
    y = d.stacked_outcomes()
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

    class Intercept(NoInterference):
        def dim(self, cluster=None, i=None):
            return 1

        def rows_at(self, cluster, pattern):
            return np.ones((cluster.size, 1))

    e = half_bernoulli()
    fit = projection_fit(d, Intercept(), Gate(), e)
    w_ipw = ipw_weights(d, Gate(), e)
    assert np.allclose(fit.weights.values, w_ipw.mean(), atol=1e-12)


def test_projection_orthogonality_and_contraction(rng):
    for trial in range(20):
        d = make_dataset(rng, 4, sizes=(2, 4), p=2)
        structure = TensorWithCovariates(StratifiedCount(1))
        probs = {c.cluster_id: rng.uniform(0.3, 0.7, c.size) for c in d.clusters}
        e = IndependentBernoulli(lambda c: probs[c.cluster_id])
        fit = projection_fit(d, structure, uniform_intervention(), e)
        w_ipw = fit._context["w_ipw"]
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


def _assert_block_path_matches_single_piece(d, structure):
    f, e = uniform_intervention(), half_bernoulli()
    blocks = build_design(structure, d, f)
    assert blocks.pieces is not None
    single = dataclasses.replace(blocks, pieces=None, _cache={})
    bal = [balancing_fit(d, structure, f, design=s) for s in (blocks, single)]
    proj = [projection_fit(d, structure, f, e, design=s) for s in (blocks, single)]
    for got, want in (bal, proj):
        assert got.feasible == want.feasible
        assert got.design_rank == want.design_rank
        assert _close(got.weights.values, want.weights.values)
        assert _close(got.point, want.point)
    assert _close(bal[0].imbalance, bal[1].imbalance)
    ols = [ols_plugin(d, structure, f, design=s) for s in (blocks, single)]
    assert _close(ols[0], ols[1])
    var = [sandwich_variance(d, structure, f, fit, "proj", propensity=e) for fit in proj]
    assert _close(var[0].sigma2_hat, var[1].sigma2_hat)
    if bal[1].feasible:
        var = [sandwich_variance(d, structure, f, fit, "bal") for fit in bal]
        assert _close(var[0].sigma2_hat, var[1].sigma2_hat)
    return bal[1]


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
    rows = np.concatenate([r for r, _ in build_design(structure, d, uniform_intervention()).pieces])
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
    pieces = build_design(structure, d, uniform_intervention()).pieces
    assert {cols.stop - cols.start for _, cols in pieces} == {3}


@pytest.mark.parametrize(
    "inner",
    [AdditiveTypes(4), CoarsenedCount(order=1, thresholds=(0.0, 1.0), k=2)],
    ids=lambda s: s.label,
)
def test_non_one_hot_tensors_take_single_piece_path(rng, inner):
    d = make_dataset(rng, 20, sizes=(3, 4), p=2)
    design = build_design(TensorWithCovariates(inner, columns=[0, 1]), d, uniform_intervention())
    assert design.pieces is None


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
    assert structure.exposure_mapping is not None
    got = weighted_projection_fit(d, structure, f, e).weights.values
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
WEIGHTS = {
    "gate": Gate(),
    "uniform": uniform_intervention(),
    "probit": probit_intervention(0.5),
    "direct_effect": DirectEffect(uniform_intervention()),
}


@pytest.mark.parametrize("structure", ONE_HOT, ids=lambda s: s.label)
@pytest.mark.parametrize("weight", list(WEIGHTS.values()), ids=list(WEIGHTS))
def test_wproj_closed_form_matches_svd(rng, structure, weight):
    d = make_dataset(rng, 6, sizes=(1, 5), p=2)
    assert min(c.size for c in d.clusters) < 3  # clusters smaller than k+1
    _assert_closed_form_matches_svd(d, structure, weight, _probs_in(0.2, 0.8))


def _enumerated_class_ipw(d, mapping, f, e):
    """f_class / (M_c e_class) from sums over all 2^m pattern masses, unit by unit."""
    out = []
    for c in d.clusters:
        bits = enumerate_patterns(c.size)
        e_all, f_all = e.probabilities_for(bits, c), f.weights_for(bits, c)
        obs = pattern_index(c.treatments)
        classes = mapping.classes_batch([c], bits)
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


def test_wproj_closed_form_zero_covariate_rows(rng):
    def zero_first(c):
        x = c.covariates.copy()
        x[0] = 0.0
        return x

    d = _with(make_dataset(rng, 6, sizes=(2, 4), p=2), covariates=zero_first)
    structure = TensorWithCovariates(KnnPattern(2), columns=[0, 1])
    w = _assert_closed_form_matches_svd(d, structure, uniform_intervention(), half_bernoulli())
    starts = [start for start, _ in d.cluster_slices()]
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
    assert not hasattr(e, "unit_probs")  # no product form: class masses by enumeration
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
    from clusterbal import estimators

    assert structure.exposure_mapping is None
    calls = []
    monkeypatch.setattr(estimators, "_wproj_svd", lambda *a: calls.append(a) or _wproj_svd(*a))
    d = make_dataset(rng, 3, sizes=(2, 4), p=2)
    weighted_projection_fit(d, structure, uniform_intervention(), half_bernoulli())
    assert len(calls) == 1


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
        def probability(self, pattern, cluster):
            return 0.0 if pattern[0] == 1 else 0.5

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
        def probability(self, pattern, cluster):
            return 0.0 if any(pattern[i] for i in never[cluster.cluster_id]) else 0.5

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


# ---------- weighted projection: one SVD per cluster for rows shared by every unit ----------


def _wproj_per_unit(d, structure, f, e):
    """Weighted-projection weights by one SVD of sqrt(e) * all_pattern_rows per unit."""
    out = []
    for c in d.clusters:
        bits = enumerate_patterns(c.size)
        e_all = e.probabilities_for(bits, c)
        w_tilde = f.weights_for(bits, c) / (c.size * e_all)
        sqrt_e = np.sqrt(e_all)
        obs = pattern_index(c.treatments)
        for i in range(c.size):
            lam = structure.all_pattern_rows(c, i) * sqrt_e[:, None]
            out.append(project_colspace(lam, sqrt_e * w_tilde)[obs] / sqrt_e[obs])
    return np.array(out)


def _zero_rows(c):
    x = c.covariates.copy()
    x[:: 2] = 0.0  # units 0, 2, ...
    return x


SHARED_ROWS = {  # structure, and whether zeroing a unit's covariates zeroes its rows
    "additive": (AdditiveTypes(5), False),
    "tensor": (TensorWithCovariates(AdditiveTypes(5), columns=[0, 1]), True),
    "tensor_cluster_mean": (
        TensorWithCovariates(AdditiveTypes(5), columns=[0, {"cluster_mean": 1}]), False
    ),
    "tensor_of_tensor": (
        TensorWithCovariates(TensorWithCovariates(AdditiveTypes(5), columns=[1]), columns=[0]),
        True,
    ),
}


@pytest.mark.parametrize("case", list(SHARED_ROWS))
@pytest.mark.parametrize("zero_rows", [False, True])
def test_wproj_shared_rows_one_svd_per_cluster(rng, monkeypatch, case, zero_rows):
    from clusterbal import estimators

    structure, zeroed = SHARED_ROWS[case]
    d = make_dataset(rng, 8, sizes=(1, 5), p=2)
    if zero_rows:
        d = _with(d, covariates=_zero_rows)
    e, f = _probs_in(0.2, 0.8), probit_intervention(0.4)
    want = _wproj_per_unit(d, structure, f, e)
    calls = []
    monkeypatch.setattr(
        estimators, "project_colspace", lambda *a: calls.append(a) or project_colspace(*a)
    )
    got = weighted_projection_fit(d, structure, f, e).weights.values
    assert len(calls) == d.n
    scale = max(np.abs(want).max(), 1.0)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * scale)
    assert (got[want == 0.0] == 0.0).all()
    if zero_rows and zeroed:
        assert (want[[start for start, _ in d.cluster_slices()]] == 0.0).all()
