import dataclasses

import numpy as np
import pytest

from clusterbal.core import ClusterSample, Dataset, Gate, uniform_intervention
from clusterbal.diagnostics import imbalance_report
from clusterbal.errors import InvalidSpec
from clusterbal.estimators import balancing_fit
from clusterbal.structures import (
    AdditiveTypes,
    CoarsenedCount,
    FromExposureMapping,
    IdentityMapping,
    KnnPattern,
    NeighborCount,
    NoInterference,
    StratifiedCount,
    TensorWithCovariates,
    design_matrix,
    incidence_counts,
    target_vector,
)

from conftest import make_dataset
from oracles import design_rows


def infeasible_pair(rng):
    """Two all-treated singleton clusters: the control block is unreachable."""
    clusters = tuple(
        ClusterSample(
            covariates=rng.standard_normal((1, 2)),
            treatments=[1],
            outcomes=[float(i)],
            cluster_id=i,
        )
        for i in range(2)
    )
    return Dataset(clusters=clusters)


def test_feasible_fit_reports_no_flags(rng):
    d = make_dataset(rng, 6, sizes=(2, 4), p=2)
    s = TensorWithCovariates(StratifiedCount(1))
    f = uniform_intervention()
    fit = balancing_fit(d, s, f)
    assert fit.feasible
    report = imbalance_report(d, s, f, fit)
    assert np.allclose(report.nu, 0.0, atol=1e-10)
    finite = report.nu_star[~np.isnan(report.nu_star)]
    assert np.abs(finite).max() < 1e-8
    assert report.flagged == ()


@pytest.mark.parametrize("threshold", [-0.1, float("nan")])
def test_negative_or_nan_threshold_raises(rng, threshold):
    d = infeasible_pair(rng)
    s = TensorWithCovariates(NoInterference())
    fit = balancing_fit(d, s, Gate())
    with pytest.raises(InvalidSpec, match="threshold must be a non-negative number"):
        imbalance_report(d, s, Gate(), fit, threshold=threshold)
    assert imbalance_report(d, s, Gate(), fit, threshold=0.0).threshold == 0.0


def test_threshold_semantics_strictly_greater(rng):
    d = infeasible_pair(rng)
    s = TensorWithCovariates(NoInterference())
    f = Gate()
    fit = balancing_fit(d, s, f)
    assert not fit.feasible
    report = imbalance_report(d, s, f, fit)
    vals = np.abs(report.nu_star[~np.isnan(report.nu_star)])
    v = vals.max()
    assert v > 0
    below = imbalance_report(d, s, f, fit, threshold=v * 0.99)
    at = imbalance_report(d, s, f, fit, threshold=v)
    assert any(
        abs(below.nu_star[t, j]) == pytest.approx(v) for t, j in below.flagged
    )
    assert all(abs(at.nu_star[t, j]) < v for t, j in at.flagged)


def test_nu_matches_direct_residual(rng):
    d = infeasible_pair(rng)
    s = TensorWithCovariates(NoInterference())
    f = Gate()
    fit = balancing_fit(d, s, f)
    phi = design_matrix(s, d)
    t = target_vector(s, d, f)
    direct = (phi.T @ fit.weights.values - t) / d.n
    report = imbalance_report(d, s, f, fit)
    assert np.allclose(report.nu, direct, atol=1e-12)


def test_bias_imbalance_identity_noiseless(rng):
    """T_bal - (1/n) t^T h = nu^T h exactly on noiseless infeasible data."""
    base = infeasible_pair(rng)
    s = TensorWithCovariates(NoInterference())
    h = rng.standard_normal(4)
    clusters = tuple(
        ClusterSample(
            covariates=c.covariates,
            treatments=c.treatments,
            outcomes=design_rows(s, c, c.treatments) @ h,
            cluster_id=c.cluster_id,
        )
        for c in base.clusters
    )
    d = Dataset(clusters=clusters)
    f = Gate()
    fit = balancing_fit(d, s, f)
    assert not fit.feasible
    t = target_vector(s, d, f)
    lhs = fit.point - t @ h / d.n
    assert lhs == pytest.approx(fit.imbalance @ h, abs=1e-8)


def test_omnibus_weights_sum_to_unit_block_incidences(rng):
    d = make_dataset(rng, 5, sizes=(2, 4), p=2)
    s = TensorWithCovariates(StratifiedCount(1))
    f = uniform_intervention()
    fit = balancing_fit(d, s, f)
    report = imbalance_report(d, s, f, fit)
    # one-hot inner blocks: one active block per unit
    assert report.m_counts.sum() == d.total_units
    # omnibus is the incidence-weighted mean of the non-degenerate entries
    for t in range(report.nu_star.shape[0]):
        ok = ~np.isnan(report.nu_star[t])
        expected = (report.nu_star[t, ok] * report.m_counts[ok]).sum() / report.m_counts[ok].sum()
        assert report.omnibus[t] == pytest.approx(expected, nan_ok=True)


def test_scale_degenerate_entries_excluded(rng):
    # fixed cluster size + intercept column: the pattern-count load is constant
    clusters = tuple(
        ClusterSample(
            covariates=np.column_stack([np.ones(3), rng.standard_normal(3)]),
            treatments=rng.integers(0, 2, 3),
            outcomes=rng.standard_normal(3),
            cluster_id=i,
        )
        for i in range(6)
    )
    d = Dataset(clusters=clusters)
    s = TensorWithCovariates(NoInterference(), columns=[0, 1])
    f = Gate()
    fit = balancing_fit(d, s, f)
    report = imbalance_report(d, s, f, fit)
    assert len(report.degenerate) > 0
    for t, j in report.degenerate:
        assert np.isnan(report.nu_star[t, j])
    # degenerate entries never flagged
    assert set(report.degenerate).isdisjoint(set(report.flagged))


@pytest.mark.parametrize(
    "structure",
    [NoInterference(), KnnPattern(2), AdditiveTypes(5),
     CoarsenedCount(order=2, thresholds=(0.0, 1.0), k=1)],
    ids=lambda s: s.label,
)
def test_imbalance_report_without_covariates_reports_raw_imbalance_only(rng, structure):
    """A structure without covariates is reported as one covariate of NaN
    scales: raw imbalance, no relative or omnibus value, nothing flagged."""
    d = make_dataset(rng, 3, sizes=(2, 3), p=2)
    f = Gate()
    fit = balancing_fit(d, structure, f)
    report = imbalance_report(d, structure, f, fit, threshold=0.0)
    assert np.array_equal(report.nu, fit.imbalance)
    assert np.isnan(report.nu_star).all() and np.isnan(report.sigma_scale).all()
    assert report.nu_star.shape == report.sigma_scale.shape == (1, fit.imbalance.size)
    assert np.isnan(report.omnibus).all() and report.omnibus.shape == (1,)
    assert report.flagged == () and report.degenerate == ()
    assert np.array_equal(report.m_counts, (design_matrix(structure, d) != 0).sum(axis=0))
    if isinstance(structure, NoInterference):
        treated = sum(int(c.treatments.sum()) for c in d.clusters)
        assert np.array_equal(report.m_counts, [d.total_units - treated, treated])
    rows = report.rows()
    assert [r["effective_treatment"] for r in rows] == list(range(fit.imbalance.size))
    assert all(r["covariate"] is None for r in rows)
    assert [r["nu"] for r in rows] == list(fit.imbalance)


@pytest.mark.parametrize(
    "structure",
    [KnnPattern(2), AdditiveTypes(5), StratifiedCount(2, include_own=True),
     FromExposureMapping(NeighborCount(2))],
    ids=lambda s: s.label,
)
def test_bare_incidences_are_the_dense_designs_nonzeros(rng, structure):
    """A structure without covariates counts, per coordinate, the units whose
    row of the dense design is non-zero there."""
    d = make_dataset(rng, 12, sizes=(1, 5), p=2)
    f = uniform_intervention()
    fit = balancing_fit(d, structure, f)
    want = (design_matrix(structure, d) != 0).sum(axis=0)
    assert np.array_equal(imbalance_report(d, structure, f, fit).m_counts, want)


def test_imbalance_requires_fixed_dimension_structure(rng):
    d = make_dataset(rng, 3, sizes=(2, 3), p=2)
    f = Gate()
    fit = balancing_fit(d, NoInterference(), f)
    with pytest.raises(InvalidSpec, match="fixed-dimension"):
        imbalance_report(d, FromExposureMapping(IdentityMapping()), f, fit)


def test_report_rows_shape(rng):
    d = make_dataset(rng, 4, sizes=(2, 3), p=2)
    s = TensorWithCovariates(StratifiedCount(1))
    f = uniform_intervention()
    fit = balancing_fit(d, s, f)
    report = imbalance_report(d, s, f, fit)
    rows = report.rows()
    assert len(rows) == report.nu_star.size
    assert {"covariate", "effective_treatment", "nu", "sigma", "nu_star", "flagged"} <= set(rows[0])


def test_incidences_count_the_observed_classes(rng, monkeypatch):
    """A tensor's incidences count the units in each observed class of its
    inner encoding (times each non-zero covariate of a nested tensor's inner
    level), and a structure without covariates counts the non-zero entries
    of the fit's design, which is not recomputed."""
    from clusterbal import structures

    d = make_dataset(rng, 8, sizes=(1, 5), p=2)
    d.clusters[0].covariates[0] = 0.0
    f = uniform_intervention()
    mapping = NeighborCount(2)
    slots = np.concatenate([mapping.classes_batch([c], c.treatments[None])[0] for c in d.clusters])
    s = TensorWithCovariates(StratifiedCount(2), columns=[0, 1])
    fit = balancing_fit(d, s, f)
    assert np.array_equal(imbalance_report(d, s, f, fit).m_counts, np.bincount(slots, minlength=3))

    nested = TensorWithCovariates(s, columns=[{"cluster_mean": 1}])
    fit = balancing_fit(d, nested, f)
    x = np.vstack([c.covariates for c in d.clusters])
    want = np.zeros((3, 2))
    np.add.at(want, slots, (x != 0).astype(float))
    assert np.array_equal(imbalance_report(d, nested, f, fit).m_counts, want.ravel())

    raw = StratifiedCount(2)
    fit = balancing_fit(d, raw, f)
    want = np.bincount(slots, minlength=3)
    calls = []
    monkeypatch.setattr(structures, "_observed_design", lambda *a: calls.append(a))
    assert np.array_equal(imbalance_report(d, raw, f, fit).m_counts, want)
    assert calls == []


@pytest.mark.parametrize(
    "inner",
    [KnnPattern(2), AdditiveTypes(5), TensorWithCovariates(StratifiedCount(1), columns=[1])],
    ids=lambda s: s.label,
)
def test_imbalance_reads_the_inner_rows_of_the_fits_design(rng, monkeypatch, inner):
    """A tensor's incidences are read from the inner rows of its balancing
    fit's design: the report takes no block's classes again, and its counts
    are those taken afresh."""
    from clusterbal import structures

    d = make_dataset(rng, 12, sizes=(1, 5), p=2)
    d.clusters[2].covariates[0] = 0.0
    s, f = TensorWithCovariates(inner, columns=[0]), uniform_intervention()
    fit = balancing_fit(d, s, f)
    want = incidence_counts(inner, d)
    calls = []
    original = structures._GroupRows.classes
    monkeypatch.setattr(structures._GroupRows, "classes",
                        lambda self, patterns=None: calls.append(1) or original(self, patterns))
    assert np.array_equal(imbalance_report(d, s, f, fit).m_counts, want)
    assert calls == []


def test_imbalance_requires_the_fits_design(rng):
    d = make_dataset(rng, 3, sizes=(2, 3), p=2)
    s = TensorWithCovariates(StratifiedCount(1))
    f = Gate()
    fit = balancing_fit(d, s, f)
    bare = dataclasses.replace(fit, design=None)
    with pytest.raises(InvalidSpec, match="not a balancing fit"):
        imbalance_report(d, s, f, bare)
