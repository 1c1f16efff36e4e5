"""The size-batched one-hot design layer against its per-cluster oracle.

Tensors over one-hot encodings (`KnnPattern`, `StratifiedCount`,
`NoInterference`, `FromExposureMapping`) build their design, target,
DesignOps pieces and imbalance scales from per-unit slot indices, all
clusters of one size at once; `select_structure` decides nesting by
projecting onto the candidates' own DesignOps. Each is checked here against
the per-cluster path or the dense rank test.
"""

import warnings

import numpy as np
import pytest

from clusterbal import inference, structures
from clusterbal.core import (
    ClusterSample,
    Dataset,
    Gate,
    probit_intervention,
    uniform_intervention,
)
from clusterbal.diagnostics import imbalance_report
from clusterbal.estimators import DesignSystem, balancing_fit, build_design
from clusterbal.inference import select_structure
from clusterbal.numerics import DesignOps, dense_design
from clusterbal.simulate import DGPConfig, dgp_structure, gen_dataset
from clusterbal.structures import (
    AdditiveTypes,
    ConstantMapping,
    FromExposureMapping,
    KnnPattern,
    NeighborCount,
    NeighborGraph,
    NeighborPattern,
    NoInterference,
    OwnTreatment,
    StratifiedCount,
    TensorWithCovariates,
    design_matrix,
    knn_graph,
    target_contributions,
)

from conftest import make_dataset
from oracles import (
    DenseOps,
    cached_row,
    fresh_copy,
    nested_in_span,
    per_cluster_contributions,
    per_cluster_design,
    per_cluster_imbalance_scales,
    scanned_pieces,
)


class CountsWithoutProductForm(NeighborCount):
    """Neighbor counts whose class masses are only known by enumeration."""

    def class_masses_batch(self, clusters, probs):
        return None


def _replaced(d, covariates=None, treatments=None):
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


def _zero_first_row(c):
    x = c.covariates.copy()
    x[0] = 0.0
    return x


def _datasets(rng):
    """Mixed sizes 1..6 (m <= k included) and the edge cases of the design."""
    base = make_dataset(rng, 40, sizes=(1, 6), p=3)
    return {
        "random": base,
        "rank_deficient": _replaced(base, covariates=lambda c: c.covariates[:, [0, 1, 1]]),
        "empty_slot": _replaced(base, treatments=lambda c: np.ones(c.size, dtype=np.int8)),
        "zero_covariate_row": _replaced(base, covariates=_zero_first_row),
        "small_clusters": make_dataset(rng, 30, sizes=(1, 3), p=3),
    }


INNERS = {
    "knn1": lambda d: KnnPattern(1),
    "knn3": lambda d: KnnPattern(3),
    "knn2_graph": lambda d: KnnPattern(2, graph=knn_graph(d, 4)),
    "stratified2": lambda d: StratifiedCount(2),
    "stratified3_own": lambda d: StratifiedCount(3, include_own=True),
    "stratified2_graph": lambda d: StratifiedCount(2, graph=knn_graph(d, 2)),
    "no_interference": lambda d: NoInterference(),
    "exposure_pattern": lambda d: FromExposureMapping(NeighborPattern(2)),
    "exposure_count_own": lambda d: FromExposureMapping(NeighborCount(2, include_own=True)),
    "exposure_own": lambda d: FromExposureMapping(OwnTreatment()),
    "exposure_constant": lambda d: FromExposureMapping(ConstantMapping()),
    "exposure_enumerated": lambda d: FromExposureMapping(CountsWithoutProductForm(2)),
}
COLUMNS = {"cols": [0, 1, 2], "cluster_mean": [0, {"cluster_mean": 1}], "all": None}
DATA = ("random", "rank_deficient", "empty_slot", "zero_covariate_row", "small_clusters")


def _case(rng, data, inner, columns):
    d = _datasets(rng)[data]
    return d, TensorWithCovariates(INNERS[inner](d), columns=COLUMNS[columns])


def _assert_close(got, want, rtol=1e-12):
    got, want = np.asarray(got, float), np.asarray(want, float)
    scale = max(float(np.abs(want).max(initial=0.0)), 1.0)
    assert np.allclose(got, want, rtol=rtol, atol=rtol * scale)


@pytest.mark.parametrize("columns", list(COLUMNS))
@pytest.mark.parametrize("inner", list(INNERS))
@pytest.mark.parametrize("data", DATA)
def test_design_equals_stacked_rows_at(rng, data, inner, columns):
    d, s = _case(rng, data, inner, columns)
    phi = design_matrix(s, d)
    assert np.array_equal(phi, per_cluster_design(s, fresh_copy(d)))
    assert np.array_equal(design_matrix(s, d), phi)  # again, on warm caches


@pytest.mark.parametrize("weight", ["uniform", "probit", "gate"])
@pytest.mark.parametrize("inner", list(INNERS))
@pytest.mark.parametrize("data", DATA)
def test_contributions_match_per_cluster(rng, data, inner, weight):
    d, s = _case(rng, data, inner, "cluster_mean")
    f = {"uniform": uniform_intervention(), "probit": probit_intervention(0.3), "gate": Gate()}[
        weight
    ]
    want = per_cluster_contributions(s, fresh_copy(d), f)
    _assert_close(target_contributions(s, d, f), want)


@pytest.mark.parametrize("inner", list(INNERS))
@pytest.mark.parametrize("data", DATA)
def test_pieces_match_scan_of_dense_design(rng, data, inner):
    d, s = _case(rng, data, inner, "cols")
    pieces = build_design(s, d, uniform_intervention()).ops()._pieces
    want = scanned_pieces(per_cluster_design(s, fresh_copy(d)), s.inner.dim())
    assert len(pieces) == len(want)
    for (rows, cols, *_), (rows_w, cols_w) in zip(sorted(pieces, key=lambda p: p[1][0]), want):
        assert np.array_equal(np.sort(rows), rows_w)
        assert np.array_equal(cols, np.arange(cols_w.start, cols_w.stop))


@pytest.mark.parametrize("inner", list(INNERS))
@pytest.mark.parametrize("data", DATA)
def test_imbalance_report_matches_per_cluster(rng, data, inner):
    d, s = _case(rng, data, inner, "cols")
    f = Gate()
    fit = balancing_fit(d, s, f)
    report = imbalance_report(d, s, f, fit)
    sigma, m_counts = per_cluster_imbalance_scales(s, fresh_copy(d))
    ell, width = s.inner.dim(), 3
    sig_mat = sigma.reshape(ell, width).T
    _assert_close(report.sigma_scale, sig_mat)
    assert np.array_equal(report.m_counts, m_counts)
    ok = sig_mat != 0.0
    nu_star = fit.imbalance.reshape(ell, width).T[ok] / sig_mat[ok]
    _assert_close(report.nu_star[ok], nu_star)
    assert np.isnan(report.nu_star[~ok]).all()
    omnibus = [
        (report.nu_star[t, ok[t]] * m_counts[ok[t]]).sum() / m_counts[ok[t]].sum()
        for t in range(width)
    ]
    _assert_close(report.omnibus, omnibus)


def _full_order(c):
    """Brute-force stable order of all other units by squared distance: (m, m - 1)."""
    x = c.covariates
    d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1, kind="stable")[:, : c.size - 1]


def test_batched_knn_lists_fill_and_reuse_the_size_group_caches(rng):
    d = make_dataset(rng, 30, sizes=(1, 6), p=3)
    design_matrix(TensorWithCovariates(KnnPattern(3)), d)
    for c in d.clusters:
        assert np.array_equal(cached_row(c, "knn_order"), _full_order(c))
    # an order already cached is used as it is, at every k
    planted = fresh_copy(d)
    for group in planted.groups:
        group._cache["knn_order"] = np.array([_full_order(c)[:, ::-1] for c in group])
    for k in (1, 3, 7):
        s = TensorWithCovariates(KnnPattern(k))
        lists = {c.cluster_id: cached_row(c, "knn_order")[:, :k] for c in planted.clusters}
        read = TensorWithCovariates(KnnPattern(k, graph=NeighborGraph(k, lists)))
        assert np.array_equal(design_matrix(s, planted), per_cluster_design(read, planted))
        assert not np.array_equal(design_matrix(s, planted), design_matrix(s, d))
        graph = knn_graph(planted, k)
        for c in planted.clusters:
            assert np.array_equal(graph.neighbors(c), cached_row(c, "knn_order")[:, :k])


def test_knn_ladder_sorts_each_cluster_size_once(rng, monkeypatch):
    d = make_dataset(rng, 40, sizes=(1, 6), p=3)
    calls = []
    sort = structures.knn_order

    def counted(x, k):
        calls.append(x.shape[1])
        return sort(x, k)

    monkeypatch.setattr(structures, "knn_order", counted)
    for k in range(1, 6):
        build_design(TensorWithCovariates(KnnPattern(k), columns=[0, 1, 2]), d,
                     uniform_intervention())
    assert sorted(calls) == sorted({c.size for c in d.clusters})


# ---------- nesting by DesignOps.contains ----------


def _nesting_agrees(d, small, large):
    f = uniform_intervention()
    ds, dl = build_design(small, d, f), build_design(large, d, f)
    got = dl.ops().contains(ds.ops())
    assert got == nested_in_span(design_matrix(small, d), design_matrix(large, d))
    return got


def _tensor(inner):
    return TensorWithCovariates(inner, columns=[0, 1, 2])


@pytest.mark.parametrize("data", DATA)
def test_block_nesting_knn_ladder_and_reversed(rng, data):
    d = _datasets(rng)[data]
    ladder = [_tensor(KnnPattern(k)) for k in (1, 2, 3)]
    for small, large in zip(ladder, ladder[1:]):
        assert _nesting_agrees(d, small, large)
        _nesting_agrees(d, large, small)
    assert not _nesting_agrees(make_dataset(rng, 40, sizes=(3, 6), p=3), ladder[2], ladder[0])


@pytest.mark.parametrize("data", DATA)
def test_block_nesting_stratified_against_pattern(rng, data):
    d = _datasets(rng)[data]
    count, pattern = _tensor(StratifiedCount(2)), _tensor(KnnPattern(2))
    assert _nesting_agrees(d, count, pattern)
    _nesting_agrees(d, pattern, count)
    _nesting_agrees(d, _tensor(NoInterference()), _tensor(StratifiedCount(1, include_own=True)))


def _second_column(d, second):
    """Two-column covariates: column 0 as drawn, column 1 = second(column 0)."""
    return _replaced(d, covariates=lambda c: np.column_stack([c.covariates[:, 0],
                                                              second(c.covariates[:, 0])]))


def test_block_nesting_rows_only_the_smaller_design_reaches(rng):
    # column 1 equals column 0 but on each cluster's first unit, where it is 0: that
    # row is live in the small design and empty in the large one
    def zero_first(x0):
        x1 = x0.copy()
        x1[0] = 0.0
        return x1

    d = _second_column(make_dataset(rng, 30, sizes=(2, 5), p=1), zero_first)
    small = TensorWithCovariates(KnnPattern(1), columns=[0])
    assert _nesting_agrees(d, small, TensorWithCovariates(KnnPattern(2), columns=[0]))
    assert not _nesting_agrees(d, small, TensorWithCovariates(KnnPattern(2), columns=[1]))


def test_block_nesting_keeps_small_singular_values_above_the_tolerance(rng):
    # column 1 is column 0 scaled by 1 + 1e-7 * noise: the small design leaves the
    # large one's span by singular values near 1e-7, far above max(N, d) * eps
    d = _second_column(make_dataset(rng, 30, sizes=(2, 5), p=1),
                       lambda x0: x0 * (1.0 + 1e-7 * rng.standard_normal(x0.size)))
    small = TensorWithCovariates(KnnPattern(1), columns=[0])
    assert not _nesting_agrees(d, small, TensorWithCovariates(KnnPattern(2), columns=[1]))


def test_block_nesting_all_zero_covariates(rng):
    d = _replaced(make_dataset(rng, 10, sizes=(2, 4), p=3),
                  covariates=lambda c: np.zeros_like(c.covariates))
    small, large = _tensor(KnnPattern(1)), _tensor(KnnPattern(2))
    assert build_design(small, d, uniform_intervention()).ops()._pieces == []
    assert _nesting_agrees(d, small, large)


def test_block_nesting_between_one_hot_pieces_and_one_additive_piece(rng):
    d = make_dataset(rng, 30, sizes=(3, 5), p=3)
    one_hot, additive = _tensor(KnnPattern(1)), _tensor(AdditiveTypes(5))
    assert len(build_design(additive, d, uniform_intervention()).ops()._pieces) == 1
    _nesting_agrees(d, one_hot, additive)
    _nesting_agrees(d, additive, one_hot)


def test_block_nesting_into_and_out_of_rank_deficient_pieces(rng):
    # column 2 duplicates column 1: every piece of a design over all three columns
    # is rank-deficient, and spans what the design over columns 0 and 1 spans
    d = _replaced(make_dataset(rng, 40, sizes=(2, 6), p=3),
                  covariates=lambda c: c.covariates[:, [0, 1, 1]])
    knn1_two = TensorWithCovariates(KnnPattern(1), columns=[0, 1])
    knn2_two = TensorWithCovariates(KnnPattern(2), columns=[0, 1])
    knn2_three = TensorWithCovariates(KnnPattern(2), columns=[0, 1, 2])
    f = uniform_intervention()
    deficient = build_design(knn2_three, d, f)
    assert deficient.ops().rank == build_design(knn2_two, d, f).ops().rank
    assert deficient.ops().rank < deficient.ops().shape[1]
    assert _nesting_agrees(d, knn2_two, knn2_three)
    assert _nesting_agrees(d, knn2_three, knn2_two)
    assert _nesting_agrees(d, knn1_two, knn2_three)
    assert not _nesting_agrees(d, knn2_three, knn1_two)


def _oracle_design(structure, dataset, weight):
    """build_design from the per-cluster path, without the program's factors:
    its fits take the dense SVD."""
    ops = DenseOps(per_cluster_design(structure, fresh_copy(dataset)))
    return DesignSystem(
        contributions=per_cluster_contributions(structure, fresh_copy(dataset), weight),
        factors=ops.factors,
        _cache={"ops": ops},
    )


def _select(d, f, candidates):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = select_structure(d, f, candidates)
    return report, [str(w.message) for w in caught]


@pytest.mark.parametrize("order", [(0, 1, 2, 3, 4), (2, 0, 4)])
def test_select_matches_per_cluster_dense_path(order, monkeypatch):
    cfg = DGPConfig(n=150, interference="knn5", seed=3, gamma=1.0)
    d = gen_dataset(cfg, 0, truth=False)[0]
    columns = dgp_structure(cfg).columns
    ladder = [TensorWithCovariates(KnnPattern(k), columns=columns) for k in range(1, 6)]
    candidates = [ladder[i] for i in order]
    f = probit_intervention(cfg.kappa)
    got, got_warnings = _select(d, f, candidates)
    monkeypatch.setattr(inference, "build_design", _oracle_design)
    monkeypatch.setattr(DesignOps, "contains", lambda large, small: nested_in_span(
        dense_design(small.factors), dense_design(large.factors)))
    want, want_warnings = _select(d, f, candidates)
    assert got.chosen == want.chosen
    assert got.nested == want.nested
    assert got_warnings == want_warnings
    assert bool(got_warnings) == (order != (0, 1, 2, 3, 4))
    assert np.isclose(got.sigma_hat, want.sigma_hat, rtol=1e-10, atol=0.0)
    assert np.allclose(got.statistics, want.statistics, rtol=1e-10, atol=0.0)


def test_select_takes_no_svd_beyond_the_candidates_design_ops(rng, monkeypatch):
    d = make_dataset(rng, 40, sizes=(2, 6), p=3)
    f = uniform_intervention()
    candidates = [_tensor(KnnPattern(k)) for k in (2, 1, 3)]  # knn2 is not nested in knn1
    calls = []
    for name in ("svd", "qr", "matrix_rank"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _n=name, _f=original, **k: calls.append(_n) or _f(*a, **k))
    for s in candidates:
        build_design(s, d, f).ops()
    decompositions, calls[:] = list(calls), []
    report, warned = _select(d, f, candidates)
    assert "matrix_rank" not in decompositions
    assert calls == decompositions
    assert report.nested == (False, True)
    assert warned == ["candidate 0 'tensor[knn_pattern]' is not nested in "
                      "candidate 1 'tensor[knn_pattern]' on the observed design"]
