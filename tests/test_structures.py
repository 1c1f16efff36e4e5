import numpy as np
import pytest

from clusterbal.core import (
    PATTERN_CAP,
    BernoulliIntervention,
    ClusterSample,
    Dataset,
    Gate,
    SparseTable,
    enumerate_patterns,
    pattern_index,
    uniform_intervention,
)
from clusterbal.errors import CapExceeded, DimensionMismatch, InvalidSpec
from clusterbal.structures import (
    AdditiveTypes,
    CoarsenedCount,
    Compose,
    ConstantMapping,
    FromExposureMapping,
    IdentityMapping,
    KnnPattern,
    LowRankStructure,
    NeighborCount,
    NeighborGraph,
    NeighborPattern,
    NoInterference,
    OwnTreatment,
    StratifiedCount,
    TensorWithCovariates,
    build_structure,
    design_matrix,
    feature_row,
    knn_graph,
    knn_order,
    nested_rank_check,
    target_contributions,
    target_vector,
)

from conftest import make_cluster, make_dataset
from oracles import fresh_copy, knn_lists, knn_one_hot_rows


def cluster_with(x, a):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] == 1 and len(a) > 1:
        x = x.T
    return ClusterSample(covariates=x, treatments=a, outcomes=np.zeros(len(a)), cluster_id=0)


# ---------- feature rows of the named encodings ----------


def test_no_interference_rows():
    c = cluster_with([[0.0], [0.0]], [0, 1])
    assert feature_row(NoInterference(), c, 0, [0, 1]).tolist() == [1.0, 0.0]
    assert feature_row(NoInterference(), c, 1, [0, 1]).tolist() == [0.0, 1.0]


def test_stratified_count_one_treated_neighbor():
    # three units on a line; unit 0's 2 nearest neighbors are 1 and 2
    c = cluster_with([[0.0], [1.0], [2.0]], [0, 0, 0])
    s = StratifiedCount(2, include_own=False)
    row = feature_row(s, c, 0, [0, 1, 0])
    assert row.tolist() == [0.0, 1.0, 0.0]


def test_tensor_with_covariates_kron():
    c = cluster_with([[1.0, 2.0]], [1])
    s = TensorWithCovariates(NoInterference())
    assert feature_row(s, c, 0, [1]).tolist() == [0.0, 0.0, 1.0, 2.0]


def test_knn_pattern_neighbor_treated():
    c = cluster_with([[0.0], [0.1]], [0, 0])
    s = KnnPattern(1)
    assert feature_row(s, c, 0, [0, 1]).tolist() == [0.0, 1.0]
    assert feature_row(s, c, 0, [0, 0]).tolist() == [1.0, 0.0]


def test_knn_pattern_slot_is_binary_encoding(rng):
    # active slot index equals the binary encoding of neighbor treatments
    c = make_cluster(rng, 6)
    s = KnnPattern(3)
    nbrs = knn_lists(c, 3)
    for _ in range(10):
        a = rng.integers(0, 2, 6).astype(np.int8)
        for i in range(6):
            row = feature_row(s, c, i, a)
            assert row.sum() == 1.0
            expected_slot = int("".join(str(int(a[j])) for j in nbrs[i]), 2)
            assert row[expected_slot] == 1.0


# ---------- one-hot structures against the brute-force k-NN oracle ----------


ONE_HOT_CASES = (
    [("own", 1, False)]
    + [("count", k, own) for k in (1, 2, 5) for own in (False, True)]
    + [("pattern", k, False) for k in (1, 2, 3, 4, 5)]
)


def _named_one_hot(kind, k, include_own):
    if kind == "own":
        return NoInterference()
    if kind == "count":
        return StratifiedCount(k, include_own=include_own)
    return KnnPattern(k)


def _tied_mixed_dataset(seed):
    """Two clusters of each size 1-8 on a 0/1 covariate grid, so many distances tie."""
    rng = np.random.default_rng(seed)
    clusters = []
    for ci, m in enumerate(list(range(1, 9)) * 2):
        x = rng.integers(0, 2, (m, 2)).astype(float)
        a = rng.integers(0, 2, m)
        clusters.append(
            ClusterSample(covariates=x, treatments=a, outcomes=np.zeros(m), cluster_id=ci)
        )
    return Dataset(clusters=tuple(clusters))


@pytest.mark.parametrize("kind, k, include_own", ONE_HOT_CASES)
def test_one_hot_rows_match_knn_oracle(kind, k, include_own):
    d = _tied_mixed_dataset(10 * k + include_own)
    s = _named_one_hot(kind, k, include_own)
    for c in d.clusters:
        bits = enumerate_patterns(c.size)
        oracle = np.stack([knn_one_hot_rows(c, b, kind, k, include_own) for b in bits])
        for r in range(bits.shape[0]):
            assert np.array_equal(s.rows_at(c, bits[r]), oracle[r])
        for i in range(c.size):
            assert np.array_equal(s.all_pattern_rows(c, i), oracle[:, i])
    want = np.vstack([knn_one_hot_rows(c, c.treatments, kind, k, include_own) for c in d.clusters])
    assert np.array_equal(design_matrix(s, fresh_copy(d)), want)
    # the size-batched path of a one-hot tensor takes the same slots
    x = np.vstack([c.covariates for c in d.clusters])
    tensor = TensorWithCovariates(s)
    want = (want[:, :, None] * x[:, None, :]).reshape(x.shape[0], -1)
    assert np.array_equal(design_matrix(tensor, fresh_copy(d)), want)


@pytest.mark.parametrize("kind, k, include_own", ONE_HOT_CASES)
def test_named_one_hot_structure_is_its_mapping_indicator(kind, k, include_own):
    d = _tied_mixed_dataset(10 * k + include_own)
    named = _named_one_hot(kind, k, include_own)
    mapping = {
        "own": OwnTreatment(),
        "count": NeighborCount(k, include_own=include_own),
        "pattern": NeighborPattern(k),
    }[kind]
    generic = FromExposureMapping(mapping)
    assert named.dim() == generic.dim()
    rng = np.random.default_rng(k)
    for c in d.clusters:
        bits = enumerate_patterns(c.size)
        for r in range(bits.shape[0]):
            assert np.array_equal(named.rows_at(c, bits[r]), generic.rows_at(c, bits[r]))
        for i in range(c.size):
            assert np.array_equal(named.all_pattern_rows(c, i), generic.all_pattern_rows(c, i))
        probs = rng.uniform(0.1, 0.9, c.size)
        assert np.array_equal(named.expected_rows(c, probs), generic.expected_rows(c, probs))
    weight = BernoulliIntervention(lambda c: np.linspace(0.2, 0.8, c.size))
    for s, t in ((named, generic), (TensorWithCovariates(named), TensorWithCovariates(generic))):
        assert np.array_equal(design_matrix(s, fresh_copy(d)), design_matrix(t, fresh_copy(d)))
        assert np.array_equal(
            target_contributions(s, fresh_copy(d), weight),
            target_contributions(t, fresh_copy(d), weight),
        )


def test_feature_row_index_errors(rng):
    c = make_cluster(rng, 3)
    with pytest.raises(DimensionMismatch):
        feature_row(NoInterference(), c, 5, [0, 0, 0])
    with pytest.raises(DimensionMismatch):
        feature_row(NoInterference(), c, 0, [0, 0])


def test_additive_types_encoding():
    c = cluster_with([[0.0], [0.0], [0.0]], [1, 0, 1])
    s = AdditiveTypes(4, type_source="unit_index")
    row = feature_row(s, c, 0, [1, 0, 1])
    # types 1..3 present (status 1, 0, 1), type 4 absent
    assert row.tolist() == [0, 1, 1, 0, 0, 1, 0, 0]
    # rows identical across units
    assert np.array_equal(s.rows_at(c, c.treatments), np.tile(row, (3, 1)))


def test_additive_types_column_source():
    x = np.array([[3.0], [1.0]])
    c = ClusterSample(covariates=x, treatments=[1, 0], outcomes=[0, 0], cluster_id=0)
    s = AdditiveTypes(3, type_source={"column": 0})
    row = feature_row(s, c, 0, [1, 0])
    assert row.tolist() == [1, 0, 0, 0, 0, 1]


def test_additive_types_duplicate_type_rejected():
    x = np.array([[2.0], [2.0]])
    c = ClusterSample(covariates=x, treatments=[0, 0], outcomes=[0, 0], cluster_id=0)
    with pytest.raises(InvalidSpec):
        feature_row(AdditiveTypes(3, type_source={"column": 0}), c, 0, [0, 0])


def test_coarsened_count_bins():
    c = cluster_with([[0.0], [1.0], [2.0], [3.0]], [0, 0, 0, 0])
    s = CoarsenedCount(order=1, thresholds=(0, 1), k=3)
    row = feature_row(s, c, 0, [1, 1, 0, 0])  # own=1, one treated neighbor
    assert row.tolist() == [0, 1, 0, 1, 0]
    row = feature_row(s, c, 0, [0, 1, 1, 1])  # three treated neighbors -> high
    assert row.tolist() == [1, 0, 0, 0, 1]


def test_coarsened_count_threshold_validation():
    with pytest.raises(InvalidSpec):
        CoarsenedCount(order=1, thresholds=(2, 1), k=3)


def test_coarsened_count_fit_thresholds(rng):
    d = make_dataset(rng, 8, sizes=(4, 6))
    s = CoarsenedCount(order=2, k=2)
    t = s.fit_thresholds(d)
    assert t.shape == (2, 2)
    assert (t[:, 0] <= t[:, 1]).all()
    row = feature_row(s, d.clusters[0], 0, d.clusters[0].treatments)
    assert row.shape == (8,)
    assert row[:2].sum() == 1.0 and row[2:5].sum() == 1.0 and row[5:8].sum() == 1.0


# ---------- one-hot block invariant ----------


@pytest.mark.parametrize(
    "builder",
    [
        lambda: NoInterference(),
        lambda: StratifiedCount(2),
        lambda: StratifiedCount(3, include_own=True),
        lambda: KnnPattern(2),
        lambda: CoarsenedCount(order=1, thresholds=(0, 1), k=2),
    ],
)
def test_indicator_rows_one_hot_per_block(rng, builder):
    s = builder()
    c = make_cluster(rng, 5)
    for _ in range(5):
        a = rng.integers(0, 2, 5).astype(np.int8)
        rows = s.rows_at(c, a)
        assert set(np.unique(rows)) <= {0.0, 1.0}
        if isinstance(s, CoarsenedCount):
            assert np.allclose(rows[:, :2].sum(axis=1), 1.0)
            assert np.allclose(rows[:, 2:].sum(axis=1), 1.0)
        else:
            assert np.allclose(rows.sum(axis=1), 1.0)


def test_feature_purity(rng):
    s = TensorWithCovariates(KnnPattern(2))
    c = make_cluster(rng, 4)
    a = c.treatments
    r1 = feature_row(s, c, 1, a).copy()
    other = make_cluster(rng, 6, cluster_id=99)
    s.rows_at(other, other.treatments)
    assert np.array_equal(feature_row(s, c, 1, a), r1)


# ---------- expected rows agree with enumeration ----------


@pytest.mark.parametrize(
    "builder",
    [
        lambda: NoInterference(),
        lambda: StratifiedCount(2),
        lambda: StratifiedCount(2, include_own=True),
        lambda: KnnPattern(3),
        lambda: AdditiveTypes(6),
        lambda: CoarsenedCount(order=2, thresholds=(0, 1), k=2),
        lambda: TensorWithCovariates(KnnPattern(2)),
        lambda: FromExposureMapping(OwnTreatment()),
        lambda: FromExposureMapping(NeighborCount(2)),
    ],
)
def test_expected_rows_match_enumeration(rng, builder):
    s = builder()
    c = make_cluster(rng, 5)
    probs = rng.uniform(0.1, 0.9, size=5)
    bits = enumerate_patterns(5)
    masses = np.prod(np.where(bits == 1, probs, 1 - probs), axis=1)
    d = s.dim(c)
    brute = np.zeros((5, d))
    for r in range(bits.shape[0]):
        brute += masses[r] * s.rows_at(c, bits[r])
    assert np.allclose(s.expected_rows(c, probs), brute, atol=1e-12)


def test_pattern_totals_match_enumeration(rng):
    c = make_cluster(rng, 4)
    for s in (StratifiedCount(2), KnnPattern(2), AdditiveTypes(5)):
        for i in range(c.size):
            brute = s.all_pattern_rows(c, i).sum(axis=0)
            totals = s.expected_rows(c, np.full(c.size, 0.5))[i] * 2.0**c.size
            assert np.allclose(totals, brute, atol=1e-10)


def test_all_pattern_rows_match_feature_row(rng):
    c = make_cluster(rng, 4)
    bits = enumerate_patterns(4)
    for s in (NoInterference(), StratifiedCount(2), KnnPattern(2), AdditiveTypes(5),
              CoarsenedCount(order=1, thresholds=(0, 1), k=2)):
        for i in range(4):
            rows = s.all_pattern_rows(c, i)
            for r in range(16):
                assert np.allclose(rows[r], feature_row(s, c, i, bits[r]))


# ---------- composition ----------


def test_compose_matches_matrix_product_oracle(rng):
    """Composed rows equal the product of the two encodings on a size-4 cluster."""
    c = make_cluster(rng, 4)
    inner = KnnPattern(2)
    outer = AdditiveTypes(2)
    composed = Compose(outer, inner)
    bits = enumerate_patterns(4)
    for i in range(4):
        lam1 = inner.all_pattern_rows(c, i)  # (16, 4) neighbor-pattern indicators
        # additive encoding of the 2 neighbor slots for each neighbor pattern
        slot_bits = enumerate_patterns(2)
        lam2 = np.stack([outer.row_on_bits(b) for b in slot_bits])  # (4, 4)
        product = lam1 @ lam2
        got = np.stack([composed.feature_row(c, i, bits[r]) for r in range(16)])
        assert np.allclose(got, product, atol=1e-12)


def test_compose_associativity(rng):
    for trial in range(3):
        c = make_cluster(rng, 4, cluster_id=trial)
        d = Dataset(clusters=(c,))
        a_s, b_s, c_s = AdditiveTypes(2), KnnPattern(2), KnnPattern(3)
        left = Compose(a_s, Compose(b_s, c_s))
        right = Compose(Compose(a_s, b_s), c_s)
        assert np.allclose(design_matrix(left, d), design_matrix(right, d), atol=1e-12)


def test_compose_expected_rows_match_enumeration(rng):
    c = make_cluster(rng, 4)
    s = Compose(AdditiveTypes(2), KnnPattern(2))
    probs = rng.uniform(0.2, 0.8, 4)
    bits = enumerate_patterns(4)
    masses = np.prod(np.where(bits == 1, probs, 1 - probs), axis=1)
    brute = sum(masses[r] * s.rows_at(c, bits[r]) for r in range(16))
    assert np.allclose(s.expected_rows(c, probs), brute, atol=1e-12)


def test_compose_rejects_unsupported():
    with pytest.raises(InvalidSpec):
        Compose(NoInterference(), StratifiedCount(2))


def test_compose_inner_needs_a_pattern_valued_outer():
    # the inner composition's outer (additive types) has no k bits to pass on
    inner = Compose(AdditiveTypes(2), KnnPattern(2))
    with pytest.raises(InvalidSpec, match="not pattern valued"):
        Compose(KnnPattern(2), inner)
    knn = {"kind": "knn_pattern", "k": 2}
    spec = {
        "kind": "compose",
        "outer": knn,
        "inner": {"kind": "compose", "outer": {"kind": "additive_types", "s": 2}, "inner": knn},
    }
    with pytest.raises(InvalidSpec, match="not pattern valued"):
        build_structure(spec)


# ---------- design matrices ----------


def test_design_matrix_singletons():
    c1 = cluster_with([[0.0]], [1])
    c2 = ClusterSample(covariates=[[0.0]], treatments=[0], outcomes=[0.0], cluster_id=1)
    d = Dataset(clusters=(c1, c2))
    assert design_matrix(NoInterference(), d).tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_design_matrix_shape(rng):
    d = make_dataset(rng, 3, sizes=(2, 2), p=2)
    s = TensorWithCovariates(NoInterference())  # d_h = 2*2 = 4
    assert design_matrix(s, d).shape == (6, 4)


def test_design_matrix_rows_match_feature_row(rng):
    d = make_dataset(rng, 4, sizes=(2, 5))
    s = TensorWithCovariates(StratifiedCount(2))
    phi = design_matrix(s, d)
    r = 0
    for c in d.clusters:
        for i in range(c.size):
            assert np.allclose(phi[r], feature_row(s, c, i, c.treatments))
            r += 1


# ---------- target vectors ----------


def test_target_vector_singleton_gate():
    d = Dataset(clusters=(cluster_with([[0.0]], [1]),))
    t = target_vector(NoInterference(), d, Gate())
    assert np.allclose(t, [-1.0, 1.0])


def test_target_vector_pair_gate():
    d = Dataset(clusters=(cluster_with([[0.0], [0.0]], [1, 0]),))
    t = target_vector(NoInterference(), d, Gate())
    assert np.allclose(t, [-1.0, 1.0])


def test_target_vector_zero_weight():
    d = Dataset(clusters=(cluster_with([[0.0], [0.0]], [1, 0]),))
    f = SparseTable({0: []})
    assert np.allclose(target_vector(NoInterference(), d, f), [0.0, 0.0])


def test_target_vector_product_path_matches_support_path(rng):
    """The intervention's closed product form must agree with support enumeration."""
    d = make_dataset(rng, 3, sizes=(2, 5))
    s = TensorWithCovariates(StratifiedCount(2))
    probs_by_id = {c.cluster_id: rng.uniform(0.2, 0.8, c.size) for c in d.clusters}
    fast = BernoulliIntervention(lambda c: probs_by_id[c.cluster_id])

    supported = []

    class NoProductForm(BernoulliIntervention):
        def marginal_probs(self, cluster):
            return None

        def marginal_probs_batch(self, clusters):
            return None

        def support(self, cluster):
            supported.append(cluster.cluster_id)
            return super().support(cluster)

    slow = NoProductForm(lambda c: probs_by_id[c.cluster_id])
    assert np.allclose(
        target_vector(s, d, fast), target_vector(s, d, slow), atol=1e-10
    )
    assert sorted(supported) == [c.cluster_id for c in d.clusters]


@pytest.mark.parametrize(
    "structure",
    [TensorWithCovariates(StratifiedCount(2)), NoInterference(), AdditiveTypes(5)],
    ids=lambda s: s.label,
)
def test_target_contributions_ask_the_batch_form_once_per_size_group(rng, structure):
    """A weight that turns off only the per-cluster `marginal_probs` keeps its
    product form on every structure: one-hot tensors and the others alike
    read `marginal_probs_batch`, once per size group."""
    d = make_dataset(rng, 6, sizes=(2, 5))
    probs_by_id = {c.cluster_id: rng.uniform(0.2, 0.8, c.size) for c in d.clusters}
    batches, supported = [], []

    class BatchOnly(BernoulliIntervention):
        def marginal_probs(self, cluster):
            return None

        def marginal_probs_batch(self, clusters):
            batches.append(len(clusters))
            return super().marginal_probs_batch(clusters)

        def support(self, cluster):
            supported.append(cluster.cluster_id)
            return super().support(cluster)

    got = target_contributions(structure, d, BatchOnly(lambda c: probs_by_id[c.cluster_id]))
    assert supported == []
    assert sorted(batches) == sorted(np.unique([c.size for c in d.clusters], return_counts=True)[1])
    want = target_contributions(structure, d, BernoulliIntervention(lambda c: probs_by_id[c.cluster_id]))
    assert np.array_equal(got, want)


def test_target_vector_cap_propagates(rng):
    d = make_dataset(rng, 1, sizes=(PATTERN_CAP + 1, PATTERN_CAP + 1))

    # enumeration path of a mapping without a closed product form
    class OwnTreatmentByEnumeration(OwnTreatment):
        def class_masses_batch(self, clusters, probs):
            return None

    with pytest.raises(CapExceeded):
        target_vector(FromExposureMapping(OwnTreatmentByEnumeration()), d, uniform_intervention())

    # enumeration path of a weight without a product form
    class NoProductForm(BernoulliIntervention):
        def marginal_probs_batch(self, clusters):
            return None

    slow = NoProductForm(lambda c: np.full(c.size, 0.5))
    with pytest.raises(CapExceeded):
        target_vector(NoInterference(), d, slow)


# ---------- knn graph ----------


def test_knn_graph_hand_example():
    c = cluster_with([[0.0], [1.0], [10.0]], [0, 0, 0])
    d = Dataset(clusters=(c,))
    g = knn_graph(d, 1)
    lists = g.neighbors(c)
    assert lists[0].tolist() == [1]
    assert lists[1].tolist() == [0]
    assert lists[2].tolist() == [1]


def test_knn_graph_saturation(rng):
    c = make_cluster(rng, 4)
    d = Dataset(clusters=(c,))
    lists = knn_graph(d, 10).neighbors(c)
    for i in range(4):
        assert sorted(lists[i].tolist()) == sorted(set(range(4)) - {i})


def test_knn_graph_tie_break():
    c = cluster_with([[0.0], [1.0], [1.0], [1.0]], [0, 0, 0, 0])
    d = Dataset(clusters=(c,))
    lists = knn_graph(d, 2).neighbors(c)
    assert lists[0].tolist() == [1, 2]  # ties by lower unit index


_GRAPH_STRUCTURES = {
    "stratified_count": lambda g: StratifiedCount(2, graph=g),
    "coarsened_count": lambda g: CoarsenedCount(order=1, thresholds=(0.0, 1.0), graph=g),
}
_GRAPH_USES = {
    "design_matrix": lambda s, c: design_matrix(s, Dataset(clusters=(c,))),
    "expected_rows": lambda s, c: s.expected_rows(c, np.full(c.size, 0.5)),
    "target_contributions": lambda s, c: target_contributions(
        s, Dataset(clusters=(c,)), uniform_intervention()),
}


@pytest.mark.parametrize(
    "lists, message",
    [
        ([[1, 1], [2, 0], [0, 1]], "unit 0 in cluster 0"),  # a repeat
        ([[1, 2], [1, 0], [0, 1]], "unit 1 in cluster 0"),  # the unit itself
        ([[1, 2], [2, 3], [0, 1]], "unit 1 in cluster 0"),  # past the last unit
        ([[1, 2], [0, 2], [-1, 1]], "unit 2 in cluster 0"),  # negative
        ([[1, 2], [0, 2]], "cluster 0"),  # a row short
    ],
)
@pytest.mark.parametrize("use", list(_GRAPH_USES))
@pytest.mark.parametrize("kind", list(_GRAPH_STRUCTURES))
def test_graph_lists_must_be_distinct_other_units(kind, use, lists, message):
    """A list with a repeat would count one unit twice in the rows but give
    class masses for two independent copies; every use refuses it."""
    c = cluster_with([[0.0], [1.0], [3.0]], [1, 0, 1])
    structure = _GRAPH_STRUCTURES[kind](NeighborGraph(2, {0: np.array(lists)}))
    with pytest.raises(InvalidSpec, match=message):
        _GRAPH_USES[use](structure, c)


@pytest.mark.parametrize("m, k", [(15, 5), (10, 3), (6, 5), (3, 5), (1, 2)])
def test_knn_order_matches_full_distance_tensor(m, k):
    rng = np.random.default_rng(m + k)
    # integer covariates on a small grid give many tied distances
    x = np.concatenate([rng.standard_normal((50, m, 4)), rng.integers(0, 3, (50, m, 4))])
    d2 = ((x[:, :, None, :] - x[:, None, :, :]) ** 2).sum(axis=3)
    d2[:, np.arange(m), np.arange(m)] = np.inf
    oracle = np.argsort(d2, axis=2, kind="stable")[:, :, : min(k, m - 1)]
    assert np.array_equal(knn_order(x, k), oracle)
    for b in (0, 60, 99):
        lists = knn_graph(Dataset(clusters=(cluster_with(x[b], [0] * m),)), k).lists[0]
        assert np.array_equal(lists, oracle[b])


def test_knn_order_never_lists_a_unit_as_its_own_neighbor():
    """Squared distances between covariates 1e200 apart overflow to inf and
    tie with each other; self-exclusion must not rest on the diagonal sorting
    after them, and ties still go to the lower index."""
    c = cluster_with([[0.0], [1e200], [2e200], [3.0]], [0, 0, 0, 0])
    with np.errstate(over="ignore"):
        order = knn_order(c.covariates[None], 3)[0]
    assert order.tolist() == [[3, 1, 2], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
    assert order.tolist() == knn_lists(c, 3)


# ---------- nesting ----------


def test_nested_rank_check_identity(rng):
    d = make_dataset(rng, 4, sizes=(3, 5))
    s = TensorWithCovariates(StratifiedCount(2))
    assert nested_rank_check(s, s, d)


def test_nested_rank_check_true_nestings(rng):
    d = make_dataset(rng, 8, sizes=(4, 6), p=3)
    # counts are functions of the neighbor pattern
    assert nested_rank_check(
        TensorWithCovariates(StratifiedCount(2)), TensorWithCovariates(KnnPattern(2)), d
    )
    # knn ladder
    assert nested_rank_check(
        TensorWithCovariates(KnnPattern(1)), TensorWithCovariates(KnnPattern(2)), d
    )
    # own-treatment block is part of the coarsened structure
    assert nested_rank_check(
        NoInterference(), CoarsenedCount(order=1, thresholds=(0, 1), k=2), d
    )


def test_nested_rank_check_orthogonal_columns():
    c1 = cluster_with([[1.0]], [1])
    c2 = ClusterSample(covariates=[[1.0]], treatments=[0], outcomes=[0.0], cluster_id=1)
    d = Dataset(clusters=(c1, c2))

    class FirstColumn(LowRankStructure):
        """The untreated indicator 1 - a_i."""

        def rows_at(self, cluster, pattern):
            return 1.0 - np.asarray(pattern, dtype=float)[:, None]

        def dim(self, cluster=None, i=None):
            return 1

    class SecondColumn(FirstColumn):
        """The treated indicator a_i."""

        def rows_at(self, cluster, pattern):
            return np.asarray(pattern, dtype=float)[:, None]

    assert not nested_rank_check(FirstColumn(), SecondColumn(), d)


# ---------- exposure mappings ----------


def test_exposure_class_probabilities_match_enumeration(rng):
    d = make_dataset(rng, 12, sizes=(1, 6), p=2)
    for m in sorted({c.size for c in d.clusters}):
        group = [c for c in d.clusters if c.size == m]
        a = np.stack([c.treatments for c in group])
        probs = rng.uniform(0.2, 0.8, a.shape)
        bits = enumerate_patterns(m)
        for mapping in (OwnTreatment(), NeighborCount(2), NeighborCount(2, include_own=True),
                        NeighborPattern(2), ConstantMapping()):
            obs = mapping.classes_batch(group, a)
            analytic = mapping.class_masses_batch(group, probs)
            assert obs.shape == a.shape and analytic.shape[:2] == a.shape
            for b, c in enumerate(group):
                masses = np.prod(np.where(bits == 1, probs[b], 1 - probs[b]), axis=1)
                classes = mapping.classes_batch([c], bits)
                assert np.array_equal(obs[b], classes[pattern_index(c.treatments)])
                for i in range(m):
                    brute = np.bincount(classes[:, i], weights=masses, minlength=analytic.shape[2])
                    assert np.allclose(analytic[b, i], brute, rtol=0, atol=1e-12)
        identity = IdentityMapping().classes_batch(group, a)
        for b, c in enumerate(group):
            assert identity[b].tolist() == [pattern_index(c.treatments)] * m


MAPPINGS = [
    OwnTreatment(),
    NeighborPattern(2),
    NeighborPattern(3),
    NeighborCount(2),
    NeighborCount(2, include_own=True),
    IdentityMapping(),
    ConstantMapping(),
]


@pytest.mark.parametrize("mapping", MAPPINGS, ids=lambda mp: f"{mp.label}-{mp.fixed_dim}")
@pytest.mark.parametrize("m", range(1, 7))
def test_classes_batch_broadcasts_one_cluster_over_pattern_rows(rng, mapping, m):
    """One cluster for all 2^m rows gives the classes of that cluster repeated per row."""
    group = [make_cluster(rng, m, cluster_id=b) for b in range(3)]
    obs = mapping.classes_batch(group, np.stack([c.treatments for c in group]))
    bits = enumerate_patterns(m)
    for b, c in enumerate(group):
        one = mapping.classes_batch([c], bits)
        assert one.shape == bits.shape and one.dtype == np.int64
        assert np.array_equal(one, mapping.classes_batch([c] * bits.shape[0], bits))
        assert np.array_equal(one[pattern_index(c.treatments)], obs[b])


# ---------- builder ----------


def test_build_structure_from_specs(rng):
    d = make_dataset(rng, 4, sizes=(3, 5), p=3)
    specs = [
        {"kind": "no_interference"},
        {"kind": "stratified_count", "k": 2, "include_own": True},
        {"kind": "knn_pattern", "k": 2},
        {"kind": "additive_types", "s": 5},
        {"kind": "coarsened_count", "order": 1, "k": 2},
        {"kind": "exposure", "mapping": {"name": "neighbor_count", "k": 2}},
        {"kind": "compose", "outer": {"kind": "additive_types", "s": 2}, "inner": {"kind": "knn_pattern", "k": 2}},
        {"kind": "tensor", "inner": {"kind": "knn_pattern", "k": 1}, "columns": [0, 1, {"cluster_mean": 2}]},
    ]
    for spec in specs:
        s = build_structure(spec, d)
        phi = design_matrix(s, d)
        assert phi.shape[0] == d.total_units


def test_build_structure_knn_cap():
    with pytest.raises(CapExceeded):
        build_structure({"kind": "knn_pattern", "k": 25})


def test_build_structure_refuses_the_tensor_covariates_flag():
    with pytest.raises(InvalidSpec, match='"kind": "tensor"'):
        build_structure({"kind": "knn_pattern", "k": 2, "tensor_covariates": True, "columns": [0]})


def test_tensor_cluster_mean_column(rng):
    d = make_dataset(rng, 2, sizes=(3, 3), p=2)
    s = TensorWithCovariates(NoInterference(), columns=[0, {"cluster_mean": 1}])
    c = d.clusters[0]
    row = feature_row(s, c, 0, c.treatments)
    xbar = c.covariates[:, 1].mean()
    expected_block = [c.covariates[0, 0], xbar]
    a0 = int(c.treatments[0])
    assert np.allclose(row[2 * a0 : 2 * a0 + 2], expected_block)
    assert np.allclose(row[2 * (1 - a0) : 2 * (1 - a0) + 2], [0.0, 0.0])
