import re
from dataclasses import replace

import numpy as np
import pytest

from clusterbal.core import (
    PATTERN_CAP,
    BernoulliIntervention,
    ClusterSample,
    Dataset,
    Gate,
    IndependentBernoulli,
    SparseTable,
    enumerate_patterns,
    pattern_index,
    probit_intervention,
    uniform_intervention,
)
from clusterbal.diagnostics import imbalance_report
from clusterbal.estimators import _block_closed_form, _wproj_svd, balancing_fit
from clusterbal.errors import CapExceeded, DimensionMismatch, InvalidSpec
from clusterbal.simulate import DGPConfig, dgp_structure, gen_dataset
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
    knn_graph,
    knn_order,
    nested_rank_check,
    observed_signal,
    target_contributions,
    target_vector,
)

from conftest import make_cluster, make_dataset
from oracles import (
    cluster_slices,
    composed_rows,
    design_rows,
    fresh_copy,
    knn_lists,
    knn_one_hot_rows,
    neighbor_lists,
    one_size_group,
    with_covariate,
    outer_row_on_bits,
    per_cluster_contributions,
    per_cluster_design,
    per_cluster_gen_dataset,
    per_cluster_imbalance_scales,
)


def cluster_with(x, a):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] == 1 and len(a) > 1:
        x = x.T
    return ClusterSample(covariates=x, treatments=a, outcomes=np.zeros(len(a)), cluster_id=0)


# ---------- feature rows of the named encodings ----------


def test_no_interference_rows():
    c = cluster_with([[0.0], [0.0]], [0, 1])
    assert design_rows(NoInterference(), c, [0, 1])[0].tolist() == [1.0, 0.0]
    assert design_rows(NoInterference(), c, [0, 1])[1].tolist() == [0.0, 1.0]


def test_stratified_count_one_treated_neighbor():
    # three units on a line; unit 0's 2 nearest neighbors are 1 and 2
    c = cluster_with([[0.0], [1.0], [2.0]], [0, 0, 0])
    s = StratifiedCount(2, include_own=False)
    row = design_rows(s, c, [0, 1, 0])[0]
    assert row.tolist() == [0.0, 1.0, 0.0]


def test_tensor_with_covariates_kron():
    c = cluster_with([[1.0, 2.0]], [1])
    s = TensorWithCovariates(NoInterference())
    assert design_rows(s, c, [1])[0].tolist() == [0.0, 0.0, 1.0, 2.0]


def test_knn_pattern_neighbor_treated():
    c = cluster_with([[0.0], [0.1]], [0, 0])
    s = KnnPattern(1)
    assert design_rows(s, c, [0, 1])[0].tolist() == [0.0, 1.0]
    assert design_rows(s, c, [0, 0])[0].tolist() == [1.0, 0.0]


def test_knn_pattern_slot_is_binary_encoding(rng):
    # active slot index equals the binary encoding of neighbor treatments
    c = make_cluster(rng, 6)
    s = KnnPattern(3)
    nbrs = knn_lists(c, 3)
    for _ in range(10):
        a = rng.integers(0, 2, 6).astype(np.int8)
        rows = design_rows(s, c, a)
        for i in range(6):
            row = rows[i]
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
            assert np.array_equal(design_rows(s, c, bits[r]), oracle[r])
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
            assert np.array_equal(design_rows(named, c, bits[r]), design_rows(generic, c, bits[r]))
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


def test_row_index_and_pattern_errors(rng):
    c = make_cluster(rng, 3)
    with pytest.raises(DimensionMismatch):
        NoInterference().all_pattern_rows(c, 5)
    with pytest.raises(DimensionMismatch):
        design_rows(NoInterference(), c, [0, 0])


def test_additive_types_encoding():
    c = cluster_with([[0.0], [0.0], [0.0]], [1, 0, 1])
    s = AdditiveTypes(4, type_source="unit_index")
    row = design_rows(s, c, [1, 0, 1])[0]
    # types 1..3 present (status 1, 0, 1), type 4 absent
    assert row.tolist() == [0, 1, 1, 0, 0, 1, 0, 0]
    # rows identical across units
    assert np.array_equal(design_rows(s, c, c.treatments), np.tile(row, (3, 1)))


def test_additive_types_column_source():
    x = np.array([[3.0], [1.0]])
    c = ClusterSample(covariates=x, treatments=[1, 0], outcomes=[0, 0], cluster_id=0)
    s = AdditiveTypes(3, type_source={"column": 0})
    row = design_rows(s, c, [1, 0])[0]
    assert row.tolist() == [1, 0, 0, 0, 0, 1]


def test_additive_types_duplicate_type_rejected():
    x = np.array([[2.0], [2.0]])
    c = ClusterSample(covariates=x, treatments=[0, 0], outcomes=[0, 0], cluster_id=0)
    with pytest.raises(InvalidSpec):
        design_rows(AdditiveTypes(3, type_source={"column": 0}), c, [0, 0])


def _typed(types):
    """Clusters of one size whose column 0 holds the given types."""
    return Dataset(clusters=tuple(
        ClusterSample(covariates=np.array(t, float)[:, None], treatments=np.zeros(len(t), np.int8),
                      outcomes=np.zeros(len(t)), cluster_id=ci)
        for ci, t in enumerate(types)
    ))


@pytest.mark.parametrize(
    "types, message",
    [
        ([[1, 2, 3], [2, 9, 2]], "type 9 outside 1..3"),
        ([[1, 2, 3], [2, 2, 9]], "type 2 occurs more than once in a cluster"),
        ([[3, 1, 3], [0, 1, 2]], "type 3 occurs more than once in a cluster"),
        ([[1, 2, 3], [3, 2, 1], [0, 0, 0]], "type 0 outside 1..3"),
        ([[2, 3, 1], [1, 4, 4], [2, 2, 2]], "type 4 outside 1..3"),
    ],
)
def test_additive_types_name_the_first_faulty_cluster_then_unit(types, message):
    """The types of a size group are checked together; the error is that of
    the first faulty cluster in dataset order, and in it of the first faulty
    unit, a type outside 1..s or one an earlier unit already carries."""
    with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
        design_matrix(AdditiveTypes(3, type_source={"column": 0}), _typed(types))


def test_additive_types_by_unit_index_need_as_many_types_as_units(rng):
    d = make_dataset(rng, 4, sizes=(2, 3))
    with pytest.raises(InvalidSpec, match=r"^type 3 outside 1\.\.2$"):
        design_matrix(AdditiveTypes(2), d)


def test_coarsened_count_bins():
    c = cluster_with([[0.0], [1.0], [2.0], [3.0]], [0, 0, 0, 0])
    s = CoarsenedCount(order=1, thresholds=(0, 1), k=3)
    row = design_rows(s, c, [1, 1, 0, 0])[0]  # own=1, one treated neighbor
    assert row.tolist() == [0, 1, 0, 1, 0]
    row = design_rows(s, c, [0, 1, 1, 1])[0]  # three treated neighbors -> high
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
    row = design_rows(s, d.clusters[0], d.clusters[0].treatments)[0]
    assert row.shape == (8,)
    assert row[:2].sum() == 1.0 and row[2:5].sum() == 1.0 and row[5:8].sum() == 1.0


def test_coarsened_count_never_reads_a_freed_graphs_lists(rng):
    """Graphs built and freed one after another over one cluster may reuse
    an id; the level lists cached on the cluster must be those of the graph
    in use, whatever id an earlier, freed graph had."""
    d = Dataset(clusters=(make_cluster(rng, 4, treatments=np.array([1, 1, 0, 0])),))
    lists = ([[1], [2], [3], [0]], [[3], [0], [1], [2]])

    def design(r):
        graph = NeighborGraph(order=1, lists={0: np.array(lists[r % 2])})
        return design_matrix(CoarsenedCount(order=1, thresholds=(0, 0), graph=graph), d)

    expected = [design_matrix(CoarsenedCount(order=1, thresholds=(0, 0), graph=NeighborGraph(
        order=1, lists={0: np.array(lists[r])})), fresh_copy(d)) for r in range(2)]
    assert not np.array_equal(*expected)
    for r in range(20):
        assert np.array_equal(design(r), expected[r % 2])


def test_coarsened_count_level_lists_are_cached_per_size_group(rng, monkeypatch):
    """Each size group's padded level lists are built once and cached with
    the graph they were built from; a block reads them from a warm group as
    it does from a fresh one, and they list each unit's level units."""
    from clusterbal import structures

    built = []
    original = CoarsenedCount._levels
    monkeypatch.setattr(CoarsenedCount, "_levels",
                        lambda s, g: built.extend(c.cluster_id for c in g) or original(s, g))
    d = make_dataset(rng, 24, sizes=(1, 7), p=2)
    graph = knn_graph(d, 3)
    for s in (CoarsenedCount(order=2, thresholds=(0, 1), k=2),
              CoarsenedCount(order=2, thresholds=(0, 1), graph=graph)):
        built.clear()
        for group, _, _ in structures._size_groups(d):
            warm = [block.stacked(group) for block in s.indicator_blocks(group)[1:]]
            again = [block.stacked(group) for block in s.indicator_blocks(group)[1:]]
            (fresh,) = fresh_copy(Dataset(clusters=tuple(group))).groups
            cold = [block.stacked(fresh) for block in s.indicator_blocks(fresh)[1:]]
            for w, a, c in zip(warm, again, cold):
                assert np.array_equal(w, a) and np.array_equal(w, c)
            m = group[0].size
            for b, cluster in enumerate(group):
                direct = [set(r) for r in neighbor_lists(cluster, None if s.graph else s.k, s.graph)]
                second = [set().union(*(direct[j] for j in direct[i])) - direct[i] - {i}
                          for i in range(m)]
                for lists, want in zip((warm[0][b], warm[1][b]), (direct, second)):
                    assert [sorted(row[row < m].tolist()) for row in lists] == [sorted(r) for r in want]
        assert sorted(built) == sorted(2 * [c.cluster_id for c in d.clusters])


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
        rows = design_rows(s, c, a)
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
    r1 = design_rows(s, c, a)[1].copy()
    other = make_cluster(rng, 6, cluster_id=99)
    design_rows(s, other, other.treatments)
    assert np.array_equal(design_rows(s, c, a)[1], r1)


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
        brute += masses[r] * design_rows(s, c, bits[r])
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
                assert np.allclose(rows[r], design_rows(s, c, bits[r])[i])


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
        lam2 = np.stack([outer_row_on_bits(outer, b) for b in slot_bits])  # (4, 4)
        product = lam1 @ lam2
        got = np.stack([design_rows(composed, c, bits[r])[i] for r in range(16)])
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
    brute = sum(masses[r] * design_rows(s, c, bits[r]) for r in range(16))
    assert np.allclose(s.expected_rows(c, probs), brute, atol=1e-12)


COMPOSED = [
    Compose(KnnPattern(2), NoInterference()),
    Compose(KnnPattern(2), KnnPattern(3)),
    Compose(KnnPattern(3), KnnPattern(1)),
    Compose(AdditiveTypes(2), KnnPattern(2)),
    Compose(AdditiveTypes(3), KnnPattern(5)),
    Compose(AdditiveTypes(2), NoInterference()),
    Compose(KnnPattern(1), Compose(KnnPattern(2), KnnPattern(3))),
    Compose(AdditiveTypes(4), Compose(KnnPattern(2), NoInterference())),
    Compose(Compose(AdditiveTypes(2), KnnPattern(1)), KnnPattern(3)),
]


@pytest.mark.parametrize("structure", COMPOSED, ids=lambda s: s.label)
def test_compose_rows_match_unit_by_unit_oracle(rng, structure):
    """Every row form equals the outer encoding of each unit's list bits,
    built unit by unit, on sizes 1 to 5 (lists shorter than k, and empty)."""
    d = Dataset(clusters=tuple(make_cluster(rng, m, cluster_id=m) for m in range(1, 6)))
    for c in d.clusters:
        bits = enumerate_patterns(c.size)
        want = np.stack([composed_rows(structure, c, a) for a in bits])  # (2^m, m, d)
        for r, a in enumerate(bits):
            assert np.array_equal(design_rows(structure, c, a), want[r])
        for i in range(c.size):
            assert np.array_equal(structure.all_pattern_rows(c, i), want[:, i])
        probs = rng.uniform(0.2, 0.8, c.size)
        masses = np.prod(np.where(bits == 1, probs, 1 - probs), axis=1)
        np.testing.assert_allclose(
            structure.expected_rows(c, probs), np.tensordot(masses, want, 1), rtol=1e-12, atol=1e-15
        )
    phi = np.vstack([composed_rows(structure, c, c.treatments) for c in d.clusters])
    assert np.array_equal(design_matrix(structure, d), phi)


def test_compose_reads_a_given_graph(rng):
    """A graph-backed KnnPattern inner gives the graph's lists, cut to its k."""
    d = Dataset(clusters=tuple(make_cluster(rng, 3, cluster_id=ci) for ci in range(2)))
    graph = NeighborGraph(2, {c.cluster_id: np.array([[2, 1], [0, 2], [1, 0]]) for c in d.clusters})
    for outer in (KnnPattern(2), AdditiveTypes(2), KnnPattern(3)):
        for k in (1, 2):
            structure = Compose(outer, KnnPattern(k, graph=graph))
            for c in d.clusters:
                for a in enumerate_patterns(3):
                    assert np.array_equal(design_rows(structure, c, a), composed_rows(structure, c, a))


def test_compose_with_knn_outer_is_one_hot(rng):
    """A KnnPattern outer makes the composition one-hot: a tensor over it
    takes the scattered design, and its DesignOps one component per slot."""
    from clusterbal.estimators import build_design

    d = make_dataset(rng, 6, sizes=(1, 5))
    for structure in COMPOSED:
        base = structure.outer.outer if isinstance(structure.outer, Compose) else structure.outer
        one_hot = isinstance(base, KnnPattern)
        assert (structure.exposure_mapping is not None) == one_hot
        tensor = TensorWithCovariates(structure, columns=[0, 1])
        if one_hot:
            pieces = build_design(tensor, d, uniform_intervention()).ops()._pieces
            assert all(cols.size == 2 and cols[0] % 2 == 0 for _, cols, *_ in pieces)
        phi = np.vstack([design_rows(tensor, c, c.treatments) for c in d.clusters])
        assert np.array_equal(design_matrix(tensor, d), phi)
        np.testing.assert_allclose(
            target_contributions(tensor, d, uniform_intervention()),
            np.array([
                tensor.expected_rows(c, np.full(c.size, 0.5)).mean(axis=0) for c in d.clusters
            ]),
            rtol=1e-12, atol=1e-15,
        )


def test_compose_rejects_unsupported():
    with pytest.raises(InvalidSpec, match="does not support composition"):
        Compose(NoInterference(), KnnPattern(2))
    with pytest.raises(InvalidSpec, match="does not support composition"):
        Compose(StratifiedCount(2), KnnPattern(2))
    with pytest.raises(InvalidSpec, match="not pattern valued"):
        Compose(KnnPattern(2), StratifiedCount(2))
    with pytest.raises(InvalidSpec, match="not pattern valued"):
        Compose(AdditiveTypes(2), AdditiveTypes(2))


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
            assert np.allclose(phi[r], design_rows(s, c, c.treatments)[i])
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
        def probs_batch(self, clusters):
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
    """A product-form weight is read through `probs_batch`, once per size
    group, on every structure (one-hot tensors and the others alike), and
    its support is never taken."""
    d = make_dataset(rng, 6, sizes=(2, 5))
    probs_by_id = {c.cluster_id: rng.uniform(0.2, 0.8, c.size) for c in d.clusters}
    batches, supported = [], []

    class BatchOnly(BernoulliIntervention):
        def probs_batch(self, clusters):
            batches.append(len(clusters))
            return super().probs_batch(clusters)

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
        def probs_batch(self, clusters):
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
    # one column of ones times covariate 0 or 1: the designs [0, 1] and [1, 0]
    c1 = ClusterSample(covariates=[[0.0, 1.0]], treatments=[1], outcomes=[0.0], cluster_id=0)
    c2 = ClusterSample(covariates=[[1.0, 0.0]], treatments=[0], outcomes=[0.0], cluster_id=1)
    d = Dataset(clusters=(c1, c2))
    first, second = (
        TensorWithCovariates(FromExposureMapping(ConstantMapping()), columns=[j]) for j in (0, 1)
    )
    assert design_matrix(first, d).ravel().tolist() == [0.0, 1.0]
    assert design_matrix(second, d).ravel().tolist() == [1.0, 0.0]
    assert not nested_rank_check(first, second, d)


# ---------- exposure mappings ----------


# the public mappings, then structures whose every `indicator_blocks` block
# is checked as a mapping: shared per-cluster lists, absent types, level
# lists of unequal lengths, and lists read from a `Compose`'s inner
MAPPINGS = [
    OwnTreatment(),
    NeighborPattern(2),
    NeighborPattern(3),
    NeighborCount(2),
    NeighborCount(2, include_own=True),
    IdentityMapping(),
    ConstantMapping(),
    AdditiveTypes(6),
    AdditiveTypes(6, type_source={"column": 0}),
    CoarsenedCount(order=2, thresholds=(0, 1), k=2),
    Compose(AdditiveTypes(3), KnnPattern(2)),
    Compose(KnnPattern(1), Compose(KnnPattern(2), KnnPattern(3))),
]


def _mapping_id(source):
    if isinstance(source, AdditiveTypes):
        return f"{source.label}-{source.type_source}"
    return f"{source.label}-{getattr(source, 'fixed_dim', 'blocks')}"


def _blocks(source, group):
    """A mapping, or every block a structure gives clusters of one size."""
    return source.indicator_blocks(group) if isinstance(source, LowRankStructure) else [source]


def _typed_group(rng, m, n=3):
    """The size group of n clusters of size m whose column 0 holds distinct
    types in 1..6, so below size 6 each cluster lacks some types."""
    return one_size_group(
        ClusterSample(covariates=np.column_stack([rng.permutation(6)[:m] + 1, rng.standard_normal(m)]),
                      treatments=rng.integers(0, 2, m), outcomes=np.zeros(m), cluster_id=b)
        for b in range(n)
    )


def test_exposure_class_probabilities_match_enumeration(rng):
    for m in range(1, 7):
        group = _typed_group(rng, m)
        a = np.stack([c.treatments for c in group])
        probs = rng.uniform(0.2, 0.8, a.shape)
        bits = enumerate_patterns(m)
        for mapping in (block for source in MAPPINGS for block in _blocks(source, group)):
            obs = mapping.classes_batch(group, a)
            analytic = mapping.class_masses_batch(group, probs)
            assert obs.shape == a.shape and obs.dtype == np.int64
            for b, c in enumerate(group):
                classes = mapping.classes_batch(c.group, bits)
                assert np.array_equal(obs[b], classes[pattern_index(c.treatments)])
                if analytic is None:  # the identity mapping has no product form
                    assert obs[b].tolist() == [pattern_index(c.treatments)] * m
                    continue
                assert analytic.shape[:2] == a.shape
                masses = np.prod(np.where(bits == 1, probs[b], 1 - probs[b]), axis=1)
                for i in range(m):
                    brute = np.bincount(classes[:, i], weights=masses, minlength=analytic.shape[2])
                    assert np.allclose(analytic[b, i], brute, rtol=0, atol=1e-12)


@pytest.mark.parametrize("mapping", MAPPINGS, ids=_mapping_id)
@pytest.mark.parametrize("m", range(1, 7))
def test_classes_batch_broadcasts_one_cluster_over_pattern_rows(rng, mapping, m):
    """One cluster for all 2^m rows gives the classes of that cluster repeated per row."""
    group = _typed_group(rng, m)
    bits = enumerate_patterns(m)
    for block in _blocks(mapping, group):
        obs = block.classes_batch(group, np.stack([c.treatments for c in group]))
        for b, c in enumerate(group):
            one = block.classes_batch(c.group, bits)
            assert one.shape == bits.shape and one.dtype == np.int64
            copies = one_size_group(replace(c, cluster_id=r) for r in range(bits.shape[0]))
            assert np.array_equal(one, block.classes_batch(copies, bits))
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
    row = design_rows(s, c, c.treatments)[0]
    xbar = c.covariates[:, 1].mean()
    expected_block = [c.covariates[0, 0], xbar]
    a0 = int(c.treatments[0])
    assert np.allclose(row[2 * a0 : 2 * a0 + 2], expected_block)
    assert np.allclose(row[2 * (1 - a0) : 2 * (1 - a0) + 2], [0.0, 0.0])


@pytest.mark.parametrize(
    "column, read",
    [(0, ("col", 0)), (np.int64(1), ("col", 1)), ("x2", ("col", 1)),
     ({"cluster_mean": 0}, ("mean", 0)), (("cluster_mean", 1), ("mean", 1))],
)
def test_tensor_columns_read_the_named_covariate(rng, column, read):
    c = make_cluster(rng, 3, p=2)
    rows = TensorWithCovariates(NoInterference(), columns=[column]).stacked_covariate_rows(c.group)
    x = c.covariates[:, read[1]]
    assert np.array_equal(rows[0, :, 0], x if read[0] == "col" else np.full(3, x.mean()))


@pytest.mark.parametrize(
    "column",
    ["x0", -1, True, np.bool_(True), 1.0, {"cluster_mean": -1}, {"cluster_mean": True}, "xa",
     "x", "y1", {"cluster_mean": "a"}, {"cluster_mean": 0, "x": 1}, ["cluster_mean", 0],
     ("cluster_mean", -1), None],
    ids=repr,
)
def test_tensor_column_of_another_form_is_refused(rng, column):
    s = TensorWithCovariates(NoInterference(), columns=[0, column])
    with pytest.raises(InvalidSpec, match="tensor column " + re.escape(repr(column))):
        design_matrix(s, make_dataset(rng, 2, sizes=(3, 3), p=2))


# ---------- one row assembly: edge cases against the row oracles ----------


def _assert_assembly_matches_oracles(structure, d, rng):
    """Design (bitwise), target, observed signal and, for a covariate tensor,
    the imbalance incidences, against the unit-by-unit definitions."""
    phi = per_cluster_design(structure, fresh_copy(d))
    assert np.array_equal(design_matrix(structure, d), phi)
    for f in (probit_intervention(0.3), Gate()):
        want = per_cluster_contributions(structure, fresh_copy(d), f)
        scale = max(float(np.abs(want).max()), 1.0)
        np.testing.assert_allclose(target_contributions(structure, d, f), want, rtol=1e-12,
                                   atol=1e-12 * scale)
    h = rng.standard_normal(phi.shape[1])
    want = phi @ h
    np.testing.assert_allclose(observed_signal(structure, d, h), want, rtol=1e-12,
                               atol=1e-12 * max(float(np.abs(want).max()), 1.0))
    if isinstance(structure, TensorWithCovariates):
        f = uniform_intervention()
        report = imbalance_report(d, structure, f, balancing_fit(d, structure, f))
        _, m_counts = per_cluster_imbalance_scales(structure, fresh_copy(d))
        assert np.array_equal(report.m_counts, m_counts)


def _typed_cluster(rng, cid, types, a):
    x = np.column_stack([types, rng.standard_normal((len(types), 2))])
    return ClusterSample(covariates=x, treatments=a, outcomes=np.zeros(len(a)), cluster_id=cid)


def test_additive_types_by_column_leave_an_absent_type_at_zero(rng):
    """Clusters of size 2 carry two of three types, so each type is present in
    some clusters of the size group and absent in others. An absent type's
    columns are zero in the rows, the target and the incidences, and its
    block has no mass there. In the weighted projection's closed form such
    a block adds nothing, and is no positivity failure, while F0, the
    weight's total mass, still counts at every unit: the closed form equals
    the per-unit SVD."""
    types = [(1, 2), (1, 3), (2, 3), (3, 1), (2,), (1, 2, 3)]
    d = Dataset(clusters=tuple(
        _typed_cluster(rng, ci, t, rng.integers(0, 2, len(t))) for ci, t in enumerate(types)
    ))
    bare = AdditiveTypes(3, type_source={"column": 0})
    phi = design_matrix(bare, d)
    for (start, stop), t in zip(cluster_slices(d.clusters), types):
        for absent in set(range(1, 4)) - set(t):
            assert not phi[start:stop, 2 * absent - 2 : 2 * absent].any()
    loads = target_contributions(bare, d, uniform_intervention())
    for ci, t in enumerate(types):
        assert np.array_equal(loads[ci].reshape(3, 2).sum(axis=1) != 0, [k in t for k in (1, 2, 3)])
    probs = {c.cluster_id: rng.uniform(0.2, 0.8, c.size) for c in d.clusters}
    e = IndependentBernoulli(lambda c: probs[c.cluster_id])
    for structure in (bare, TensorWithCovariates(bare, columns=[1, {"cluster_mean": 2}])):
        _assert_assembly_matches_oracles(structure, d, rng)
        for f in (Gate(), uniform_intervention(), probit_intervention(0.4)):
            got = _block_closed_form(d, structure, f, e)
            assert got is not None
            np.testing.assert_allclose(got, _wproj_svd(d, structure, f, e), rtol=1e-12, atol=1e-12)


def test_nested_tensor_rows_are_the_kronecker_of_the_levels(rng):
    d = with_covariate(make_dataset(rng, 12, sizes=(1, 5), p=3), 1, 0, 0.0)
    for inner in (StratifiedCount(2), AdditiveTypes(5)):
        level = TensorWithCovariates(inner, columns=[0, 1])
        _assert_assembly_matches_oracles(
            TensorWithCovariates(level, columns=[{"cluster_mean": 2}, 2]), d, rng)


@pytest.mark.parametrize("kind", ["knn2", "additive"])
def test_size_one_clusters_in_the_dgp_match_the_oracles(kind, rng):
    cfg = DGPConfig(n=40, interference=kind, cluster_sizes=((1, 0.3), (4, 0.7)), seed=8,
                    gamma=0.5)
    d = gen_dataset(cfg, 0, truth=False)[0]
    assert {c.size for c in d.clusters} == {1, 4}
    want = per_cluster_gen_dataset(cfg, 0)
    np.testing.assert_allclose(d.outcomes, want.outcomes, rtol=1e-13,
                               atol=1e-14)
    _assert_assembly_matches_oracles(dgp_structure(cfg), d, rng)
