import gc
import os
import pickle
import tempfile
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterbal import _kernels
from clusterbal.cli import load_dataset, write_dataset
from clusterbal.core import (
    BernoulliIntervention,
    ClusterSample,
    CounterfactualWeight,
    Dataset,
    DeterministicTarget,
    DirectEffect,
    Gate,
    IndependentBernoulli,
    JointTable,
    ProbitMean,
    PropensityModel,
    RandomSelection,
    SparseTable,
    UnknownPropensity,
    enumerate_patterns,
    eval_propensity,
    pattern_index,
    probit_intervention,
    probit_mean_probs,
    probit_propensity,
    uniform_intervention,
)
from clusterbal.errors import (
    CapExceeded,
    DegenerateIntervention,
    DimensionMismatch,
    InvalidSpec,
    PropensityUnavailable,
)
from clusterbal.estimators import ipw_weights
from clusterbal.simulate import DGPConfig, _calibration_moments, gen_dataset
from clusterbal.structures import _size_groups, knn_graph

from conftest import make_cluster, make_dataset
from oracles import cached_row, cluster_slices, one_size_group, per_cluster_probit, size_group_rows


def const_cluster(m, treatments=None, x=None, cluster_id="c"):
    x = np.zeros((m, 1)) if x is None else x
    a = np.zeros(m, dtype=int) if treatments is None else treatments
    return ClusterSample(covariates=x, treatments=a, outcomes=np.zeros(m), cluster_id=cluster_id)


# ---------- pattern enumeration ----------


def test_enumerate_patterns_m2_lexicographic():
    pats = enumerate_patterns(2)
    assert pats.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_enumerate_patterns_m1():
    assert enumerate_patterns(1).tolist() == [[0], [1]]


def test_enumerate_patterns_cap():
    with pytest.raises(CapExceeded):
        enumerate_patterns(21)


def test_pattern_index_inverts_enumeration():
    pats = enumerate_patterns(4)
    for j in range(16):
        assert pattern_index(pats[j]) == j


# ---------- data model invariants ----------


def test_cluster_validation():
    with pytest.raises(DimensionMismatch):
        ClusterSample(covariates=np.zeros((2, 1)), treatments=[0], outcomes=[0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        ClusterSample(covariates=np.zeros((2, 1)), treatments=[0, 2], outcomes=[0.0, 0.0])


def test_dataset_validation():
    c1 = const_cluster(2)
    c2 = ClusterSample(covariates=np.zeros((2, 2)), treatments=[0, 0], outcomes=[0, 0], cluster_id="d")
    with pytest.raises(DimensionMismatch):
        Dataset(clusters=(c1, c2))
    with pytest.raises(InvalidSpec):
        Dataset(clusters=(c1, const_cluster(3)))  # duplicate cluster_id


def test_dataset_from_arrays_checks_the_arrays():
    x, a, y = np.zeros((3, 2)), np.array([0, 1, 0]), np.zeros(3)
    assert Dataset.from_arrays(x, a, y, [1, 2], ["a", "b"]).sizes.tolist() == [1, 2]
    for args, error in [
        ((x, a, y, [1, 1], ["a", "b"]), DimensionMismatch),  # the sizes sum to 2, not 3
        ((x, a, y, [3, 0], ["a", "b"]), DimensionMismatch),  # an empty cluster
        ((x, a, y, [], []), DimensionMismatch),  # no cluster
        ((x, a, y[:2], [1, 2], ["a", "b"]), DimensionMismatch),  # too few outcomes
        ((x[:, 0], a, y, [1, 2], ["a", "b"]), DimensionMismatch),  # covariates not (N, p)
        ((x, [0, 2, 0], y, [1, 2], ["a", "b"]), DimensionMismatch),  # a treatment not 0/1
        ((x, a, y, [1, 2], ["a"]), DimensionMismatch),  # one id for two clusters
        ((x, a, y, [1, 2], ["a", "a"]), InvalidSpec),  # a repeated id
    ]:
        with pytest.raises(error):
            Dataset.from_arrays(*args)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=10), p=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_clusters_csv_and_arrays_hold_one_layout(sizes, p, seed):
    """`Dataset(clusters=...)`, the CSV loader and `Dataset.from_arrays` hold
    clusters of interleaved sizes in one layout: the same arrays, cluster
    starts and size groups (the per-cluster derivations of `oracles`), each
    group's stacked arrays, and cluster views into the arrays."""
    rng = np.random.default_rng(seed)
    clusters = [make_cluster(rng, m, p=p, cluster_id=f"c{i}") for i, m in enumerate(sizes)]
    names = ("covariates", "treatments", "outcomes")
    stacked = {name: np.concatenate([getattr(c, name) for c in clusters]) for name in names}
    by_clusters = Dataset(clusters=tuple(clusters))
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(by_clusters, os.path.join(tmp, "d.csv"))
        loaded = load_dataset(os.path.join(tmp, "d.csv"))
    by_arrays = Dataset.from_arrays(*stacked.values(), sizes, [c.cluster_id for c in clusters])
    slices = cluster_slices(clusters)
    for d in (by_clusters, loaded, by_arrays):
        assert (d.n, d.p, d.total_units) == (len(sizes), p, sum(sizes))
        assert d.ids == tuple(c.cluster_id for c in clusters) and d.sizes.tolist() == sizes
        assert list(zip(d.starts[:-1].tolist(), d.starts[1:].tolist())) == slices
        assert d.treatments.dtype == np.int8
        for name in names:
            assert np.array_equal(getattr(d, name), stacked[name])
        groups = size_group_rows(clusters)
        assert len(d.groups) == len(groups)
        for group, (idx, rows) in zip(d.groups, groups):
            assert np.array_equal(group.idx, idx) and np.array_equal(group.rows, rows)
            for name in ("covariates", "treatments"):
                want = np.stack([getattr(clusters[i], name) for i in idx])
                assert np.array_equal(getattr(group, name), want)
            assert all(c is d.clusters[i] for c, i in zip(group, idx))
        for view, c, (start, stop) in zip(d.clusters, clusters, slices):
            assert view.cluster_id == c.cluster_id and view.size == c.size
            for name in names:
                got, whole = getattr(view, name), getattr(d, name)
                assert np.array_equal(got, getattr(c, name))
                assert np.shares_memory(got, whole) and np.array_equal(got, whole[start:stop])
            assert np.array_equal(view.group.covariates, c.covariates[None])
            assert np.array_equal(view.group.treatments, c.treatments[None])


def test_a_datasets_arrays_and_their_views_are_read_only(rng):
    d = make_dataset(rng, 8, sizes=(1, 4), p=2)
    graph = knn_graph(d, 2)
    c, group = d.clusters[3], d.groups[-1]
    arrays = [getattr(d, name) for name in ("covariates", "treatments", "outcomes", "starts", "sizes")]
    arrays += [c.covariates, c.treatments, c.outcomes, group.covariates, group.treatments,
               group.idx, group.rows, cached_row(group[0], "knn_order"), graph.neighbors(group[0])]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_a_dataset_and_its_clusters_pickle_as_their_arrays(rng):
    d = make_dataset(rng, 8, sizes=(1, 4), p=2)
    knn_graph(d, 2)  # a warm cache is left behind
    copy = pickle.loads(pickle.dumps(d))
    for name in ("covariates", "treatments", "outcomes", "starts", "sizes"):
        assert np.array_equal(getattr(copy, name), getattr(d, name))
    assert copy.ids == d.ids and [len(g) for g in copy.groups] == [len(g) for g in d.groups]
    c = pickle.loads(pickle.dumps(d.clusters[3]))
    assert c.cluster_id == d.clusters[3].cluster_id
    for name in ("covariates", "treatments", "outcomes"):
        assert np.array_equal(getattr(c, name), getattr(d.clusters[3], name))


def test_a_dataset_is_freed_without_the_cycle_collector(rng):
    """No cluster refers to its dataset or size group, so a dataset, warm
    caches and all, goes when its last reference does."""
    d = gen_dataset(DGPConfig(n=30, interference="knn2", seed=4, gamma=1.0), 0, truth=False)[0]
    cached_row(d.clusters[0], "knn_order")
    gone = weakref.ref(d)
    gc.disable()
    try:
        del d
        assert gone() is None
    finally:
        gc.enable()


def test_loading_drawing_and_calibrating_check_no_cluster_one_by_one(rng, tmp_path, monkeypatch):
    """The CSV loader, a `gen_dataset` replicate and a calibration block build
    their datasets from arrays, without one ClusterSample check per cluster."""
    write_dataset(make_dataset(rng, 20, sizes=(1, 4)), tmp_path / "d.csv")
    checked = []
    check = ClusterSample.__post_init__
    monkeypatch.setattr(ClusterSample, "__post_init__", lambda c: checked.append(c) or check(c))
    assert load_dataset(tmp_path / "d.csv").n == 20
    cfg = DGPConfig(n=30, interference="knn2", seed=4)
    assert gen_dataset(cfg, 0, truth=False)[0].n == 30
    assert _calibration_moments(cfg, 300)[0].size == 300
    assert checked == []


# ---------- counterfactual weights ----------


def test_gate_values():
    c = const_cluster(3)
    assert Gate().mass([1, 1, 1], c) == 1.0
    assert Gate().mass([1, 0, 1], c) == 0.0
    assert Gate().mass([0, 0, 0], c) == -1.0


def test_gate_length_mismatch():
    with pytest.raises(DimensionMismatch):
        Gate().mass([1, 1], const_cluster(3))


def test_uniform_intervention_mass():
    c = const_cluster(4)
    f = uniform_intervention()
    for pat in enumerate_patterns(4):
        assert f.mass(pat, c) == pytest.approx(2.0**-4)


def test_gate_sparse_support():
    c = const_cluster(3)
    support = Gate().support(c)
    assert len(support) == 2
    lookup = {tuple(p.tolist()): w for p, w in support}
    assert lookup[(1, 1, 1)] == 1.0
    assert lookup[(0, 0, 0)] == -1.0


def test_deterministic_target_support():
    c = const_cluster(3)
    support = DeterministicTarget([2]).support(c)
    assert len(support) == 1
    pat, w = support[0]
    assert pat.tolist() == [0, 0, 1] and w == 1.0


def test_random_selection_support():
    c = const_cluster(3)
    support = RandomSelection(1).support(c)
    assert len(support) == 3
    assert all(w == pytest.approx(1 / 3) for _, w in support)
    assert all(p.sum() == 1 for p, _ in support)


def test_sparse_table_duplicate_patterns_rejected():
    with pytest.raises(InvalidSpec):
        SparseTable({"c": [((0, 1), 1.0), ((0, 1), 2.0)]})


def test_sparse_table_lookup():
    f = SparseTable({"c": [((0, 1), 2.0), ((1, 1), -1.0)]})
    c = const_cluster(2)
    assert f.mass([0, 1], c) == 2.0
    assert f.mass([1, 0], c) == 0.0
    assert len(f.support(c)) == 2


def _random_table(rng, m):
    masses = rng.uniform(0.5, 1.5, 2**m)
    return dict(zip(map(tuple, enumerate_patterns(m).tolist()), masses / masses.sum()))


def _sparse(rng, m):
    rows = rng.choice(2**m, size=min(3, 2**m), replace=False)
    return SparseTable({"c": list(zip(enumerate_patterns(m)[rows], [1.5, -0.5, 0.0]))})


# every law of a size-m cluster with id "c"
LAWS = {
    "gate": lambda rng, m: Gate(),
    "uniform": lambda rng, m: uniform_intervention(),
    "probit_intervention": lambda rng, m: probit_intervention(0.4),
    "random_selection": lambda rng, m: RandomSelection(int(rng.integers(0, m + 1))),
    "deterministic": lambda rng, m: DeterministicTarget(list(range(0, m, 2))),
    "sparse": _sparse,
    "direct_effect": lambda rng, m: DirectEffect(probit_intervention(0.4)),
    "independent_bernoulli": lambda rng, m: IndependentBernoulli(
        lambda c, p=rng.uniform(0.1, 0.9, m): p),
    "probit_propensity": lambda rng, m: probit_propensity(0.3),
    "joint_table": lambda rng, m: JointTable({"c": _random_table(rng, m)}),
    "unknown": lambda rng, m: UnknownPropensity(),
}
PROBABILITY_LAWS = {"uniform", "probit_intervention", "random_selection", "deterministic",
                    "independent_bernoulli", "probit_propensity", "joint_table"}


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("name", sorted(LAWS))
def test_pattern_law_contract(name, m):
    """`masses`, `support`, `mass` and `probs_batch` of every law state one
    set of values, and a probability law's values sum to one."""
    rng = np.random.default_rng(m)
    c = make_cluster(rng, m, cluster_id="c")
    law = LAWS[name](rng, m)
    bits = enumerate_patterns(m)
    with pytest.raises(DimensionMismatch, match=f"pattern length {m + 1} != cluster size {m}"):
        law.mass(np.zeros(m + 1), c)
    if name == "unknown":
        assert law.probs_batch(c.group) is None
        for read in (lambda: law.masses(bits, c), lambda: law.support(c), lambda: law.mass(bits[0], c)):
            with pytest.raises(PropensityUnavailable):
                read()
        return
    masses = law.masses(bits, c)
    scattered = np.zeros(2**m)
    for a, v in law.support(c):
        assert a.dtype == np.int8 and v != 0.0
        scattered[pattern_index(a)] += v
    assert np.array_equal(masses, scattered)
    assert [law.mass(a, c) for a in bits] == masses.tolist()
    probs = law.probs_batch(c.group)
    if probs is not None:
        assert np.array_equal(_kernels.pattern_masses(bits, probs), masses)
    if name in PROBABILITY_LAWS:
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("base", [CounterfactualWeight, PropensityModel])
def test_a_law_defining_neither_masses_nor_support_names_its_class(base):
    bare, c = type("Bare", (base,), {})(), const_cluster(2)
    for read in (lambda: bare.masses(enumerate_patterns(2), c), lambda: bare.support(c),
                 lambda: bare.mass([0, 1], c)):
        with pytest.raises(NotImplementedError, match="Bare defines neither masses nor support"):
            read()


# ---------- direct effect ----------


def tau_h_oracle(base, cluster, g):
    """Direct-effect estimand by its definition: own-treatment contrast under
    the base intervention's conditional law for the other units."""
    m = cluster.size
    total = 0.0
    pats = enumerate_patterns(m)
    for i in range(m):
        for arm in (0, 1):
            cond_total = sum(
                base.mass(p, cluster) for p in pats if p[i] == arm
            )
            for p in pats:
                if p[i] != arm:
                    continue
                hw = base.mass(p, cluster) / cond_total
                total += (1 if arm == 1 else -1) * g(i, p) * hw / m
    return total


def test_direct_effect_formula(rng):
    """f(a) built from the conditional-normalized base, checked term by term."""
    m = 3
    c = make_cluster(rng, m)
    base = BernoulliIntervention(lambda cl: np.array([0.3, 0.5, 0.7]))
    f = DirectEffect(base)
    pats = enumerate_patterns(m)
    marg = np.zeros((m, 2))
    for p in pats:
        for j in range(m):
            marg[j, p[j]] += base.mass(p, c)
    for p in pats:
        expected = sum(
            (1 if p[j] == 1 else -1) * base.mass(p, c) / marg[j, p[j]]
            for j in range(m)
        )
        assert f.mass(p, c) == pytest.approx(expected, abs=1e-12)


def test_direct_effect_matches_tau_h_on_own_treatment_outcomes(rng):
    """The estimand of the constructed f equals the direct effect when the
    potential outcomes depend on the unit's own treatment alone (cross-unit
    contrast terms vanish under a product base law)."""
    m = 3
    c = make_cluster(rng, m)
    base = BernoulliIntervention(lambda cl: np.array([0.3, 0.5, 0.7]))
    f = DirectEffect(base)
    own = rng.standard_normal((m, 2))

    def g(i, pat):
        return own[i, pat[i]]

    via_f = sum(
        g(i, p) * f.mass(p, c) / m
        for i in range(m)
        for p in enumerate_patterns(m)
    )
    assert via_f == pytest.approx(tau_h_oracle(base, c, g), abs=1e-12)


def test_direct_effect_never_reads_a_freed_bases_marginals(rng):
    """Base laws made and freed one after another may reuse an id; the
    marginals cached on the cluster must be those of the base in use."""
    c = make_cluster(rng, 3)
    bits = enumerate_patterns(3)
    fresh = lambda: ClusterSample(covariates=c.covariates, treatments=c.treatments,  # noqa: E731
                                  outcomes=c.outcomes, cluster_id=c.cluster_id)
    expected = [DirectEffect(probit_intervention(kappa)).masses(bits, fresh()) for kappa in (0.0, 0.4)]
    for r in range(20):
        f = DirectEffect(probit_intervention(0.4 * (r % 2)))
        assert np.array_equal(f.masses(bits, c), expected[r % 2])
        del f


def test_direct_effect_degenerate_base():
    c = const_cluster(2)
    base = DeterministicTarget([0])  # unit 1 never treated under the base law
    with pytest.raises(DegenerateIntervention):
        DirectEffect(base).mass([1, 0], c)


def test_direct_effect_is_plus_zero_where_the_base_law_is_zero():
    """At the all-zeros pattern the summands are negative, so base(a) times
    their sum would be -0.0 there."""
    masses = DirectEffect(RandomSelection(1)).masses(enumerate_patterns(2), const_cluster(2))
    assert masses[[0, 3]].tolist() == [0.0, 0.0]
    assert not np.signbit(masses).any()


def test_direct_effect_over_an_empty_base_support_is_empty():
    f = DirectEffect(SparseTable({}))
    assert f.support(const_cluster(2)) == []
    with pytest.raises(DegenerateIntervention):
        f.masses(enumerate_patterns(2), const_cluster(2))


# ---------- propensity models ----------


def test_independent_bernoulli_product():
    c = const_cluster(2)
    e = IndependentBernoulli(lambda cl: np.array([0.5, 0.5]))
    assert eval_propensity(e, [1, 0], c) == pytest.approx(0.25)
    total = sum(eval_propensity(e, p, c) for p in enumerate_patterns(2))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_unknown_propensity_raises():
    with pytest.raises(PropensityUnavailable):
        eval_propensity(UnknownPropensity(), [0], const_cluster(1))
    with pytest.raises(PropensityUnavailable):
        UnknownPropensity().support(const_cluster(2))


def test_propensity_support_is_every_pattern_with_its_probability(rng):
    for m in (1, 3, 5):
        c = make_cluster(rng, m, cluster_id="c")
        probs = rng.uniform(0.1, 0.9, m)
        masses = rng.uniform(0.5, 1.5, 2**m)
        table = dict(zip(map(tuple, enumerate_patterns(m)), masses / masses.sum()))
        for e in (IndependentBernoulli(lambda cl: probs), JointTable({"c": table})):
            bits = enumerate_patterns(m)
            support = e.support(c)
            assert np.array_equal(np.array([a for a, _ in support]), bits)
            assert all(a.dtype == np.int8 for a, _ in support)
            assert np.array_equal([p for _, p in support], e.masses(bits, c))


def test_joint_table_validation():
    c = const_cluster(1)
    with pytest.raises(InvalidSpec):
        eval_propensity(JointTable({"c": {(0,): 0.5, (1,): 0.6}}), [0], c)
    good = JointTable({"c": {(0,): 0.5, (1,): 0.5}})
    assert eval_propensity(good, [1], c) == 0.5


def test_bernoulli_propensity_rejects_boundary():
    c = const_cluster(1)
    e = IndependentBernoulli(lambda cl: np.array([1.0]))
    with pytest.raises(InvalidSpec):
        eval_propensity(e, [1], c)


def test_probit_probs_shape_and_range(rng):
    c = make_cluster(rng, 5, p=4)
    pi = probit_mean_probs(c, 0.3)
    assert pi.shape == (5,)
    assert ((pi > 0) & (pi < 1)).all()
    # kappa = 0 removes unit-level variation
    pi0 = probit_mean_probs(c, 0.0)
    assert np.allclose(pi0, pi0[0])


def _hex(rows):
    return [[float.hex(float(v)) for v in row] for row in rows]


@pytest.mark.parametrize("kappa", [0.0, 0.2, -1.5])
@pytest.mark.parametrize("p", [1, 4, 9])
def test_probit_batch_matches_per_cluster_formula_bit_for_bit(p, kappa):
    rng = np.random.default_rng(p)
    law = ProbitMean(kappa)
    for m in range(1, 16):
        clusters = [make_cluster(rng, m, p=p, cluster_id=i) for i in range(5)]
        want = _hex(per_cluster_probit(c.covariates, kappa) for c in clusters)
        assert _hex(law.batch(one_size_group(clusters))) == want
        assert _hex(law(c) for c in clusters) == want
        assert _hex(probit_mean_probs(c, kappa) for c in clusters) == want


def test_probit_laws_match_per_cluster_formula_on_mixed_sizes(rng):
    d = make_dataset(rng, 40, sizes=(1, 12), p=4)
    f, e = probit_intervention(0.2), probit_propensity(0.0)
    for group, _, _ in _size_groups(d):
        assert _hex(f.probs_batch(group)) == _hex(
            per_cluster_probit(c.covariates, 0.2) for c in group)
        assert _hex(e.probs_batch(group)) == _hex(
            per_cluster_probit(c.covariates, 0.0) for c in group)


def test_ipw_weights_evaluate_probit_once_per_size_group_and_law(rng, monkeypatch):
    from clusterbal import core

    calls = []
    terms = core._probit_terms
    monkeypatch.setattr(core, "_probit_terms", lambda x, k: calls.append((x.shape, k)) or terms(x, k))
    d = Dataset(clusters=tuple(make_cluster(rng, 3 + 2 * (i % 2), cluster_id=i) for i in range(8)))
    ipw_weights(d, probit_intervention(0.2), probit_propensity(0.0))
    assert sorted(calls) == sorted(((4, m, 2), k) for m in (3, 5) for k in (0.0, 0.2))


def test_probit_laws_at_saturated_probabilities():
    """Rows whose means are +-40 put Phi at exactly 1.0 and 0.0: the
    intervention takes them, the propensity refuses them on both paths."""
    x = np.array([[40.0, 40.0], [0.0, 0.0], [-40.0, -40.0]])
    clusters = [const_cluster(3, x=x), const_cluster(3, x=x[::-1].copy(), cluster_id="d")]
    f, e = probit_intervention(1.0), probit_propensity(1.0)
    assert f.probs_batch(clusters[0].group).tolist() == [[1.0, 0.5, 0.0]]
    assert f.probs_batch(one_size_group(clusters)).tolist() == [[1.0, 0.5, 0.0], [0.0, 0.5, 1.0]]
    with pytest.raises(InvalidSpec, match="strictly"):
        e.probs_batch(clusters[0].group)
    with pytest.raises(InvalidSpec, match="strictly"):
        e.probs_batch(one_size_group(clusters))


class _NaNFamily:
    def __call__(self, cluster):
        return np.full(cluster.size, np.nan)

    def batch(self, clusters):
        return np.full((len(clusters), clusters[0].size), np.nan)


@pytest.mark.parametrize("prob_fn", [lambda c: np.full(c.size, np.nan), _NaNFamily(),
                                     ProbitMean(np.nan)], ids=["per_cluster", "batch", "probit"])
def test_nan_probabilities_are_refused(rng, prob_fn):
    clusters = [make_cluster(rng, 3, cluster_id=i) for i in range(2)]
    for model in (BernoulliIntervention(prob_fn), IndependentBernoulli(prob_fn)):
        with pytest.raises(InvalidSpec):
            model.probs_batch(clusters[0].group)
        with pytest.raises(InvalidSpec):
            model.probs_batch(one_size_group(clusters))
        with pytest.raises(InvalidSpec):
            model.mass([1, 0, 1], clusters[0])


@pytest.mark.parametrize(
    "probs, error",
    [
        (lambda c: np.full(c.size, 1.5), InvalidSpec),
        (lambda c: np.full(c.size + 1, 0.5), DimensionMismatch),
    ],
    ids=["out_of_range", "wrong_length"],
)
def test_intervention_probabilities_checked_per_cluster_and_per_batch(rng, probs, error):
    clusters = [make_cluster(rng, 3, cluster_id=i) for i in range(2)]
    f = BernoulliIntervention(lambda c: probs(c) if c.cluster_id == 1 else np.full(c.size, 0.5))
    assert f.probs_batch(clusters[0].group).shape == (1, 3)
    with pytest.raises(error):
        f.probs_batch(clusters[1].group)
    with pytest.raises(error):
        f.probs_batch(one_size_group(clusters))
    good = BernoulliIntervention(lambda c: np.full(c.size, 0.25))
    assert np.array_equal(good.probs_batch(one_size_group(clusters)), np.full((2, 3), 0.25))
