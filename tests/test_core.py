import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterbal.core import (
    BernoulliIntervention,
    ClusterSample,
    Dataset,
    DeterministicTarget,
    DirectEffect,
    Gate,
    IndependentBernoulli,
    JointTable,
    ProbitMean,
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
from clusterbal.structures import _size_groups

from conftest import make_cluster, make_dataset
from oracles import per_cluster_probit


def const_cluster(m, treatments=None, x=None):
    x = np.zeros((m, 1)) if x is None else x
    a = np.zeros(m, dtype=int) if treatments is None else treatments
    return ClusterSample(covariates=x, treatments=a, outcomes=np.zeros(m), cluster_id="c")


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


# ---------- counterfactual weights ----------


def test_gate_values():
    c = const_cluster(3)
    assert Gate().weight([1, 1, 1], c) == 1.0
    assert Gate().weight([1, 0, 1], c) == 0.0
    assert Gate().weight([0, 0, 0], c) == -1.0


def test_gate_length_mismatch():
    with pytest.raises(DimensionMismatch):
        Gate().weight([1, 1], const_cluster(3))


def test_uniform_intervention_mass():
    c = const_cluster(4)
    f = uniform_intervention()
    for pat in enumerate_patterns(4):
        assert f.weight(pat, c) == pytest.approx(2.0**-4)


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
    assert f.weight([0, 1], c) == 2.0
    assert f.weight([1, 0], c) == 0.0
    assert len(f.support(c)) == 2


def brute_support(f, cluster):
    out = []
    for pat in enumerate_patterns(cluster.size):
        w = f.weight(pat, cluster)
        if w != 0.0:
            out.append((tuple(pat.tolist()), w))
    return dict(out)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_sparse_support_matches_bruteforce(rng, m):
    c = make_cluster(rng, m)
    weights = [
        Gate(),
        uniform_intervention(),
        RandomSelection(min(1, m)),
        DeterministicTarget(list(range(min(2, m)))),
        BernoulliIntervention(lambda cl: np.linspace(0.2, 0.8, cl.size)),
    ]
    for f in weights:
        got = {tuple(p.tolist()): w for p, w in f.support(c)}
        expected = brute_support(f, c)
        assert set(got) == set(expected)
        for k in got:
            assert got[k] == pytest.approx(expected[k], abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_stochastic_interventions_sum_to_one(m, seed):
    r = np.random.default_rng(seed)
    c = const_cluster(m)
    probs = r.uniform(0.05, 0.95, size=m)
    for f in (uniform_intervention(), BernoulliIntervention(lambda cl, p=probs: p), RandomSelection(int(r.integers(0, m + 1)))):
        total = sum(f.weight(pat, c) for pat in enumerate_patterns(m))
        assert total == pytest.approx(1.0, abs=1e-10)


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
                base.weight(p, cluster) for p in pats if p[i] == arm
            )
            for p in pats:
                if p[i] != arm:
                    continue
                hw = base.weight(p, cluster) / cond_total
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
            marg[j, p[j]] += base.weight(p, c)
    for p in pats:
        expected = sum(
            (1 if p[j] == 1 else -1) * base.weight(p, c) / marg[j, p[j]]
            for j in range(m)
        )
        assert f.weight(p, c) == pytest.approx(expected, abs=1e-12)


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
        g(i, p) * f.weight(p, c) / m
        for i in range(m)
        for p in enumerate_patterns(m)
    )
    assert via_f == pytest.approx(tau_h_oracle(base, c, g), abs=1e-12)


def test_direct_effect_degenerate_base():
    c = const_cluster(2)
    base = DeterministicTarget([0])  # unit 1 never treated under the base law
    with pytest.raises(DegenerateIntervention):
        DirectEffect(base).weight([1, 0], c)


# ---------- propensity models ----------


def test_independent_bernoulli_product():
    c = const_cluster(2)
    e = IndependentBernoulli(lambda cl: np.array([0.5, 0.5]))
    assert eval_propensity(e, [1, 0], c) == pytest.approx(0.25)
    total = sum(eval_propensity(e, p, c) for p in enumerate_patterns(2))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_propensity_sums_to_one_random(rng):
    for m in (1, 3, 6):
        c = make_cluster(rng, m)
        e = IndependentBernoulli(lambda cl: rng.uniform(0.1, 0.9, cl.size))
        probs = e.probabilities_for(enumerate_patterns(m), c)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)


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
            assert np.array_equal([p for _, p in support], e.probabilities_for(bits, c))


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
        assert _hex(law.batch(clusters)) == want
        assert _hex(law(c) for c in clusters) == want
        assert _hex(probit_mean_probs(c, kappa) for c in clusters) == want


def test_probit_laws_match_per_cluster_formula_on_mixed_sizes(rng):
    d = make_dataset(rng, 40, sizes=(1, 12), p=4)
    f, e = probit_intervention(0.2), probit_propensity(0.0)
    for group, _, _ in _size_groups(d):
        assert _hex(f.marginal_probs_batch(group)) == _hex(
            per_cluster_probit(c.covariates, 0.2) for c in group)
        assert _hex(e.unit_probs_batch(group)) == _hex(
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
    clusters = [const_cluster(3, x=x), const_cluster(3, x=x[::-1].copy())]
    f, e = probit_intervention(1.0), probit_propensity(1.0)
    assert f.marginal_probs(clusters[0]).tolist() == [1.0, 0.5, 0.0]
    assert f.marginal_probs_batch(clusters).tolist() == [[1.0, 0.5, 0.0], [0.0, 0.5, 1.0]]
    with pytest.raises(InvalidSpec, match="strictly"):
        e.unit_probs(clusters[0])
    with pytest.raises(InvalidSpec, match="strictly"):
        e.unit_probs_batch(clusters)


class _NaNFamily:
    def __call__(self, cluster):
        return np.full(cluster.size, np.nan)

    def batch(self, clusters):
        return np.full((len(clusters), clusters[0].size), np.nan)


@pytest.mark.parametrize("prob_fn", [lambda c: np.full(c.size, np.nan), _NaNFamily(),
                                     ProbitMean(np.nan)], ids=["per_cluster", "batch", "probit"])
def test_nan_probabilities_are_refused(rng, prob_fn):
    clusters = [make_cluster(rng, 3, cluster_id=i) for i in range(2)]
    for model, probs in ((BernoulliIntervention(prob_fn), "marginal_probs"),
                         (IndependentBernoulli(prob_fn), "unit_probs")):
        with pytest.raises(InvalidSpec):
            getattr(model, probs)(clusters[0])
        with pytest.raises(InvalidSpec):
            getattr(model, probs + "_batch")(clusters)


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
    assert f.marginal_probs(clusters[0]).shape == (3,)
    with pytest.raises(error):
        f.marginal_probs(clusters[1])
    with pytest.raises(error):
        f.marginal_probs_batch(clusters)
    good = BernoulliIntervention(lambda c: np.full(c.size, 0.25))
    assert np.array_equal(good.marginal_probs_batch(clusters), np.full((2, 3), 0.25))
