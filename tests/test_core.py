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
    RandomSelection,
    SparseTable,
    UnknownPropensity,
    enumerate_patterns,
    eval_propensity,
    eval_weight,
    pattern_index,
    probit_mean_probs,
    sparse_support,
    uniform_intervention,
)
from clusterbal.errors import (
    CapExceeded,
    DegenerateIntervention,
    DimensionMismatch,
    InvalidSpec,
    PropensityUnavailable,
)

from conftest import make_cluster


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
    assert eval_weight(Gate(), [1, 1, 1], c) == 1.0
    assert eval_weight(Gate(), [1, 0, 1], c) == 0.0
    assert eval_weight(Gate(), [0, 0, 0], c) == -1.0


def test_gate_length_mismatch():
    with pytest.raises(DimensionMismatch):
        eval_weight(Gate(), [1, 1], const_cluster(3))


def test_uniform_intervention_mass():
    c = const_cluster(4)
    f = uniform_intervention()
    for pat in enumerate_patterns(4):
        assert eval_weight(f, pat, c) == pytest.approx(2.0**-4)


def test_gate_sparse_support():
    c = const_cluster(3)
    support = sparse_support(Gate(), c)
    assert len(support) == 2
    lookup = {tuple(p.tolist()): w for p, w in support}
    assert lookup[(1, 1, 1)] == 1.0
    assert lookup[(0, 0, 0)] == -1.0


def test_deterministic_target_support():
    c = const_cluster(3)
    support = sparse_support(DeterministicTarget([2]), c)
    assert len(support) == 1
    pat, w = support[0]
    assert pat.tolist() == [0, 0, 1] and w == 1.0


def test_random_selection_support():
    c = const_cluster(3)
    support = sparse_support(RandomSelection(1), c)
    assert len(support) == 3
    assert all(w == pytest.approx(1 / 3) for _, w in support)
    assert all(p.sum() == 1 for p, _ in support)


def test_sparse_table_duplicate_patterns_rejected():
    with pytest.raises(InvalidSpec):
        SparseTable({"c": [((0, 1), 1.0), ((0, 1), 2.0)]})


def test_sparse_table_lookup():
    f = SparseTable({"c": [((0, 1), 2.0), ((1, 1), -1.0)]})
    c = const_cluster(2)
    assert eval_weight(f, [0, 1], c) == 2.0
    assert eval_weight(f, [1, 0], c) == 0.0
    assert len(sparse_support(f, c)) == 2


def brute_support(f, cluster):
    out = []
    for pat in enumerate_patterns(cluster.size):
        w = eval_weight(f, pat, cluster)
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
        got = {tuple(p.tolist()): w for p, w in sparse_support(f, c)}
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
        total = sum(eval_weight(f, pat, c) for pat in enumerate_patterns(m))
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
                eval_weight(base, p, cluster) for p in pats if p[i] == arm
            )
            for p in pats:
                if p[i] != arm:
                    continue
                hw = eval_weight(base, p, cluster) / cond_total
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
            marg[j, p[j]] += eval_weight(base, p, c)
    for p in pats:
        expected = sum(
            (1 if p[j] == 1 else -1) * eval_weight(base, p, c) / marg[j, p[j]]
            for j in range(m)
        )
        assert eval_weight(f, p, c) == pytest.approx(expected, abs=1e-12)


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
        g(i, p) * eval_weight(f, p, c) / m
        for i in range(m)
        for p in enumerate_patterns(m)
    )
    assert via_f == pytest.approx(tau_h_oracle(base, c, g), abs=1e-12)


def test_direct_effect_degenerate_base():
    c = const_cluster(2)
    base = DeterministicTarget([0])  # unit 1 never treated under the base law
    with pytest.raises(DegenerateIntervention):
        eval_weight(DirectEffect(base), [1, 0], c)


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
