import numpy as np
import pytest

from clusterbal import _kernels
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
        assert law.probs_batch([c]) is None
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
    probs = law.probs_batch([c])
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
        assert _hex(law.batch(clusters)) == want
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
    clusters = [const_cluster(3, x=x), const_cluster(3, x=x[::-1].copy())]
    f, e = probit_intervention(1.0), probit_propensity(1.0)
    assert f.probs_batch(clusters[:1]).tolist() == [[1.0, 0.5, 0.0]]
    assert f.probs_batch(clusters).tolist() == [[1.0, 0.5, 0.0], [0.0, 0.5, 1.0]]
    with pytest.raises(InvalidSpec, match="strictly"):
        e.probs_batch(clusters[:1])
    with pytest.raises(InvalidSpec, match="strictly"):
        e.probs_batch(clusters)


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
            model.probs_batch(clusters[:1])
        with pytest.raises(InvalidSpec):
            model.probs_batch(clusters)
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
    assert f.probs_batch(clusters[:1]).shape == (1, 3)
    with pytest.raises(error):
        f.probs_batch(clusters[1:])
    with pytest.raises(error):
        f.probs_batch(clusters)
    good = BernoulliIntervention(lambda c: np.full(c.size, 0.25))
    assert np.array_equal(good.probs_batch(clusters), np.full((2, 3), 0.25))
