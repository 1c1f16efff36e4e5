"""Acceptance checks of the paper's claims.

Exact checks enumerate every assignment of clusters of size <= 4; the
Monte-Carlo checks are marked `slow` and run with `pytest -m slow`. Checks
of other claims live beside the code they test:

- exhaustive unbiasedness under a correct structure:
  `test_estimators.py::test_ipw_exact_unbiasedness_bruteforce`,
  `::test_balancing_conditional_unbiasedness_bruteforce` and
  `::test_projection_exact_unbiasedness_bruteforce`;
- OLS plug-in equivalence: `test_estimators.py::test_ols_equals_balancing_when_feasible`;
- the exposure-class closed form of weighted projection:
  `test_estimators.py::test_wproj_closed_form_matches_svd`;
- noiseless recovery: `test_simulate.py::test_conditional_mu_equals_balancing_point_noiseless`;
- serial/parallel identity: `test_simulate.py::test_monte_carlo_serial_parallel_identical`.

The first two checks solve the unbiasedness equations of one cluster's
m * 2^m weights exactly: IPW is their one solution when the propensity is
known, and no weights solve them under two propensities at once. The
robustness check here enumerates the assignments of a dependent
(`JointTable`) law.
"""

import math

import numpy as np
import pytest
from scipy.stats import norm

from clusterbal.core import (
    BernoulliIntervention,
    ClusterSample,
    Dataset,
    Gate,
    IndependentBernoulli,
    JointTable,
    SparseTable,
    enumerate_patterns,
    uniform_intervention,
)
from clusterbal.estimators import balancing_fit, ipw_fit, ipw_weights, weighted_projection_fit
from clusterbal.simulate import DGPConfig, monte_carlo
from clusterbal.structures import (
    AdditiveTypes,
    CoarsenedCount,
    KnnPattern,
    target_contributions,
    target_vector,
)

from oracles import design_rows, expectation_over_assignments, mu_f_direct, structure_rows

# ---------- uniform unbiasedness without a structure, by enumeration ----------


def _unbiasedness_system(c, e, f):
    """Uniform unbiasedness of sum_i w_i(A) Y_i(A) for one cluster, as linear
    equations in the m * 2^m unknowns w_i(a) (column a * m + i).

    Row a' * m + i matches the coefficient of the potential outcome Y_i(a')
    in E_e[sum_j w_j(A) Y_j(A)] = sum_a e(a) sum_j w_j(a) Y_j(a) with its
    coefficient f(a') / m in the estimand (1/m) sum_a f(a) sum_i Y_i(a).
    """
    bits = enumerate_patterns(c.size)
    e_mass, f_mass = e.masses(bits, c), f.masses(bits, c)
    # Y_i(a') enters sum_a e(a) sum_j w_j(a) Y_j(a) only through the term
    # a = a', j = i, with coefficient e(a'): the system is diagonal
    coef = np.diag(np.repeat(e_mass, c.size))
    target = np.repeat(f_mass / c.size, c.size)
    return coef, target


def _one_cluster(m):
    x = np.random.default_rng(m).standard_normal((m, 2))
    return ClusterSample(covariates=x, treatments=np.zeros(m, dtype=int), outcomes=np.zeros(m),
                         cluster_id="c")


def _random_joint_table(m, seed):
    masses = np.random.default_rng(seed).uniform(0.5, 1.5, 2**m)
    return JointTable({"c": dict(zip(map(tuple, enumerate_patterns(m).tolist()),
                                     masses / masses.sum()))})


def _estimands(m):
    table = [(a, w) for a, w in zip(enumerate_patterns(m), [0.7, -1.2, 2.5]) if a.any()]
    return {"gate": Gate(), "uniform": uniform_intervention(),
            "sparse": SparseTable({"c": table})}


@pytest.mark.parametrize("m", [1, 2, 3])
def test_ipw_is_the_only_uniformly_unbiased_estimator_with_a_known_propensity(m):
    """With e known and positive the system has full rank m * 2^m, and its
    one solution is the IPW weight f(a) / (m e(a)) at every pattern a."""
    c = _one_cluster(m)
    propensities = {"bernoulli": IndependentBernoulli(lambda cl: np.linspace(0.2, 0.7, cl.size)),
                    "joint_table": _random_joint_table(m, 5)}
    for e in propensities.values():
        for f in _estimands(m).values():
            coef, target = _unbiasedness_system(c, e, f)
            assert np.linalg.matrix_rank(coef) == m * 2**m
            w = np.linalg.solve(coef, target).reshape(2**m, m)
            for a, w_a in zip(enumerate_patterns(m), w):
                np.testing.assert_allclose(w_a, ipw_weights(_at(c, a), f, e), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_no_estimator_is_uniformly_unbiased_with_an_unknown_propensity(m):
    """Weights unbiased under two propensities that differ where f != 0 solve
    both systems at once; the stacked system is inconsistent (its augmented
    matrix has rank one more than its coefficient matrix)."""
    c = _one_cluster(m)
    bits = enumerate_patterns(m)
    e1, e2 = IndependentBernoulli(lambda cl: np.full(cl.size, 0.5)), _random_joint_table(m, 6)
    for f in _estimands(m).values():
        assert ((e1.masses(bits, c) != e2.masses(bits, c)) & (f.masses(bits, c) != 0)).any()
        (c1, t1), (c2, t2) = _unbiasedness_system(c, e1, f), _unbiasedness_system(c, e2, f)
        coef, target = np.vstack([c1, c2]), np.concatenate([t1, t2])
        rank = np.linalg.matrix_rank(coef)
        assert np.linalg.matrix_rank(np.column_stack([coef, target])) == rank + 1


# ---------- efficiency of weighted projection with a known propensity ----------

STRUCTURES = [
    AdditiveTypes(4),
    CoarsenedCount(order=1, thresholds=(0.0, 1.0), k=2),
    CoarsenedCount(order=2, thresholds=(0.0, 1.0), k=1),
]


def _clusters():
    rng = np.random.default_rng(41)
    return [
        ClusterSample(covariates=rng.standard_normal((m, 2)), treatments=np.zeros(m, dtype=int),
                      outcomes=np.zeros(m), cluster_id=m)
        for m in (1, 2, 3, 4)
    ]


def _at(c, a):
    """Cluster c with treatments a, as a one-cluster dataset."""
    return Dataset(clusters=(ClusterSample(covariates=c.covariates, treatments=a,
                                           outcomes=np.zeros(c.size), cluster_id=c.cluster_id),))


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: f"{s.label}{getattr(s, 'order', '')}")
def test_wproj_is_unbiased_and_no_less_efficient_than_ipw(structure):
    """Over every assignment a of a product-form propensity e, per cluster:

    - E_e[w_i^2] of weighted projection is at most that of IPW, unit by unit
      (a projection in L2(e) does not grow a norm);
    - sum_a e(a) sum_i w_i(a) y_i(a) equals the target (1/M) sum_a f(a)
      sum_i y_i(a) for every outcome y_i(a) = phi_i(a) . h in the
      structure's span: exact unbiasedness.
    """
    rng = np.random.default_rng(43)
    clusters = _clusters()
    e_probs = {c.cluster_id: rng.uniform(0.2, 0.8, c.size) for c in clusters}
    f_probs = {c.cluster_id: rng.uniform(0.1, 0.9, c.size) for c in clusters}
    e = IndependentBernoulli(lambda c: e_probs[c.cluster_id])
    for f in (BernoulliIntervention(lambda c: f_probs[c.cluster_id]), Gate()):
        for c in clusters:
            bits = enumerate_patterns(c.size)
            masses = e.masses(bits, c)
            h = rng.standard_normal(structure.dim(c))
            second = {"wproj": np.zeros(c.size), "ipw": np.zeros(c.size)}
            mean = 0.0
            for a, mass in zip(bits, masses):
                d = _at(c, a)
                w = weighted_projection_fit(d, structure, f, e).weights.values
                second["wproj"] += mass * w**2
                second["ipw"] += mass * ipw_weights(d, f, e) ** 2
                mean += mass * w @ (design_rows(structure, c, a) @ h)
            assert (second["wproj"] <= second["ipw"] * (1 + 1e-12)).all()
            target = target_contributions(structure, _at(c, bits[0]), f)[0] @ h
            assert mean == pytest.approx(target, rel=1e-12, abs=1e-12)


# ---------- robustness to dependent assignments, by enumeration ----------

# |E[IPW] - mu| / |mu| is at least this when IPW is given an independent
# Bernoulli(1/2) propensity for assignments drawn from the dependent tables
# below; fixed before the test's first run
IPW_BIAS_MARGIN = 0.25

# the true structure, its coefficients h and the cluster sizes: y_i = a of
# unit i's nearest neighbor, and y_i = the number of treated units of the cluster
ROBUSTNESS = {
    "one-hot": (KnnPattern(1), [0.0, 1.0], (2, 3, 4)),
    "additive": (AdditiveTypes(2), [0.0, 1.0, 0.0, 1.0], (1, 2, 2, 2)),
}


def _dependent_table(d):
    """Per cluster, mass 9 on all treated and on all untreated and 1 on every
    other pattern, normalized: each unit is treated with probability 1/2,
    and the units of a cluster tend to move together."""
    tables = {}
    for c in d.clusters:
        bits = enumerate_patterns(c.size)
        count = bits.sum(axis=1)
        mass = np.where((count == 0) | (count == c.size), 9.0, 1.0)
        tables[c.cluster_id] = dict(zip(map(tuple, bits), mass / mass.sum()))
    return JointTable(tables)


@pytest.mark.parametrize("case", list(ROBUSTNESS))
def test_balancing_is_robust_to_dependent_assignments(case):
    """Assignments drawn dependently within clusters (a JointTable) and
    outcomes y = phi(a) . h of the true structure. Over every joint
    assignment, balancing, which never reads the propensity, is exactly
    unbiased given feasibility. IPW is unbiased given the true table, and
    biased by at least IPW_BIAS_MARGIN * |mu| given an independent
    Bernoulli(1/2) propensity, although its unit marginals are right."""
    structure, h, sizes = ROBUSTNESS[case]
    h = np.array(h)
    rng = np.random.default_rng(47)
    d = Dataset(clusters=tuple(
        ClusterSample(rng.standard_normal((m, 2)), np.zeros(m, dtype=int), np.zeros(m), cluster_id=ci)
        for ci, m in enumerate(sizes)
    ))
    table, f = _dependent_table(d), Gate()
    independent = IndependentBernoulli(lambda c: np.full(c.size, 0.5))

    def outcome_fn(ci, c, a):
        return structure_rows(structure, c, a) @ h

    mu = mu_f_direct(d, f, outcome_fn)
    assert target_vector(structure, d, f) @ h / d.n == pytest.approx(mu, rel=1e-12)

    def balancing(ds):
        fit = balancing_fit(ds, structure, f)
        return fit.point, fit.feasible

    got, mass = expectation_over_assignments(d, table, outcome_fn, balancing)
    assert mass > 0
    assert got == pytest.approx(mu, rel=1e-10, abs=1e-12)
    for e, unbiased in ((table, True), (independent, False)):
        ipw, mass = expectation_over_assignments(
            d, table, outcome_fn, lambda ds: (ipw_fit(ds, f, e).point, True))
        assert mass == pytest.approx(1.0, abs=1e-12)
        if unbiased:
            assert ipw == pytest.approx(mu, rel=1e-10, abs=1e-12)
        else:
            assert abs(ipw - mu) >= IPW_BIAS_MARGIN * abs(mu), (ipw, mu)


# ---------- Monte Carlo: coverage and variance of additive weighted projection ----------

MC_SEED = 11
MC_REPS = 2000
MC_SDS = 4.0  # band half-width, in binomial or sampling SDs


@pytest.mark.slow
def test_additive_wproj_coverage_and_variance():
    """Additive DGP (n=300), `wproj` with its i.i.d. cluster variance.

    The seed, replicate count and bands are fixed: do not widen or re-seed.
    - Coverage of the nominal 95% CI within 0.95 +- 4 binomial SDs at
      2,000 replicates: sqrt(0.95 * 0.05 / 2000) = 0.0049, so [0.9305, 0.9695].
    - se/sd, the mean CI half-length over 1.96 divided by the Monte-Carlo SD
      of the points, within 1 +- 4 / sqrt(2 (R - 1)) = [0.937, 1.063]: the
      relative sampling SD of an SD from R normal draws.
    - |bias| within 4 SEs, sqrt(sd^2 / R + SE(true mu)^2).
    """
    result = monte_carlo(DGPConfig(n=300, interference="additive", seed=MC_SEED), MC_REPS,
                         estimators=("wproj",))
    m = result.metrics["wproj"]
    assert m["errors"] == 0 and m["n_used"] == MC_REPS
    cov_sd = math.sqrt(0.95 * 0.05 / MC_REPS)
    assert abs(m["coverage"] - 0.95) <= MC_SDS * cov_sd, m
    se_over_sd = m["ci_length"] / (2 * norm.ppf(0.975)) / m["sd"]
    assert abs(se_over_sd - 1.0) <= MC_SDS / math.sqrt(2 * (MC_REPS - 1)), (se_over_sd, m)
    bias_se = math.sqrt(m["sd"] ** 2 / MC_REPS + result.true_mu_se**2)
    assert abs(m["bias"]) <= MC_SDS * bias_se, (bias_se, m)
