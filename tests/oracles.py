"""Brute-force oracles: exhaustive assignment enumeration and direct estimand
sums, independent of the estimator code paths they check."""

import itertools
import math

import numpy as np
from scipy.special import ndtr

from clusterbal.core import ClusterSample, Dataset, enumerate_patterns, eval_propensity, eval_weight


def reassign(dataset, assignments, outcome_fn):
    """Dataset with new treatments and outcomes y = outcome_fn(cluster_idx, cluster, a)."""
    clusters = []
    for ci, (c, a) in enumerate(zip(dataset.clusters, assignments)):
        y = outcome_fn(ci, c, np.asarray(a))
        clusters.append(
            ClusterSample(
                covariates=c.covariates,
                treatments=np.asarray(a),
                outcomes=y,
                cluster_id=c.cluster_id,
            )
        )
    return Dataset(clusters=tuple(clusters))


def joint_assignments(dataset):
    """Every joint treatment assignment across all clusters with its probability factorized later."""
    per_cluster = [enumerate_patterns(c.size) for c in dataset.clusters]
    for combo in itertools.product(*[range(p.shape[0]) for p in per_cluster]):
        yield [per_cluster[ci][j] for ci, j in enumerate(combo)]


def joint_probability(dataset, assignment, propensity):
    p = 1.0
    for c, a in zip(dataset.clusters, assignment):
        p *= eval_propensity(propensity, a, c)
    return p


def expectation_over_assignments(dataset, propensity, outcome_fn, statistic):
    """E[statistic(dataset with A=a)] over the joint assignment law.

    statistic maps the reassigned dataset to (value, include_flag); excluded
    draws condition the expectation on the inclusion event.
    """
    total, mass = 0.0, 0.0
    for assignment in joint_assignments(dataset):
        prob = joint_probability(dataset, assignment, propensity)
        ds = reassign(dataset, assignment, outcome_fn)
        value, include = statistic(ds)
        if include:
            total += prob * value
            mass += prob
    return total / mass, mass


def mu_f_direct(dataset, weight, outcome_fn):
    """(1/n) sum_c (1/M_c) sum_i sum_a g_ci(a) f(a, X_c) with g from outcome_fn."""
    total = 0.0
    for ci, c in enumerate(dataset.clusters):
        for a in enumerate_patterns(c.size):
            w = eval_weight(weight, a, c)
            if w == 0.0:
                continue
            g = outcome_fn(ci, c, a)
            total += w * g.sum() / c.size
    return total / dataset.n


# ---------- the per-cluster probit law (the form `ProbitMean.batch` replaces) ----------


def per_cluster_probit(x, kappa):
    """The simulation design's probit probabilities of one cluster's (m, p)
    covariates: Phi(sum_j mean_j(X_c) / sqrt(p) + kappa * rowmean(X_ci))."""
    return ndtr(x.mean(axis=0).sum() / math.sqrt(x.shape[1]) + kappa * x.mean(axis=1))


# ---------- per-cluster design assembly (the path the size-batched one replaces) ----------


def fresh_copy(dataset):
    """The same clusters with empty per-cluster caches (k-NN lists, covariate rows)."""
    return Dataset(
        clusters=tuple(
            ClusterSample(
                covariates=c.covariates,
                treatments=c.treatments,
                outcomes=c.outcomes,
                cluster_id=c.cluster_id,
            )
            for c in dataset.clusters
        )
    )


def per_cluster_design(structure, dataset):
    """Observed design stacked from `rows_at`, one cluster at a time."""
    return np.vstack([structure.rows_at(c, c.treatments) for c in dataset.clusters])


def per_cluster_contributions(structure, dataset, weight):
    """Target contributions from `expected_rows` (or the weight's support) per cluster."""
    out = np.zeros((dataset.n, structure.dim(dataset.clusters[0])))
    for ci, c in enumerate(dataset.clusters):
        probs = weight.marginal_probs(c)
        if probs is not None:
            out[ci] = structure.expected_rows(c, probs).mean(axis=0)
        else:
            for pat, w in weight.support(c):
                out[ci] += w * structure.rows_at(c, pat).sum(axis=0) / c.size
    return out


def scanned_pieces(phi, n_blocks):
    """DesignOps pieces read off a dense design: rows grouped by their one non-zero block."""
    width = phi.shape[1] // n_blocks
    hit = (phi.reshape(phi.shape[0], n_blocks, width) != 0).any(axis=2)
    assert (hit.sum(axis=1) <= 1).all()
    pieces = []
    for b in range(n_blocks):
        rows = np.flatnonzero(hit[:, b])
        if rows.size:
            pieces.append((rows, slice(b * width, (b + 1) * width)))
    return tuple(pieces)


def nested_in_span(phi_s, phi_l):
    """Dense nesting test: rank([phi_s, phi_l]) == rank(phi_l) at matrix_rank's
    default cut, max(N, d) * eps times the largest singular value."""
    stacked = np.hstack([phi_s, phi_l])
    return int(np.linalg.matrix_rank(stacked)) == int(np.linalg.matrix_rank(phi_l))


def per_cluster_imbalance_scales(structure, dataset):
    """(sigma, m_counts) of the imbalance report, one cluster at a time.

    sigma (d,) is the across-cluster spread of each coordinate's load summed
    over all 2^M_c patterns; m_counts counts the units in each effective
    treatment at the observed patterns.
    """
    z = np.array(
        [
            structure.expected_rows(c, np.full(c.size, 0.5)).mean(axis=0) * 2.0**c.size
            for c in dataset.clusters
        ]
    )
    m_counts = sum(
        (structure.inner.rows_at(c, c.treatments) != 0).sum(axis=0) for c in dataset.clusters
    )
    return z.std(axis=0, ddof=1), np.asarray(m_counts, dtype=float)


# ---------- per-cluster Monte-Carlo replicate (the path the size-batched one replaces) ----------


def per_cluster_gen_dataset(cfg, replicate_index):
    """simulate.gen_dataset's dataset, drawn and evaluated one cluster at a time."""
    from clusterbal import simulate

    cfg = simulate.resolve_gamma(cfg)
    rng = simulate._rng(cfg, simulate._STREAM_DATA, replicate_index)
    chol = simulate._toeplitz_chol(cfg.rho, cfg.p)
    structure = simulate.dgp_structure(cfg)
    h = simulate.dgp_h(cfg, cfg.gamma)
    sigma = math.sqrt(cfg.sigma2)
    sizes = simulate._draw_sizes(cfg, rng, cfg.n)
    clusters = []
    for ci, m in enumerate(sizes):
        x = rng.standard_normal((m, cfg.p)) @ chol.T
        pi0 = per_cluster_probit(x, 0.0)
        a = (rng.random(m) < pi0).astype(np.int8)
        tmp = ClusterSample(covariates=x, treatments=a, outcomes=np.zeros(m), cluster_id=ci)
        g = structure.rows_at(tmp, a) @ h
        y = g + sigma * rng.standard_normal(m)
        cluster = ClusterSample(covariates=x, treatments=a, outcomes=y, cluster_id=ci)
        cluster._cache.update(tmp._cache)
        clusters.append(cluster)
    return Dataset(clusters=tuple(clusters))


def per_cluster_calibration_moments(cfg, draws=2000):
    """(signal, norm2) of simulate.calibrate_snr, one simulated cluster at a time."""
    from clusterbal import simulate

    rng = simulate._rng(cfg, simulate._STREAM_CALIBRATION)
    chol = simulate._toeplitz_chol(cfg.rho, cfg.p)
    structure = simulate.dgp_structure(cfg)
    h1 = simulate.dgp_h(cfg, 1.0)
    sizes = simulate._draw_sizes(cfg, rng, draws)
    signal = np.empty(draws)
    norm2 = np.empty(draws)
    for r, m in enumerate(sizes):
        x = rng.standard_normal((m, cfg.p)) @ chol.T
        pi0 = per_cluster_probit(x, 0.0)
        a = (rng.random(m) < pi0).astype(np.int8)
        pik = per_cluster_probit(x, cfg.kappa)
        af = a.astype(np.float64)
        ratio = np.prod(np.where(af == 1, pik / pi0, (1.0 - pik) / (1.0 - pi0)))
        w_scalar = ratio / m
        tmp = ClusterSample(covariates=x, treatments=a, outcomes=np.zeros(m), cluster_id=r)
        g = structure.rows_at(tmp, a) @ h1
        signal[r] = w_scalar * g.sum()
        norm2[r] = m * w_scalar**2
    return signal, norm2


def per_cluster_ipw_weights(dataset, weight, propensity):
    """Observed-pattern IPW weights f(A_c)/(M_c e(A_c)), one cluster at a time."""
    from clusterbal.errors import PositivityViolation

    out = np.empty(dataset.total_units)
    for (start, stop), c in zip(dataset.cluster_slices(), dataset.clusters):
        e_obs = eval_propensity(propensity, c.treatments, c)
        if e_obs <= 0.0:
            raise PositivityViolation(
                f"propensity {e_obs} <= 0 at the observed pattern of cluster {c.cluster_id!r}"
            )
        out[start:stop] = weight.weight(c.treatments, c) / (c.size * e_obs)
    return out


# ---------- k-NN one-hot encodings (the slot encoding the exposure mappings compute) ----------


def knn_lists(cluster, k):
    """Each unit's k nearest other units, ordered by (squared distance, index)."""
    x = cluster.covariates.tolist()
    lists = []
    for i, xi in enumerate(x):
        def key(j):
            d2 = 0.0
            for a, b in zip(xi, x[j]):
                d2 += (a - b) * (a - b)
            return (d2, j)

        lists.append(sorted((j for j in range(len(x)) if j != i), key=key)[:k])
    return lists


def knn_one_hot_rows(cluster, pattern, kind, k=1, include_own=False):
    """Rows of a named one-hot structure at one pattern, unit by unit.

    kind "own": slot a_i of 2. "count": the number of treated units among
    the k nearest neighbors (and i itself with include_own), of k + 1 (+ 1).
    "pattern": the neighbors' bits read first neighbor most significant,
    the missing low bits of a unit with fewer than k neighbors zero, of 2^k.
    """
    a = [int(b) for b in pattern]
    lists = knn_lists(cluster, k)
    n_slots = {"own": 2, "count": k + 1 + int(include_own), "pattern": 2**k}[kind]
    rows = np.zeros((len(a), n_slots))
    for i, nbrs in enumerate(lists):
        if kind == "own":
            slot = a[i]
        elif kind == "count":
            slot = sum(a[j] for j in nbrs) + (a[i] if include_own else 0)
        else:
            slot = 0
            for t in range(k):
                slot = 2 * slot + (a[nbrs[t]] if t < len(nbrs) else 0)
        rows[i, slot] = 1.0
    return rows
