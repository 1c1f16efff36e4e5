"""Brute-force oracles: exhaustive assignment enumeration and direct estimand
sums, independent of the estimator code paths they check."""

import contextlib
import dataclasses
import functools
import itertools
import json
import math

import numpy as np
import pytest
from scipy.special import ndtr

from clusterbal import estimators, inference
from clusterbal.core import ClusterSample, Dataset, enumerate_patterns, eval_propensity
from clusterbal.numerics import DesignOps, _default_rcond, _validate, dense_design


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
            w = weight.mass(a, c)
            if w == 0.0:
                continue
            g = outcome_fn(ci, c, a)
            total += w * g.sum() / c.size
    return total / dataset.n


# ---------- the dataset layout, derived one cluster at a time ----------


def cluster_slices(clusters):
    """(start, stop) row range of each cluster in unit-stacked arrays."""
    out, start = [], 0
    for c in clusters:
        out.append((start, start + c.size))
        start += c.size
    return out


def size_group_rows(clusters):
    """(cluster indices (B,), unit rows (B, m)) of each cluster size m, ascending."""
    sizes = np.array([c.size for c in clusters])
    starts = np.cumsum(sizes) - sizes
    return [(np.flatnonzero(sizes == m), starts[sizes == m, None] + np.arange(m))
            for m in np.unique(sizes)]


def with_covariate(dataset, ci, at, value):
    """The dataset built again from its clusters, with covariates[at] of
    cluster ci set to value on a copy of them."""
    clusters = list(dataset.clusters)
    c = clusters[ci]
    x = c.covariates.copy()
    x[at] = value
    clusters[ci] = ClusterSample(covariates=x, treatments=c.treatments, outcomes=c.outcomes,
                                 cluster_id=c.cluster_id)
    return Dataset(clusters=tuple(clusters))


def cached_row(cluster, key):
    """The cluster's row of its size group's cached entry `key`, which must
    be cached already."""
    def cold(group):
        raise AssertionError(f"{key!r} is not cached on the size group")
    return cluster.group.cached(key, cold)[0]


def one_size_group(clusters):
    """Clusters of one size as the size group (`SizeGroup`) that a dataset
    of them holds: views of their values, with their ids."""
    (group,) = Dataset(clusters=tuple(clusters)).groups
    return group


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
    """Observed design stacked from `structure_rows`, one cluster at a time."""
    return np.vstack([structure_rows(structure, c, c.treatments) for c in dataset.clusters])


def count_pmf(probs):
    """Distribution of the number of successes of independent Bernoulli(probs)."""
    pmf = [1.0]
    for q in probs:
        pmf = [(pmf[j] * (1.0 - q) if j < len(pmf) else 0.0) + (pmf[j - 1] * q if j else 0.0)
               for j in range(len(pmf) + 1)]
    return pmf


def slot_masses(probs, k):
    """Masses of the 2^k k-NN pattern slots of a list with treatment
    probabilities probs, first bit most significant, missing low bits zero."""
    out = np.zeros(2**k)
    for slot in range(2**k):
        mass = 1.0
        for t in range(k):
            bit = (slot >> (k - 1 - t)) & 1
            mass *= (probs[t] if bit else 1.0 - probs[t]) if t < len(probs) else float(not bit)
        out[slot] = mass
    return out


def expected_rows(structure, cluster, probs):
    """E[structure_rows] under independent Bernoulli(probs) treatments, unit by
    unit from each encoding's class probabilities: a count's distribution
    over its counted units, a pattern slot's product of its list's bits, and
    a tensor's expected inner row times the unit's covariate row."""
    from clusterbal.structures import (
        AdditiveTypes,
        CoarsenedCount,
        Compose,
        ConstantMapping,
        KnnPattern,
        NeighborCount,
        NeighborPattern,
        OwnTreatment,
        TensorWithCovariates,
    )

    p = [float(v) for v in probs]
    m = cluster.size
    if isinstance(structure, TensorWithCovariates):
        inner = expected_rows(structure.inner, cluster, probs)
        x = covariate_slot_rows(structure.columns, cluster.covariates)
        return np.stack([np.kron(inner[i], x[i]) for i in range(m)])
    if isinstance(structure, AdditiveTypes):
        row = np.zeros(2 * structure.s)
        for u, t in enumerate(unit_types(structure, cluster)):
            row[2 * (t - 1)], row[2 * (t - 1) + 1] = 1.0 - p[u], p[u]
        return np.tile(row, (m, 1))
    rows = []
    for i in range(m):
        if isinstance(structure, Compose):
            outer = structure.outer
            while isinstance(outer, Compose):
                outer = outer.outer
            listed = [p[j] for j in composed_unit_list(structure.inner, cluster, i)]
            if isinstance(outer, KnnPattern):
                rows.append(slot_masses(listed, outer.k))
            else:
                row = np.zeros(2 * outer.s)
                for t, q in enumerate(listed[: outer.s]):
                    row[2 * t], row[2 * t + 1] = 1.0 - q, q
                rows.append(row)
        elif isinstance(structure, CoarsenedCount):
            k = None if structure.graph is not None else structure.k
            direct = [set(r) for r in neighbor_lists(cluster, k, structure.graph)]
            levels = [direct[i]]
            if structure.order == 2:
                levels.append(set().union(*(direct[j] for j in direct[i])) - direct[i] - {i})
            row = [1.0 - p[i], p[i]]
            for lvl, units in enumerate(levels):
                low, high = structure.thresholds[lvl]
                pmf = count_pmf([p[j] for j in sorted(units)])
                bins = [0.0, 0.0, 0.0]
                for count, mass in enumerate(pmf):
                    bins[0 if count <= low else 1 if count <= high else 2] += mass
                row += bins
            rows.append(np.array(row))
        else:
            mapping = structure.mapping
            if isinstance(mapping, OwnTreatment):
                rows.append(np.array([1.0 - p[i], p[i]]))
            elif isinstance(mapping, ConstantMapping):
                rows.append(np.ones(1))
            elif isinstance(mapping, NeighborCount):
                lists = neighbor_lists(cluster, mapping.k, mapping.graph)
                counted = [p[j] for j in lists[i]] + ([p[i]] if mapping.include_own else [])
                row = np.zeros(mapping.k + 1 + int(mapping.include_own))
                pmf = count_pmf(counted)
                row[: len(pmf)] = pmf
                rows.append(row)
            else:
                assert isinstance(mapping, NeighborPattern), mapping
                lists = neighbor_lists(cluster, mapping.k, mapping.graph)
                rows.append(slot_masses([p[j] for j in lists[i]], mapping.k))
    return np.stack(rows)


def per_cluster_contributions(structure, dataset, weight):
    """Target contributions per cluster: `expected_rows` under a product-form
    weight, else the weighted sum of `structure_rows` over its support."""
    out = []
    for c in dataset.clusters:
        probs = weight.probs_batch(c.group)
        if probs is not None:
            rows = expected_rows(structure, c, probs[0])
        else:
            zero = np.zeros((c.size, structure.dim(c)))
            rows = sum((w * structure_rows(structure, c, pat) for pat, w in weight.support(c)), zero)
        out.append(rows.sum(axis=0) / c.size)
    return np.array(out)


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


def design_rows(structure, cluster, pattern):
    """A structure's rows of one cluster at a pattern: design_matrix of the
    one-cluster dataset, (m, d). At the cluster's observed pattern the
    cluster itself is used, with its caches; at another, a copy of it."""
    from clusterbal.structures import design_matrix

    if not np.array_equal(pattern, cluster.treatments):
        cluster = ClusterSample(covariates=cluster.covariates, treatments=pattern,
                                outcomes=cluster.outcomes, cluster_id=cluster.cluster_id)
    return design_matrix(structure, Dataset(clusters=(cluster,)))


def one_group(a):
    """A dense (N, d) matrix as factors: one size group of N units whose inner
    rows are all [1] and whose covariate rows are a's rows."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    return ((np.arange(n)[None], np.ones((1, n, 1), dtype=bool), a[None]),)


class DenseOps(DesignOps):
    """DesignOps on np.linalg.svd of a dense matrix, cut at rank like it: the
    oracle of the factored decomposition. Its factors are `one_group(phi)`,
    which its residual and `contains` read."""

    def __init__(self, phi):
        phi = _validate(phi)
        self.factors, self.shape = one_group(phi), phi.shape
        u, s, vt = np.linalg.svd(phi, full_matrices=False)
        self.s_max = float(s[0]) if s.size else 0.0
        self.rank = keep = int(np.count_nonzero(s > _default_rcond(phi.shape) * self.s_max))
        rows, cols = np.arange(phi.shape[0]), np.arange(phi.shape[1])
        self._pieces = [(rows, cols, u[:, :keep], s[:keep], vt[:keep])] if keep else []


def _cluster_starts(design):
    """Each cluster's first unit row, read from the design's factors, whose
    size groups list every cluster's unit rows."""
    return np.sort(np.concatenate([rows[:, 0] for rows, _, _ in design.factors]))


def dense_loads(design, weights):
    """Per-cluster sandwich loads L_c(w) = sum_{i in c} w_i phi_i, as the
    reduction of the dense product phi * w: (n, d)."""
    phi = dense_design(design.factors)
    return np.add.reduceat(phi * weights[:, None], _cluster_starts(design), axis=0)


def loads_form_sigma2(dataset, design, fit, w_ipw=None):
    """The sandwich variance of a balancing fit, or with `w_ipw` (the IPW
    weights) a projection fit, in its loads form on the dense SVD: the mean
    over clusters of eta_c^2, eta_c = (L_c(w) - v_c) . h - (s_c - theta),
    with L_c(w) = `dense_loads`, v_c the target contributions or the IPW
    weights' loads, s_c = w_c^T y_c and h = phi^+ y."""
    y = dataset.outcomes
    w = fit.weights.values
    h = DenseOps(dense_design(design.factors)).ols_coefficients(y)
    v = design.contributions if w_ipw is None else dense_loads(design, w_ipw)
    s_c = np.add.reduceat(w * y, _cluster_starts(design))
    eta = (dense_loads(design, w) - v) @ h - (s_c - fit.point)
    return float(np.mean(eta**2))


def with_dense_ops(design):
    """A copy of a DesignSystem whose fits take the dense SVD of its design."""
    return dataclasses.replace(design, _cache={"ops": DenseOps(dense_design(design.factors))})


@contextlib.contextmanager
def served_designs(make=None):
    """Within the block, the fits (`estimators.build_design`) and the
    variances, noise scale and selection (`inference.build_design`) read
    make(structure, dataset, weight) in place of the dataset's design, by
    default `with_dense_ops` of it, so they take the dense SVD. Yields the
    list of designs served; a test checks its length, so it fails when a
    patch is taken out and the program is compared with itself."""
    real, served = estimators.build_design, []
    make = make or (lambda *args: with_dense_ops(real(*args)))

    def serve(structure, dataset, weight=None):
        served.append(make(structure, dataset, weight))
        return served[-1]

    with pytest.MonkeyPatch.context() as patch:
        for module in (estimators, inference):
            patch.setattr(module, "build_design", serve)
        yield served


def nested_in_span(phi_s, phi_l):
    """Dense nesting test: rank([phi_s, phi_l]) == rank(phi_l) at matrix_rank's
    default cut, max(N, d) * eps times the largest singular value."""
    stacked = np.hstack([phi_s, phi_l])
    return int(np.linalg.matrix_rank(stacked)) == int(np.linalg.matrix_rank(phi_l))


def per_cluster_imbalance_scales(structure, dataset):
    """(sigma, m_counts) of the imbalance report, one cluster at a time.

    sigma (d,) is the across-cluster spread of each coordinate's load summed
    over all 2^M_c patterns; m_counts counts the units with a non-zero entry
    in each coordinate of their observed inner row.
    """
    z = np.array([
        expected_rows(structure, c, np.full(c.size, 0.5)).mean(axis=0) * 2.0**c.size
        for c in dataset.clusters
    ])
    m_counts = sum(
        (structure_rows(structure.inner, c, c.treatments) != 0).sum(axis=0)
        for c in dataset.clusters
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
        y = structure_rows(structure, tmp, a) @ h + sigma * rng.standard_normal(m)
        clusters.append(ClusterSample(covariates=x, treatments=a, outcomes=y, cluster_id=ci))
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
        g = structure_rows(structure, tmp, a) @ h1
        signal[r] = w_scalar * g.sum()
        norm2[r] = m * w_scalar**2
    return signal, norm2


def per_cluster_ipw_weights(dataset, weight, propensity):
    """Observed-pattern IPW weights f(A_c)/(M_c e(A_c)), one cluster at a time."""
    from clusterbal.errors import PositivityViolation

    out = np.empty(dataset.total_units)
    for (start, stop), c in zip(cluster_slices(dataset.clusters), dataset.clusters):
        e_obs = eval_propensity(propensity, c.treatments, c)
        if e_obs <= 0.0:
            raise PositivityViolation(
                f"propensity {e_obs} <= 0 at the observed pattern of cluster {c.cluster_id!r}"
            )
        out[start:stop] = weight.mass(c.treatments, c) / (c.size * e_obs)
    return out


# ---------- k-NN one-hot encodings (the slot encoding the exposure mappings compute) ----------


def knn_lists(cluster, k):
    """Each unit's k nearest other units, ordered by (squared distance, index)."""
    x = cluster.covariates
    return [list(row) for row in _knn_lists(x.tobytes(), x.shape, k)]


@functools.lru_cache(maxsize=4096)
def _knn_lists(raw, shape, k):
    x = np.frombuffer(raw).reshape(shape).tolist()
    lists = []
    for i, xi in enumerate(x):
        def key(j):
            d2 = 0.0
            for a, b in zip(xi, x[j]):
                d2 += (a - b) * (a - b)
            return (d2, j)

        lists.append(tuple(sorted((j for j in range(len(x)) if j != i), key=key)[:k]))
    return tuple(lists)


def neighbor_lists(cluster, k, graph=None):
    """The first k entries of each unit's list in a given graph (all of them
    when k is None), else its k nearest other units."""
    if graph is not None:
        return [list(row[:k]) for row in np.asarray(graph.lists[cluster.cluster_id]).tolist()]
    return knn_lists(cluster, k)


def knn_one_hot_rows(cluster, pattern, kind, k=1, include_own=False, graph=None):
    """Rows of a named one-hot structure at one pattern, unit by unit.

    kind "own": slot a_i of 2. "count": the number of treated units among
    the k nearest neighbors (and i itself with include_own), of k + 1 (+ 1).
    "pattern": the neighbors' bits read first neighbor most significant,
    the missing low bits of a unit with fewer than k neighbors zero, of 2^k.
    "constant": one slot. A given graph's lists replace the k-NN ones.
    """
    a = [int(b) for b in pattern]
    lists = neighbor_lists(cluster, k, graph) if kind in ("count", "pattern") else []
    n_slots = {"own": 2, "count": k + 1 + int(include_own), "pattern": 2**k, "constant": 1}[kind]
    rows = np.zeros((len(a), n_slots))
    for i in range(len(a)):
        if kind == "own":
            slot = a[i]
        elif kind == "constant":
            slot = 0
        elif kind == "count":
            slot = sum(a[j] for j in lists[i]) + (a[i] if include_own else 0)
        else:
            slot = 0
            for t in range(k):
                slot = 2 * slot + (a[lists[i][t]] if t < len(lists[i]) else 0)
        rows[i, slot] = 1.0
    return rows


# ---------- every structure's rows, from the definitions ----------


def mapping_rows(mapping, cluster, pattern):
    """Indicator rows of an exposure mapping's classes at one pattern."""
    from clusterbal.structures import ConstantMapping, NeighborCount, NeighborPattern, OwnTreatment

    if isinstance(mapping, OwnTreatment):
        return knn_one_hot_rows(cluster, pattern, "own")
    if isinstance(mapping, ConstantMapping):
        return knn_one_hot_rows(cluster, pattern, "constant")
    if isinstance(mapping, NeighborCount):
        return knn_one_hot_rows(cluster, pattern, "count", mapping.k, mapping.include_own,
                                mapping.graph)
    assert isinstance(mapping, NeighborPattern), mapping
    return knn_one_hot_rows(cluster, pattern, "pattern", mapping.k, graph=mapping.graph)


def unit_types(structure, cluster):
    """AdditiveTypes: the type of each unit, its index + 1 or a covariate's value."""
    source = structure.type_source
    if source == "unit_index":
        return list(range(1, cluster.size + 1))
    return [int(v) for v in cluster.covariates[:, source["column"]]]


def additive_rows(structure, cluster, pattern):
    """AdditiveTypes: one row for every unit, with an (untreated, treated)
    pair per type, set at the treatment of the unit carrying the type and
    zero for a type no unit carries."""
    row = np.zeros(2 * structure.s)
    for u, t in enumerate(unit_types(structure, cluster)):
        row[2 * (t - 1) + int(pattern[u])] = 1.0
    return np.tile(row, (cluster.size, 1))


def coarsened_rows(structure, cluster, pattern):
    """CoarsenedCount: the own pair, then per level the bin (count <= low,
    <= high, above) of the treated units among the unit's direct neighbors
    and, at order 2, among the units at graph distance exactly two."""
    a = [int(b) for b in pattern]
    k = None if structure.graph is not None else structure.k
    direct = [set(row) for row in neighbor_lists(cluster, k, structure.graph)]
    rows = np.zeros((cluster.size, 2 + 3 * structure.order))
    for i in range(cluster.size):
        rows[i, a[i]] = 1.0
        levels = [direct[i]]
        if structure.order == 2:
            levels.append(set().union(*(direct[j] for j in direct[i])) - direct[i] - {i})
        for lvl, units in enumerate(levels):
            count = sum(a[j] for j in units)
            low, high = structure.thresholds[lvl]
            rows[i, 2 + 3 * lvl + (0 if count <= low else 1 if count <= high else 2)] = 1.0
    return rows


def covariate_slot_rows(columns, x):
    """A covariate tensor's per-unit rows: raw columns (an index or "x<j+1>")
    and cluster means of a column; every raw column when columns is None."""
    cols = range(x.shape[1]) if columns is None else columns
    out = []
    for c in cols:
        if isinstance(c, dict):
            out.append(np.full(x.shape[0], x[:, c["cluster_mean"]].mean()))
        elif isinstance(c, (tuple, list)):
            out.append(np.full(x.shape[0], x[:, c[1]].mean()))
        elif isinstance(c, str):
            out.append(x[:, int(c[1:]) - 1])
        else:
            out.append(x[:, int(c)])
    return np.column_stack(out)


def structure_rows(structure, cluster, pattern):
    """Any structure's rows at one pattern, unit by unit: the definitions of
    each encoding, and a tensor's row as the Kronecker product of its inner
    row with the unit's covariate row."""
    from clusterbal.structures import (
        AdditiveTypes,
        CoarsenedCount,
        Compose,
        FromExposureMapping,
        TensorWithCovariates,
    )

    if isinstance(structure, TensorWithCovariates):
        inner = structure_rows(structure.inner, cluster, pattern)
        x = covariate_slot_rows(structure.columns, cluster.covariates)
        return np.stack([np.kron(inner[i], x[i]) for i in range(cluster.size)])
    if isinstance(structure, Compose):
        return composed_rows(structure, cluster, pattern)
    if isinstance(structure, AdditiveTypes):
        return additive_rows(structure, cluster, pattern)
    if isinstance(structure, CoarsenedCount):
        return coarsened_rows(structure, cluster, pattern)
    assert isinstance(structure, FromExposureMapping), structure
    return mapping_rows(structure.mapping, cluster, pattern)


# ---------- composed encodings (the unit-by-unit rows `Compose` replaces) ----------


def outer_row_on_bits(outer, bits):
    """An outer encoding of one unit's ordered list bits.

    KnnPattern(k): the indicator of the first k bits read first bit most
    significant, the missing low bits zero, of 2^k. AdditiveTypes(s): an
    (untreated, treated) pair for each position t < min(s, len(bits)), the
    pairs after those zero. An outer Compose encodes as its own outer.
    """
    from clusterbal.structures import Compose, KnnPattern

    while isinstance(outer, Compose):
        outer = outer.outer
    if isinstance(outer, KnnPattern):
        slot = 0
        for t in range(outer.k):
            slot = 2 * slot + (int(bits[t]) if t < len(bits) else 0)
        row = np.zeros(2**outer.k)
        row[slot] = 1.0
        return row
    row = np.zeros(2 * outer.s)
    for t in range(min(outer.s, len(bits))):
        row[2 * t + int(bits[t])] = 1.0
    return row


def composed_unit_list(inner, cluster, i):
    """The units whose bits a Compose with this inner encodes for unit i:
    [i] under NoInterference, the k nearest other units (or the first k of
    a given graph's list) under KnnPattern(k), and an inner Compose's own
    list cut to its outer's k."""
    from clusterbal.structures import KnnPattern, NoInterference

    if isinstance(inner, NoInterference):
        return [i]
    if isinstance(inner, KnnPattern) and inner.graph is not None:
        return list(inner.graph.lists[cluster.cluster_id][i][: inner.k])
    if isinstance(inner, KnnPattern):
        return knn_lists(cluster, inner.k)[i]
    return composed_unit_list(inner.inner, cluster, i)[: inner.outer.k]


def composed_rows(structure, cluster, pattern):
    """A Compose's rows at one pattern, unit by unit."""
    a = np.asarray(pattern)
    return np.stack([
        outer_row_on_bits(structure.outer, a[composed_unit_list(structure.inner, cluster, i)])
        for i in range(cluster.size)
    ])


def finite_or_null(obj):
    """obj with every NaN or infinite float replaced by None, which JSON writes as null."""
    if isinstance(obj, dict):
        return {k: finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [finite_or_null(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    return obj


def json_artifact_text(doc):
    """The text of a JSON artifact document as json's pure-Python encoder
    writes it at indent=1, its NaN and infinite floats first made null."""
    return json.dumps(finite_or_null(doc), indent=1, sort_keys=True, default=float, allow_nan=False)
