"""Clustered observational data, counterfactual weights, and propensity models.

Treatment patterns are plain int8 numpy vectors; a batch of patterns is a
(2^m, m) bit matrix in lexicographic order (row j is the MSB-first binary
expansion of j).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.special import ndtr

from . import _kernels
from .errors import (
    PATTERN_CAP,
    CapExceeded,
    DegenerateIntervention,
    DimensionMismatch,
    InvalidSpec,
    PropensityUnavailable,
)


def enumerate_patterns(m):
    """All 2^m treatment patterns of a size-m cluster, lexicographic order.

    Row j is the binary expansion of j (first unit = most significant bit).
    Raises CapExceeded for m > PATTERN_CAP.
    """
    m = int(m)
    if m < 1:
        raise DimensionMismatch(f"cluster size must be >= 1, got {m}")
    if m > PATTERN_CAP:
        raise CapExceeded(m, "cluster size")
    idx = np.arange(2**m, dtype=np.int64)
    shifts = np.arange(m - 1, -1, -1, dtype=np.int64)
    return ((idx[:, None] >> shifts) & 1).astype(np.int8)


def pattern_index(bits):
    """Lexicographic index of a pattern, or (P,) of each row of a (P, m) bit
    matrix: the inverse of enumerate_patterns."""
    bits = np.asarray(bits, dtype=np.int64)
    return bits @ (1 << np.arange(bits.shape[-1] - 1, -1, -1, dtype=np.int64))


def as_pattern(pattern):
    a = np.asarray(pattern, dtype=np.int8).ravel()
    if a.size and a.view(np.uint8).max() > 1:  # a negative entry reads as 128..255
        raise DimensionMismatch("treatment patterns must be binary")
    return a


@dataclass(frozen=True)
class ClusterSample:
    """One cluster: covariate rows (m, p) float64, binary treatments (m,)
    int8 and outcomes (m,) float64.

    Built by hand, a cluster checks and converts its arrays here (an array
    already of its dtype is kept, not copied). The clusters of a `Dataset`
    are read-only views into its arrays, which the dataset checked as
    arrays, and are not checked again.
    """

    covariates: np.ndarray
    treatments: np.ndarray
    outcomes: np.ndarray
    cluster_id: object = None
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.covariates, dtype=np.float64))
        a = as_pattern(self.treatments)
        y = np.asarray(self.outcomes, dtype=np.float64).ravel()
        if x.shape[0] < 1:
            raise DimensionMismatch("cluster must contain at least one unit")
        if not (x.shape[0] == a.size == y.size):
            raise DimensionMismatch(
                f"cluster {self.cluster_id!r}: covariate rows ({x.shape[0]}), "
                f"treatments ({a.size}) and outcomes ({y.size}) disagree"
            )
        object.__setattr__(self, "covariates", x)
        object.__setattr__(self, "treatments", a)
        object.__setattr__(self, "outcomes", y)

    def __reduce__(self):
        return ClusterSample, (self.covariates, self.treatments, self.outcomes, self.cluster_id)

    @property
    def size(self):
        return self.covariates.shape[0]

    @property
    def p(self):
        return self.covariates.shape[1]

    @property
    def group(self):
        """The cluster as a one-cluster SizeGroup of [None] views of its
        covariates and treatments. While its dataset lives, a dataset's
        cluster reads its row of its size group's cached results."""
        return SizeGroup((self,), None, None, self.covariates[None], self.treatments[None],
                         self._cache)


class SizeGroup(tuple):
    """The clusters of one size m of a dataset, in dataset order: a sequence
    of them that also holds their cluster indices `idx` (B,), their unit
    rows `rows` (B, m) and their stacked `covariates` (B, m, p) and
    `treatments` (B, m), read-only, which the batch methods read. A lone
    cluster's group (`ClusterSample.group`) has no idx or rows.
    """

    def __new__(cls, clusters, idx, rows, covariates, treatments, cluster_cache=None):
        self = super().__new__(cls, clusters)
        self.idx, self.rows, self.covariates, self.treatments = idx, rows, covariates, treatments
        # a lone cluster's group keeps its results in the cluster's cache, where
        # a dataset's cluster finds (a weak reference to it, group, position):
        # no cluster refers to its dataset or group, so no cycle keeps them alive
        self._cache = {} if cluster_cache is None else cluster_cache.setdefault("group", {})
        self._within = None if cluster_cache is None else cluster_cache.get("within")
        return self

    def cached(self, key, compute):
        """compute(group), an array or a list of arrays with one row per
        cluster, taken once for the group and kept read-only. The group of
        one cluster of a dataset reads its row of its size group's entry."""
        dataset = self._within and self._within[0]()
        if dataset is not None:
            _, g, b = self._within
            value, row = dataset.groups[g].cached(key, compute), slice(b, b + 1)
            return value[row] if isinstance(value, np.ndarray) else [v[row] for v in value]
        if key not in self._cache:
            self._cache[key] = value = compute(self)
            for v in [value] if isinstance(value, np.ndarray) else value:
                v.flags.writeable = False
        return self._cache[key]


def _read_only(a):
    a = a.view()
    a.flags.writeable = False
    return a


class Dataset:
    """Clusters sharing one covariate dimension, held as read-only
    unit-stacked arrays: `covariates` (N, p) float64, `treatments` (N,)
    int8, `outcomes` (N,) float64, the cluster `starts` (n + 1,), the last
    N, `sizes` (n,) int64 and the tuple `ids`, in cluster order. `clusters`
    are ClusterSample views into them, and `groups` their size groups
    (`SizeGroup`), by ascending size, which keep their cached results.

    `Dataset(clusters)` gathers clusters, which checked themselves, and
    checks their covariate dimension; `Dataset.from_arrays` holds read-only
    views of the arrays given. Both check the arrays once, as arrays.
    """

    def __init__(self, clusters):
        cl = tuple(clusters)
        if len(cl) < 1:
            raise DimensionMismatch("dataset must contain at least one cluster")
        p = cl[0].p
        for c in cl:
            if c.p != p:
                raise DimensionMismatch(
                    f"cluster {c.cluster_id!r} has covariate dimension {c.p}, expected {p}"
                )
        self._hold(*(np.concatenate([getattr(c, name) for c in cl])
                     for name in ("covariates", "treatments", "outcomes")),
                   [c.size for c in cl], [c.cluster_id for c in cl])

    @classmethod
    def from_arrays(cls, covariates, treatments, outcomes, sizes, ids):
        """The dataset whose clusters, in order, have these sizes and ids."""
        dataset = cls.__new__(cls)
        dataset._hold(covariates, treatments, outcomes, sizes, ids)
        return dataset

    def _hold(self, covariates, treatments, outcomes, sizes, ids):
        x = np.asarray(covariates, dtype=np.float64)
        a = as_pattern(treatments)
        y = np.asarray(outcomes, dtype=np.float64).ravel()
        sizes, ids = np.asarray(sizes, dtype=np.int64).ravel(), tuple(ids)
        if not (x.ndim == 2 and x.shape[0] == a.size == y.size == sizes.sum()
                and sizes.size == len(ids) >= 1 and sizes.min() >= 1):
            raise DimensionMismatch(
                f"covariates {x.shape}, {a.size} treatments, {y.size} outcomes and {len(ids)} "
                f"ids disagree with the {sizes.size} cluster sizes, each of which must be >= 1"
            )
        if len(set(ids)) != len(ids):
            raise InvalidSpec("cluster_id values must be unique within a dataset")
        starts = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=starts[1:])
        x, a, y, self.starts, self.sizes = map(_read_only, (x, a, y, starts, sizes))
        self.covariates, self.treatments, self.outcomes, self.ids = x, a, y, ids
        self._cache = {}
        bounds = starts.tolist()
        self.clusters = tuple(_view(x[s:e], a[s:e], y[s:e], cid)
                              for s, e, cid in zip(bounds, bounds[1:], ids))
        self.groups, me = [], weakref.ref(self)
        for g, m in enumerate(np.unique(sizes).tolist()):
            idx = np.flatnonzero(sizes == m)
            rows = starts[idx, None] + np.arange(m)
            group = SizeGroup([self.clusters[i] for i in idx.tolist()],
                              *map(_read_only, (idx, rows, x[rows], a[rows])))
            for b, c in enumerate(group):
                c._cache["within"] = (me, g, b)
            self.groups.append(group)

    def __reduce__(self):
        return Dataset.from_arrays, (self.covariates, self.treatments, self.outcomes, self.sizes,
                                     self.ids)

    def with_outcomes(self, outcomes):
        """This dataset with other outcomes (N,). It shares the size groups'
        cached results, which read no outcome."""
        out = Dataset.from_arrays(self.covariates, self.treatments, outcomes, self.sizes, self.ids)
        for new, old in zip(out.groups, self.groups):
            new._cache = old._cache
        return out

    @property
    def n(self):
        return self.sizes.size

    @property
    def p(self):
        return self.covariates.shape[1]

    @property
    def total_units(self):
        return self.outcomes.size


def _view(covariates, treatments, outcomes, cluster_id):
    """A dataset's cluster over its checked arrays: no check, no copy."""
    c = object.__new__(ClusterSample)
    c.__dict__.update(covariates=covariates, treatments=treatments, outcomes=outcomes,
                      cluster_id=cluster_id, _cache={})
    return c


# ---------- pattern laws: counterfactual weights and propensities ----------


def check_pattern(pattern, cluster):
    """`as_pattern`, checked to have one entry per unit of the cluster."""
    a = as_pattern(pattern)
    if a.size != cluster.size:
        raise DimensionMismatch(f"pattern length {a.size} != cluster size {cluster.size}")
    return a


def _stacked_probs(prob_fn, group):
    """prob_fn of the clusters of a size group (`SizeGroup`), stacked: (B, m)
    float.

    A family with a `batch` method (`ProbitMean`) is evaluated once on the
    group's covariates; any other callable once per cluster.
    """
    if hasattr(prob_fn, "batch"):
        return prob_fn.batch(group)
    rows = [np.asarray(prob_fn(c), dtype=np.float64).ravel() for c in group]
    if [r.size for r in rows] != [c.size for c in group]:
        raise DimensionMismatch("prob_fn returned wrong length")
    return np.array(rows)


class PatternLaw:
    """A law over a cluster's treatment patterns: a counterfactual weight f
    or a propensity e.

    A law defines `masses` or `support`, and the other is derived from it;
    `probs_batch` gives its product form when it has one.
    """

    def masses(self, bits, cluster):
        """The law at each row of a (P, m) pattern bit matrix: (P,) float.
        Derived: each support pair's value at the rows of its pattern, 0
        elsewhere."""
        out = np.zeros(bits.shape[0])
        for pat, value in self.support(cluster):
            out[(bits == pat).all(axis=1)] = value
        return out

    def support(self, cluster):
        """The law's non-zero (pattern, value) pairs. Derived: `masses` at
        every pattern, zeros dropped. A law that defines neither stops here."""
        if type(self).masses is PatternLaw.masses:
            raise NotImplementedError(f"{type(self).__name__} defines neither masses nor support")
        bits = enumerate_patterns(cluster.size)
        values = self.masses(bits, cluster)
        return [(bits[r], float(values[r])) for r in np.flatnonzero(values)]

    def mass(self, pattern, cluster):
        """The law at one pattern of the cluster."""
        return float(self.masses(check_pattern(pattern, cluster)[None], cluster)[0])

    def probs_batch(self, group):
        """Per-unit Bernoulli probabilities of the clusters of a size group
        (`SizeGroup`), stacked (B, m), when the law is a product of
        Bernoullis; else None."""
        return None


class CounterfactualWeight(PatternLaw):
    """Function f(a_c, X_c) defining the estimand as a weighted outcome average."""


class PropensityModel(PatternLaw):
    """The assignment law e(a_c | X_c) of a cluster's treatment pattern."""

    known = True


class _ProductBernoulli(PatternLaw):
    """Units treated independently: prob_fn maps a cluster to its (M_c,)
    vector of treatment probabilities, which must pass `_in_range`."""

    def __init__(self, prob_fn):
        self.prob_fn = prob_fn

    def _probs(self, group):
        """prob_fn of a size group, stacked (B, m) and range checked; private,
        so a subclass that turns `probs_batch` off keeps its masses."""
        pi = _stacked_probs(self.prob_fn, group)
        if not self._in_range(pi).all():
            raise InvalidSpec(self._range_message)
        return pi

    def masses(self, bits, cluster):
        return _kernels.pattern_masses(bits, self._probs(cluster.group))

    def probs_batch(self, group):
        return self._probs(group)


class Gate(CounterfactualWeight):
    """Global treatment-vs-control contrast: +1 on all-ones, -1 on all-zeros."""

    def support(self, cluster):
        m = cluster.size
        return [
            (np.ones(m, dtype=np.int8), 1.0),
            (np.zeros(m, dtype=np.int8), -1.0),
        ]


class BernoulliIntervention(_ProductBernoulli, CounterfactualWeight):
    """Stochastic intervention treating units independently."""

    _range_message = "intervention probabilities must lie in [0, 1]"

    @staticmethod
    def _in_range(pi):
        return (pi >= 0) & (pi <= 1)  # written so that NaN fails it


def uniform_intervention():
    """Uniform stochastic intervention: every pattern gets mass 2^-m."""
    return BernoulliIntervention(lambda c: np.full(c.size, 0.5))


class RandomSelection(CounterfactualWeight):
    """Uniformly random selection of a fixed number of treated units."""

    def __init__(self, count):
        self.count = count

    def _count(self, cluster):
        k = self.count(cluster) if callable(self.count) else self.count
        k = int(k)
        if not 0 <= k <= cluster.size:
            raise InvalidSpec(f"selection count {k} outside [0, {cluster.size}]")
        return k

    def masses(self, bits, cluster):
        k = self._count(cluster)
        return np.where(bits.sum(axis=1) == k, 1.0 / math.comb(cluster.size, k), 0.0)

    def support(self, cluster):
        m, k = cluster.size, self._count(cluster)
        n_pat = math.comb(m, k)
        if n_pat > 2**PATTERN_CAP:
            raise CapExceeded(m, "cluster size")
        w = 1.0 / n_pat
        out = []
        for idx in combinations(range(m), k):
            a = np.zeros(m, dtype=np.int8)
            a[list(idx)] = 1
            out.append((a, w))
        return out


class DeterministicTarget(CounterfactualWeight):
    """Point mass on the pattern treating exactly a selected unit set."""

    def __init__(self, selector):
        self.selector = selector

    def _units(self, cluster):
        sel = self.selector
        if callable(sel):
            units = sel(cluster)
        elif isinstance(sel, dict):
            if cluster.cluster_id not in sel:
                raise InvalidSpec(f"no target units for cluster {cluster.cluster_id!r}")
            units = sel[cluster.cluster_id]
        else:
            units = sel
        units = sorted(int(u) for u in units)
        if units and (units[0] < 0 or units[-1] >= cluster.size):
            raise DimensionMismatch("target unit index out of range")
        return units

    def support(self, cluster):
        a = np.zeros(cluster.size, dtype=np.int8)
        a[self._units(cluster)] = 1
        return [(a, 1.0)]


class SparseTable(CounterfactualWeight):
    """Explicit (pattern, weight) table per cluster."""

    def __init__(self, entries):
        # entries: {cluster_id: [(pattern, weight), ...]}
        self.entries = {}
        for cid, rows in entries.items():
            seen = set()
            norm = []
            for pat, w in rows:
                a = as_pattern(pat)
                key = tuple(int(b) for b in a)
                if key in seen:
                    raise InvalidSpec(f"duplicate pattern {key} for cluster {cid!r}")
                seen.add(key)
                norm.append((a, float(w)))
            self.entries[cid] = norm

    def support(self, cluster):
        rows = self.entries.get(cluster.cluster_id, [])
        for a, _ in rows:
            if a.size != cluster.size:
                raise DimensionMismatch(
                    f"table pattern length {a.size} != cluster size {cluster.size}"
                )
        return [(a, w) for a, w in rows if w != 0.0]


class DirectEffect(CounterfactualWeight):
    """Direct effect of one's own treatment under a base stochastic intervention.

    f(a) = sum_j (-1)^(1-a_j) * base(a) / marginal_j(a_j), the counterfactual
    weight whose estimand is the own-treatment contrast averaged over the base
    intervention's conditional law for the other units.
    """

    def __init__(self, base):
        self.base = base

    def _marginals(self, cluster):
        # the entry holds the base, so no other law can take its id
        key = ("direct_effect_marginals", id(self.base))
        if key in cluster._cache:
            return cluster._cache[key][1]
        m = cluster.size
        marg = np.zeros((m, 2))
        for pat, w in self.base.support(cluster):
            for j in range(m):
                marg[j, int(pat[j])] += w
        if (marg == 0).any():
            raise DegenerateIntervention(
                "base intervention puts zero mass on some unit's treatment arm"
            )
        cluster._cache[key] = (self.base, marg)
        return marg

    def _at(self, bits, base_masses, cluster):
        """f at each row of bits, given the base law's masses there: (P,)."""
        marg = self._marginals(cluster)
        terms = np.where(bits == 1, 1.0, -1.0) / marg[np.arange(bits.shape[1]), bits]
        # every summand carries the factor base(a); a bare product gives -0.0
        return np.where(base_masses == 0.0, 0.0, base_masses * terms.sum(axis=1))

    def masses(self, bits, cluster):
        return self._at(bits, self.base.masses(bits, cluster), cluster)

    def support(self, cluster):
        base = self.base.support(cluster)
        if not base:
            return []
        bits = np.array([pat for pat, _ in base], dtype=np.int8)
        values = self._at(bits, np.array([h for _, h in base]), cluster)
        return [(bits[r], float(values[r])) for r in np.flatnonzero(values)]


class IndependentBernoulli(_ProductBernoulli, PropensityModel):
    """Units treated independently with covariate-driven probabilities."""

    _range_message = "propensity probabilities must lie strictly in (0, 1)"

    @staticmethod
    def _in_range(pi):
        return (pi > 0) & (pi < 1)  # written so that NaN fails it


class JointTable(PropensityModel):
    """Explicit pattern -> probability table per cluster."""

    def __init__(self, tables, tol=1e-10):
        # tables: {cluster_id: {pattern tuple: probability}}
        self.tables = {
            cid: {tuple(int(b) for b in k): float(v) for k, v in tab.items()}
            for cid, tab in tables.items()
        }
        self.tol = tol
        self._masses = {}

    def _table(self, cluster):
        """The cluster's probabilities in `enumerate_patterns` order, checked
        on first use."""
        cid, m = cluster.cluster_id, cluster.size
        if cid not in self.tables:
            raise InvalidSpec(f"no propensity table for cluster {cid!r}")
        if (cid, m) not in self._masses:
            tab = self.tables[cid]
            if len(tab) != 2**m:
                raise InvalidSpec(
                    f"propensity table for cluster {cid!r} has {len(tab)} entries, "
                    f"expected {2**m}"
                )
            for key in tab:
                if len(key) != m or not set(key) <= {0, 1}:
                    raise InvalidSpec(
                        f"propensity table for cluster {cid!r} has key {key!r}, "
                        f"not a pattern of {m} bits"
                    )
            vals = np.array(list(tab.values()))
            if not (vals > 0).all():  # written so that NaN fails it
                raise InvalidSpec("joint propensity table entries must be positive")
            if abs(vals.sum() - 1.0) > self.tol:
                raise InvalidSpec("joint propensity table must sum to 1")
            masses = np.empty(2**m)
            masses[pattern_index(list(tab))] = vals
            self._masses[cid, m] = masses
        return self._masses[cid, m]

    def masses(self, bits, cluster):
        return self._table(cluster)[pattern_index(bits)]


class UnknownPropensity(PropensityModel):
    known = False

    def masses(self, bits, cluster):
        raise PropensityUnavailable(
            "propensity model is unknown; only the balancing estimator applies"
        )


def eval_propensity(e, pattern, cluster):
    """Cluster-level propensity of one pattern; errors if the model is unknown."""
    return e.mass(pattern, cluster)


# ---------- the probit probability family of the simulation design ----------


def _probit_terms(x, kappa):
    """Probit probabilities of one cluster's covariates (m, p) or of a batch
    (B, m, p): Phi(p^{-1/2} * sum_j mean_j(X_c) + kappa * rowmean(X_ci))."""
    cluster_term = x.mean(axis=-2).sum(axis=-1) / math.sqrt(x.shape[-1])
    # a huge kappa overflows to +-inf, where Phi saturates to 1 or 0
    with np.errstate(over="ignore"):
        return ndtr(cluster_term[..., None] + kappa * x.mean(axis=-1))


class ProbitMean:
    """The probit probability family of the simulation design, tilt kappa.

    Called on one cluster it gives that cluster's (m,) probabilities;
    `batch` gives those of a size group (B, m) from one evaluation on its
    stacked covariates, which equals the per-cluster one bit for bit.
    """

    def __init__(self, kappa):
        self.kappa = float(kappa)

    def __call__(self, cluster):
        return _probit_terms(cluster.covariates, self.kappa)

    def batch(self, group):
        return _probit_terms(group.covariates, self.kappa)


def probit_mean_probs(cluster, kappa):
    """Per-unit probit probabilities driven by cluster and unit covariate means;
    kappa tilts the law toward units with high average covariates."""
    return ProbitMean(kappa)(cluster)


def probit_intervention(kappa):
    return BernoulliIntervention(ProbitMean(kappa))


def probit_propensity(kappa=0.0):
    return IndependentBernoulli(ProbitMean(kappa))
