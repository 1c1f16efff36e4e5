"""Clustered observational data, counterfactual weights, and propensity models.

Treatment patterns are plain int8 numpy vectors; a batch of patterns is a
(2^m, m) bit matrix in lexicographic order (row j is the MSB-first binary
expansion of j).
"""

from __future__ import annotations

import math
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


def pattern_index(pattern):
    """Lexicographic index of a pattern (inverse of enumerate_patterns rows)."""
    a = np.asarray(pattern).astype(np.int64)
    idx = 0
    for b in a:
        idx = (idx << 1) | int(b)
    return idx


def as_pattern(pattern):
    a = np.asarray(pattern, dtype=np.int8).ravel()
    if a.size and a.view(np.uint8).max() > 1:  # a negative entry reads as 128..255
        raise DimensionMismatch("treatment patterns must be binary")
    return a


@dataclass(frozen=True)
class ClusterSample:
    """One cluster: covariate rows, binary treatments, outcomes."""

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

    @property
    def size(self):
        return self.covariates.shape[0]

    @property
    def p(self):
        return self.covariates.shape[1]


@dataclass(frozen=True)
class Dataset:
    """Ordered collection of clusters sharing one covariate dimension."""

    clusters: tuple

    def __post_init__(self):
        cl = tuple(self.clusters)
        if len(cl) < 1:
            raise DimensionMismatch("dataset must contain at least one cluster")
        p = cl[0].p
        for c in cl:
            if c.p != p:
                raise DimensionMismatch(
                    f"cluster {c.cluster_id!r} has covariate dimension {c.p}, expected {p}"
                )
        ids = [c.cluster_id for c in cl]
        if len(set(ids)) != len(ids):
            raise InvalidSpec("cluster_id values must be unique within a dataset")
        object.__setattr__(self, "clusters", cl)

    @property
    def n(self):
        return len(self.clusters)

    @property
    def p(self):
        return self.clusters[0].p

    @property
    def total_units(self):
        return sum(c.size for c in self.clusters)

    def cluster_slices(self):
        """(start, stop) row range of each cluster in unit-stacked arrays."""
        out, start = [], 0
        for c in self.clusters:
            out.append((start, start + c.size))
            start += c.size
        return out

    def stacked_outcomes(self):
        return np.concatenate([c.outcomes for c in self.clusters])


# ---------- counterfactual weights ----------


def _stacked_probs(prob_fn, clusters):
    """prob_fn of clusters of one size m, stacked: (B, m) float.

    A family with a `batch` method (`ProbitMean`) is evaluated once for the
    whole group; any other callable once per cluster.
    """
    if hasattr(prob_fn, "batch"):
        return prob_fn.batch(clusters)
    rows = [np.asarray(prob_fn(c), dtype=np.float64).ravel() for c in clusters]
    if [r.size for r in rows] != [c.size for c in clusters]:
        raise DimensionMismatch("prob_fn returned wrong length")
    return np.array(rows)


class CounterfactualWeight:
    """Function f(a_c, X_c) defining the estimand as a weighted outcome average."""

    kind = "generic"

    def weight(self, pattern, cluster):
        raise NotImplementedError

    def weights_for(self, bits, cluster):
        """Vectorized weight over a (P, m) pattern bit matrix."""
        return np.array([self.weight(bits[r], cluster) for r in range(bits.shape[0])])

    def support(self, cluster):
        """Nonzero (pattern, weight) pairs; falls back to full enumeration."""
        bits = enumerate_patterns(cluster.size)
        w = self.weights_for(bits, cluster)
        nz = np.nonzero(w)[0]
        return [(bits[r], float(w[r])) for r in nz]

    def marginal_probs(self, cluster):
        """Per-unit Bernoulli probabilities when f factorizes; else None."""
        return None

    def marginal_probs_batch(self, clusters):
        """`marginal_probs` of clusters of one size m, stacked (B, m); else None."""
        probs = [self.marginal_probs(c) for c in clusters]
        return None if any(p is None for p in probs) else np.stack(probs)

    def _check(self, pattern, cluster):
        a = as_pattern(pattern)
        if a.size != cluster.size:
            raise DimensionMismatch(
                f"pattern length {a.size} != cluster size {cluster.size}"
            )
        return a


class Gate(CounterfactualWeight):
    """Global treatment-vs-control contrast: +1 on all-ones, -1 on all-zeros."""

    kind = "gate"

    def weight(self, pattern, cluster):
        a = self._check(pattern, cluster)
        if a.all():
            return 1.0
        if not a.any():
            return -1.0
        return 0.0

    def weights_for(self, bits, cluster):
        s = bits.sum(axis=1)
        return np.where(s == bits.shape[1], 1.0, np.where(s == 0, -1.0, 0.0))

    def support(self, cluster):
        m = cluster.size
        return [
            (np.ones(m, dtype=np.int8), 1.0),
            (np.zeros(m, dtype=np.int8), -1.0),
        ]


class BernoulliIntervention(CounterfactualWeight):
    """Stochastic intervention treating units independently.

    prob_fn maps a cluster to its (M_c,) vector of treatment probabilities.
    """

    kind = "stochastic"

    def __init__(self, prob_fn, label="bernoulli"):
        self.prob_fn = prob_fn
        self.label = label

    def _probs(self, clusters):
        """prob_fn of clusters of one size m, stacked (B, m) and range checked;
        private, so a subclass that turns `marginal_probs_batch` off keeps
        its pattern masses."""
        pi = _stacked_probs(self.prob_fn, clusters)
        # written so that NaN fails it
        if not ((pi >= 0) & (pi <= 1)).all():
            raise InvalidSpec("intervention probabilities must lie in [0, 1]")
        return pi

    def weight(self, pattern, cluster):
        a = self._check(pattern, cluster)
        return float(_kernels.pattern_masses(a[None], self._probs([cluster]))[0])

    def weights_for(self, bits, cluster):
        return _kernels.pattern_masses(bits, self._probs([cluster]))

    def marginal_probs(self, cluster):
        return self._probs([cluster])[0]

    def marginal_probs_batch(self, clusters):
        return self._probs(clusters)


def uniform_intervention():
    """Uniform stochastic intervention: every pattern gets mass 2^-m."""
    return BernoulliIntervention(lambda c: np.full(c.size, 0.5), label="uniform")


class RandomSelection(CounterfactualWeight):
    """Uniformly random selection of a fixed number of treated units."""

    kind = "stochastic"

    def __init__(self, count):
        self.count = count

    def _count(self, cluster):
        k = self.count(cluster) if callable(self.count) else self.count
        k = int(k)
        if not 0 <= k <= cluster.size:
            raise InvalidSpec(f"selection count {k} outside [0, {cluster.size}]")
        return k

    def weight(self, pattern, cluster):
        a = self._check(pattern, cluster)
        k = self._count(cluster)
        if int(a.sum()) != k:
            return 0.0
        return 1.0 / math.comb(cluster.size, k)

    def weights_for(self, bits, cluster):
        k = self._count(cluster)
        w = 1.0 / math.comb(cluster.size, k)
        return np.where(bits.sum(axis=1) == k, w, 0.0)

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

    kind = "deterministic"

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

    def _pattern(self, cluster):
        a = np.zeros(cluster.size, dtype=np.int8)
        a[self._units(cluster)] = 1
        return a

    def weight(self, pattern, cluster):
        a = self._check(pattern, cluster)
        return 1.0 if np.array_equal(a, self._pattern(cluster)) else 0.0

    def support(self, cluster):
        return [(self._pattern(cluster), 1.0)]


class SparseTable(CounterfactualWeight):
    """Explicit (pattern, weight) table per cluster."""

    kind = "sparse"

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

    def _rows(self, cluster):
        if cluster.cluster_id not in self.entries:
            return []
        rows = self.entries[cluster.cluster_id]
        for a, _ in rows:
            if a.size != cluster.size:
                raise DimensionMismatch(
                    f"table pattern length {a.size} != cluster size {cluster.size}"
                )
        return rows

    def weight(self, pattern, cluster):
        a = self._check(pattern, cluster)
        for pat, w in self._rows(cluster):
            if np.array_equal(pat, a):
                return w
        return 0.0

    def support(self, cluster):
        return [(a, w) for a, w in self._rows(cluster) if w != 0.0]


class DirectEffect(CounterfactualWeight):
    """Direct effect of one's own treatment under a base stochastic intervention.

    f(a) = sum_j (-1)^(1-a_j) * base(a) / marginal_j(a_j), the counterfactual
    weight whose estimand is the own-treatment contrast averaged over the base
    intervention's conditional law for the other units.
    """

    kind = "direct_effect"

    def __init__(self, base):
        self.base = base

    def _marginals(self, cluster):
        key = ("direct_effect_marginals", id(self.base))
        if key in cluster._cache:
            return cluster._cache[key]
        m = cluster.size
        marg = np.zeros((m, 2))
        for pat, w in self.base.support(cluster):
            for j in range(m):
                marg[j, int(pat[j])] += w
        if (marg == 0).any():
            raise DegenerateIntervention(
                "base intervention puts zero mass on some unit's treatment arm"
            )
        cluster._cache[key] = marg
        return marg

    def weight(self, pattern, cluster):
        a = self._check(pattern, cluster)
        h = self.base.weight(a, cluster)
        if h == 0.0:
            # every summand carries the factor base(a)
            self._marginals(cluster)
            return 0.0
        marg = self._marginals(cluster)
        signs = np.where(a == 1, 1.0, -1.0)
        return float(h * np.sum(signs / marg[np.arange(a.size), a]))

    def support(self, cluster):
        out = []
        for pat, _ in self.base.support(cluster):
            w = self.weight(pat, cluster)
            if w != 0.0:
                out.append((pat, w))
        return out


# ---------- propensity models ----------


class PropensityModel:
    kind = "generic"

    @property
    def known(self):
        return True

    def probability(self, pattern, cluster):
        raise NotImplementedError

    def probabilities_for(self, bits, cluster):
        return np.array([self.probability(bits[r], cluster) for r in range(bits.shape[0])])

    def support(self, cluster):
        """Every pattern with its probability, as (pattern, mass) pairs: the
        contract of `CounterfactualWeight.support`."""
        bits = enumerate_patterns(cluster.size)
        masses = self.probabilities_for(bits, cluster)
        return [(bits[r], float(masses[r])) for r in range(bits.shape[0])]

    def unit_probs_batch(self, clusters):
        """Per-unit Bernoulli probabilities of clusters of one size m, stacked
        (B, m), when the model is a product form; else None."""
        return None


class IndependentBernoulli(PropensityModel):
    """Units treated independently with covariate-driven probabilities."""

    kind = "independent_bernoulli"

    def __init__(self, prob_fn, label="bernoulli"):
        self.prob_fn = prob_fn
        self.label = label

    def _probs(self, clusters):
        """prob_fn of clusters of one size m, stacked (B, m) and range checked."""
        pi = _stacked_probs(self.prob_fn, clusters)
        # written so that NaN fails it
        if not ((pi > 0) & (pi < 1)).all():
            raise InvalidSpec("propensity probabilities must lie strictly in (0, 1)")
        return pi

    def unit_probs(self, cluster):
        return self._probs([cluster])[0]

    def unit_probs_batch(self, clusters):
        return self._probs(clusters)

    def probability(self, pattern, cluster):
        a = as_pattern(pattern)
        if a.size != cluster.size:
            raise DimensionMismatch("pattern length != cluster size")
        return float(_kernels.pattern_masses(a[None], self._probs([cluster]))[0])

    def probabilities_for(self, bits, cluster):
        return _kernels.pattern_masses(bits, self._probs([cluster]))


class JointTable(PropensityModel):
    """Explicit pattern -> probability table per cluster."""

    kind = "joint_table"

    def __init__(self, tables, tol=1e-10):
        # tables: {cluster_id: {pattern tuple: probability}}
        self.tables = {
            cid: {tuple(int(b) for b in k): float(v) for k, v in tab.items()}
            for cid, tab in tables.items()
        }
        self.tol = tol
        self._validated = set()

    def _table(self, cluster):
        cid = cluster.cluster_id
        if cid not in self.tables:
            raise InvalidSpec(f"no propensity table for cluster {cid!r}")
        tab = self.tables[cid]
        if cid not in self._validated:
            m = cluster.size
            if len(tab) != 2**m:
                raise InvalidSpec(
                    f"propensity table for cluster {cid!r} has {len(tab)} entries, "
                    f"expected {2**m}"
                )
            vals = np.array(list(tab.values()))
            if (vals <= 0).any():
                raise InvalidSpec("joint propensity table entries must be positive")
            if abs(vals.sum() - 1.0) > self.tol:
                raise InvalidSpec("joint propensity table must sum to 1")
            self._validated.add(cid)
        return tab

    def probability(self, pattern, cluster):
        a = as_pattern(pattern)
        if a.size != cluster.size:
            raise DimensionMismatch("pattern length != cluster size")
        return self._table(cluster)[tuple(int(b) for b in a)]


class UnknownPropensity(PropensityModel):
    kind = "unknown"

    @property
    def known(self):
        return False

    def probability(self, pattern, cluster):
        raise PropensityUnavailable(
            "propensity model is unknown; only the balancing estimator applies"
        )


def eval_propensity(e, pattern, cluster):
    """Cluster-level propensity of one pattern; errors if the model is unknown."""
    if not e.known:
        raise PropensityUnavailable(
            "propensity model is unknown; only the balancing estimator applies"
        )
    return e.probability(pattern, cluster)


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
    `batch` gives those of clusters of one size (B, m) from one evaluation
    on their stacked covariates, which equals the per-cluster one bit for
    bit.
    """

    def __init__(self, kappa):
        self.kappa = float(kappa)

    def __call__(self, cluster):
        return _probit_terms(cluster.covariates, self.kappa)

    def batch(self, clusters):
        return _probit_terms(np.stack([c.covariates for c in clusters]), self.kappa)


def probit_mean_probs(cluster, kappa):
    """Per-unit probit probabilities driven by cluster and unit covariate means;
    kappa tilts the law toward units with high average covariates."""
    return ProbitMean(kappa)(cluster)


def probit_intervention(kappa):
    return BernoulliIntervention(ProbitMean(kappa), label=f"probit(kappa={kappa})")


def probit_propensity(kappa=0.0):
    return IndependentBernoulli(ProbitMean(kappa), label=f"probit(kappa={kappa})")
