"""Low-rank structure feature maps, neighbor graphs, and design assembly.

A structure maps (cluster, unit, treatment pattern) to a feature row; the
observed rows stacked across units form the design matrix whose column space
encodes the assumed interference pattern. Per-unit rows depend on the pattern
only through the unit's own cluster (partial interference).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import PATTERN_CAP, as_pattern, enumerate_patterns
from .errors import CapExceeded, DimensionMismatch, InvalidSpec
from .numerics import DesignOps
from .specio import spec_field, spec_int

# ---------- neighbor graphs ----------


def knn_order(x, k):
    """Per-unit k-nearest-neighbor lists of a batch of clusters (B, m, p):
    (B, m, min(k, m - 1)) unit indices within each cluster, self excluded.

    Euclidean metric on covariate rows, ties broken by lower unit index (a
    stable argsort), so the lists at any k are a prefix of those at m - 1.
    The squared distances are summed one covariate at a time, which keeps
    the arrays at (B, m, m). The diagonal is set below every distance, so
    each unit sorts first in its own row and is dropped with column 0, even
    where a distance has overflowed to inf.
    """
    b, m, p = x.shape
    d2 = np.zeros((b, m, m))
    for q in range(p):
        diff = x[:, :, None, q] - x[:, None, :, q]
        diff *= diff
        d2 += diff
    idx = np.arange(m)
    d2[:, idx, idx] = -1.0
    return np.argsort(d2, axis=2, kind="stable")[:, :, 1 : min(int(k), m - 1) + 1]


def _knn_orders(clusters):
    """Each cluster's full stable neighbor order (m, m - 1) int64, from its
    cache; one `knn_order` call fills the clusters of one size still cold."""
    cold = [c for c in clusters if "knn_order" not in c._cache]
    if cold:
        x = np.stack([c.covariates for c in cold])
        orders = knn_order(x, x.shape[1] - 1).astype(np.int64, copy=False)
        for c, order in zip(cold, orders):
            c._cache["knn_order"] = order
    return [c._cache["knn_order"] for c in clusters]


def _stacked_neighbors(clusters, k, graph=None):
    """Neighbor lists of clusters of one size, stacked: (B, m, k_eff) int64.

    The lists come from `graph` when given (all of its lists when k is
    None), and otherwise are the first k columns of each cluster's full
    order, so every k reads the same sort.
    """
    lists = [graph.neighbors(c) for c in clusters] if graph is not None else _knn_orders(clusters)
    return np.stack([nbrs[:, :k] for nbrs in lists])


@dataclass(frozen=True)
class NeighborGraph:
    """Per-cluster, per-unit ordered neighbor lists."""

    order: int
    lists: dict  # cluster_id -> (M_c, k_eff) int64 array

    def neighbors(self, cluster):
        """The cluster's lists, (M_c, k_eff). InvalidSpec unless there
        is one row per unit, each of distinct other units of the cluster."""
        cid = cluster.cluster_id
        if cid not in self.lists:
            raise InvalidSpec(f"graph has no entry for cluster {cid!r}")
        nbrs = np.asarray(self.lists[cid])
        m = cluster.size
        if nbrs.ndim != 2 or nbrs.shape[0] != m:
            raise InvalidSpec(
                f"graph lists of cluster {cid!r} have shape {nbrs.shape}, expected {m} rows"
            )
        ordered = np.sort(nbrs, axis=1)
        bad = (
            (nbrs < 0).any(axis=1)
            | (nbrs >= m).any(axis=1)
            | (nbrs == np.arange(m)[:, None]).any(axis=1)
            | (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        )
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise InvalidSpec(
                f"graph list of unit {i} in cluster {cid!r} is {nbrs[i].tolist()}; it must "
                f"list distinct other units of the cluster, in [0, {m})"
            )
        return nbrs


def knn_graph(dataset, k):
    """k-nearest-neighbor graph for every cluster of a dataset."""
    if k < 1:
        raise InvalidSpec("k must be >= 1")
    lists = {}
    for group, _, _ in _size_groups(dataset):
        lists.update(zip((c.cluster_id for c in group), _stacked_neighbors(group, int(k))))
    return NeighborGraph(order=int(k), lists=lists)


def second_order_lists(cluster, nbrs):
    """Units at graph distance exactly two, per unit, sorted ascending."""
    m = cluster.size
    out = []
    sets = [set(row.tolist()) for row in nbrs]
    for i in range(m):
        two = set()
        for j in nbrs[i]:
            two |= sets[int(j)]
        two -= sets[i]
        two.discard(i)
        out.append(np.array(sorted(two), dtype=np.int64))
    return out


# ---------- k-NN pattern slots ----------


def _msb_slots(bits, k):
    """Slot of each bit row among 2^k slots: bits (..., k_eff) read first bit
    most significant, the k - k_eff missing low bits zero: (...,) int64.
    The bits are added one column at a time, so no int64 copy of them is made."""
    slots = np.zeros(bits.shape[:-1], dtype=np.int64)
    for t in range(bits.shape[-1]):
        slots += bits[..., t].astype(np.int64) << (k - 1 - t)
    return slots


def _msb_slot_masses(probs, k):
    """Mass of each `_msb_slots` slot under independent Bernoulli(probs)
    bits, probs (..., k_eff); missing bits have probability 0: (..., 2^k)."""
    slot_probs = np.zeros(probs.shape[:-1] + (k,))
    slot_probs[..., : probs.shape[-1]] = probs
    # the first bit is the most significant: prepend one bit's (untreated,
    # treated) halves at a time, last bit first
    mass = np.ones(probs.shape[:-1] + (1,))
    for t in range(k - 1, -1, -1):
        p_t = slot_probs[..., t, None]
        mass = np.concatenate([(1.0 - p_t) * mass, p_t * mass], axis=-1)
    return mass


# ---------- structure base ----------


class LowRankStructure:
    """Feature map phi_ci(a_c); regime 'fixed' shares one coefficient vector."""

    regime = "fixed"
    label = "structure"
    exposure_mapping = None  # set on one-hot structures: the mapping whose class is the hot slot
    shared_rows = False  # True when every unit of a cluster has the same rows

    def dim(self, cluster=None, i=None):
        raise NotImplementedError

    def feature_row(self, cluster, i, pattern):
        a = self._check(cluster, i, pattern)
        return self.rows_at(cluster, a)[i]

    def rows_at(self, cluster, pattern):
        """Feature rows of every unit at one pattern: (M_c, d)."""
        raise NotImplementedError

    def all_pattern_rows(self, cluster, i):
        """Feature rows of unit i at every pattern: a new (2^m, d) float array."""
        bits = enumerate_patterns(cluster.size)
        return np.stack([self.rows_at(cluster, bits[r])[i] for r in range(bits.shape[0])])

    def indicator_blocks(self, clusters):
        """The rows of clusters of one size as sums of indicator blocks: a list
        of exposure mappings whose classes read disjoint sets of units, and so
        are independent under a product-form propensity; None when the rows
        have no such form. A one-hot structure is one block, its mapping."""
        return None if self.exposure_mapping is None else [self.exposure_mapping]

    def expected_rows(self, cluster, probs):
        """E[phi_ci(A)] under independent Bernoulli(probs) treatments: (M_c, d)."""
        bits = enumerate_patterns(cluster.size)
        masses = _kernels.pattern_masses(np.ascontiguousarray(bits), np.asarray(probs, float))
        out = np.zeros((cluster.size, self.dim(cluster)))
        for r in range(bits.shape[0]):
            if masses[r] != 0.0:
                out += masses[r] * self.rows_at(cluster, bits[r])
        return out

    def _check(self, cluster, i, pattern):
        self._check_index(cluster, i)
        return self._check_pattern(cluster, pattern)

    @staticmethod
    def _check_pattern(cluster, pattern):
        a = as_pattern(pattern)
        if a.size != cluster.size:
            raise DimensionMismatch(
                f"pattern length {a.size} != cluster size {cluster.size}"
            )
        return a

    @staticmethod
    def _check_index(cluster, i):
        if not 0 <= int(i) < cluster.size:
            raise DimensionMismatch(f"unit index {i} out of range for size {cluster.size}")


# ---------- exposure mappings ----------


class ExposureMapping:
    """Finite-valued function of the cluster pattern, per unit.

    A mapping defines `classes_batch`, and may define a product-form
    `class_masses_batch`.
    """

    label = "exposure"
    fixed_dim = None  # class count when it does not vary with (cluster, i)

    def n_classes(self, cluster, i):
        return self.fixed_dim

    def classes_batch(self, clusters, patterns):
        """Class of every unit at every pattern row: (P, m) patterns -> (P, m)
        int64. `clusters` holds one cluster of size m per row, or one cluster
        for all P rows."""
        raise NotImplementedError

    def class_masses_batch(self, clusters, probs):
        """Class probabilities of every unit of clusters of one size m under
        independent Bernoulli(probs) treatments, in product form: (B, m) probs
        -> (B, m, n_classes), or None when the mapping has no product form."""
        return None


class OwnTreatment(ExposureMapping):
    label = "own_treatment"
    fixed_dim = 2

    def classes_batch(self, clusters, patterns):
        return patterns.astype(np.int64)

    def class_masses_batch(self, clusters, probs):
        return np.stack([1.0 - probs, probs], axis=2)


class NeighborPattern(ExposureMapping):
    """Exact treatment pattern of the k nearest neighbors: the `_msb_slots`
    slot of their bits in neighbor-list order."""

    label = "neighbor_pattern"

    def __init__(self, k, graph=None):
        if k < 1:
            raise InvalidSpec("k must be >= 1")
        if k > PATTERN_CAP:
            raise CapExceeded(k, "k-NN k")
        self.k = int(k)
        self.graph = graph
        self.fixed_dim = 2**self.k

    def _neighbor_values(self, clusters, values):
        """values[r, j] of every unit's neighbors, in list order: (P, m) values
        -> (P, m, k_eff), from one cluster per row or one for all rows."""
        nbrs = _stacked_neighbors(clusters, self.k, self.graph)
        return values[np.arange(values.shape[0])[:, None, None], nbrs]

    def classes_batch(self, clusters, patterns):
        return _msb_slots(self._neighbor_values(clusters, patterns), self.k)

    def class_masses_batch(self, clusters, probs):
        return _msb_slot_masses(self._neighbor_values(clusters, probs), self.k)


class NeighborCount(ExposureMapping):
    """Number of treated units among the k nearest neighbors, and the unit
    itself too with `include_own`."""

    label = "neighbor_count"

    def __init__(self, k, include_own=False, graph=None):
        if k < 1:
            raise InvalidSpec("k must be >= 1")
        self.k = int(k)
        self.include_own = bool(include_own)
        self.graph = graph
        self.fixed_dim = self.k + 1 + int(self.include_own)

    def _counted(self, nbrs):
        """Counted units from neighbor lists (..., m, k_eff), the unit itself
        first when included."""
        if not self.include_own:
            return nbrs
        own = np.arange(nbrs.shape[-2], dtype=np.int64)[:, None]
        return np.concatenate([np.broadcast_to(own, nbrs.shape[:-1] + (1,)), nbrs], axis=-1)

    def _counted_values(self, clusters, values):
        """values[r, j] of every unit's counted units: (P, m) values -> (P, m,
        counted), from one cluster per row or one for all rows."""
        units = self._counted(_stacked_neighbors(clusters, self.k, self.graph))
        return values[np.arange(values.shape[0])[:, None, None], units]

    def classes_batch(self, clusters, patterns):
        return self._counted_values(clusters, patterns).sum(axis=2, dtype=np.int64)

    def class_masses_batch(self, clusters, probs):
        counted = self._counted_values(clusters, probs)
        b, m, n_counted = counted.shape
        out = np.zeros((b, m, self.fixed_dim))
        if n_counted == 0:
            out[:, :, 0] = 1.0
            return out
        pmf = _kernels.pb_pmf_batch(np.ascontiguousarray(counted.reshape(b * m, n_counted)))
        out[:, :, : n_counted + 1] = pmf.reshape(b, m, n_counted + 1)
        return out


class IdentityMapping(ExposureMapping):
    """Each pattern is its own class (lexicographic index)."""

    label = "identity"

    def n_classes(self, cluster, i):
        return 2**cluster.size

    def classes_batch(self, clusters, patterns):
        m = patterns.shape[1]
        return np.repeat(_msb_slots(patterns, m)[:, None], m, axis=1)


class ConstantMapping(ExposureMapping):
    label = "constant"
    fixed_dim = 1

    def classes_batch(self, clusters, patterns):
        return np.zeros(patterns.shape, dtype=np.int64)

    def class_masses_batch(self, clusters, probs):
        return np.ones(probs.shape + (1,))


# ---------- one-hot structures ----------


def _one_hot_rows(slots, n_slots):
    """Indicator rows of (U,) slots: (U, n_slots) float."""
    out = np.zeros((slots.shape[0], n_slots))
    out[np.arange(slots.shape[0]), slots] = 1.0
    return out


class FromExposureMapping(LowRankStructure):
    """Indicator structure over an exposure mapping's classes.

    The mapping is where the classes and class masses are computed: the
    observed, all-pattern and expected rows all read them from it.
    """

    def __init__(self, mapping):
        self.mapping = mapping
        if mapping.fixed_dim is None:
            self.regime = "per_unit"

    @property
    def label(self):
        return f"exposure[{self.mapping.label}]"

    @property
    def exposure_mapping(self):
        return self.mapping

    def dim(self, cluster=None, i=None):
        if self.mapping.fixed_dim is not None:
            return self.mapping.fixed_dim
        if cluster is None or i is None:
            raise InvalidSpec("per-unit structure dimension needs (cluster, i)")
        return self.mapping.n_classes(cluster, i)

    def feature_row(self, cluster, i, pattern):
        a = self._check(cluster, i, pattern)
        row = np.zeros(self.dim(cluster, i))
        row[self.mapping.classes_batch([cluster], a[None])[0, i]] = 1.0
        return row

    def _require_fixed(self):
        if self.regime != "fixed":
            raise InvalidSpec("per-unit structure has no stacked design rows")

    def rows_at(self, cluster, pattern):
        self._require_fixed()
        a = self._check_pattern(cluster, pattern)
        return _one_hot_rows(self.mapping.classes_batch([cluster], a[None])[0], self.dim())

    def all_pattern_rows(self, cluster, i):
        self._check_index(cluster, i)
        classes = self.mapping.classes_batch([cluster], enumerate_patterns(cluster.size))
        return _one_hot_rows(classes[:, i], self.dim(cluster, i))

    def expected_rows(self, cluster, probs):
        """Class masses in the mapping's product form, else by enumeration."""
        self._require_fixed()
        probs = np.asarray(probs, dtype=np.float64)
        masses = self.mapping.class_masses_batch([cluster], probs[None])
        if masses is not None:
            return masses[0]
        bits = enumerate_patterns(cluster.size)
        pattern_mass = _kernels.pattern_masses(bits, probs)
        classes = self.mapping.classes_batch([cluster], bits)
        return np.stack([
            np.bincount(classes[:, i], weights=pattern_mass, minlength=self.dim())
            for i in range(cluster.size)
        ])


class NoInterference(FromExposureMapping):
    """Outcome depends on the unit's own treatment only: rows (1-a_i, a_i)."""

    label = "no_interference"

    def __init__(self):
        super().__init__(OwnTreatment())

    # composition roles: own bit in, own-treatment indicator out
    def dep_units(self, cluster, i):
        return np.array([i], dtype=np.int64)


class StratifiedCount(FromExposureMapping):
    """Count-of-treated indicator over each unit's neighborhood.

    Counts run over the k nearest neighbors (optionally the unit itself too);
    slot r of k+1 (or k+2) is active when exactly r counted units are treated.
    """

    label = "stratified_count"

    def __init__(self, k, include_own=False, graph=None):
        super().__init__(NeighborCount(k, include_own=include_own, graph=graph))
        self.k = self.mapping.k
        self.include_own = self.mapping.include_own
        self.graph = graph


class KnnPattern(FromExposureMapping):
    """Indicator of the exact treatment pattern among the k nearest neighbors.

    Slot index is the binary encoding of the neighbors' treatments in
    neighbor-list order (first neighbor = most significant bit); clusters with
    fewer than k neighbors leave the missing low bits at zero.
    """

    label = "knn_pattern"

    def __init__(self, k, graph=None):
        super().__init__(NeighborPattern(k, graph=graph))
        self.k = self.mapping.k
        self.graph = graph

    # composition roles
    def dep_units(self, cluster, i):
        return _stacked_neighbors([cluster], self.k, self.graph)[0, i]

    def row_on_bits(self, bits_vec):
        row = np.zeros(2**self.k)
        row[_msb_slots(np.asarray(bits_vec[: self.k]), self.k)] = 1.0
        return row

    def expected_row_on_probs(self, probs_vec):
        return _msb_slot_masses(np.asarray(probs_vec[: self.k], dtype=np.float64), self.k)


# ---------- other structures ----------


class _TypeBit(ExposureMapping):
    """One `AdditiveTypes` block: the treatment of the unit carrying type t,
    the same class for every unit of the cluster. A cluster without the type
    has class 0 with mass 1, which adds nothing to the block sum."""

    fixed_dim = 2

    def __init__(self, structure, t, clusters, units):
        self.structure = structure
        self.t = t
        self.clusters = clusters  # the size group the block was made for
        self.units = units  # and the type's unit in each of its clusters

    def _units(self, clusters):
        if clusters is self.clusters:
            return self.units
        return np.array([self.structure._type_units(c)[self.t] for c in clusters])

    def classes_batch(self, clusters, patterns):
        units = self._units(clusters)
        bit = np.where(units >= 0, patterns[np.arange(patterns.shape[0]), units], 0)
        return np.repeat(bit.astype(np.int64)[:, None], patterns.shape[1], axis=1)

    def class_masses_batch(self, clusters, probs):
        units = self._units(clusters)
        p = np.where(units >= 0, probs[np.arange(probs.shape[0]), units], 0.0)
        masses = np.stack([1.0 - p, p], axis=1)
        return np.repeat(masses[:, None], probs.shape[1], axis=1)


class AdditiveTypes(LowRankStructure):
    """Additive per-type contribution encoding.

    Each of s types contributes a two-slot (untreated, treated) block when a
    unit of that type is present in the cluster; a type occurs at most once
    per cluster. Rows do not vary across units within a cluster.
    """

    label = "additive_types"
    shared_rows = True

    def __init__(self, s, type_source="unit_index"):
        if s < 1:
            raise InvalidSpec("type count must be >= 1")
        self.s = int(s)
        self.type_source = type_source

    def _type_units(self, cluster):
        """(s,) array: unit index carrying each type, -1 when absent."""
        key = ("additive_types", self.s, str(self.type_source))
        if key in cluster._cache:
            return cluster._cache[key]
        out = np.full(self.s, -1, dtype=np.int64)
        if self.type_source == "unit_index":
            types = np.arange(1, cluster.size + 1)
        elif isinstance(self.type_source, dict) and "column" in self.type_source:
            col = int(self.type_source["column"])
            types = cluster.covariates[:, col].astype(np.int64)
        else:
            raise InvalidSpec(f"unknown type_source {self.type_source!r}")
        for u, t in enumerate(types):
            if not 1 <= t <= self.s:
                raise InvalidSpec(f"type {t} outside 1..{self.s}")
            if out[t - 1] != -1:
                raise InvalidSpec(f"type {t} occurs more than once in a cluster")
            out[t - 1] = u
        cluster._cache[key] = out
        return out

    def dim(self, cluster=None, i=None):
        return 2 * self.s

    def indicator_blocks(self, clusters):
        """One own-bit block per type present in any of the clusters; a type
        occurs at most once per cluster, so the blocks read distinct units."""
        units = np.stack([self._type_units(c) for c in clusters])
        present = np.flatnonzero(units.max(axis=0) >= 0)
        return [_TypeBit(self, t, clusters, units[:, t]) for t in present]

    def _row(self, cluster, a):
        units = self._type_units(cluster)
        row = np.zeros(2 * self.s)
        present = np.nonzero(units >= 0)[0]
        row[2 * present + a[units[present]].astype(np.int64)] = 1.0
        return row

    def rows_at(self, cluster, pattern):
        a = self._check_pattern(cluster, pattern)
        return np.tile(self._row(cluster, a), (cluster.size, 1))

    def all_pattern_rows(self, cluster, i):
        self._check_index(cluster, i)
        bits = enumerate_patterns(cluster.size)
        units = self._type_units(cluster)
        out = np.zeros((bits.shape[0], 2 * self.s))
        rows = np.arange(bits.shape[0])
        for t in np.nonzero(units >= 0)[0]:
            out[rows, 2 * t + bits[:, units[t]].astype(np.int64)] = 1.0
        return out

    def expected_rows(self, cluster, probs):
        probs = np.asarray(probs, dtype=np.float64)
        units = self._type_units(cluster)
        row = np.zeros(2 * self.s)
        present = np.nonzero(units >= 0)[0]
        row[2 * present] = 1.0 - probs[units[present]]
        row[2 * present + 1] = probs[units[present]]
        return np.tile(row, (cluster.size, 1))

    # composition role: additive encoding of ordered slot bits
    def row_on_bits(self, bits_vec):
        row = np.zeros(2 * self.s)
        for t in range(min(self.s, bits_vec.size)):
            row[2 * t + int(bits_vec[t])] = 1.0
        return row

    def expected_row_on_probs(self, probs_vec):
        row = np.zeros(2 * self.s)
        for t in range(min(self.s, probs_vec.size)):
            row[2 * t] = 1.0 - probs_vec[t]
            row[2 * t + 1] = probs_vec[t]
        return row


class _CountBin(ExposureMapping):
    """One `CoarsenedCount` level block: the bin of each unit's count of
    treated units at that graph level."""

    fixed_dim = 3

    def __init__(self, structure, lvl):
        self.structure = structure
        self.lvl = lvl

    def _counted_values(self, clusters, values):
        """values[r, j] of every unit's level units: (P, m) values -> (P, m,
        L), from one cluster per row or one for all rows. Shorter lists are
        padded with a column of zeros, which adds nothing to a count or its
        pmf."""
        lists = [self.structure._level_units(c)[self.lvl] for c in clusters]
        p, m = values.shape
        width = max(len(units) for per_unit in lists for units in per_unit)
        idx = np.full((len(lists), m, width), m, dtype=np.int64)
        for b, per_unit in enumerate(lists):
            for i, units in enumerate(per_unit):
                idx[b, i, : len(units)] = units
        padded = np.concatenate([values, np.zeros((p, 1), dtype=values.dtype)], axis=1)
        return padded[np.arange(p)[:, None, None], idx]

    def classes_batch(self, clusters, patterns):
        counts = self._counted_values(clusters, patterns).sum(axis=2, dtype=np.int64)
        return self.structure._bin(counts, self.lvl)

    def class_masses_batch(self, clusters, probs):
        counted = self._counted_values(clusters, probs)
        b, m, width = counted.shape
        pmf = _kernels.pb_pmf_batch(np.ascontiguousarray(counted.reshape(b * m, width)))
        bins = self.structure._bin(np.arange(width + 1), self.lvl)
        out = np.stack([pmf[:, bins == k].sum(axis=1) for k in range(3)], axis=1)
        return out.reshape(b, m, 3)


class CoarsenedCount(LowRankStructure):
    """Own-treatment block plus binned treated-neighbor counts.

    Order 1 bins the count of treated direct neighbors into three categories
    (low/medium/high by thresholds); order 2 adds the same for units at graph
    distance exactly two. Default thresholds are the 33rd/67th percentiles of
    the observed raw counts across all units (supply a dataset at build time).
    """

    label = "coarsened_count"

    def __init__(self, order=1, thresholds=None, k=None, graph=None):
        if order not in (1, 2):
            raise InvalidSpec("order must be 1 or 2")
        if graph is None and k is None:
            raise InvalidSpec("CoarsenedCount needs a neighbor graph or k")
        self.order = int(order)
        self.k = int(k) if k is not None else None
        self.graph = graph
        if thresholds is not None:
            thresholds = self._norm_thresholds(thresholds)
        self.thresholds = thresholds

    def _norm_thresholds(self, thresholds):
        arr = np.asarray(thresholds, dtype=np.float64)
        if arr.ndim == 1:
            arr = np.tile(arr, (self.order, 1))
        if arr.shape != (self.order, 2):
            raise InvalidSpec("thresholds must be one or `order` (low, high) pairs")
        if (arr[:, 0] > arr[:, 1]).any():
            raise InvalidSpec("thresholds must be non-decreasing")
        return arr

    def _neighbors(self, cluster):
        # a given graph's lists are used whole; k sizes only the k-NN lists
        return _stacked_neighbors([cluster], self.k if self.graph is None else None, self.graph)[0]

    def _level_units(self, cluster):
        key = ("coarsened_units", self.order, self.k, id(self.graph))
        if key in cluster._cache:
            return cluster._cache[key]
        nbrs = self._neighbors(cluster)
        levels = [[np.asarray(row, dtype=np.int64) for row in nbrs]]
        if self.order == 2:
            levels.append(second_order_lists(cluster, nbrs))
        cluster._cache[key] = levels
        return levels

    def fit_thresholds(self, dataset):
        """33rd/67th percentile thresholds of observed raw counts, per level."""
        counts = [[] for _ in range(self.order)]
        for c in dataset.clusters:
            for lvl, units in enumerate(self._level_units(c)):
                for i in range(c.size):
                    counts[lvl].append(int(c.treatments[units[i]].sum()))
        self.thresholds = np.array(
            [np.percentile(np.asarray(v, float), [33, 67]) for v in counts]
        )
        return self.thresholds

    def _require_thresholds(self):
        if self.thresholds is None:
            raise InvalidSpec(
                "CoarsenedCount thresholds not set; pass thresholds or fit from a dataset"
            )
        return self.thresholds

    def _bin(self, counts, lvl):
        t1, t2 = self._require_thresholds()[lvl]
        return np.where(counts <= t1, 0, np.where(counts <= t2, 1, 2)).astype(np.int64)

    def dim(self, cluster=None, i=None):
        return 2 + 3 * self.order

    def _blocks(self):
        """The row's blocks, in column order: own treatment, then one count
        bin per level."""
        return [OwnTreatment()] + [_CountBin(self, lvl) for lvl in range(self.order)]

    def indicator_blocks(self, clusters):
        """Neighbor lists never hold the unit itself or a unit twice
        (`NeighborGraph.neighbors`), and level 2 excludes level 1, so the
        blocks read disjoint units."""
        return self._blocks()

    def _one_hot(self, own, level_counts):
        """Rows from own-treatment bits and per-level treated-neighbor counts."""
        out = np.zeros((own.size, self.dim()))
        rows = np.arange(own.size)
        out[rows, own.astype(np.int64)] = 1.0
        for lvl, counts in enumerate(level_counts):
            out[rows, 2 + 3 * lvl + self._bin(counts, lvl)] = 1.0
        return out

    def rows_at(self, cluster, pattern):
        a = self._check_pattern(cluster, pattern)
        counts = [
            np.array([a[u].sum() for u in units], dtype=np.int64)
            for units in self._level_units(cluster)
        ]
        return self._one_hot(a, counts)

    def all_pattern_rows(self, cluster, i):
        self._check_index(cluster, i)
        bits = enumerate_patterns(cluster.size)
        counts = [
            bits[:, units[i]].sum(axis=1, dtype=np.int64) for units in self._level_units(cluster)
        ]
        return self._one_hot(bits[:, i], counts)

    def expected_rows(self, cluster, probs):
        probs = np.asarray(probs, dtype=np.float64)[None]
        return np.concatenate(
            [block.class_masses_batch([cluster], probs)[0] for block in self._blocks()], axis=1
        )


class Compose(LowRankStructure):
    """Chained structure per the product-of-encodings construction.

    The inner structure must be pattern valued (it exposes the ordered unit
    indices its features depend on); the outer structure re-encodes those
    dependency bits, and its dimension is the composition's. Realizes the
    matrix product of the two encodings.
    """

    def __init__(self, outer, inner):
        for attr in ("row_on_bits", "expected_row_on_probs"):
            if not hasattr(outer, attr):
                raise InvalidSpec(
                    f"outer structure {outer.label!r} does not support composition"
                )
        # a composition is pattern valued when its outer has k bits to pass on
        if not hasattr(inner, "dep_units") or (
            isinstance(inner, Compose) and not hasattr(inner.outer, "k")
        ):
            raise InvalidSpec(f"inner structure {inner.label!r} is not pattern valued")
        self.outer = outer
        self.inner = inner
        self.label = f"compose[{outer.label} o {inner.label}]"

    def dim(self, cluster=None, i=None):
        return self.outer.dim()

    def feature_row(self, cluster, i, pattern):
        a = self._check(cluster, i, pattern)
        deps = self.inner.dep_units(cluster, i)
        return self.outer.row_on_bits(a[deps])

    def rows_at(self, cluster, pattern):
        a = self._check_pattern(cluster, pattern)
        return np.stack(
            [self.outer.row_on_bits(a[self.inner.dep_units(cluster, i)]) for i in range(cluster.size)]
        )

    def expected_rows(self, cluster, probs):
        probs = np.asarray(probs, dtype=np.float64)
        return np.stack(
            [
                self.outer.expected_row_on_probs(probs[self.inner.dep_units(cluster, i)])
                for i in range(cluster.size)
            ]
        )

    # composition roles, as an inner whose outer is pattern valued: its first k bits
    def dep_units(self, cluster, i):
        return self.inner.dep_units(cluster, i)[: self.outer.k]

    def row_on_bits(self, bits_vec):
        return self.outer.row_on_bits(bits_vec)

    def expected_row_on_probs(self, probs_vec):
        return self.outer.expected_row_on_probs(probs_vec)


class TensorWithCovariates(LowRankStructure):
    """Kronecker of an indicator encoding with a per-unit covariate vector.

    Each of the inner structure's entries becomes a block of covariate
    columns; column slots are raw covariate indices/names or within-cluster
    means of a column.
    """

    def __init__(self, inner, columns=None, label=None):
        self.inner = inner
        self.columns = columns  # None -> all raw columns
        self.label = label or f"tensor[{inner.label}]"

    def _slots(self, p):
        if self.columns is None:
            return [("col", j) for j in range(p)]
        out = []
        for c in self.columns:
            if isinstance(c, (int, np.integer)):
                out.append(("col", int(c)))
            elif isinstance(c, str) and c.startswith("x"):
                out.append(("col", int(c[1:]) - 1))
            elif isinstance(c, dict) and "cluster_mean" in c:
                out.append(("cluster_mean", int(c["cluster_mean"])))
            elif isinstance(c, (tuple, list)) and c[0] == "cluster_mean":
                out.append(("cluster_mean", int(c[1])))
            else:
                raise InvalidSpec(f"unknown covariate slot {c!r}")
        return out

    def covariate_rows(self, cluster):
        key = ("tensor_cov", str(self.columns))
        if key not in cluster._cache:
            self._fill_covariate_rows([cluster], cluster.covariates[None], key)
        return cluster._cache[key]

    def stacked_covariate_rows(self, clusters):
        """`covariate_rows` of clusters of one size, stacked: (B, m, width)."""
        key = ("tensor_cov", str(self.columns))
        cold = [c for c in clusters if key not in c._cache]
        if cold:
            self._fill_covariate_rows(cold, np.stack([c.covariates for c in cold]), key)
        return np.stack([c._cache[key] for c in clusters])

    def _fill_covariate_rows(self, clusters, x, key):
        """Cache the covariate rows of clusters of one size from one evaluation
        over their stacked covariates x (B, m, p); a cluster mean is the same
        reduction for one cluster or many."""
        slots = self._slots(x.shape[2])
        rows = np.empty(x.shape[:2] + (len(slots),))
        for t, (kind, j) in enumerate(slots):
            if j >= x.shape[2]:
                raise InvalidSpec(f"covariate column {j} out of range (p={x.shape[2]})")
            rows[:, :, t] = x[:, :, j] if kind == "col" else x[:, :, j].mean(axis=1)[:, None]
        for c, r in zip(clusters, rows):
            c._cache[key] = r

    @property
    def exposure_mapping(self):
        return self.inner.exposure_mapping

    def indicator_blocks(self, clusters):
        """The inner structure's blocks: a unit's rows are its inner rows times
        its covariate row, whose span is the inner rows' unless that row is 0."""
        return self.inner.indicator_blocks(clusters)

    def width(self, cluster):
        return len(self._slots(cluster.p))

    def dim(self, cluster=None, i=None):
        if self.columns is None:
            if cluster is None:
                raise InvalidSpec("dimension needs a cluster when columns default to all")
            return self.inner.dim(cluster, i) * cluster.p
        return self.inner.dim(cluster, i) * len(self.columns)

    @property
    def regime(self):
        return self.inner.regime

    def feature_row(self, cluster, i, pattern):
        a = self._check(cluster, i, pattern)
        return np.kron(self.inner.feature_row(cluster, i, a), self.covariate_rows(cluster)[i])

    def rows_at(self, cluster, pattern):
        inner = self.inner.rows_at(cluster, pattern)
        x = self.covariate_rows(cluster)
        return np.einsum("ub,uw->ubw", inner, x).reshape(cluster.size, -1)

    def all_pattern_rows(self, cluster, i):
        inner = self.inner.all_pattern_rows(cluster, i)
        return np.kron(inner, self.covariate_rows(cluster)[i][None, :]).reshape(
            inner.shape[0], -1
        )

    def expected_rows(self, cluster, probs):
        inner = self.inner.expected_rows(cluster, probs)
        x = self.covariate_rows(cluster)
        return np.einsum("ub,uw->ubw", inner, x).reshape(cluster.size, -1)


# ---------- builders ----------


def build_structure(spec, dataset=None):
    """Build a structure from a JSON-style spec document (dicts all the way)."""
    if isinstance(spec, LowRankStructure):
        return spec
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidSpec("structure spec must be a dict with a 'kind' key")
    if "tensor_covariates" in spec:
        raise InvalidSpec(
            'tensor_covariates is not a structure field; use {"kind": "tensor", "inner": ...}'
        )
    kind = spec["kind"]

    def field(key):
        return spec_field(spec, key, f"{kind} structure")

    def int_field(key):
        return spec_int(spec, key, f"{kind} structure")

    if kind == "no_interference":
        return NoInterference()
    if kind == "stratified_count":
        return StratifiedCount(int_field("k"), include_own=spec.get("include_own", False))
    if kind == "knn_pattern":
        return KnnPattern(int_field("k"))
    if kind == "additive_types":
        return AdditiveTypes(int_field("s"), type_source=spec.get("type_source", "unit_index"))
    if kind == "coarsened_count":
        coarsened = CoarsenedCount(
            order=spec.get("order", 1),
            thresholds=spec.get("thresholds"),
            k=spec.get("k"),
        )
        if coarsened.thresholds is None:
            if dataset is None:
                raise InvalidSpec("coarsened_count default thresholds need a dataset")
            coarsened.fit_thresholds(dataset)
        return coarsened
    if kind == "exposure":
        return FromExposureMapping(exposure_from_spec(field("mapping")))
    if kind == "compose":
        return Compose(
            build_structure(field("outer"), dataset), build_structure(field("inner"), dataset)
        )
    if kind == "tensor":
        return TensorWithCovariates(
            build_structure(field("inner"), dataset),
            columns=spec.get("columns"),
            label=spec.get("label"),
        )
    raise InvalidSpec(f"unknown structure kind {kind!r}")


def exposure_from_spec(spec):
    if isinstance(spec, ExposureMapping):
        return spec
    if isinstance(spec, str):
        spec = {"name": spec}
    if not isinstance(spec, dict):
        raise InvalidSpec("exposure mapping spec must be a name or a dict with a 'name' key")
    name = spec.get("name")
    if name == "own_treatment":
        return OwnTreatment()
    if name == "neighbor_pattern":
        return NeighborPattern(spec_int(spec, "k", "neighbor_pattern mapping"))
    if name == "neighbor_count":
        return NeighborCount(
            spec_int(spec, "k", "neighbor_count mapping"),
            include_own=spec.get("include_own", False),
        )
    if name == "identity":
        return IdentityMapping()
    if name == "constant":
        return ConstantMapping()
    raise InvalidSpec(f"unknown exposure mapping {spec!r}")


# ---------- design assembly ----------


def feature_row(structure, cluster, i, pattern):
    """Feature vector of one (cluster, unit, pattern) triple."""
    return structure.feature_row(cluster, i, pattern)


def _one_hot_mapping(structure):
    """The exposure mapping of a tensor over a one-hot encoding, else None.

    Unit i's row of such a tensor is its covariate row in the block of its
    exposure class (its slot), and zero elsewhere.
    """
    if isinstance(structure, TensorWithCovariates) and not isinstance(
        structure.inner, TensorWithCovariates
    ):
        return structure.inner.exposure_mapping
    return None


def _size_groups(dataset):
    """(clusters, cluster indices, (B, m) unit rows) for each cluster size m."""
    sizes = np.array([c.size for c in dataset.clusters])
    starts = np.cumsum(sizes) - sizes
    for m in np.unique(sizes):
        idx = np.flatnonzero(sizes == m)
        yield [dataset.clusters[i] for i in idx], idx, starts[idx, None] + np.arange(m)


def _unit_covariate_rows(tensor, dataset):
    """A covariate tensor's rows of every unit, in dataset unit order: (N, width)."""
    out = np.empty((dataset.total_units, tensor.width(dataset.clusters[0])))
    for group, _, rows in _size_groups(dataset):
        out[rows] = tensor.stacked_covariate_rows(group)
    return out


def _observed_slots(structure, dataset):
    """Each unit's observed slot of a one-hot tensor, in dataset unit order.

    The slots (N,) int64 are taken for all clusters of one size at once.
    """
    mapping = _one_hot_mapping(structure)
    slots = np.empty(dataset.total_units, dtype=np.int64)
    for group, _, rows in _size_groups(dataset):
        slots[rows] = mapping.classes_batch(group, np.stack([c.treatments for c in group]))
    return slots


def _observed_design(structure, dataset):
    """design_matrix, with each unit's (observed slot, covariate row) of a
    one-hot tensor, else None: (phi (N, d), None | (slots (N,), x (N, width)))."""
    if structure.regime != "fixed":
        raise InvalidSpec("design matrices need a fixed-dimension structure")
    if _one_hot_mapping(structure) is None:
        return np.vstack([structure.rows_at(c, c.treatments) for c in dataset.clusters]), None
    slots = _observed_slots(structure, dataset)
    x = _unit_covariate_rows(structure, dataset)
    phi = np.zeros((x.shape[0], structure.inner.dim(), x.shape[1]))
    phi[np.arange(x.shape[0]), slots] = x
    return phi.reshape(x.shape[0], -1), (slots, x)


def design_matrix(structure, dataset):
    """Observed design: rows phi_ci(A_c) stacked in dataset unit order.

    A one-hot tensor's design is one scatter of the covariate rows into the
    blocks of the units' observed slots; other structures stack `rows_at`
    per cluster.
    """
    return _observed_design(structure, dataset)[0]


def target_contributions(structure, dataset, weight):
    """Per-cluster aggregated counterfactual feature loads: (n, d).

    Row c is (1/M_c) * sum_{a in support(f)} f(a, X_c) * sum_i phi_ci(a).
    The weight's `marginal_probs_batch` is asked once per size group. With
    that product form, a one-hot tensor whose mapping has product-form class
    masses takes the group's rows at once: row c is (1/m) sum_i masses[c,
    i] (x) x_ci, a (B, slots, m) @ (B, m, w) product with the unit x slot
    masses. Other structures take `expected_rows` per cluster, and a weight
    without the product form its sparse support.
    """
    if structure.regime != "fixed":
        raise InvalidSpec("target vectors need a fixed-dimension structure")
    d = structure.dim(dataset.clusters[0])
    out = np.zeros((dataset.n, d))
    mapping = _one_hot_mapping(structure)
    for group, idx, rows in _size_groups(dataset):
        probs = weight.marginal_probs_batch(group)
        if probs is None:
            for ci, c in zip(idx, group):
                for pat, w in weight.support(c):
                    out[ci] += w * structure.rows_at(c, pat).sum(axis=0)
                out[ci] /= c.size
            continue
        masses = None if mapping is None else mapping.class_masses_batch(group, probs)
        if masses is not None:
            loads = masses.transpose(0, 2, 1) @ structure.stacked_covariate_rows(group)
            out[idx] = loads.reshape(len(group), -1) / rows.shape[1]
            continue
        for ci, c, p in zip(idx, group, probs):
            out[ci] = structure.expected_rows(c, p).mean(axis=0)
    return out


def target_vector(structure, dataset, weight):
    """Aggregated target of the balancing equations."""
    return target_contributions(structure, dataset, weight).sum(axis=0)


def nested_rank_check(small, large, dataset):
    """True when the smaller structure's observed design lies in the larger's
    span, by DesignOps.contains on the two dense designs."""
    ops_s, ops_l = (DesignOps(design_matrix(s, dataset)) for s in (small, large))
    return ops_l.contains(ops_s)
