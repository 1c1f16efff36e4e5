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
from .core import PATTERN_CAP, BernoulliIntervention, enumerate_patterns
from .errors import CapExceeded, DimensionMismatch, InvalidSpec
from .numerics import DesignOps, _validate, dense_design
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


def _knn_order(group):
    """The full stable neighbor order of each cluster of a size group, (B, m,
    m - 1) int64, from one `knn_order` call cached on the group."""
    def full(g):
        return knn_order(g.covariates, g.covariates.shape[1] - 1).astype(np.int64, copy=False)

    return group.cached("knn_order", full)


def _stacked_neighbors(clusters, k, graph=None):
    """Neighbor lists of a size group, stacked: (B, m, k_eff) int64.

    The lists are the first k columns (all when k is None) of
    `graph.stacked(clusters)` when a list source is given, a `NeighborGraph`
    or a `Compose`'s inner mapping, and otherwise of the group's full k-NN
    order, so every k reads the same sort.
    """
    if graph is not None:
        return graph.stacked(clusters)[:, :, :k]
    return _knn_order(clusters)[:, :, :k]


@dataclass(frozen=True, eq=False)
class NeighborGraph:
    """Per-cluster, per-unit ordered neighbor lists; equal only to itself."""

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

    def stacked(self, clusters):
        """`neighbors` of clusters of one size, stacked: (B, m, k_eff)."""
        return np.stack([self.neighbors(c) for c in clusters])


def knn_graph(dataset, k):
    """k-nearest-neighbor graph for every cluster of a dataset."""
    if k < 1:
        raise InvalidSpec("k must be >= 1")
    lists = {}
    for group, _, _ in _size_groups(dataset):
        lists.update(zip((c.cluster_id for c in group), _stacked_neighbors(group, int(k))))
    return NeighborGraph(order=int(k), lists=lists)


# ---------- k-NN pattern slots ----------


def _msb_slots(bits, k):
    """Slot of each bit row among 2^k slots: bits (..., k_eff) read first bit
    most significant, the k - k_eff missing low bits zero: (...,) int64. The
    bits are shifted in one column at a time, without an int64 copy."""
    if bits.shape[-1] == 0:
        return np.zeros(bits.shape[:-1], dtype=np.int64)
    slots = bits[..., 0].astype(np.int64)
    for t in range(1, bits.shape[-1]):
        slots <<= 1
        slots += bits[..., t]
    if bits.shape[-1] < k:
        slots <<= k - bits.shape[-1]
    return slots


def _msb_slot_masses(probs, k):
    """Mass of each `_msb_slots` slot under independent Bernoulli(probs)
    bits, probs (..., k_eff); missing bits have probability 0: (..., 2^k)."""
    # the first bit is the most significant: prepend one bit's (untreated,
    # treated) halves at a time, last bit first
    mass = np.ones(probs.shape[:-1] + (1,))
    for t in range(k - 1, -1, -1):
        p_t = probs[..., t, None] if t < probs.shape[-1] else 0.0
        mass = np.concatenate([(1.0 - p_t) * mass, p_t * mass], axis=-1)
    return mass


# ---------- structure base ----------


class LowRankStructure:
    """Feature map phi_ci(a_c); regime 'fixed' shares one coefficient vector.

    A structure states its rows once, as `indicator_blocks` placed by
    `block_layout`; `_GroupRows` builds every row, load and count from them.
    """

    regime = "fixed"
    label = "structure"
    exposure_mapping = None  # set on one-hot structures: the mapping whose class is the hot slot

    def dim(self, cluster=None):
        raise NotImplementedError

    def indicator_blocks(self, clusters):
        """The rows of a size group (`SizeGroup`) as sums of indicator
        blocks: a list of exposure mappings whose classes read disjoint sets
        of units, and so are independent under a product-form propensity;
        None when the rows have no such form. A one-hot structure is one
        block, its mapping."""
        return None if self.exposure_mapping is None else [self.exposure_mapping]

    def block_layout(self, clusters):
        """`indicator_blocks` of clusters of one size placed in the row: a list
        of (first column, block, held), where held is None when the block
        holds every unit and otherwise a (B, m) bool of the units it holds;
        the others have no indicator, and no mass, in its columns. Here the
        blocks sit side by side from column 0, then come zero columns."""
        blocks = self.indicator_blocks(clusters)
        if blocks is None:
            raise NotImplementedError(f"structure {self.label!r} defines no indicator blocks")
        out, col = [], 0
        for block in blocks:
            out.append((col, block, None))
            col += block.fixed_dim or 0
        return out

    def all_pattern_rows(self, cluster, i):
        """Feature rows of unit i at every pattern: a new (2^m, d) float array,
        its inner rows there and its covariate row scattered by `dense_design`."""
        if not 0 <= int(i) < cluster.size:
            raise DimensionMismatch(f"unit index {i} out of range for size {cluster.size}")
        layout = _GroupRows(self, cluster.group)
        inner = layout.inner(enumerate_patterns(cluster.size))[:, int(i)]
        x = np.broadcast_to(layout.x[0, int(i)], (inner.shape[0], layout.x.shape[2]))
        return dense_design(((np.arange(inner.shape[0]), inner, x),))

    def expected_rows(self, cluster, probs):
        """E[phi_ci(A)] under independent Bernoulli(probs) treatments: (M_c, d)."""
        if self.regime != "fixed":
            raise InvalidSpec("per-unit structure has no stacked design rows")
        probs = np.asarray(probs, dtype=np.float64)
        layout = _GroupRows(self, cluster.group)
        law = BernoulliIntervention(lambda c: probs)
        return layout.expected_rows(layout.masses(probs[None], law))[0]


# ---------- exposure mappings ----------


class ExposureMapping:
    """Finite-valued function of the cluster pattern, per unit.

    A mapping defines `classes_batch`, and may define a product-form
    `class_masses_batch`.
    """

    label = "exposure"
    fixed_dim = None  # class count when it does not vary with the cluster

    def n_classes(self, cluster):
        return self.fixed_dim

    def classes_batch(self, clusters, patterns):
        """Class of every unit at every pattern row: (P, m) patterns -> (P, m)
        int64. `clusters`, a size group (`SizeGroup`), holds one cluster of
        size m per row, or one cluster for all P rows."""
        raise NotImplementedError

    def class_masses_batch(self, clusters, probs):
        """Class probabilities of every unit of a size group under
        independent Bernoulli(probs) treatments, in product form: (B, m) probs
        -> (B, m, n_classes), or None when the mapping has no product form."""
        return None


def _per_unit(values, m):
    """Values (B, m or 1, ...) of every unit, those of lists shared per
    cluster repeated for its m units: (B, m, ...)."""
    return values if values.shape[1] == m else np.repeat(values, m, axis=1)


class _ListMapping(ExposureMapping):
    """A slot or a binned count of each unit's listed treatments.

    A subclass states only `stacked(clusters)`: each unit's list of units in
    a size group of clusters of size m, (B, m, L) int64, or (B, 1, L) when
    every unit of a cluster has the same list. Index m is "no unit", untreated with
    probability 0; a mapping whose lists may hold it sets `pads` (a block,
    when it is made). With
    `slot_bits` set, the class is the `_msb_slots` slot of the listed bits;
    otherwise it is the number of treated listed units, through `_bin`.
    """

    slot_bits = None
    pads = False

    def stacked(self, clusters):
        raise NotImplementedError

    def _bin(self, counts):
        return counts

    def _listed(self, clusters, values):
        """values[r, j] of every listed unit j: (P, m) values -> (P, m or 1,
        L), from one cluster per row or one for all rows."""
        lists = self.stacked(clusters)
        if self.pads:
            values = np.concatenate([values, np.zeros((values.shape[0], 1), values.dtype)], axis=1)
        return values[np.arange(values.shape[0])[:, None, None], lists]

    def classes_batch(self, clusters, patterns):
        listed = self._listed(clusters, patterns)
        if self.slot_bits is not None:
            classes = _msb_slots(listed, self.slot_bits)
        else:
            classes = self._bin(listed.sum(axis=2, dtype=np.int64))
        return _per_unit(classes, patterns.shape[1])

    def class_masses_batch(self, clusters, probs):
        listed = self._listed(clusters, probs)
        if self.slot_bits is not None:
            masses = _msb_slot_masses(listed, self.slot_bits)
        else:
            b, rows, width = listed.shape
            pmf = _kernels.pb_pmf_batch(np.ascontiguousarray(listed.reshape(b * rows, width)))
            bins = self._bin(np.arange(width + 1))
            masses = np.stack(
                [pmf[:, bins == k].sum(axis=1) for k in range(self.fixed_dim)], axis=1
            ).reshape(b, rows, -1)
        return _per_unit(masses, probs.shape[1])


class OwnTreatment(_ListMapping):
    label = "own_treatment"
    fixed_dim = 2
    slot_bits = 1

    def stacked(self, clusters):
        m = clusters[0].size
        return np.broadcast_to(np.arange(m)[:, None], (len(clusters), m, 1))


class NeighborPattern(_ListMapping):
    """Exact treatment pattern of the k nearest neighbors: the `_msb_slots`
    slot of their bits in neighbor-list order."""

    label = "neighbor_pattern"

    def __init__(self, k, graph=None):
        if k < 1:
            raise InvalidSpec("k must be >= 1")
        if k > PATTERN_CAP:
            raise CapExceeded(k, "k-NN k")
        self.k = self.slot_bits = int(k)
        self.graph = graph
        self.fixed_dim = 2**self.k

    def stacked(self, clusters):
        return _stacked_neighbors(clusters, self.k, self.graph)


class NeighborCount(_ListMapping):
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

    def stacked(self, clusters):
        """The k-NN lists, the unit itself first when included."""
        nbrs = _stacked_neighbors(clusters, self.k, self.graph)
        if self.include_own:
            nbrs = np.concatenate([OwnTreatment().stacked(clusters), nbrs], axis=2)
        return nbrs


class IdentityMapping(ExposureMapping):
    """Each pattern is its own class (lexicographic index)."""

    label = "identity"

    def n_classes(self, cluster):
        return 2**cluster.size

    def classes_batch(self, clusters, patterns):
        m = patterns.shape[1]
        return np.repeat(_msb_slots(patterns, m)[:, None], m, axis=1)


class ConstantMapping(_ListMapping):
    label = "constant"
    fixed_dim = 1
    slot_bits = 0

    def stacked(self, clusters):
        return np.zeros((len(clusters), 1, 0), dtype=np.int64)


# ---------- one-hot structures ----------


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

    def dim(self, cluster=None):
        if self.mapping.fixed_dim is None and cluster is None:
            raise InvalidSpec("per-unit structure dimension needs a cluster")
        return self.mapping.n_classes(cluster)


class NoInterference(FromExposureMapping):
    """Outcome depends on the unit's own treatment only: rows (1-a_i, a_i)."""

    label = "no_interference"

    def __init__(self):
        super().__init__(OwnTreatment())


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


# ---------- other structures ----------


class _ListBit(_ListMapping):
    """One additive block: the treatment of the t-th unit of each unit's list
    in `source.stacked`, of `AdditiveTypes` or a `Compose`'s inner mapping.
    It `pads` when some list of the size group it was made for has no t-th
    unit."""

    fixed_dim = 2
    slot_bits = 1

    def __init__(self, source, t, clusters):
        self.source = source
        self.t = t
        self.pads = bool((self.stacked(clusters) == clusters[0].size).any())

    def stacked(self, clusters):
        return self.source.stacked(clusters)[:, :, self.t : self.t + 1]


class AdditiveTypes(LowRankStructure):
    """Additive per-type contribution encoding.

    Each of s types contributes a two-slot (untreated, treated) block when a
    unit of that type is present in the cluster; a type occurs at most once
    per cluster. Rows do not vary across units within a cluster.
    """

    label = "additive_types"

    def __init__(self, s, type_source="unit_index"):
        if s < 1:
            raise InvalidSpec("type count must be >= 1")
        self.s = int(s)
        self.type_source = type_source

    def dim(self, cluster=None):
        return 2 * self.s

    def stacked(self, clusters):
        """Every unit lists its cluster's type units, (B, 1, s); an absent
        type lists no unit (index m). Cached on the size group, whose types
        are checked together: InvalidSpec names the fault of the first
        cluster, and in it of the first unit, whose type is outside 1..s or
        repeats an earlier unit's."""
        return clusters.cached(("type_units", self.s, str(self.type_source)), self._type_units)

    def _type_units(self, clusters):
        m = clusters[0].size
        if self.type_source == "unit_index":
            types = np.broadcast_to(np.arange(1, m + 1), (len(clusters), m))
        elif isinstance(self.type_source, dict) and "column" in self.type_source:
            col = int(self.type_source["column"])
            types = clusters.covariates[:, :, col].astype(np.int64)
        else:
            raise InvalidSpec(f"unknown type_source {self.type_source!r}")
        outside = (types < 1) | (types > self.s)
        # a stable sort puts each repeat right after an earlier unit's type
        order = np.argsort(types, axis=1, kind="stable")
        ordered = np.take_along_axis(types, order, axis=1)
        repeats = np.zeros(types.shape, dtype=bool)
        np.put_along_axis(repeats, order[:, 1:], ordered[:, 1:] == ordered[:, :-1], axis=1)
        bad = np.argwhere(outside | repeats)
        if bad.size:
            b, u = bad[0]
            if outside[b, u]:
                raise InvalidSpec(f"type {types[b, u]} outside 1..{self.s}")
            raise InvalidSpec(f"type {types[b, u]} occurs more than once in a cluster")
        out = np.full((len(clusters), self.s), m, dtype=np.int64)
        out[np.arange(len(clusters))[:, None], types - 1] = np.arange(m)
        return out[:, None]

    def indicator_blocks(self, clusters):
        """One own-bit block per type present in any of the clusters; a type
        occurs at most once per cluster, so the blocks read distinct units."""
        lists = self.stacked(clusters)
        present = np.flatnonzero((lists[:, 0] < clusters[0].size).any(axis=0))
        return [_ListBit(self, t, clusters) for t in present]

    def block_layout(self, clusters):
        """Type t's block sits at columns 2t and holds the units of the
        clusters that carry type t."""
        m, lists = clusters[0].size, self.stacked(clusters)
        return [
            (2 * int(block.t), block, _per_unit(lists[:, :, block.t] < m, m) if block.pads else None)
            for block in self.indicator_blocks(clusters)
        ]


class _CountBin(_ListMapping):
    """One `CoarsenedCount` level block: the bin of each unit's count of
    treated units at that graph level."""

    fixed_dim = 3
    pads = True

    def __init__(self, structure, lvl):
        self.structure = structure
        self.lvl = lvl

    def stacked(self, clusters):
        """Each unit's level units, from the group's cached lists."""
        return self.structure._level_units(clusters)[self.lvl]

    def _bin(self, counts):
        return self.structure._bin(counts, self.lvl)


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

    def _level_units(self, group):
        """Each level's lists of units of a size group, (B, m, L) int64 per
        level, shorter lists padded with no unit (index m); cached on the
        group under a key that holds the graph."""
        return group.cached(("coarsened_units", self.order, self.k, self.graph), self._levels)

    def _levels(self, group):
        # a given graph's lists are used whole; k sizes only the k-NN lists
        nbrs = _stacked_neighbors(group, self.k if self.graph is None else None, self.graph)
        levels = [nbrs.astype(np.int64, copy=False)]
        if self.order == 2:
            # the units at graph distance exactly two, ascending: those two
            # steps away that are not a neighbor or the unit itself
            b, m, _ = nbrs.shape
            near = np.zeros((b, m, m), dtype=np.int64)
            near[np.arange(b)[:, None, None], np.arange(m)[:, None], nbrs] = 1
            second = (near @ near > 0) & (near == 0) & ~np.eye(m, dtype=bool)
            order = np.argsort(~second, axis=2, kind="stable")[:, :, : second.sum(axis=2).max()]
            levels.append(np.where(np.take_along_axis(second, order, axis=2), order, m))
        return levels

    def fit_thresholds(self, dataset):
        """33rd/67th percentile thresholds of observed raw counts, per level."""
        counts = [[] for _ in range(self.order)]
        for group, _, _ in _size_groups(dataset):
            # the padding index m is untreated
            treated = np.pad(group.treatments, ((0, 0), (0, 1)))
            b = np.arange(len(group))[:, None, None]
            for lvl, units in enumerate(self._level_units(group)):
                counts[lvl].append(treated[b, units].sum(axis=2).ravel())
        self.thresholds = np.array(
            [np.percentile(np.concatenate(v).astype(float), [33, 67]) for v in counts]
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

    def dim(self, cluster=None):
        return 2 + 3 * self.order

    def indicator_blocks(self, clusters):
        """Own treatment, then one count bin per level. Neighbor lists never
        hold the unit itself or a unit twice (`NeighborGraph.neighbors`), and
        level 2 excludes level 1, so the blocks read disjoint units."""
        return [OwnTreatment()] + [_CountBin(self, lvl) for lvl in range(self.order)]


class Compose(LowRankStructure):
    """Chained structure per the product-of-encodings construction.

    The inner (`NoInterference`, `KnnPattern`, or a `Compose` whose outer is
    `KnnPattern`) gives each unit a list of distinct units, the `stacked`
    lists of its exposure mapping.
    The outer re-encodes their treatments, in its own dimension:
    `KnnPattern(k)` as their `NeighborPattern(k)` slot, which is one-hot,
    `AdditiveTypes(s)` as one own-bit block per list position t < min(s,
    L). An outer `Compose` encodes as its own outer.
    """

    def __init__(self, outer, inner):
        base = outer._base if isinstance(outer, Compose) else outer
        if not isinstance(base, (KnnPattern, AdditiveTypes)):
            raise InvalidSpec(f"outer structure {outer.label!r} does not support composition")
        if not (
            isinstance(inner, (NoInterference, KnnPattern))
            or (isinstance(inner, Compose) and isinstance(inner.outer, KnnPattern))
        ):
            raise InvalidSpec(f"inner structure {inner.label!r} is not pattern valued")
        self.outer = outer
        self.inner = inner
        self.label = f"compose[{outer.label} o {inner.label}]"
        self._base = base
        if isinstance(base, KnnPattern):
            self.exposure_mapping = NeighborPattern(base.k, graph=inner.exposure_mapping)

    def dim(self, cluster=None):
        return self.outer.dim()

    def indicator_blocks(self, clusters):
        """The list's slot, or its own-bit blocks; the listed units are
        distinct, so the blocks read disjoint units."""
        if self.exposure_mapping is not None:
            return [self.exposure_mapping]
        source = self.inner.exposure_mapping
        lists = source.stacked(clusters)
        return [_ListBit(source, t, clusters) for t in range(min(self._base.s, lists.shape[2]))]


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
        return [self._slot(c) for c in self.columns]

    @staticmethod
    def _slot(c):
        """One `columns` entry as ("col" | "cluster_mean", column): a column
        index, a name "x<k>" (column k - 1), or {"cluster_mean": j} or the
        pair ("cluster_mean", j), every index a non-negative int."""
        kind, j = "col", c
        if isinstance(c, str) and c[:1] == "x" and c[1:].isascii() and c[1:].isdigit():
            j = int(c[1:]) - 1
        elif isinstance(c, dict) and list(c) == ["cluster_mean"]:
            kind, j = "cluster_mean", c["cluster_mean"]
        elif isinstance(c, tuple) and len(c) == 2 and c[0] == "cluster_mean":
            kind, j = c
        if isinstance(j, (int, np.integer)) and not isinstance(j, bool) and j >= 0:
            return (kind, int(j))
        raise InvalidSpec(
            f"tensor column {c!r} is not a column index, an \"x<k>\" name (k >= 1) "
            f"or {{\"cluster_mean\": j}}"
        )

    def stacked_covariate_rows(self, clusters):
        """Each unit's covariate row of a size group, (B, m, width), from one
        evaluation over the group's covariates cached on the group."""
        return clusters.cached(("tensor_cov", str(self.columns)), self._covariate_rows)

    def _covariate_rows(self, group):
        x = group.covariates
        slots = self._slots(x.shape[2])
        rows = np.empty(x.shape[:2] + (len(slots),))
        for t, (kind, j) in enumerate(slots):
            if j >= x.shape[2]:
                raise InvalidSpec(f"covariate column {j} out of range (p={x.shape[2]})")
            rows[:, :, t] = x[:, :, j] if kind == "col" else x[:, :, j].mean(axis=1)[:, None]
        return rows

    @property
    def exposure_mapping(self):
        return self.inner.exposure_mapping

    def indicator_blocks(self, clusters):
        """The inner structure's blocks: a unit's rows are its inner rows times
        its covariate row, whose span is the inner rows' unless that row is 0."""
        return self.inner.indicator_blocks(clusters)

    def width(self, cluster):
        return len(self._slots(cluster.p))

    def dim(self, cluster=None):
        if self.columns is None:
            if cluster is None:
                raise InvalidSpec("dimension needs a cluster when columns default to all")
            return self.inner.dim(cluster) * cluster.p
        return self.inner.dim(cluster) * len(self.columns)

    @property
    def regime(self):
        return self.inner.regime


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


def _size_groups(dataset):
    """(size group, cluster indices (B,), unit rows (B, m)) for each cluster
    size m, ascending: the dataset's own groups (`Dataset.groups`)."""
    return [(group, group.idx, group.rows) for group in dataset.groups]


class _GroupRows:
    """The rows of a structure at clusters of one size m, from its blocks.

    Unit i's row is its indicator row in the base encoding (ell wide) (x)
    its covariate row x_i: each `block_layout` block puts a 1 in the column
    of the unit's class, and x_i is the Kronecker product of the unit's rows
    in the covariate tensors around the base, innermost first, or the
    width-1 row (1) of a bare structure. Every row, class mass, expected
    row, target load and simulated signal of the package is built here.
    """

    def __init__(self, structure, clusters):
        levels = []
        while isinstance(structure, TensorWithCovariates):
            levels.append(structure.stacked_covariate_rows(clusters))
            structure = structure.inner
        x = levels.pop() if levels else np.ones((len(clusters), clusters[0].size, 1))
        while levels:
            level = levels.pop()
            x = (x[:, :, :, None] * level[:, :, None, :]).reshape(x.shape[:2] + (-1,))
        self.clusters = clusters
        self.blocks = structure.block_layout(clusters)
        self.ell = structure.dim(clusters[0])
        self.x = x  # (B, m, w)

    @staticmethod
    def _held(held, values):
        """values (B, m, ...) with the entries of units a block does not hold at 0."""
        if held is None:
            return values
        return np.where(held.reshape(held.shape + (1,) * (values.ndim - 2)), values, 0.0)

    def classes(self, patterns=None):
        """Each block's classes at pattern rows (P, m), one per cluster of the
        group or all of its one cluster, by default the observed patterns:
        [(P, m) int64]."""
        if patterns is None:
            patterns = self.clusters.treatments
        return [block.classes_batch(self.clusters, patterns) for _, block, _ in self.blocks]

    def masses(self, probs, law):
        """Each block's class masses (B, m, n_classes) of the group's units
        under a law, a counterfactual weight or a propensity: in the block's
        product form where the block has one and probs (B, m), the law's
        per-unit Bernoulli probabilities, are given; else summed over
        `law.support`. A block's masses are 0 at the units it does not hold."""
        out = []
        for _, block, held in self.blocks:
            masses = None if probs is None else block.class_masses_batch(self.clusters, probs)
            if masses is None:
                masses = self._support_masses(block, law)
            out.append(self._held(held, masses))
        return out

    def _support_masses(self, block, law):
        """A block's class masses summed over the law's (pattern, mass)
        support, cluster by cluster."""
        m = self.x.shape[1]
        out = np.zeros((len(self.clusters), m, block.n_classes(self.clusters[0])))
        for b, c in enumerate(self.clusters):
            support = law.support(c)
            if not support:
                continue
            patterns = np.array([pat for pat, _ in support], dtype=np.int8)
            w = np.array([w for _, w in support], dtype=np.float64)
            np.add.at(out[b], (np.arange(m), block.classes_batch(c.group, patterns)), w[:, None])
        return out

    def inner(self, patterns=None):
        """Each unit's inner row at pattern rows (P, m), as `classes` takes
        them, by default the observed patterns: (P, m, ell) bool, with a 1 at
        the class of each block that holds the unit. A group with no blocks
        has P zero rows."""
        n_rows, m = self.x.shape[:2] if patterns is None else patterns.shape
        out = np.zeros((n_rows, m, self.ell), dtype=bool)
        for (col, _, held), cls in zip(self.blocks, self.classes(patterns)):
            out[np.arange(n_rows)[:, None], np.arange(m), col + cls] = True if held is None else held
        return out

    def live(self):
        """Units whose covariate row is not all zero: (B, m) bool."""
        return (_validate(self.x) != 0).any(axis=2)

    def expected_rows(self, masses):
        """Rows with each block's class masses in place of its indicators: (B, m, d)."""
        b, m, w = self.x.shape
        out = np.zeros((b, m, self.ell, w))
        for (col, _, _), mass in zip(self.blocks, masses):
            out[:, :, col : col + mass.shape[2]] = mass[:, :, :, None] * self.x[:, :, None, :]
        return out.reshape(b, m, -1)

    def loads(self, masses):
        """Sum over units of the expected rows, without them: one (B, n, m) @
        (B, m, w) product per block, (B, d)."""
        b, _, w = self.x.shape
        out = np.zeros((b, self.ell, w))
        for (col, _, _), mass in zip(self.blocks, masses):
            out[:, col : col + mass.shape[2]] = mass.transpose(0, 2, 1) @ self.x
        return out.reshape(b, -1)


def _observed_design(structure, dataset):
    """The observed design's factors, per size group in `_size_groups`
    order: ((unit rows (B, m), inner rows (B, m, ell) bool, covariate rows
    (B, m, w)), ...). Unit i's row is its inner row (x) its covariate row
    (`_GroupRows`)."""
    if structure.regime != "fixed":
        raise InvalidSpec("design matrices need a fixed-dimension structure")
    layouts = ((rows, _GroupRows(structure, group)) for group, _, rows in _size_groups(dataset))
    return tuple((rows, layout.inner(), layout.x) for rows, layout in layouts)


def design_matrix(structure, dataset):
    """Observed design (N, d): rows phi_ci(A_c) in dataset unit order, built
    on request from `_observed_design`'s factors (`dense_design`); no fit reads it."""
    return dense_design(_observed_design(structure, dataset))


def target_contributions(structure, dataset, weight):
    """Per-cluster aggregated counterfactual feature loads: (n, d).

    Row c is (1/M_c) * sum_{a in support(f)} f(a, X_c) * sum_i phi_ci(a).
    The weight's `probs_batch` is asked once per size group. Row c
    is then (1/m) sum_i masses[c, i] (x) x_ci, one (B, n, m) @ (B, m, w)
    product per block with its unit x class masses (`_GroupRows.masses`): in
    product form where the block and the weight have one, else summed over
    the weight's sparse support.
    """
    if structure.regime != "fixed":
        raise InvalidSpec("target vectors need a fixed-dimension structure")
    out = None
    for group, idx, rows in _size_groups(dataset):
        layout = _GroupRows(structure, group)
        loads = layout.loads(layout.masses(weight.probs_batch(group), weight))
        if out is None:
            out = np.zeros((dataset.n, loads.shape[1]))
        out[idx] = loads / rows.shape[1]
    return out


def observed_signal(structure, dataset, h):
    """phi_ci(A_c) @ h of every unit, in dataset unit order, without a design:
    each block gathers the h block of each unit's observed class and takes its
    product with the unit's covariate row."""
    g = np.zeros(dataset.total_units)
    for group, _, rows in _size_groups(dataset):
        layout = _GroupRows(structure, group)
        w = layout.x.shape[2]
        h_blocks = h.reshape(layout.ell, w)
        for (col, _, held), cls in zip(layout.blocks, layout.classes()):
            x = layout._held(held, layout.x).reshape(-1, w)
            g[rows.ravel()] += np.einsum("uw,uw->u", x, h_blocks[col + cls.ravel()])
    return g


def incidence_counts(structure, dataset, factors=None):
    """Units whose observed row is non-zero in each coordinate: (d,) float,
    the sum over units of r_i (x) [x_i != 0], one product per size group of
    the inner rows r_i and the structure's covariate rows x_i. The inner rows
    are those of `factors`, a design's factors (`_observed_design`) of the
    structure or of a covariate tensor over it, by default the structure's."""
    counts = 0.0
    factors = factors or _observed_design(structure, dataset)
    for (group, _, _), (_, inner, _) in zip(_size_groups(dataset), factors):
        x = _GroupRows(structure, group).x
        counts = counts + np.einsum("bml,bmw->lw", inner, x != 0, dtype=np.float64).ravel()
    return counts


def target_vector(structure, dataset, weight):
    """Aggregated target of the balancing equations."""
    return target_contributions(structure, dataset, weight).sum(axis=0)


def nested_rank_check(small, large, dataset):
    """True when the smaller structure's observed design lies in the larger's
    span, by DesignOps.contains on the two designs' factors, neither formed whole."""
    ops_s, ops_l = (DesignOps(_observed_design(s, dataset)) for s in (small, large))
    return ops_l.contains(ops_s)
