"""Weighting estimators: IPW, balancing, projection, weighted projection,
and the exposure-collapsed IPW closed form, plus the OLS plug-in."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .core import PATTERN_CAP, enumerate_patterns, eval_propensity, pattern_index
from .errors import PositivityViolation
from .numerics import DesignOps, _default_rcond, _validate, project_colspace
from .structures import (
    ConstantMapping,
    FromExposureMapping,
    TensorWithCovariates,
    _observed_design,
    _size_groups,
    target_contributions,
)

__all__ = [
    "WeightSet",
    "EstimateReport",
    "DesignSystem",
    "build_design",
    "ipw_weights",
    "ipw_fit",
    "balancing_fit",
    "ols_plugin",
    "projection_fit",
    "weighted_projection_fit",
    "exposure_collapsed_ipw",
]


@dataclass(frozen=True)
class WeightSet:
    """Per-unit estimator weights in dataset unit order."""

    values: np.ndarray
    kind: str
    feasible: bool = True

    def norm(self):
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with the weights and design evidence that produced it."""

    point: float
    weights: WeightSet
    imbalance: np.ndarray | None = None
    target: np.ndarray | None = None
    design_rank: int | None = None
    _context: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def feasible(self):
        return self.weights.feasible

    @property
    def kind(self):
        return self.weights.kind

    def to_dict(self):
        return {
            "kind": self.kind,
            "point": self.point,
            "feasible": self.feasible,
            "weights": self.weights.values.tolist(),
            "imbalance": None if self.imbalance is None else self.imbalance.tolist(),
            "target": None if self.target is None else self.target.tolist(),
            "design_rank": self.design_rank,
        }


@dataclass(frozen=True)
class DesignSystem:
    """Observed design matrix and per-cluster target contributions."""

    phi: np.ndarray
    contributions: np.ndarray  # (n, d_h)
    slices: tuple
    label: str
    pieces: tuple | None = None  # DesignOps blocks; None is the whole of phi
    one_hot: tuple | None = None  # (unit slots (N,), slot count) of a one-hot design
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def target(self):
        return self.contributions.sum(axis=0)

    def ops(self):
        if "ops" not in self._cache:
            self._cache["ops"] = DesignOps(self.phi, pieces=self.pieces)
        return self._cache["ops"]


def _block_pieces(x, slots, n_blocks):
    """One (rows, columns) DesignOps piece per effective treatment of a one-hot design.

    Such a design is block diagonal up to a row permutation: each unit's row
    is its covariate row `x` in the block of its observed slot. Blocks no row
    reaches and all-zero rows join no piece.
    """
    width = x.shape[1]
    rows = np.flatnonzero((x != 0).any(axis=1))
    block = slots[rows]
    bounds = np.cumsum(np.bincount(block, minlength=n_blocks))[:-1]
    groups = np.split(rows[np.argsort(block, kind="stable")], bounds)
    return tuple(
        (r, slice(b * width, (b + 1) * width)) for b, r in enumerate(groups) if r.size
    )


def build_design(structure, dataset, weight):
    """Observed design and target; a one-hot tensor's comes with its slots and
    DesignOps pieces, other structures' with neither."""
    phi, units = _observed_design(structure, dataset)
    one_hot = pieces = None
    if units is not None:
        one_hot = (units[0], structure.inner.dim())
        pieces = _block_pieces(units[1], *one_hot)
    return DesignSystem(
        phi=phi,
        contributions=target_contributions(structure, dataset, weight),
        slices=tuple(dataset.cluster_slices()),
        label=structure.label,
        pieces=pieces,
        one_hot=one_hot,
    )


def _point(dataset, values):
    return float(values @ dataset.stacked_outcomes() / dataset.n)


def _observed_masses(group, probs, mass):
    """Masses of the observed patterns of clusters of one size: (B,).

    Product-form Bernoulli(probs) masses, probs (B, m), or mass(c) per
    cluster when probs is None.
    """
    if probs is None:
        return [mass(c) for c in group]
    return _kernels.pattern_masses(np.stack([c.treatments for c in group]), probs)


def ipw_weights(dataset, weight, propensity):
    """Observed-pattern IPW weights f(A_c)/(M_c e(A_c)), one entry per unit.

    e and f come in product form for all clusters of one size at once when
    the propensity's `unit_probs_batch` and the weight's
    `marginal_probs_batch` give one; other models are evaluated per cluster.
    """
    f, e = np.empty(dataset.n), np.empty(dataset.n)
    for group, idx, _ in _size_groups(dataset):
        e[idx] = _observed_masses(
            group,
            propensity.unit_probs_batch(group),
            lambda c: eval_propensity(propensity, c.treatments, c),
        )
        f[idx] = _observed_masses(
            group, weight.marginal_probs_batch(group), lambda c: weight.weight(c.treatments, c)
        )
    bad = np.flatnonzero(e <= 0.0)
    if bad.size:
        c = dataset.clusters[bad[0]]
        raise PositivityViolation(
            f"propensity {float(e[bad[0]])} <= 0 at the observed pattern of cluster "
            f"{c.cluster_id!r}"
        )
    sizes = np.array([c.size for c in dataset.clusters])
    return np.repeat(f / (sizes * e), sizes)


def ipw_fit(dataset, weight, propensity):
    """Standard inverse-probability-weighting estimator."""
    w = ipw_weights(dataset, weight, propensity)
    return EstimateReport(
        point=_point(dataset, w),
        weights=WeightSet(values=w, kind="ipw"),
    )


def balancing_fit(dataset, structure, weight, design=None):
    """Minimum-norm solution of the balancing equations phi^T w = t.

    The point estimate is reported even when the equations are infeasible
    (feasible=False); the imbalance vector is always attached so the fit can
    be assessed per the imbalance diagnostics.
    """
    if design is None:
        design = build_design(structure, dataset, weight)
    t = design.target
    report = design.ops().min_norm_row_solve(t)
    w = report.solution
    nu = (design.phi.T @ w - t) / dataset.n
    return EstimateReport(
        point=_point(dataset, w),
        weights=WeightSet(values=w, kind="balancing", feasible=report.feasible()),
        imbalance=nu,
        target=t,
        design_rank=report.rank,
        _context={"design": design},
    )


def ols_plugin(dataset, structure, weight, design=None):
    """Plug-in estimate (1/n) t^T (phi^+ y) from the fitted coefficient vector."""
    if design is None:
        design = build_design(structure, dataset, weight)
    h_hat = design.ops().ols_coefficients(dataset.stacked_outcomes())
    return float(design.target @ h_hat / dataset.n)


def projection_fit(dataset, structure, weight, propensity, design=None):
    """IPW weights projected onto the observed design's column space."""
    if design is None:
        design = build_design(structure, dataset, weight)
    w_ipw = ipw_weights(dataset, weight, propensity)
    w = design.ops().project(w_ipw)
    return EstimateReport(
        point=_point(dataset, w),
        weights=WeightSet(values=w, kind="projection"),
        target=design.target,
        design_rank=design.ops().rank,
        _context={"design": design, "w_ipw": w_ipw},
    )


def _class_sums(group, mapping, bits, weight, propensity, f_probs, e_probs):
    """Masses of one mapping's classes for the units of clusters of one size,
    bits (B, m) their observed patterns: (f_obs, e_obs, e_max), each (B, m).

    f_obs and e_obs are the counterfactual weight's and the propensity's mass
    on the unit's observed class; e_max is the unit's largest class mass
    under the propensity. They come from the mapping's product-form class
    masses under e_probs (`propensity.unit_probs_batch`) and f_probs
    (`weight.marginal_probs_batch`) when those exist. Otherwise f sums over
    the weight's sparse support and e over the propensity's 2^m pattern
    masses, one cluster at a time.
    """
    obs = mapping.classes_batch(group, bits)
    e_cls = None if e_probs is None else mapping.class_masses_batch(group, e_probs)
    if e_cls is not None:
        e_obs = np.take_along_axis(e_cls, obs[:, :, None], axis=2)[:, :, 0]
        e_max = e_cls.max(axis=2)
    else:
        e_obs, e_max = np.empty(obs.shape), np.empty(obs.shape)
        for b, (c, o) in enumerate(zip(group, obs)):
            patterns = enumerate_patterns(c.size)
            masses = np.asarray(propensity.probabilities_for(patterns, c), dtype=np.float64)
            classes = mapping.classes_batch([c], patterns)
            for i in range(c.size):
                cls = np.bincount(classes[:, i], weights=masses)
                e_obs[b, i], e_max[b, i] = cls[o[i]], cls.max()
    f_cls = None if f_probs is None else mapping.class_masses_batch(group, f_probs)
    if f_cls is not None:
        return np.take_along_axis(f_cls, obs[:, :, None], axis=2)[:, :, 0], e_obs, e_max
    f_obs = np.zeros(obs.shape)
    for b, (c, o) in enumerate(zip(group, obs)):
        support = weight.support(c)
        if support:
            patterns = np.array([pat for pat, _ in support], dtype=np.int8)
            w = np.array([w for _, w in support], dtype=np.float64)
            classes = mapping.classes_batch([c], patterns)
            for i in range(c.size):
                f_obs[b, i] = w[classes[:, i] == o[i]].sum()
    return f_obs, e_obs, e_max


def _live_units(structure, clusters):
    """Units of clusters of one size whose covariate rows, in every covariate
    tensor around the base structure, are not all zero: (B, m) bool."""
    live = np.ones((len(clusters), clusters[0].size), dtype=bool)
    while isinstance(structure, TensorWithCovariates):
        live &= (_validate(structure.stacked_covariate_rows(clusters)) != 0).any(axis=2)
        structure = structure.inner
    return live


def _block_closed_form(dataset, structure, weight, propensity, rank_cut=True):
    """Weighted-projection weights of a structure whose rows are sums of
    indicator blocks (`indicator_blocks`), or None when a size group has no
    such blocks, or has several without a product-form propensity.

    Under a product-form propensity, blocks over disjoint units are
    independent, and the e-weighted projection of f / (M_c e) onto sums of
    their indicators is the ANOVA decomposition

        w_ci = (F0 + sum_b [F_b(k_b) / e_b(k_b) - F0]) / M_c,

    with k_b the unit's observed class in block b, F_b and e_b the weight's
    and the propensity's class masses, and F0 the weight's total mass. One
    block needs no product form; it gives f_class / (M_c e_class), taken
    without the F0 round trip.

    With `rank_cut`, a class with sqrt(e_b(k)) <= rcond * sqrt(largest class
    mass of the block), rcond = max(2^m, d) * eps, contributes F_b / e_b = 0.
    For one block this is the per-unit SVD's rank cut, which leaves such a
    class's unit at 0. For several, with one class cut, it is the projection
    onto the sums orthogonal to that class's indicator; the SVD's own value
    at a unit in the class is not determined, as it divides by sqrt(e(A_c)),
    and elsewhere it agrees when the weight's mass on the class is as small
    as the propensity's. Clusters above
    PATTERN_CAP have no such SVD and keep every class of positive mass. A
    unit whose covariate row is zero in a covariate tensor gets 0.
    """
    groups = []
    e_low = np.empty(dataset.total_units)
    for group, _, rows in _size_groups(dataset):
        blocks = structure.indicator_blocks(group)
        e_probs = propensity.unit_probs_batch(group)
        if blocks is None or (len(blocks) > 1 and e_probs is None):
            return None
        f_probs = weight.marginal_probs_batch(group)
        bits = np.stack([c.treatments for c in group])
        # (f_obs, e_obs, e_max), each (blocks, B, m)
        sums = np.moveaxis(np.array([
            _class_sums(group, mapping, bits, weight, propensity, f_probs, e_probs)
            for mapping in blocks
        ]), 1, 0)
        f0 = None
        if len(blocks) > 1:
            f0 = _class_sums(group, ConstantMapping(), bits, weight, propensity, f_probs, e_probs)[0]
        e_low[rows] = sums[1].min(axis=0)
        groups.append((group, rows, sums, f0))
    empty = np.flatnonzero(e_low <= 0.0)
    if empty.size:
        starts = np.array([start for start, _ in dataset.cluster_slices()])
        ci = int(np.searchsorted(starts, empty[0], side="right")) - 1
        raise PositivityViolation(
            f"exposure-class probability is 0 for unit {empty[0] - starts[ci]} of cluster "
            f"{dataset.clusters[ci].cluster_id!r}"
        )
    out = np.empty(dataset.total_units)
    for group, rows, (f_b, e_b, e_max), f0 in groups:
        m = rows.shape[1]
        keep = np.ones(e_b.shape, dtype=bool)
        if rank_cut and m <= PATTERN_CAP:
            if structure.regime == "fixed":
                rcond = _default_rcond((2**m, structure.dim(group[0])))
            else:
                rcond = np.array(
                    [[_default_rcond((2**m, structure.dim(c, i))) for i in range(m)] for c in group]
                )
            keep = np.sqrt(e_b) > rcond * np.sqrt(e_max)
        if f0 is None:
            w = np.where(keep[0], f_b[0] / (m * e_b[0]), 0.0)
        else:
            ratio = np.divide(f_b, e_b, out=np.zeros(f_b.shape), where=keep)
            w = (f0 + (ratio - f0).sum(axis=0)) / m
        out[rows] = np.where(_live_units(structure, group), w, 0.0)
    return out


def _wproj_svd(dataset, structure, weight, propensity):
    """Weighted-projection weights by one 2^m x d SVD per unit (any structure).

    A structure with `shared_rows`, or covariate tensors over one, takes one
    SVD per cluster. Unit i's rows there are sqrt(e) * (inner (x) x_i) for
    the shared inner rows, whose span is that of sqrt(e) * inner when x_i is
    non-zero and {0} when it is zero. Their singular values are those of
    sqrt(e) * inner times |x_i|, so the cut rcond = max(2^m, d) * eps
    relative to the largest keeps the same directions.
    """
    base = structure
    while isinstance(base, TensorWithCovariates):
        base = base.inner
    out = np.empty(dataset.total_units)
    for (start, stop), c in zip(dataset.cluster_slices(), dataset.clusters):
        bits = enumerate_patterns(c.size)
        e_all = np.asarray(propensity.probabilities_for(bits, c), dtype=np.float64)
        if (e_all <= 0.0).any():
            raise PositivityViolation(
                f"propensity has non-positive pattern mass in cluster {c.cluster_id!r}"
            )
        f_all = np.asarray(weight.weights_for(bits, c), dtype=np.float64)
        w_tilde = f_all / (c.size * e_all)
        sqrt_e = np.sqrt(e_all)
        obs = pattern_index(c.treatments)
        if base.shared_rows:
            lam = base.all_pattern_rows(c, 0)
            lam *= sqrt_e[:, None]
            rcond = _default_rcond((bits.shape[0], structure.dim(c)))
            value = project_colspace(lam, sqrt_e * w_tilde, rcond)[obs] / sqrt_e[obs]
            out[start:stop] = np.where(_live_units(structure, [c])[0], value, 0.0)
            continue
        for i in range(c.size):
            lam = structure.all_pattern_rows(c, i)
            # scaled in place: a second 2^m x d temporary made malloc re-fault pages per unit
            lam *= sqrt_e[:, None]
            scaled = project_colspace(lam, sqrt_e * w_tilde)
            out[start + i] = scaled[obs] / sqrt_e[obs]
    return out


def weighted_projection_fit(dataset, structure, weight, propensity):
    """Per-unit propensity-weighted projection of the potential IPW weights.

    For each unit, the 2^{M_c} potential IPW weights are projected onto the
    propensity-scaled span of the unit's per-pattern feature matrix; the
    observed-pattern entry is that unit's weight. Structures whose rows are
    sums of indicator blocks take the block closed form (one-hot structures
    are its one-block case); the others, and several blocks under a
    propensity without product form, take one SVD per unit.
    """
    out = _block_closed_form(dataset, structure, weight, propensity)
    if out is None:
        out = _wproj_svd(dataset, structure, weight, propensity)
    return EstimateReport(
        point=_point(dataset, out),
        weights=WeightSet(values=out, kind="weighted_projection"),
    )


def exposure_collapsed_ipw(dataset, mapping, weight, propensity):
    """IPW on exposure classes: w_ci = f_class / (M_c * e_class).

    The one-block case of the weighted projection's closed form, without its
    rank cut; the class masses come in product form when the mapping, the
    weight and the propensity have one, and by enumeration otherwise.
    """
    out = _block_closed_form(
        dataset, FromExposureMapping(mapping), weight, propensity, rank_cut=False
    )
    return EstimateReport(
        point=_point(dataset, out),
        weights=WeightSet(values=out, kind="exposure_ipw"),
    )
