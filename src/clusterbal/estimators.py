"""Weighting estimators: IPW, balancing, projection, weighted projection,
and the exposure-collapsed IPW closed form, plus the OLS plug-in."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .core import PATTERN_CAP, _read_only, enumerate_patterns, pattern_index
from .errors import PositivityViolation
from .numerics import DesignOps, _default_rcond, project_colspace
from .structures import (
    ConstantMapping,
    FromExposureMapping,
    _GroupRows,
    _observed_design,
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
    """Observed design, held only as its factors (unit i's row is inner_i (x)
    x_i; `design_matrix` builds it dense), and the per-cluster target
    contributions of a weight (None without one). The decomposition, the
    balancing solve's residual and the imbalance report's incidences read
    the factors; the sandwich variance reads only the decomposition's fitted
    values. The designs of every weight share the decomposition (`_cache`)."""

    contributions: np.ndarray | None  # (n, d_h)
    # per size group: (unit rows (B, m), inner rows (B, m, ell) bool, covariate rows (B, m, w))
    factors: tuple
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def target(self):
        return self.contributions.sum(axis=0)

    def ops(self):
        if "ops" not in self._cache:
            self._cache["ops"] = DesignOps(self.factors)
        return self._cache["ops"]


def build_design(structure, dataset, weight=None):
    """The dataset's design of a structure (`Dataset.cached`): its factors,
    each unit's inner row and covariate row, whose Kronecker product is its
    row (`_observed_design`), and their decomposition, kept per structure;
    with `weight`, its read-only target contributions, kept per (structure,
    weight)."""
    bare = dataset.cached(("design", structure), lambda: DesignSystem(
        contributions=None, factors=_observed_design(structure, dataset)))
    if weight is None:
        return bare
    return dataset.cached(("design", structure, weight), lambda: replace(
        bare, contributions=_read_only(target_contributions(structure, dataset, weight))))


def _point(dataset, values):
    return float(values @ dataset.outcomes / dataset.n)


def _observed_masses(group, law):
    """The law's masses at the observed patterns of a size group: (B,), in
    product form when its `probs_batch` gives one, else cluster by cluster."""
    probs = law.probs_batch(group)
    if probs is None:
        return [law.mass(c.treatments, c) for c in group]
    return _kernels.pattern_masses(group.treatments, probs)


def ipw_weights(dataset, weight, propensity):
    """Observed-pattern IPW weights f(A_c)/(M_c e(A_c)), one entry per unit
    (`_ipw_weights`), taken once per dataset and pair of laws: the dataset
    keeps one read-only array per (weight, propensity) (`Dataset.cached`)."""
    return dataset.cached(("ipw_weights", weight, propensity),
                          lambda: _read_only(_ipw_weights(dataset, weight, propensity)))


def _ipw_weights(dataset, weight, propensity):
    """f(A_c)/(M_c e(A_c)) per unit, with e and f from `_observed_masses`."""
    f, e = np.empty(dataset.n), np.empty(dataset.n)
    for group in dataset.groups:
        e[group.idx] = _observed_masses(group, propensity)
        f[group.idx] = _observed_masses(group, weight)
    bad = np.flatnonzero(e <= 0.0)
    if bad.size:
        raise PositivityViolation(
            f"propensity {float(e[bad[0]])} <= 0 at the observed pattern of cluster "
            f"{dataset.ids[bad[0]]!r}"
        )
    return np.repeat(f / (dataset.sizes * e), dataset.sizes)


def ipw_fit(dataset, weight, propensity):
    """Standard inverse-probability-weighting estimator."""
    w = ipw_weights(dataset, weight, propensity)
    return EstimateReport(
        point=_point(dataset, w),
        weights=WeightSet(values=w, kind="ipw"),
    )


def balancing_fit(dataset, structure, weight):
    """Minimum-norm solution of the balancing equations phi^T w = t.

    The point estimate is reported even when the equations are infeasible
    (feasible=False); the imbalance vector, the solve's residual
    phi^T w - t over n, is always attached so the fit can be assessed per
    the imbalance diagnostics. The design is the dataset's (`build_design`).
    """
    design = build_design(structure, dataset, weight)
    t = design.target
    report = design.ops().min_norm_row_solve(t)
    w = report.solution
    nu = report.residual / dataset.n
    return EstimateReport(
        point=_point(dataset, w),
        weights=WeightSet(values=w, kind="balancing", feasible=report.feasible()),
        imbalance=nu,
        target=t,
        design_rank=report.rank,
    )


def ols_plugin(dataset, structure, weight):
    """Plug-in estimate (1/n) t^T (phi^+ y) from the fitted coefficient vector."""
    design = build_design(structure, dataset, weight)
    h_hat = design.ops().ols_coefficients(dataset.outcomes)
    return float(design.target @ h_hat / dataset.n)


def projection_fit(dataset, structure, weight, propensity):
    """IPW weights projected onto the observed design's column space.

    The design and the IPW weights are the dataset's (`build_design`,
    `ipw_weights`), which the other fits and the sandwich read.
    """
    design = build_design(structure, dataset, weight)
    w = design.ops().project(ipw_weights(dataset, weight, propensity))
    return EstimateReport(
        point=_point(dataset, w),
        weights=WeightSet(values=w, kind="projection"),
        target=design.target,
        design_rank=design.ops().rank,
    )


def _observed(masses, classes):
    """Each unit's mass on its observed class: (B, m, n) masses, (B, m) classes -> (B, m)."""
    return np.take_along_axis(masses, classes[:, :, None], axis=2)[:, :, 0]


def _block_closed_form(dataset, structure, weight, propensity, rank_cut=True):
    """Weighted-projection weights of a structure whose rows are sums of
    indicator blocks (`indicator_blocks`), or None when a size group has
    several blocks and the propensity no product form.

    Under a product-form propensity, blocks over disjoint units are
    independent, and the e-weighted projection of f / (M_c e) onto sums of
    their indicators is the ANOVA decomposition

        w_ci = (F0 + sum_b [F_b(k_b) / e_b(k_b) - F0]) / M_c,

    with k_b the unit's observed class in block b, F_b and e_b the weight's
    and the propensity's class masses (`_GroupRows.masses`), F0 the
    weight's total mass, and the sum over the blocks that hold the unit.
    One block needs no product form; it gives f_class / (M_c e_class),
    taken without the F0 round trip.

    With `rank_cut`, a class with sqrt(e_b(k)) <= rcond * sqrt(largest class
    mass of the block), rcond = max(2^m, d) * eps, contributes F_b / e_b = 0.
    For one block this is the per-unit SVD's rank cut, which leaves such a
    class's unit at 0. For several, with one class cut, it is the projection
    onto the sums orthogonal to that class's indicator; the SVD's own value
    at a unit in the class is not determined, as it divides by sqrt(e(A_c)),
    and elsewhere it agrees when the weight's mass on the class is as small
    as the propensity's. Clusters above
    PATTERN_CAP have no such SVD and keep every class of positive mass. A
    unit whose covariate row is zero in a covariate tensor gets 0, and so do
    the units of a size group with no blocks, whose rows are all zero.
    """
    out = np.zeros(dataset.total_units)
    e_low = np.ones(dataset.total_units)  # a unit without blocks has no empty class
    for group in dataset.groups:
        rows = group.rows
        layout = _GroupRows(structure, group)
        e_probs = propensity.probs_batch(group)
        if len(layout.blocks) > 1 and e_probs is None:
            return None
        if not layout.blocks:
            continue
        m = rows.shape[1]
        obs = layout.classes()
        f_probs = weight.probs_batch(group)
        e_cls = layout.masses(e_probs, propensity)
        f_cls = layout.masses(f_probs, weight)
        # each unit's masses on its observed class in each block: (blocks, B, m)
        e_b = np.array([_observed(mass, o) for mass, o in zip(e_cls, obs)])
        f_b = np.array([_observed(mass, o) for mass, o in zip(f_cls, obs)])
        held = np.array([np.ones(rows.shape, dtype=bool) if h is None else h
                         for _, _, h in layout.blocks])
        e_low[rows] = np.where(held, e_b, np.inf).min(axis=0)
        keep = held & (e_b > 0.0)  # a held class of mass 0 raises below
        if rank_cut and m <= PATTERN_CAP:
            rcond = _default_rcond((2**m, structure.dim(group[0])))
            keep &= np.sqrt(e_b) > rcond * np.sqrt([mass.max(axis=2) for mass in e_cls])
        if len(layout.blocks) == 1:
            w = np.divide(f_b[0], m * e_b[0], out=np.zeros(rows.shape), where=keep[0])
        else:
            # F0 from the one class of the constant encoding, which holds every
            # unit: a block's masses are 0 at the units it does not hold
            constant = _GroupRows(FromExposureMapping(ConstantMapping()), group)
            f0 = constant.masses(f_probs, weight)[0][:, :, 0]
            ratio = np.divide(f_b, e_b, out=np.zeros(f_b.shape), where=keep)
            w = (f0 + np.where(held, ratio - f0, 0.0).sum(axis=0)) / m
        out[rows] = np.where(layout.live(), w, 0.0)
    empty = np.flatnonzero(e_low <= 0.0)
    if empty.size:
        ci = int(np.searchsorted(dataset.starts, empty[0], side="right")) - 1
        raise PositivityViolation(
            f"exposure-class probability is 0 for unit {empty[0] - dataset.starts[ci]} of "
            f"cluster {dataset.ids[ci]!r}"
        )
    return out


def _wproj_svd(dataset, structure, weight, propensity):
    """Weighted-projection weights by one 2^m x ell SVD per distinct unit
    matrix of each cluster (any structure).

    Unit i's rows at the 2^m patterns are R_i (x) x_i: R_i its inner rows
    there (`_GroupRows.inner`, each block's classes taken once per cluster)
    and x_i its covariate row. When x_i is non-zero, sqrt(e) * (R_i (x) x_i)
    has the span of sqrt(e) * R_i, and its singular values are those of
    sqrt(e) * R_i times |x_i|, so the cut rcond = max(2^m, d) * eps relative
    to the largest keeps the same directions; when x_i is zero the span is
    {0}. So the units of equal R_i share one SVD (one per cluster for
    `AdditiveTypes`, whose units all have the same rows), and a unit whose
    covariate row is zero gets 0.
    """
    out = np.empty(dataset.total_units)
    for c, start, stop in zip(dataset.clusters, dataset.starts[:-1], dataset.starts[1:]):
        bits = enumerate_patterns(c.size)
        e_all = propensity.masses(bits, c)
        if (e_all <= 0.0).any():
            raise PositivityViolation(
                f"propensity has non-positive pattern mass in cluster {c.cluster_id!r}"
            )
        f_all = weight.masses(bits, c)
        w_tilde = f_all / (c.size * e_all)
        sqrt_e = np.sqrt(e_all)
        obs = pattern_index(c.treatments)
        layout = _GroupRows(structure, c.group)
        # each unit's (2^m, ell) inner rows, one flat row per unit
        units = layout.inner(bits).transpose(1, 0, 2).reshape(c.size, -1)
        distinct, which = np.unique(units, axis=0, return_inverse=True)
        rcond = _default_rcond((bits.shape[0], layout.ell * layout.x.shape[2]))
        value = np.array([
            project_colspace(r.reshape(bits.shape[0], -1) * sqrt_e[:, None], sqrt_e * w_tilde,
                             rcond)[obs]
            for r in distinct
        ]) / sqrt_e[obs]
        out[start:stop] = np.where(layout.live()[0], value[which.ravel()], 0.0)
    return out


def weighted_projection_fit(dataset, structure, weight, propensity):
    """Per-unit propensity-weighted projection of the potential IPW weights.

    For each unit, the 2^{M_c} potential IPW weights are projected onto the
    propensity-scaled span of the unit's per-pattern feature matrix; the
    observed-pattern entry is that unit's weight. Every structure states its
    rows as sums of indicator blocks, so the block closed form serves all of
    them (one-hot structures are its one-block case) but one: several blocks
    under a propensity without product form (a `JointTable`) take one SVD
    per distinct unit matrix of inner rows (`_wproj_svd`).
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
    weight and the propensity have one, and are summed over the weight's or
    the propensity's support otherwise.
    """
    out = _block_closed_form(
        dataset, FromExposureMapping(mapping), weight, propensity, rank_cut=False
    )
    return EstimateReport(
        point=_point(dataset, out),
        weights=WeightSet(values=out, kind="exposure_ipw"),
    )
