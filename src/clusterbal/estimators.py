"""Weighting estimators: IPW, balancing, projection, weighted projection,
and the exposure-collapsed IPW closed form, plus the OLS plug-in."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    PATTERN_CAP,
    IndependentBernoulli,
    enumerate_patterns,
    eval_propensity,
    pattern_index,
)
from .errors import PositivityViolation
from .numerics import FEAS_TOL, DesignOps, _default_rcond, _validate, project_colspace
from .structures import (
    TensorWithCovariates,
    _observed_slots,
    _one_hot_mapping,
    _size_groups,
    _unit_covariate_rows,
    design_matrix,
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

    def ops(self, feas_tol=FEAS_TOL):
        if "ops" not in self._cache:
            self._cache["ops"] = DesignOps(self.phi, feas_tol=feas_tol, pieces=self.pieces)
        return self._cache["ops"]


def _block_pieces(phi, slots, n_blocks):
    """One (rows, columns) DesignOps piece per effective treatment of a one-hot design.

    Such a design is block diagonal up to a row permutation: each row lies
    in the block of its observed slot. Blocks no row reaches and all-zero
    rows join no piece.
    """
    n_rows = phi.shape[0]
    width = phi.shape[1] // n_blocks
    hot = phi.reshape(n_rows, n_blocks, width)[np.arange(n_rows), slots]
    rows = np.flatnonzero((hot != 0).any(axis=1))
    block = slots[rows]
    bounds = np.cumsum(np.bincount(block, minlength=n_blocks))[:-1]
    groups = np.split(rows[np.argsort(block, kind="stable")], bounds)
    return tuple(
        (r, slice(b * width, (b + 1) * width)) for b, r in enumerate(groups) if r.size
    )


def build_design(structure, dataset, weight, cap=PATTERN_CAP):
    """Observed design and target; a one-hot tensor's comes with its slots and
    DesignOps pieces, other structures' with neither."""
    phi = design_matrix(structure, dataset)
    one_hot = pieces = None
    if _one_hot_mapping(structure) is not None:
        one_hot = (_observed_slots(structure, dataset), structure.inner.dim())
        pieces = _block_pieces(phi, *one_hot)
    return DesignSystem(
        phi=phi,
        contributions=target_contributions(structure, dataset, weight, cap),
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
    a = np.stack([c.treatments for c in group])
    return np.prod(np.where(a == 1, probs, 1.0 - probs), axis=1)


def ipw_weights(dataset, weight, propensity):
    """Observed-pattern IPW weights f(A_c)/(M_c e(A_c)), one entry per unit.

    e comes in product form for all clusters of one size at once when the
    propensity is an IndependentBernoulli, and f when the weight has
    `marginal_probs_batch`; other models are evaluated per cluster.
    """
    f, e = np.empty(dataset.n), np.empty(dataset.n)
    for group, idx, _ in _size_groups(dataset):
        e_probs = (
            propensity.unit_probs_batch(group)
            if isinstance(propensity, IndependentBernoulli)
            else None
        )
        e[idx] = _observed_masses(
            group, e_probs, lambda c: eval_propensity(propensity, c.treatments, c)
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


def balancing_fit(dataset, structure, weight, design=None, feas_tol=FEAS_TOL, cap=PATTERN_CAP):
    """Minimum-norm solution of the balancing equations phi^T w = t.

    The point estimate is reported even when the equations are infeasible
    (feasible=False); the imbalance vector is always attached so the fit can
    be assessed per the imbalance diagnostics.
    """
    if design is None:
        design = build_design(structure, dataset, weight, cap)
    ops = design.ops(feas_tol)
    t = design.target
    report = ops.min_norm_row_solve(t)
    w = report.solution
    nu = (design.phi.T @ w - t) / dataset.n
    return EstimateReport(
        point=_point(dataset, w),
        weights=WeightSet(values=w, kind="balancing", feasible=report.feasible(feas_tol)),
        imbalance=nu,
        target=t,
        design_rank=report.rank,
        _context={"design": design},
    )


def ols_plugin(dataset, structure, weight, design=None, cap=PATTERN_CAP):
    """Plug-in estimate (1/n) t^T (phi^+ y) from the fitted coefficient vector."""
    if design is None:
        design = build_design(structure, dataset, weight, cap)
    h_hat = design.ops().ols_coefficients(dataset.stacked_outcomes())
    return float(design.target @ h_hat / dataset.n)


def projection_fit(dataset, structure, weight, propensity, design=None, cap=PATTERN_CAP):
    """IPW weights projected onto the observed design's column space."""
    if design is None:
        design = build_design(structure, dataset, weight, cap)
    w_ipw = ipw_weights(dataset, weight, propensity)
    w = design.ops().project(w_ipw)
    return EstimateReport(
        point=_point(dataset, w),
        weights=WeightSet(values=w, kind="projection"),
        target=design.target,
        design_rank=design.ops().rank,
        _context={"design": design, "w_ipw": w_ipw},
    )


def _unit_sizes(dataset):
    """Cluster size M_c of every unit, in dataset unit order."""
    sizes = np.array([c.size for c in dataset.clusters])
    return np.repeat(sizes, sizes).astype(np.float64)


def _observed_class_sums(dataset, mapping, weight, propensity, cap=PATTERN_CAP):
    """Exposure-class masses at each unit's observed class: (f_obs, e_obs, e_max).

    f_obs and e_obs are the counterfactual weight's and the propensity's mass
    on the unit's observed class; e_max is the unit's largest class mass
    under the propensity. Both are taken for all clusters of one size at
    once from the mapping's product-form class masses, under
    `propensity.unit_probs_batch` and `weight.marginal_probs_batch`, when
    they exist. Otherwise f sums over the weight's sparse support and e over
    the propensity's 2^m pattern masses, one cluster at a time.
    """
    f_obs, e_obs, e_max = (np.empty(dataset.total_units) for _ in range(3))
    for group, _, rows in _size_groups(dataset):
        obs = mapping.classes_batch(group, np.stack([c.treatments for c in group]))
        e_cls = None
        if isinstance(propensity, IndependentBernoulli):
            e_cls = mapping.class_masses_batch(group, propensity.unit_probs_batch(group))
        if e_cls is not None:
            e_obs[rows] = np.take_along_axis(e_cls, obs[:, :, None], axis=2)[:, :, 0]
            e_max[rows] = e_cls.max(axis=2)
        else:
            for c, units, o in zip(group, rows, obs):
                bits = enumerate_patterns(c.size, cap)
                masses = np.asarray(propensity.probabilities_for(bits, c), dtype=np.float64)
                for i, u in enumerate(units):
                    cls = np.bincount(mapping.classes_for(c, i, bits), weights=masses)
                    e_obs[u], e_max[u] = cls[o[i]], cls.max()
        probs = weight.marginal_probs_batch(group)
        f_cls = None if probs is None else mapping.class_masses_batch(group, probs)
        if f_cls is not None:
            f_obs[rows] = np.take_along_axis(f_cls, obs[:, :, None], axis=2)[:, :, 0]
            continue
        for c, units, o in zip(group, rows, obs):
            support = weight.support(c, cap)
            f_obs[units] = 0.0
            if support:
                bits = np.array([pat for pat, _ in support], dtype=np.int8)
                w = np.array([w for _, w in support], dtype=np.float64)
                for i, u in enumerate(units):
                    f_obs[u] = w[mapping.classes_for(c, i, bits) == o[i]].sum()
    empty = np.flatnonzero(e_obs <= 0.0)
    if empty.size:
        starts = np.array([start for start, _ in dataset.cluster_slices()])
        ci = int(np.searchsorted(starts, empty[0], side="right")) - 1
        raise PositivityViolation(
            f"exposure-class probability is 0 for unit {empty[0] - starts[ci]} of cluster "
            f"{dataset.clusters[ci].cluster_id!r}"
        )
    return f_obs, e_obs, e_max


def _wproj_closed_form(dataset, structure, mapping, weight, propensity, cap=PATTERN_CAP):
    """Weighted-projection weights of a one-hot structure: f_class / (M_c e_class).

    The unit's rows are e_class(a) (x) x_i, so the e-weighted projection onto
    their span is the class-conditional mean of the potential IPW weights.
    Two cases give 0, as in the per-unit SVD: an all-zero covariate row, and
    an observed class cut by the SVD's rank rule, sqrt(e_class) <=
    rcond * sqrt(max class mass) with rcond = max(2^m, d) * eps. Clusters
    above `cap` have no such SVD and keep every class of positive mass.
    """
    f_obs, e_obs, e_max = _observed_class_sums(dataset, mapping, weight, propensity, cap)
    keep = np.ones(dataset.total_units, dtype=bool)
    for group, _, rows in _size_groups(dataset):
        m = rows.shape[1]
        if m > cap:
            continue
        if structure.regime == "fixed":
            rcond = _default_rcond((2**m, structure.dim(group[0])))
        else:
            rcond = np.array(
                [[_default_rcond((2**m, structure.dim(c, i))) for i in range(m)] for c in group]
            )
        keep[rows] &= np.sqrt(e_obs[rows]) > rcond * np.sqrt(e_max[rows])
    tensor = structure
    while isinstance(tensor, TensorWithCovariates):
        keep &= (_validate(_unit_covariate_rows(tensor, dataset)) != 0).any(axis=1)
        tensor = tensor.inner
    return np.where(keep, f_obs / (_unit_sizes(dataset) * e_obs), 0.0)


def _wproj_svd(dataset, structure, weight, propensity, cap=PATTERN_CAP):
    """Weighted-projection weights by one 2^m x d SVD per unit (any structure).

    A structure with `shared_rows`, or covariate tensors over one, takes one
    SVD per cluster. Unit i's rows there are sqrt(e) * (inner (x) x_i) for
    the shared inner rows, whose span is that of sqrt(e) * inner when x_i is
    non-zero and {0} when it is zero. Their singular values are those of
    sqrt(e) * inner times |x_i|, so the cut rcond = max(2^m, d) * eps
    relative to the largest keeps the same directions.
    """
    tensors, base = [], structure
    while isinstance(base, TensorWithCovariates):
        tensors.append(base)
        base = base.inner
    out = np.empty(dataset.total_units)
    for (start, stop), c in zip(dataset.cluster_slices(), dataset.clusters):
        bits = enumerate_patterns(c.size, cap)
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
            lam = base.all_pattern_rows(c, 0, cap)
            lam *= sqrt_e[:, None]
            rcond = _default_rcond((bits.shape[0], structure.dim(c)))
            value = project_colspace(lam, sqrt_e * w_tilde, rcond)[obs] / sqrt_e[obs]
            live = np.ones(c.size, dtype=bool)
            for tensor in tensors:
                live &= (_validate(tensor.covariate_rows(c)) != 0).any(axis=1)
            out[start:stop] = np.where(live, value, 0.0)
            continue
        for i in range(c.size):
            lam = structure.all_pattern_rows(c, i, cap)
            # scaled in place: a second 2^m x d temporary made malloc re-fault pages per unit
            lam *= sqrt_e[:, None]
            scaled = project_colspace(lam, sqrt_e * w_tilde)
            out[start + i] = scaled[obs] / sqrt_e[obs]
    return out


def weighted_projection_fit(dataset, structure, weight, propensity, cap=PATTERN_CAP):
    """Per-unit propensity-weighted projection of the potential IPW weights.

    For each unit, the 2^{M_c} potential IPW weights are projected onto the
    propensity-scaled span of the unit's per-pattern feature matrix; the
    observed-pattern entry is that unit's weight. One-hot structures (those
    with an `exposure_mapping`) take the exposure-class closed form; the
    others take one SVD per unit.
    """
    mapping = structure.exposure_mapping
    if mapping is None:
        out = _wproj_svd(dataset, structure, weight, propensity, cap)
    else:
        out = _wproj_closed_form(dataset, structure, mapping, weight, propensity, cap)
    return EstimateReport(
        point=_point(dataset, out),
        weights=WeightSet(values=out, kind="weighted_projection"),
    )


def exposure_collapsed_ipw(dataset, mapping, weight, propensity, cap=PATTERN_CAP):
    """IPW on exposure classes: w_ci = f_class / (M_c * e_class).

    The class masses come in product form when the mapping, the weight and
    the propensity have one, and by enumeration otherwise (see
    `_observed_class_sums`).
    """
    f_obs, e_obs, _ = _observed_class_sums(dataset, mapping, weight, propensity, cap)
    out = f_obs / (_unit_sizes(dataset) * e_obs)
    return EstimateReport(
        point=_point(dataset, out),
        weights=WeightSet(values=out, kind="exposure_ipw"),
    )
