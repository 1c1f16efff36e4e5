"""Sandwich variance estimation, confidence intervals, noise-scale
estimation, the data-adaptive structure selection test, and the table that
pairs each estimator with its variance."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtri
from scipy.stats import chi2

from .errors import (
    DegenerateContrast,
    DegenerateDF,
    InfeasibleFit,
    InvalidSpec,
    PropensityUnavailable,
)
from .estimators import (
    balancing_fit,
    build_design,
    exposure_collapsed_ipw,
    ipw_fit,
    ipw_weights,
    projection_fit,
    weighted_projection_fit,
)
from .numerics import DesignOps
from .structures import _observed_design

__all__ = [
    "VarianceReport",
    "SelectionReport",
    "sandwich_variance",
    "iid_cluster_variance",
    "sigma_noise_hat",
    "structure_test",
    "select_structure",
    "Estimator",
    "ESTIMATORS",
    "fit_estimator",
]


@dataclass(frozen=True)
class VarianceReport:
    """Variance estimate with the implied normal confidence interval."""

    sigma2_hat: float
    point: float
    ci_low: float
    ci_high: float
    level: float
    n: int

    @property
    def ci_length(self):
        return self.ci_high - self.ci_low

    def to_dict(self):
        return {
            "sigma2_hat": self.sigma2_hat,
            "point": self.point,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "level": self.level,
            "n": self.n,
        }


@dataclass(frozen=True)
class SelectionReport:
    """Structure-selection statistics and the chosen candidate."""

    statistics: tuple  # S_lL for l = 0..L-2 (the last candidate is the reference)
    p_values: tuple
    chosen: int  # index into the candidate list
    alpha: float
    sigma_hat: float
    labels: tuple = ()
    nested: tuple = ()  # candidate i's design in candidate i + 1's span, i = 0..L-2

    def to_dict(self):
        return {
            "statistics": list(self.statistics),
            "p_values": list(self.p_values),
            "chosen": self.chosen,
            "alpha": self.alpha,
            "sigma_hat": self.sigma_hat,
            "labels": list(self.labels),
            "nested": list(self.nested),
        }


def _ci(point, sigma2, n, level):
    half = ndtri(1.0 - (1.0 - level) / 2.0) * np.sqrt(sigma2 / n)
    return point - half, point + half


def _per_cluster_sums(values, slices):
    starts = np.array([s for s, _ in slices])
    return np.add.reduceat(values, starts)


def _per_cluster_feature_loads(design, weights):
    """Lambda_c(A_c)^T w_c per cluster: (n, d). Cluster c's load is
    sum_i w_i r_i (x) x_i over its units, from the design's factors: one
    batched r^T (w * X) product per size group."""
    starts = np.array([s for s, _ in design.slices])
    _, inner, x = design.factors[0]
    out = np.empty((len(starts), inner.shape[2] * x.shape[2]))
    for rows, inner, x in design.factors:
        loads = np.matmul(inner.astype(float).transpose(0, 2, 1), x * weights[rows][:, :, None])
        out[np.searchsorted(starts, rows[:, 0])] = loads.reshape(len(rows), -1)
    return out


def iid_cluster_variance(dataset, fit, level=0.95):
    """Sample-variance CI from i.i.d. per-cluster contributions.

    Appropriate whenever the per-cluster weights are functions of that
    cluster's data alone (IPW, weighted projection).
    """
    slices = dataset.cluster_slices()
    s_c = _per_cluster_sums(fit.weights.values * dataset.stacked_outcomes(), slices)
    n = dataset.n
    sigma2 = float(s_c.var(ddof=1)) if n > 1 else float("nan")
    lo, hi = _ci(fit.point, sigma2, n, level) if n > 1 else (float("nan"), float("nan"))
    return VarianceReport(
        sigma2_hat=sigma2, point=fit.point, ci_low=lo, ci_high=hi, level=level, n=n
    )


def sandwich_variance(
    dataset,
    structure,
    weight,
    fit,
    kind,
    propensity=None,
    level=0.95,
    allow_infeasible=False,
):
    """Z-estimator sandwich variance for the design-based weighting fits.

    kind 'bal' uses the counterfactual feature loads as the balance target of
    the estimating equations; 'proj' uses the observed IPW feature loads and
    needs the propensity; 'wproj' reduces to the i.i.d. cluster sample
    variance since its per-cluster weights depend on that cluster alone.
    """
    if kind not in ("bal", "proj", "wproj"):
        raise ValueError(f"unknown variance kind {kind!r}")
    if kind in ("proj", "wproj"):
        if propensity is None or not propensity.known:
            raise PropensityUnavailable(f"kind {kind!r} needs a known propensity model")
    if kind == "bal" and not fit.feasible and not allow_infeasible:
        raise InfeasibleFit(
            "balancing fit is infeasible; CI construction refused "
            "(pass allow_infeasible=True to override)"
        )
    if kind == "wproj":
        return iid_cluster_variance(dataset, fit, level)

    design = fit._context.get("design")
    if design is None:
        design = build_design(structure, dataset, weight)
    slices = design.slices
    y = dataset.stacked_outcomes()
    n = dataset.n

    h_hat = design.ops().ols_coefficients(y)
    w = fit.weights.values
    loads = _per_cluster_feature_loads(design, w)
    if kind == "bal":
        v = design.contributions
    else:
        w_ipw = fit._context.get("w_ipw")
        if w_ipw is None:
            w_ipw = ipw_weights(dataset, weight, propensity)
        v = _per_cluster_feature_loads(design, w_ipw)
    s_c = _per_cluster_sums(w * y, slices)
    eta_dot_l = (loads - v) @ h_hat - (s_c - fit.point)
    sigma2 = float(np.mean(eta_dot_l**2))
    lo, hi = _ci(fit.point, sigma2, n, level)
    return VarianceReport(
        sigma2_hat=sigma2, point=fit.point, ci_low=lo, ci_high=hi, level=level, n=n
    )


def sigma_noise_hat(dataset, structure, dof="units", design=None):
    """Regression noise scale from the residual of the most flexible design.

    dof='units' divides by (total units - rank); dof='clusters' is the
    literal cluster-count denominator, kept behind this flag.
    """
    ops = DesignOps(_observed_design(structure, dataset)[0]) if design is None else design.ops()
    y = dataset.stacked_outcomes()
    resid = y - ops.project(y)
    denom = (dataset.total_units if dof == "units" else dataset.n) - ops.rank
    if denom <= 0:
        raise DegenerateDF(
            f"no residual degrees of freedom: dof base minus rank = {denom}"
        )
    return float(np.sqrt(resid @ resid / denom))


def structure_test(dataset, weight, candidate, reference, sigma_hat, fits=None):
    """Chi-square(1) specification test of `candidate` against `reference`.

    Returns (statistic, p_value) for the squared normalized contrast of the
    two balancing weight vectors against the outcomes.
    """
    if fits is None:
        fits = (
            balancing_fit(dataset, candidate, weight),
            balancing_fit(dataset, reference, weight),
        )
    fit_l, fit_ref = fits
    bad = [f.kind for f in (fit_l, fit_ref) if not f.feasible]
    if bad:
        raise InfeasibleFit("structure test needs feasible balancing fits")
    delta = fit_l.weights.values - fit_ref.weights.values
    norm_delta = float(np.linalg.norm(delta))
    scale = max(fit_l.weights.norm(), fit_ref.weights.norm(), 1.0)
    if norm_delta <= 1e-12 * scale:
        raise DegenerateContrast("candidate and reference weights are identical")
    stat = float((delta @ dataset.stacked_outcomes() / (sigma_hat * norm_delta)) ** 2)
    return stat, float(chi2.sf(stat, df=1))


def select_structure(dataset, weight, candidates, alpha=0.05, dof="units"):
    """Most informative candidate that the specification test does not reject.

    Candidates are ordered informative -> flexible; the last one is the
    reference. Any infeasible candidate fit aborts with the offender list.
    Each adjacent pair's nesting is decided on the candidates' own DesignOps
    (DesignOps.contains), recorded in `nested`, and warned about when false.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("need at least one candidate structure")
    designs = [build_design(s, dataset, weight) for s in candidates]
    fits = [balancing_fit(dataset, s, weight, design=d) for s, d in zip(candidates, designs)]
    offenders = [s.label for s, f in zip(candidates, fits) if not f.feasible]
    if offenders:
        raise InfeasibleFit(f"infeasible balancing fits for candidates: {offenders}")
    nested = tuple(large.ops().contains(small.ops()) for small, large in zip(designs, designs[1:]))
    for i, ok in enumerate(nested):
        if not ok:
            small, large = candidates[i].label, candidates[i + 1].label
            warnings.warn(f"candidate {i} {small!r} is not nested in candidate {i + 1} "
                          f"{large!r} on the observed design", stacklevel=2)
    reference = candidates[-1]
    sigma_hat = sigma_noise_hat(dataset, reference, dof=dof, design=designs[-1])
    threshold = chi2.ppf(1.0 - alpha, df=1)
    stats, pvals = [], []
    chosen = len(candidates) - 1
    decided = False
    for l in range(len(candidates) - 1):
        try:
            stat, p = structure_test(
                dataset, weight, candidates[l], reference, sigma_hat, fits=(fits[l], fits[-1])
            )
        except DegenerateContrast:
            stat, p = 0.0, 1.0
        stats.append(stat)
        pvals.append(p)
        if not decided and stat < threshold:
            chosen = l
            decided = True
    return SelectionReport(
        statistics=tuple(stats),
        p_values=tuple(pvals),
        chosen=chosen,
        alpha=alpha,
        sigma_hat=sigma_hat,
        labels=tuple(s.label for s in candidates),
        nested=nested,
    )


# ---------- the estimator table ----------


@dataclass(frozen=True)
class _Inputs:
    dataset: object
    weight: object
    propensity: object
    structure: object
    design: object
    mapping: object
    level: float
    allow_infeasible: bool


@dataclass(frozen=True)
class Estimator:
    """One entry of ESTIMATORS: a fit, its variance, and the inputs it needs.

    `needs` names the inputs fit_estimator must be given ("structure",
    "exposure mapping"); `shared_design` marks the fits that take the
    caller's DesignSystem of the structure instead of building their own.
    The ipw fit needs no design, but keeps its IPW weights on the caller's
    one, so a projection fit after it reads them instead of taking them
    again. The functions call the fits and variances by their module names
    at call time, so rebinding those names reaches every estimator.
    """

    fit: Callable  # _Inputs -> EstimateReport
    variance: Callable  # (_Inputs, EstimateReport) -> VarianceReport
    needs: tuple = ()
    shared_design: bool = False


def _ipw(x):
    """ipw_fit, whose weights are kept on the caller's design, when there is
    one, for a projection fit of the same set to read."""
    fit = ipw_fit(x.dataset, x.weight, x.propensity)
    if x.design is not None:
        x.design.keep_ipw_weights(x.propensity, fit.weights.values)
    return fit


def _iid(x, fit):
    return iid_cluster_variance(x.dataset, fit, x.level)


def _sandwich(kind):
    def variance(x, fit):
        return sandwich_variance(
            x.dataset, x.structure, x.weight, fit, kind, propensity=x.propensity,
            level=x.level, allow_infeasible=x.allow_infeasible,
        )

    return variance


ESTIMATORS = {
    "ipw": Estimator(_ipw, _iid),
    "balancing": Estimator(
        lambda x: balancing_fit(x.dataset, x.structure, x.weight, design=x.design),
        _sandwich("bal"),
        needs=("structure",),
        shared_design=True,
    ),
    "projection": Estimator(
        lambda x: projection_fit(x.dataset, x.structure, x.weight, x.propensity, design=x.design),
        _sandwich("proj"),
        needs=("structure",),
        shared_design=True,
    ),
    "wproj": Estimator(
        lambda x: weighted_projection_fit(x.dataset, x.structure, x.weight, x.propensity),
        _sandwich("wproj"),
        needs=("structure",),
    ),
    "exposure-ipw": Estimator(
        lambda x: exposure_collapsed_ipw(x.dataset, x.mapping, x.weight, x.propensity),
        _iid,
        needs=("exposure mapping",),
    ),
}


def fit_estimator(
    name,
    dataset,
    weight,
    propensity,
    structure=None,
    design=None,
    mapping=None,
    level=0.95,
    allow_infeasible=False,
):
    """(EstimateReport, VarianceReport | None) of the estimator `name`.

    `design` is the structure's DesignSystem, shared by the fits that take
    one (they build it when it is None). The variance is computed only for a
    feasible fit, or for any fit when `allow_infeasible` is set; only
    balancing fits can be infeasible. A name not in ESTIMATORS, or a needed
    input that is None, raises InvalidSpec.
    """
    entry = ESTIMATORS.get(name)
    if entry is None:
        raise InvalidSpec(f"unknown estimator {name!r}; choose from {list(ESTIMATORS)}")
    given = {"structure": structure, "exposure mapping": mapping}
    for need in entry.needs:
        if given[need] is None:
            raise InvalidSpec(f"estimator {name!r} needs the {need} input, and none was given")
    x = _Inputs(dataset, weight, propensity, structure, design, mapping, level, allow_infeasible)
    fit = entry.fit(x)
    var = entry.variance(x, fit) if fit.feasible or allow_infeasible else None
    return fit, var
