"""Sandwich variance estimation, confidence intervals, noise-scale
estimation, and the data-adaptive structure selection test."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2, norm

from .core import PATTERN_CAP
from .errors import (
    DegenerateContrast,
    DegenerateDF,
    InfeasibleFit,
    PropensityUnavailable,
)
from .estimators import balancing_fit, build_design, ipw_weights
from .numerics import DesignOps
from .structures import _nested_in_span, design_matrix

__all__ = [
    "VarianceReport",
    "SelectionReport",
    "sandwich_variance",
    "iid_cluster_variance",
    "sigma_noise_hat",
    "structure_test",
    "select_structure",
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

    def to_dict(self):
        return {
            "statistics": list(self.statistics),
            "p_values": list(self.p_values),
            "chosen": self.chosen,
            "alpha": self.alpha,
            "sigma_hat": self.sigma_hat,
            "labels": list(self.labels),
        }


def _ci(point, sigma2, n, level):
    half = norm.ppf(1.0 - (1.0 - level) / 2.0) * np.sqrt(sigma2 / n)
    return point - half, point + half


def _per_cluster_sums(values, slices):
    starts = np.array([s for s, _ in slices])
    return np.add.reduceat(values, starts)


def _per_cluster_feature_loads(phi, weights, slices):
    """Lambda_c(A_c)^T w_c per cluster: (n, d)."""
    starts = np.array([s for s, _ in slices])
    return np.add.reduceat(phi * weights[:, None], starts, axis=0)


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
    cap=PATTERN_CAP,
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
        design = build_design(structure, dataset, weight, cap)
    slices = design.slices
    phi = design.phi
    y = dataset.stacked_outcomes()
    n = dataset.n

    h_hat = design.ops().ols_coefficients(y)
    w = fit.weights.values
    loads = _per_cluster_feature_loads(phi, w, slices)
    if kind == "bal":
        v = design.contributions
    else:
        w_ipw = fit._context.get("w_ipw")
        if w_ipw is None:
            w_ipw = ipw_weights(dataset, weight, propensity)
        v = _per_cluster_feature_loads(phi, w_ipw, slices)
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
    if design is None:
        ops = DesignOps(design_matrix(structure, dataset))
    else:
        ops = design.ops()
    y = dataset.stacked_outcomes()
    resid = y - ops.project(y)
    denom = (dataset.total_units if dof == "units" else dataset.n) - ops.rank
    if denom <= 0:
        raise DegenerateDF(
            f"no residual degrees of freedom: dof base minus rank = {denom}"
        )
    return float(np.sqrt(resid @ resid / denom))


def structure_test(dataset, weight, candidate, reference, sigma_hat, cap=PATTERN_CAP, fits=None):
    """Chi-square(1) specification test of `candidate` against `reference`.

    Returns (statistic, p_value) for the squared normalized contrast of the
    two balancing weight vectors against the outcomes.
    """
    if fits is None:
        fits = (
            balancing_fit(dataset, candidate, weight, cap=cap),
            balancing_fit(dataset, reference, weight, cap=cap),
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


def select_structure(
    dataset,
    weight,
    candidates,
    alpha=0.05,
    dof="units",
    cap=PATTERN_CAP,
    check_nesting=True,
):
    """Most informative candidate that the specification test does not reject.

    Candidates are ordered informative -> flexible; the last one is the
    reference. Any infeasible candidate fit aborts with the offender list.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("need at least one candidate structure")
    designs = [build_design(s, dataset, weight, cap) for s in candidates]
    fits = [balancing_fit(dataset, s, weight, design=d) for s, d in zip(candidates, designs)]
    offenders = [s.label for s, f in zip(candidates, fits) if not f.feasible]
    if offenders:
        raise InfeasibleFit(f"infeasible balancing fits for candidates: {offenders}")
    if check_nesting:
        for i in range(len(candidates) - 1):
            if not _nested_in_span(designs[i].phi, designs[i + 1].phi):
                small, large = candidates[i].label, candidates[i + 1].label
                warnings.warn(
                    f"candidate {small!r} is not nested in {large!r} "
                    "on the observed design",
                    stacklevel=2,
                )
    reference = candidates[-1]
    sigma_hat = sigma_noise_hat(dataset, reference, dof=dof, design=designs[-1])
    threshold = chi2.ppf(1.0 - alpha, df=1)
    stats, pvals = [], []
    chosen = len(candidates) - 1
    decided = False
    for l in range(len(candidates) - 1):
        try:
            stat, p = structure_test(
                dataset,
                weight,
                candidates[l],
                reference,
                sigma_hat,
                cap=cap,
                fits=(fits[l], fits[-1]),
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
    )
