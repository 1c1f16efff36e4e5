"""Sandwich variance estimation, confidence intervals, noise-scale
estimation, the data-adaptive structure selection test, and the dispatch
that runs each estimator with its variance."""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

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

__all__ = [
    "VarianceReport",
    "SelectionReport",
    "sandwich_variance",
    "iid_cluster_variance",
    "sigma_noise_hat",
    "structure_test",
    "select_structure",
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
        return asdict(self)


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


def _check_unit_interval(value, name):
    """InvalidSpec unless value, a confidence level or a test size, lies in (0, 1)."""
    if not 0.0 < value < 1.0:
        raise InvalidSpec(f"{name} must lie in (0, 1), got {value!r}")


def _report(fit, sigma2, dataset, level):
    """The fit's VarianceReport: sigma2 with its normal CI over the n clusters."""
    _check_unit_interval(level, "level")
    n = dataset.n
    half = ndtri(1.0 - (1.0 - level) / 2.0) * np.sqrt(sigma2 / n)
    return VarianceReport(sigma2_hat=sigma2, point=fit.point, ci_low=fit.point - half,
                          ci_high=fit.point + half, level=level, n=n)


def _per_cluster_sums(values, dataset):
    return np.add.reduceat(values, dataset.starts[:-1])


def iid_cluster_variance(dataset, fit, level=0.95):
    """Sample-variance CI from i.i.d. per-cluster contributions.

    Appropriate whenever the per-cluster weights are functions of that
    cluster's data alone (IPW, weighted projection). One cluster gives NaN.
    """
    s_c = _per_cluster_sums(fit.weights.values * dataset.outcomes, dataset)
    return _report(fit, float(s_c.var(ddof=1)) if dataset.n > 1 else float("nan"), dataset, level)


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

    sigma2 = mean_c eta_c^2, eta_c = (L_c(w) - v_c) . h - (s_c - theta),
    with L_c(w) = sum_{i in c} w_i phi_i, s_c = w_c^T y_c and h = phi^+ y.
    Since L_c(w) . h = sum_{i in c} w_i yhat_i, yhat = phi h = U U^T y, it is
    taken in residual form, -eta_c = (g_c - theta) + w_c^T e_c with e = y -
    yhat and g_c = v_c . h, and no load is formed. Kind 'bal' balances the
    target contributions, g_c = contributions_c . h; 'proj' the loads of the
    IPW weights of the fit's propensity, g_c = w_ipw,c^T yhat_c, with no h.
    A unit no decomposition piece covers has yhat = 0, as its load is 0.
    Both read the dataset's design (`build_design`), which the fit read.
    'wproj' is the i.i.d. cluster sample variance: its per-cluster weights
    depend on that cluster alone.
    """
    if kind not in ("bal", "proj", "wproj"):
        raise ValueError(f"unknown variance kind {kind!r}")
    if kind != "bal" and (propensity is None or not propensity.known):
        raise PropensityUnavailable(f"kind {kind!r} needs a known propensity model")
    if kind == "bal" and not fit.feasible and not allow_infeasible:
        raise InfeasibleFit(
            "balancing fit is infeasible; CI construction refused "
            "(pass allow_infeasible=True to override)"
        )
    if kind == "wproj":
        return iid_cluster_variance(dataset, fit, level)
    _check_unit_interval(level, "level")  # before the design is taken
    design = build_design(structure, dataset, weight)
    y = dataset.outcomes
    y_hat, h = design.ops().least_squares(y)
    e = y - y_hat
    if kind == "bal":
        g = design.contributions @ h
    else:
        g = _per_cluster_sums(ipw_weights(dataset, weight, propensity) * (y - e), dataset)
    eta = g - fit.point + _per_cluster_sums(fit.weights.values * e, dataset)
    return _report(fit, float(np.mean(eta**2)), dataset, level)


def sigma_noise_hat(dataset, structure, dof="units"):
    """Regression noise scale from the residual of the most flexible design
    (`build_design`).

    dof='units' divides by (total units - rank); dof='clusters' is the
    literal cluster-count denominator, kept behind this flag.
    """
    ops = build_design(structure, dataset).ops()
    y = dataset.outcomes
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
    stat = float((delta @ dataset.outcomes / (sigma_hat * norm_delta)) ** 2)
    return stat, float(chi2.sf(stat, df=1))


def select_structure(dataset, weight, candidates, alpha=0.05, dof="units"):
    """Most informative candidate that the specification test does not reject.

    Candidates are ordered informative -> flexible; the last one is the
    reference. Any infeasible candidate fit aborts with the offender list,
    and an alpha outside (0, 1) with InvalidSpec before any fit.
    Each adjacent pair's nesting is decided on the DesignOps the fits read
    (`build_design`, `contains`), recorded in `nested`, warned about if false.
    """
    _check_unit_interval(alpha, "alpha")
    candidates = list(candidates)
    if not candidates:
        raise ValueError("need at least one candidate structure")
    fits = [balancing_fit(dataset, s, weight) for s in candidates]
    offenders = [s.label for s, f in zip(candidates, fits) if not f.feasible]
    if offenders:
        raise InfeasibleFit(f"infeasible balancing fits for candidates: {offenders}")
    ops = [build_design(s, dataset).ops() for s in candidates]
    nested = tuple(large.contains(small) for small, large in zip(ops, ops[1:]))
    for i, ok in enumerate(nested):
        if not ok:
            small, large = candidates[i].label, candidates[i + 1].label
            warnings.warn(f"candidate {i} {small!r} is not nested in candidate {i + 1} "
                          f"{large!r} on the observed design", stacklevel=2)
    reference = candidates[-1]
    sigma_hat = sigma_noise_hat(dataset, reference, dof=dof)
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


# ---------- the estimator dispatch ----------

ESTIMATORS = ("ipw", "balancing", "projection", "wproj", "exposure-ipw")


def fit_estimator(
    name,
    dataset,
    weight,
    propensity,
    structure=None,
    mapping=None,
    level=0.95,
    allow_infeasible=False,
):
    """(EstimateReport, VarianceReport | None) of the estimator `name`.

    ipw and exposure-ipw take the i.i.d. cluster variance; balancing,
    projection and wproj the sandwich of kind bal, proj and wproj; a fit and
    its sandwich read the dataset's design of the structure (`build_design`).
    The variance is computed only for a feasible fit, or
    for any fit when `allow_infeasible` is set; only balancing fits can be
    infeasible. A name not in ESTIMATORS, a needed input that is None, or a
    level outside (0, 1) raises InvalidSpec before any fit. The fits and
    variances are called by their module names at call time, so rebinding
    those names reaches every estimator.
    """
    if name not in ESTIMATORS:
        raise InvalidSpec(f"unknown estimator {name!r}; choose from {list(ESTIMATORS)}")
    need, given = ("exposure mapping", mapping) if name == "exposure-ipw" else ("structure", structure)
    if name != "ipw" and given is None:
        raise InvalidSpec(f"estimator {name!r} needs the {need} input, and none was given")
    _check_unit_interval(level, "level")
    if name == "ipw":
        fit = ipw_fit(dataset, weight, propensity)
    elif name == "balancing":
        fit = balancing_fit(dataset, structure, weight)
    elif name == "projection":
        fit = projection_fit(dataset, structure, weight, propensity)
    elif name == "wproj":
        fit = weighted_projection_fit(dataset, structure, weight, propensity)
    else:
        fit = exposure_collapsed_ipw(dataset, mapping, weight, propensity)
    if not (fit.feasible or allow_infeasible):
        return fit, None
    if name in ("ipw", "exposure-ipw"):
        return fit, iid_cluster_variance(dataset, fit, level)
    kind = {"balancing": "bal", "projection": "proj", "wproj": "wproj"}[name]
    return fit, sandwich_variance(
        dataset, structure, weight, fit, kind, propensity=propensity, level=level,
        allow_infeasible=allow_infeasible,
    )
