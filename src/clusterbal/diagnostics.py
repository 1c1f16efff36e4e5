"""Covariate imbalance assessment for balancing fits.

Raw imbalance is the per-coordinate slack of the balancing equations;
relative imbalance rescales each (covariate, effective treatment) entry by
the empirical dispersion of that coordinate's counterfactual load across
clusters; the omnibus measure averages over effective treatments with
observed-incidence weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import uniform_intervention
from .errors import InvalidSpec
from .structures import TensorWithCovariates, incidence_counts, target_contributions

DEFAULT_THRESHOLD = 0.10


@dataclass(frozen=True)
class ImbalanceReport:
    nu: np.ndarray  # (d_h,) raw imbalance as computed by the balancing fit
    nu_star: np.ndarray  # (p, ell) relative imbalance; NaN where unnormalizable
    sigma_scale: np.ndarray  # (p, ell) empirical scales
    omnibus: np.ndarray  # (p,) incidence-weighted relative imbalance
    m_counts: np.ndarray  # (ell,) observed effective-treatment incidences
    flagged: tuple  # ((covariate, effective treatment), ...) with |nu*| > threshold
    degenerate: tuple  # ((covariate, effective treatment), ...) zero-scale entries
    threshold: float
    has_covariates: bool = True  # False: one row per coordinate, raw imbalance only

    def rows(self):
        """Plot-ready rows: one per (covariate, effective treatment), or one per
        coordinate (covariate left empty) for a structure without covariates."""
        p, ell = self.nu_star.shape
        nu_mat = self.nu.reshape(ell, p)
        out = []
        for t in range(p):
            for j in range(ell):
                out.append(
                    {
                        "covariate": t if self.has_covariates else None,
                        "effective_treatment": j,
                        "nu": float(nu_mat[j, t]),
                        "sigma": float(self.sigma_scale[t, j]),
                        "nu_star": float(self.nu_star[t, j]),
                        "flagged": (t, j) in self.flagged,
                        "degenerate": (t, j) in self.degenerate,
                    }
                )
        return out

    def to_dict(self):
        return {
            "nu": self.nu.tolist(),
            "nu_star": self.nu_star.tolist(),
            "sigma_scale": self.sigma_scale.tolist(),
            "omnibus": self.omnibus.tolist(),
            "m_counts": self.m_counts.tolist(),
            "flagged": [list(x) for x in self.flagged],
            "degenerate": [list(x) for x in self.degenerate],
            "threshold": self.threshold,
        }


def imbalance_report(dataset, structure, weight, fit, threshold=DEFAULT_THRESHOLD):
    """Raw, relative, and omnibus imbalance of a balancing fit.

    Any fixed-dimension structure gets its raw imbalance and the observed
    incidence of each coordinate. The covariate scales, and with them the
    relative and omnibus imbalance, need a covariate tensor, whose inner
    encoding defines the effective treatments; any other structure is its
    own inner encoding under one covariate of NaN scales, so it reports them
    as NaN and flags nothing. The fit must carry its imbalance vector, target
    and design, as a balancing fit does. The incidences count the units whose
    observed inner row is non-zero in each coordinate. A negative or NaN
    threshold raises InvalidSpec.
    """
    if not threshold >= 0.0:
        raise InvalidSpec(f"threshold must be a non-negative number, got {threshold!r}")
    if structure.regime != "fixed":
        raise InvalidSpec("imbalance reporting needs a fixed-dimension structure")
    if fit.imbalance is None or fit.target is None or fit.design is None:
        raise InvalidSpec("fit does not carry an imbalance vector (not a balancing fit?)")
    tensor = isinstance(structure, TensorWithCovariates)
    c0 = dataset.clusters[0]
    inner, width = (structure.inner, structure.width(c0)) if tensor else (structure, 1)
    ell = inner.dim(c0)
    nu = np.asarray(fit.imbalance, dtype=np.float64)
    if nu.size != ell * width:
        raise InvalidSpec(f"imbalance length {nu.size} != blocks*width = {ell}*{width}")

    if tensor and dataset.n > 1:
        # per-cluster counterfactual load of each coordinate, summed over
        # patterns: the mean load under probability 1/2 times the 2^M_c patterns
        z = target_contributions(structure, dataset, uniform_intervention())
        z *= 2.0 ** dataset.sizes[:, None]
        sigma = z.std(axis=0, ddof=1)
    else:  # one cluster has no spread, and a structure without covariates no scale
        sigma = np.full(nu.size, 0.0 if tensor else np.nan)

    # [covariate t, effective treatment j]; a zero scale leaves nu* NaN
    sig_mat = sigma.reshape(ell, width).T
    nu_star = np.divide(nu.reshape(ell, width).T, sig_mat,
                        out=np.full((width, ell), np.nan), where=sig_mat != 0.0)

    # observed incidences of each effective treatment, from the inner rows of
    # the fit's design
    m_counts = incidence_counts(inner, dataset, fit.design.factors)

    omnibus = np.full(width, np.nan)
    for t in range(width):
        ok = ~np.isnan(nu_star[t])
        total = m_counts[ok].sum()
        if total > 0:
            omnibus[t] = (nu_star[t, ok] * m_counts[ok]).sum() / total

    return ImbalanceReport(
        nu=nu,
        nu_star=nu_star,
        sigma_scale=sig_mat,
        omnibus=omnibus,
        m_counts=m_counts,
        flagged=tuple(map(tuple, np.argwhere(np.abs(nu_star) > threshold).tolist())),
        degenerate=tuple(map(tuple, np.argwhere(sig_mat == 0.0).tolist())),
        threshold=threshold,
        has_covariates=tensor,
    )
