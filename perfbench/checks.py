"""Output checks made apart from the program.

Each reference is computed here with numpy/scipy from the raw inputs
(`numpy.linalg.lstsq` solves and projections, probit masses evaluated with
`scipy.special.ndtr`, k-NN lists by brute force), or is a property the
method must have. None compares against stored output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

RTOL = 1e-8  # solver agreement: both sides are SVD-based least squares in float64
EXACT_RTOL = 1e-12  # same arithmetic on both sides


@dataclass(frozen=True)
class Verdict:
    op: str
    check: str
    ok: bool
    detail: str
    known_fault: str | None = None  # program fault that makes this check fail today


def rel_err(got, ref):
    got = np.asarray(got, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    return float(np.linalg.norm(got - ref) / max(float(np.linalg.norm(ref)), 1e-300))


def close(op, check, got, ref, rtol=RTOL):
    err = rel_err(got, ref)
    return Verdict(op, check, bool(err <= rtol), f"relative error {err:.3g} (tolerance {rtol:g})")


def verdict(op, check, ok, detail, known_fault=None):
    return Verdict(op, check, bool(ok), detail, known_fault)


# ---------- references ----------


def probit_probs(x, kappa):
    """Phi(sum_j mean_j(X_c) / sqrt(p) + kappa * rowmean(X_ci)), from ndtr."""
    cluster_term = x.mean(axis=0).sum() / math.sqrt(x.shape[1])
    return ndtr(cluster_term + kappa * x.mean(axis=1))


def bernoulli_mass(a, probs):
    return float(np.prod(np.where(a == 1, probs, 1.0 - probs)))


def ipw_weights(dataset, kappa_f, kappa_e=0.0):
    """f(A_c) / (M_c e(A_c)) for probit f (tilt kappa_f) and e (tilt kappa_e)."""
    out = []
    for c in dataset.clusters:
        x, a = c.covariates, c.treatments
        f = bernoulli_mass(a, probit_probs(x, kappa_f))
        e = bernoulli_mass(a, probit_probs(x, kappa_e))
        out.append(np.full(c.size, f / (c.size * e)))
    return np.concatenate(out)


def min_norm_rows(phi, t):
    """Minimum-norm w with phi^T w = t (least squares), and the rank of phi."""
    w, _, rank, _ = np.linalg.lstsq(phi.T, t, rcond=None)
    return w, int(rank)


def colspace_projection(phi, v):
    coef, _, rank, _ = np.linalg.lstsq(phi, v, rcond=None)
    return phi @ coef, int(rank)


def cluster_sums(dataset, values):
    starts = np.cumsum([0] + [c.size for c in dataset.clusters[:-1]])
    return np.add.reduceat(values, starts)


def iid_sigma2(dataset, weights):
    """Sample variance of the per-cluster sums of w * y (i.i.d. clusters)."""
    y = np.concatenate([c.outcomes for c in dataset.clusters])
    return float(cluster_sums(dataset, weights * y).var(ddof=1))


def knn_lists(x, k):
    """k nearest neighbors of each row (self excluded, ties to the lower index)."""
    m = x.shape[0]
    d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1, kind="stable")[:, : min(k, m - 1)]


def neighbor_pattern_ipw(dataset, k, kappa_f, kappa_e=0.0):
    """Exposure-class IPW under the k-NN pattern mapping and product probit laws.

    The class of unit i is its neighbors' treatment pattern, so both class
    masses are products over the neighbors: w_ci = f_class / (M_c e_class).
    """
    out = []
    for c in dataset.clusters:
        x, a = c.covariates, c.treatments
        pf, pe = probit_probs(x, kappa_f), probit_probs(x, kappa_e)
        nbrs = knn_lists(x, k)
        out.append(
            np.array(
                [
                    bernoulli_mass(a[nb], pf[nb]) / (c.size * bernoulli_mass(a[nb], pe[nb]))
                    for nb in nbrs
                ]
            )
        )
    return np.concatenate(out)


def pattern_masses(m, probs):
    """Product-Bernoulli mass of every pattern (first unit = most significant bit)."""
    idx = np.arange(2**m)[:, None]
    bits = (idx >> np.arange(m - 1, -1, -1)) & 1
    return np.prod(np.where(bits == 1, probs, 1.0 - probs), axis=1)


def weighted_projection(dataset, rows_of, kappa_f, kappa_e=0.0):
    """Observed entry of the e-weighted least-squares projection of the
    potential IPW weights onto each unit's per-pattern rows `rows_of(c, i)`."""
    out = []
    for c in dataset.clusters:
        x, a, m = c.covariates, c.treatments, c.size
        e = pattern_masses(m, probit_probs(x, kappa_e))
        f = pattern_masses(m, probit_probs(x, kappa_f))
        sqrt_e = np.sqrt(e)
        target = sqrt_e * f / (m * e)
        obs = int("".join(str(int(b)) for b in a), 2)
        for i in range(m):
            basis = sqrt_e[:, None] * rows_of(c, i)
            proj, _ = colspace_projection(basis, target)
            out.append(proj[obs] / sqrt_e[obs])
    return np.array(out)
