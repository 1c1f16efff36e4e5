"""Hot numeric kernels of the pattern enumerations, in numpy.

`IMPLS["numpy"]` maps each kernel's name to the module-level function of
that name; `active_backend()` names the one backend.
"""

from __future__ import annotations

import numpy as np


def pb_pmf(probs):
    """Poisson-binomial pmf of sum of independent Bernoulli(probs)."""
    k = probs.shape[0]
    pmf = np.zeros(k + 1)
    pmf[0] = 1.0
    for j in range(k):
        p = probs[j]
        pmf[1 : j + 2] = pmf[1 : j + 2] * (1.0 - p) + pmf[0 : j + 1] * p
        pmf[0] *= 1.0 - p
    return pmf


def pb_pmf_batch(probs):
    """Row-wise Poisson-binomial pmf: (U, k) probs -> (U, k+1) pmf."""
    u, k = probs.shape
    pmf = np.zeros((u, k + 1))
    pmf[:, 0] = 1.0
    for j in range(k):
        p = probs[:, j : j + 1]
        pmf[:, 1 : j + 2] = pmf[:, 1 : j + 2] * (1.0 - p) + pmf[:, 0 : j + 1] * p
        pmf[:, 0] *= 1.0 - probs[:, j]
    return pmf


def pattern_masses(bits, probs):
    """Product-Bernoulli mass of every pattern: (P, m) bits -> (P,) masses."""
    treated = bits.astype(np.float64)
    return np.prod(treated * probs + (1.0 - treated) * (1.0 - probs), axis=1)


def count_slots(bits, deps):
    """Number of treated among deps for every pattern: (P,) int64."""
    if deps.shape[0] == 0:
        return np.zeros(bits.shape[0], dtype=np.int64)
    return bits[:, deps].astype(np.int64).sum(axis=1)


def weighted_slot_sums(slots, weights, n_slots):
    """Sum of weights per slot: scatter-add of (P,) weights into (n_slots,)."""
    return np.bincount(slots, weights=weights, minlength=n_slots)[:n_slots]


IMPLS = {
    "numpy": {
        "pb_pmf": pb_pmf,
        "pb_pmf_batch": pb_pmf_batch,
        "pattern_masses": pattern_masses,
        "count_slots": count_slots,
        "weighted_slot_sums": weighted_slot_sums,
    }
}


def active_backend():
    return "numpy"
