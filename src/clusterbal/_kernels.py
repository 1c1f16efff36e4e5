"""Hot numeric kernels of the pattern enumerations, in numpy.

`IMPLS["numpy"]` maps each kernel's name to the module-level function of
that name; `active_backend()` names the one backend.
"""

from __future__ import annotations

import numpy as np


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
    """Product-Bernoulli mass of every pattern: (P, m) bits under probs (m,)
    or one row per pattern (P, m) -> (P,) masses."""
    treated = bits.astype(np.float64)
    return np.prod(treated * probs + (1.0 - treated) * (1.0 - probs), axis=1)


IMPLS = {
    "numpy": {
        "pb_pmf_batch": pb_pmf_batch,
        "pattern_masses": pattern_masses,
    }
}


def active_backend():
    return "numpy"
