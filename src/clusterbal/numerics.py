"""SVD-backed design solves (minimum-norm, OLS) and column-space projections.

All decompositions are deterministic (LAPACK SVD, no randomization) so
replicated runs are bit-stable on a given platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

FEAS_TOL = 1e-8


def _validate(a):
    a = np.asarray(a, dtype=np.float64)
    if not np.isfinite(a).all():
        raise InvalidInput("matrix contains non-finite entries")
    return a


def _default_rcond(shape):
    return max(shape) * np.finfo(np.float64).eps


@dataclass(frozen=True)
class SolveReport:
    """Minimum-norm solve outcome with feasibility evidence."""

    solution: np.ndarray
    residual_norm: float
    relative_residual: float
    rank: int

    def feasible(self):
        return self.relative_residual <= FEAS_TOL


def project_colspace(b, v, rcond=None):
    """Orthogonal projection of v onto the column space of b."""
    b = _validate(b)
    v = _validate(v).ravel()
    if b.shape[0] != v.size:
        raise InvalidInput(f"shape mismatch: {b.shape} vs vector {v.size}")
    if rcond is None:
        rcond = _default_rcond(b.shape)
    u, s, _ = np.linalg.svd(b, full_matrices=False)
    keep = s > rcond * (s[0] if s.size else 0.0)
    uk = u[:, keep]
    return uk @ (uk.T @ v)


class DesignOps:
    """SVD of a design matrix, reused across every solver that needs it.

    Backs the balancing solve (min-norm row-space solve), the OLS coefficient
    map, and column-space projections, so a fit pays for one decomposition.

    `pieces` factors the design as (row index, column slice) blocks whose
    rows and columns are disjoint, with phi zero outside them; each block
    takes its own SVD. The default is one piece holding all of phi. The
    singular values of a block-diagonal matrix are the union of its blocks',
    so the rank cut stays global: max(N, d) * eps times the largest singular
    value over all blocks.
    """

    def __init__(self, phi, pieces=None):
        phi = _validate(phi)
        self.phi = phi
        if pieces is None:
            pieces = ((slice(None), slice(None)),)
        svds = [
            (rows, cols, *np.linalg.svd(phi[rows, cols], full_matrices=False))
            for rows, cols in pieces
        ]
        self.s_max = max((s[0] for _, _, _, s, _ in svds if s.size), default=0.0)
        cut = _default_rcond(phi.shape) * self.s_max
        self._pieces = []
        for rows, cols, u, s, vt in svds:
            keep = s > cut
            self._pieces.append((rows, cols, u[:, keep], s[keep], vt[keep]))
        self.rank = int(sum(s.size for _, _, _, s, _ in self._pieces))

    def ols_coefficients(self, y):
        """phi^+ y: minimum-norm least-squares coefficients, y (N,) or (N, q)."""
        y = np.asarray(y, float)
        out = np.zeros((self.phi.shape[1],) + y.shape[1:])
        for rows, cols, u, s, vt in self._pieces:
            # one singular value per row of u.T @ y: divide along the first axis
            out[cols] = vt.T @ ((u.T @ y[rows]) / s.reshape((-1,) + (1,) * (y.ndim - 1)))
        return out

    def min_norm_row_solve(self, t):
        """Minimum-norm w with phi^T w = t, as a SolveReport."""
        t = np.asarray(t, dtype=np.float64).ravel()
        w = np.zeros(self.phi.shape[0])
        for rows, cols, u, s, vt in self._pieces:
            w[rows] = u @ ((vt @ t[cols]) / s)
        resid = float(np.linalg.norm(self.phi.T @ w - t))
        rel = resid / max(float(np.linalg.norm(t)), 1.0)
        return SolveReport(solution=w, residual_norm=resid, relative_residual=rel, rank=self.rank)

    def project(self, v):
        """Projection of v onto the column space of phi."""
        v = np.asarray(v, dtype=np.float64).ravel()
        out = np.zeros(self.phi.shape[0])
        for rows, _, u, _, _ in self._pieces:
            out[rows] = u @ (u.T @ v[rows])
        return out

    def contains(self, other):
        """True when the span of `other` (a DesignOps on the same rows) lies in this one's.

        other's phi minus its projection on this design's kept left singular
        vectors, piece by piece (rows no piece covers count whole), is held in
        Frobenius norm against max(N, d_other + d) * eps * max(both s_max).
        That is matrix_rank's rank([phi_other, phi]) == rank(phi) up to eps-scale
        factors: sqrt(2) on the stacked s_max, sqrt(d_other) from Frobenius to spectral.
        """
        phi_s = other.phi
        covered = np.zeros(phi_s.shape[0], dtype=bool)
        resid2 = 0.0
        for rows, _, u, _, _ in self._pieces:
            block = phi_s[rows]
            resid2 += float(np.sum((block - u @ (u.T @ block)) ** 2))
            covered[rows] = True
        resid2 += float(np.sum(phi_s[~covered] ** 2))
        shape = (phi_s.shape[0], phi_s.shape[1] + self.phi.shape[1])
        return bool(np.sqrt(resid2) <= _default_rcond(shape) * max(self.s_max, other.s_max))
