"""SVD-backed design solves (minimum-norm, OLS) and column-space projections.

All decompositions are deterministic (LAPACK QR and SVD, no
randomization) so replicated runs are bit-stable on a given platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

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


def _column_components(rows):
    """Each column's component label, numbered in order of the components'
    smallest columns, where two columns are connected when some row of the
    0/1 matrix holds both: the components of the graph joining each row to
    its columns, which has as many edges as the matrix has 1s."""
    n, ell = rows.shape
    indptr = np.r_[np.zeros(ell + 1, dtype=np.int64), np.cumsum(np.count_nonzero(rows, axis=1))]
    cols = np.flatnonzero(rows) % ell
    graph = csr_array((np.ones(cols.size), cols, indptr), shape=(ell + n, ell + n))
    return connected_components(graph, directed=False)[1][:ell]


def _factored_svds(factors, rcond):
    """(rows, cols, u, s, vt) of the thin SVD of each connected component
    of a factored design (`DesignOps`).

    Group the units by distinct inner row; the units whose row is zero join
    no group. Group g of a component has rows X_g (b_g^T (x) I_w), with b_g
    the inner row on the component's columns and X_g the covariate rows.
    Take X_g = Q_g R_g from one batched reduced QR per group height (Q_g
    and R_g filled out to w columns and rows with 0), and K (r x ell_c,
    orthonormal rows) spanning the component's distinct rows from one SVD
    of their stack B, so b_g = K^T z_g with z_g = K b_g. Then the
    component's rows are

        blockdiag(Q_g) G' (K (x) I_w),  G' = [R_g (z_g^T (x) I_w)],

    with G' (groups * w) x (r w). blockdiag(Q_g) has orthonormal columns,
    or 0 ones where G' has 0 rows (a group of fewer than w units), and
    K (x) I_w orthonormal rows, so G' has the component's singular
    values, its left vectors times blockdiag(Q_g) are the component's, and
    its right vectors times K (x) I_w are. The SVDs of the B and of the G'
    are taken stacked by shape: each slot of a one-hot design is a
    component of one group, whose G' is the slot's R_g.

    K drops a direction of B, of singular value sigma, only when sigma times
    the component's max_g |X_g| lies below rcond * s_low, where s_low =
    max_g |b_g| |X_g|_F / sqrt(w) <= max_g |rows of g|_2 <= s_max. The
    dropped directions move the component by at most max_g |X_g| times the
    root sum of squares of their sigmas, which on a 0/1 B are rounding, so
    the global cut rcond * s_max keeps the same directions. |X_g|_F =
    |R_g|_F >= |X_g|_2 stands in for |X_g|.
    """
    ell, w = factors[0][1].shape[2], factors[0][2].shape[2]
    units = np.concatenate([rows.ravel() for rows, _, _ in factors])
    inner = np.concatenate([b.reshape(rows.size, ell) for rows, b, _ in factors])
    x = np.concatenate([x.reshape(rows.size, w) for rows, _, x in factors])
    # each inner row as one key: its bits in a 64-bit word, or its index
    # among the distinct rows when they need more than one word
    words = np.zeros((units.size, -(-ell // 64) * 8), dtype=np.uint8)
    words[:, : -(-ell // 8)] = np.packbits(inner, axis=1)
    keys = words.view(np.uint64)
    live = np.flatnonzero(keys.any(axis=1) & x.any(axis=1))
    if not live.size:
        return []
    if keys.shape[1] == 1:
        key = keys[live, 0]
    else:
        key = np.unique(keys[live], axis=0, return_inverse=True)[1]
    perm = np.argsort(key)
    order, key = live[perm], key[perm]
    start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    height = np.diff(start, append=key.size)
    distinct = inner[order[start]]
    # the groups numbered component by component, and the units group by group
    col_comp = _column_components(distinct)
    comp = col_comp[distinct.argmax(axis=1)]
    by_comp = np.argsort(comp, kind="stable")
    distinct, start, height = distinct[by_comp], start[by_comp], height[by_comp]
    comp = comp[by_comp]
    first = np.cumsum(height) - height
    order = order[np.repeat(start - first, height) + np.arange(order.size)]
    # phi's entries are these covariate rows' or 0: it is finite when they are
    units, x = units[order], _validate(x[order])
    # one QR per height; each unit's row of its Q_g, which has min(h, w)
    # columns, and R_g's rows beyond those are 0
    r_all, q_rows = np.zeros((height.size, w, w)), np.zeros_like(x)
    for h in np.unique(height):
        gs = np.flatnonzero(height == h)
        at = first[gs, None] + np.arange(h)
        q_rows[at, : min(h, w)], r_all[gs, : min(h, w)] = np.linalg.qr(x[at])
    x_norm = np.sqrt((r_all**2).sum(axis=(1, 2)))
    s_low = (np.sqrt(distinct.sum(axis=1)) * x_norm).max() / np.sqrt(w)
    # each component's first group and column, and its counts of both
    g0 = np.flatnonzero(np.r_[True, comp[1:] != comp[:-1]])
    n_groups, n_cols = np.diff(g0, append=comp.size), np.bincount(col_comp)[comp[g0]]
    col_order = np.argsort(col_comp, kind="stable")
    c0 = np.searchsorted(col_comp[col_order], comp[g0])
    # the components of each (groups, columns) shape, stacked: B, K, G' and their SVDs
    shapes = []
    for k, ell_c in sorted(set(zip(n_groups.tolist(), n_cols.tolist()))):
        cs = np.flatnonzero((n_groups == k) & (n_cols == ell_c))
        gs = g0[cs, None] + np.arange(k)
        cols = col_order[c0[cs, None] + np.arange(ell_c)]
        b = distinct[gs[:, :, None], cols[:, None, :]].astype(np.float64)
        _, s_b, kt = np.linalg.svd(b, full_matrices=False)
        # a direction dropped in every component leaves K; one dropped in some is 0 in their z
        kept = s_b * x_norm[gs].max(axis=1)[:, None] >= rcond * s_low
        kt, kept = kt[:, kept.any(axis=0)], kept[:, kept.any(axis=0)]
        z = (b @ kt.transpose(0, 2, 1)) * kept[:, None, :]
        r = kt.shape[1]
        # row j of group g: z_g (x) R_g[j]
        g = (z[:, :, None, :, None] * r_all[gs][:, :, :, None, :]).reshape(cs.size, k * w, r * w)
        u_g, s, vt_g = np.linalg.svd(g, full_matrices=False)
        n = s.shape[1]
        vt = kt.transpose(0, 2, 1)[:, None] @ vt_g.reshape(cs.size, n, r, w)
        u_g, vt = u_g.reshape(cs.size * k, w, n), vt.reshape(cs.size, n, ell_c * w)
        shapes.append((gs, u_g, cs, cols, s, vt))
    # blockdiag(Q_g) u_G of every component, one batched product per group
    # height, each component's u_G padded to the widest
    u_blocks = np.zeros((comp.size, w, max(s.shape[1] for _, _, _, _, s, _ in shapes)))
    for gs, u_g, *_ in shapes:
        u_blocks[gs.ravel(), :, : u_g.shape[2]] = u_g
    u_all = np.empty((x.shape[0], u_blocks.shape[2]))
    for h in np.unique(height):
        gs = np.flatnonzero(height == h)
        at = first[gs, None] + np.arange(h)
        u_all[at] = q_rows[at] @ u_blocks[gs]
    out = []
    for _, _, cs, cols, s, vt in shapes:
        for c, col, s_c, vt_c in zip(cs, cols, s, vt):
            g = g0[c] + n_groups[c] - 1
            rows = slice(first[g0[c]], first[g] + height[g])
            col = (col[:, None] * w + np.arange(w)).ravel()
            out.append((units[rows], col, u_all[rows, : s_c.size], s_c, vt_c))
    return out


class DesignOps:
    """SVD of a design matrix, reused across every solver that needs it.

    Backs the balancing solve (min-norm row-space solve), the OLS coefficient
    map, and column-space projections, so a fit pays for one decomposition.

    `factors` gives each unit's row as r_i (x) x_i: per size group, (unit
    rows (B, m), inner rows r_i (B, m, ell) 0/1, covariate rows x_i (B, m,
    w)), as `build_design` carries them. The inner columns split into
    connected components, two columns joined when some inner row holds both;
    the components share no rows and no columns, and each takes the SVD of a
    small matrix with its singular values (`_factored_svds`). The singular
    values of the design are the union of the components', so the rank cut
    stays global: max(N, d) * eps times the largest singular value over all
    of them. Without factors, phi takes one dense SVD: the tests' oracle.
    """

    def __init__(self, phi, factors=None):
        self.phi = phi = np.asarray(phi, dtype=np.float64)
        rcond = _default_rcond(phi.shape)
        if factors is None:
            u, s, vt = np.linalg.svd(_validate(phi), full_matrices=False)
            svds = [(slice(None), slice(None), u, s, vt)]
        else:
            svds = _factored_svds(factors, rcond)
        self.s_max = max((s[0] for _, _, _, s, _ in svds if s.size), default=0.0)
        cut = rcond * self.s_max
        self._pieces = []
        for rows, cols, u, s, vt in svds:
            # s is descending, so the kept directions are its first ones
            keep = int(np.count_nonzero(s > cut))
            if keep:
                self._pieces.append((rows, cols, u[:, :keep], s[:keep], vt[:keep]))
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
        vectors, component by component (rows no component covers count whole), is held in
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
