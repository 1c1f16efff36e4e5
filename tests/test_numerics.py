import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterbal.errors import InvalidInput
from clusterbal.numerics import DesignOps, _column_components, project_colspace
from oracles import DenseOps, one_group


def random_conditioned(rng, rows, cols, cond=1e3):
    """Random matrix with controlled condition number."""
    k = min(rows, cols)
    u, _ = np.linalg.qr(rng.standard_normal((rows, k)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, k)))
    s = np.logspace(0, -np.log10(cond), k)
    return u @ np.diag(s) @ v.T


def design_pinv(a):
    """a^+ as the OLS coefficients of the identity right-hand side."""
    return DesignOps(one_group(a)).ols_coefficients(np.eye(np.shape(a)[0]))


def design_min_norm_solve(a, b):
    """Minimum-norm solve of a x = b: the row-space solve of the design a^T."""
    return DesignOps(one_group(np.transpose(a))).min_norm_row_solve(b)


def test_pinv_identity():
    assert np.allclose(design_pinv(np.eye(3)), np.eye(3))


def test_pinv_zero():
    z = np.zeros((2, 3))
    assert design_pinv(z).shape == (3, 2)
    assert np.allclose(design_pinv(z), 0.0)


def test_pinv_diagonal_truncation():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(design_pinv(a), a)


def test_pinv_rejects_nonfinite():
    with pytest.raises(InvalidInput):
        design_pinv(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    rows=st.integers(1, 8),
    cols=st.integers(1, 8),
)
def test_penrose_identities(seed, rows, cols):
    rng = np.random.default_rng(seed)
    a = random_conditioned(rng, rows, cols, cond=1e6)
    ap = design_pinv(a)
    scale = 1e-8 * max(np.linalg.norm(a), 1.0)
    assert np.allclose(a @ ap @ a, a, atol=scale)
    assert np.allclose(ap @ a @ ap, ap, atol=scale)
    assert np.allclose((a @ ap).T, a @ ap, atol=scale)
    assert np.allclose((ap @ a).T, ap @ a, atol=scale)


def test_min_norm_solve_hand_system():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    r = design_min_norm_solve(a, np.array([-2.0, 2.0]))
    assert np.allclose(r.solution, [2.0, -2.0])
    assert r.residual_norm == pytest.approx(0.0, abs=1e-12)
    assert r.feasible()


def test_min_norm_solve_infeasible():
    a = np.array([[0.0, 0.0], [1.0, 1.0]])
    r = design_min_norm_solve(a, np.array([-2.0, 2.0]))
    assert r.relative_residual > 1e-8
    assert not r.feasible()


def test_min_norm_solve_zero_rhs():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    r = design_min_norm_solve(a, np.zeros(2))
    assert np.allclose(r.solution, 0.0)
    assert r.residual_norm == 0.0
    assert r.rank == 1


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_min_norm_solution_orthogonal_to_null_space(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 6))
    b = rng.standard_normal(3)
    r = design_min_norm_solve(a, b)
    x = r.solution
    back = np.linalg.pinv(a) @ (a @ x)
    assert np.linalg.norm(x - back) <= 1e-8 * max(np.linalg.norm(x), 1e-30)


def test_min_norm_is_minimal_among_solutions(rng):
    a = rng.standard_normal((2, 5))
    b = rng.standard_normal(2)
    r = design_min_norm_solve(a, b)
    # any solution = min-norm + null-space component has larger norm
    for _ in range(20):
        z = rng.standard_normal(5)
        null_part = z - np.linalg.pinv(a) @ (a @ z)
        other = r.solution + null_part
        assert np.linalg.norm(other) >= np.linalg.norm(r.solution) - 1e-12


def test_projection_full_rank_square(rng):
    b = rng.standard_normal((4, 4))
    v = rng.standard_normal(4)
    assert np.allclose(project_colspace(b, v), v, atol=1e-10)


def test_projection_single_column():
    b = np.array([[1.0], [0.0]])
    assert np.allclose(project_colspace(b, np.array([3.0, 4.0])), [3.0, 0.0])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_projection_contraction_and_idempotence(seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((6, 3))
    v = rng.standard_normal(6)
    pv = project_colspace(b, v)
    assert np.linalg.norm(pv) <= np.linalg.norm(v) + 1e-12
    ppv = project_colspace(b, pv)
    assert np.linalg.norm(ppv - pv) <= 1e-8 * max(np.linalg.norm(v), 1e-30)


def test_design_ops_consistency(rng):
    phi = rng.standard_normal((20, 4))
    y = rng.standard_normal(20)
    t = rng.standard_normal(4)
    ops = DesignOps(one_group(phi))
    assert np.allclose(ops.ols_coefficients(y), np.linalg.pinv(phi) @ y, atol=1e-10)
    assert np.allclose(ops.project(y), project_colspace(phi, y), atol=1e-10)
    r = ops.min_norm_row_solve(t)
    r2 = np.linalg.lstsq(phi.T, t, rcond=None)
    assert np.allclose(r.solution, r2[0], atol=1e-10)
    assert ops.rank == r2[2]


def _block_design(rng, blocks, width=3, zero_rows=2):
    """Row-permuted block-diagonal matrix and its factors, as one size group
    of one-unit clusters: row i is r_i (x) x_i, with r_i the 0/1 indicator
    of the row's block, or 0 for the zero rows."""
    n = sum(rows for rows, _ in blocks) + zero_rows
    inner = np.zeros((n, len(blocks)), dtype=bool)
    x = rng.standard_normal((n, width))
    perm, start = rng.permutation(n), 0
    for b, (rows, scale) in enumerate(blocks):
        idx = perm[start : start + rows]
        inner[idx, b] = True
        x[idx] *= scale
        start += rows
    phi = (inner[:, :, None] * x[:, None, :]).reshape(n, -1)
    return phi, ((np.arange(n)[:, None], inner[:, None], x[:, None]),)


def _assert_ops_agree(phi, factors, rng):
    whole, split = DenseOps(phi), DesignOps(factors)
    y = rng.standard_normal(phi.shape[0])
    t = rng.standard_normal(phi.shape[1])
    assert split.rank == whole.rank
    assert np.allclose(split.ols_coefficients(y), whole.ols_coefficients(y), rtol=1e-10, atol=1e-12)
    assert np.allclose(split.project(y), whole.project(y), rtol=1e-10, atol=1e-12)
    r_split, r_whole = split.min_norm_row_solve(t), whole.min_norm_row_solve(t)
    assert np.allclose(r_split.solution, r_whole.solution, rtol=1e-10, atol=1e-12)
    assert r_split.feasible() == r_whole.feasible()
    assert r_split.rank == r_whole.rank
    return whole, split


def test_design_ops_pieces_match_single_piece(rng):
    phi, factors = _block_design(rng, [(7, 1.0), (5, 2.0), (9, 0.5), (4, 1.0)])
    whole, split = _assert_ops_agree(phi, factors, rng)
    assert len(split._pieces) == 4
    assert whole.rank == phi.shape[1]


def test_design_ops_pieces_empty_block_and_zero_rows(rng):
    # block 1 has no rows: its columns are zero, so phi^T w = t is infeasible
    phi, factors = _block_design(rng, [(6, 1.0), (0, 1.0), (8, 1.0)], zero_rows=3)
    whole, split = _assert_ops_agree(phi, factors, rng)
    assert whole.rank == 6
    assert not split.min_norm_row_solve(rng.standard_normal(phi.shape[1])).feasible()


@pytest.mark.parametrize("split", [False, True], ids=["whole", "pieces"])
@pytest.mark.parametrize("q_minus_rank", [0, -1, 2])
def test_ols_coefficients_of_a_matrix_rhs_are_pinv(rng, split, q_minus_rank):
    # (N, q) outcomes, q equal to and other than the kept rank
    if split:
        phi, factors = _block_design(rng, [(4, 1.0), (3, 2.0)], width=2, zero_rows=1)
    else:
        phi = rng.standard_normal((6, 3))
        factors = one_group(phi)
    ops = DesignOps(factors)
    assert ops.rank == phi.shape[1]
    y = rng.standard_normal((phi.shape[0], ops.rank + q_minus_rank))
    got = ops.ols_coefficients(y)
    assert got.shape == (phi.shape[1], y.shape[1])
    assert np.allclose(got, np.linalg.pinv(phi) @ y, rtol=1e-10, atol=1e-12)


def test_design_ops_pieces_rank_cut_is_global(rng):
    # a block whose singular values are all below rcond * sigma_max of the whole
    # design is dropped on both paths, although it is well conditioned alone
    phi, factors = _block_design(rng, [(6, 1.0), (6, 1e-17), (2, 1.0)])
    whole, split = _assert_ops_agree(phi, factors, rng)
    assert whole.rank == split.rank == 5


def test_design_ops_component_wholly_below_the_cut(rng):
    # the rows of block 1 also hold column 2: a two-column component, alone in
    # its shape and wholly below the global cut, which takes none of its directions
    phi, ((rows, inner, x),) = _block_design(rng, [(6, 1.0), (5, 1e-17), (0, 1.0)])
    inner[:, 0, 2] = inner[:, 0, 1]
    phi = (inner[:, 0, :, None] * x[:, 0, None, :]).reshape(phi.shape)
    whole, split = _assert_ops_agree(phi, ((rows, inner, x),), rng)
    assert whole.rank == split.rank == 3


def test_column_components_join_rows_through_a_later_row():
    # the row {3, 4} joins {1, 3} and {0, 4}; columns 2 and 5 are in no row
    rows = np.zeros((3, 6), dtype=bool)
    for r, cols in enumerate(([1, 3], [0, 4], [3, 4])):
        rows[r, cols] = True
    assert _column_components(rows).tolist() == [0, 0, 1, 0, 0, 2]

