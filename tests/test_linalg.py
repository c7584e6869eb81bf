import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

import reference_jacobi
from mola import linalg

# an overflow or invalid value inside a kernel is a bug, not a warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def random_matrix(m, n, seed, rank=None):
    rng = np.random.default_rng(seed)
    if rank is None:
        return rng.normal(size=(m, n))
    rank = min(rank, m, n)
    if rank == 0:
        return np.zeros((m, n))
    return rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))


def reconstruct(res, m, n):
    k = min(m, n)
    return (res.u[:, :k] * res.sigma) @ res.vt[:k, :]


# --- as_matrix / kernels ---


def test_as_matrix_validates():
    a = linalg.as_matrix([[1.0, 2.0], [3.0, 4.0]])
    assert a.shape == (2, 2) and a.dtype == np.float64
    with pytest.raises(ValueError):
        linalg.as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        linalg.as_matrix([[np.nan]])
    with pytest.raises(ValueError):
        linalg.as_matrix([[np.inf, 1.0]])
    with pytest.raises(ValueError):
        linalg.as_matrix(np.zeros((0, 3)))


def test_append_bias_column_shapes():
    w = random_matrix(4, 8, seed=2)
    b = np.arange(4.0)
    wbar = linalg.append_bias_column(w, b)
    assert wbar.shape == (4, 9)
    assert np.array_equal(wbar[:, :8], w)
    assert np.array_equal(wbar[:, 8], b)
    for bad in (np.arange(3.0), b.reshape(4, 1)):  # one entry per row, as a vector
        with pytest.raises(ValueError, match="one entry per row"):
            linalg.append_bias_column(w, bad)


# --- svd ---


def test_svd_identity():
    res = linalg.svd(np.eye(3))
    assert np.allclose(res.sigma, [1.0, 1.0, 1.0])
    assert res.rank == 3


def test_svd_zero_matrix():
    res = linalg.svd(np.zeros((2, 4)))
    assert res.sigma.shape == (2,)
    assert np.array_equal(res.sigma, [0.0, 0.0])
    assert res.rank == 0
    assert np.allclose(res.u @ res.u.T, np.eye(2), atol=1e-12)
    assert np.allclose(res.vt @ res.vt.T, np.eye(4), atol=1e-12)


def test_svd_seeded_reconstruction():
    a = random_matrix(5, 3, seed=7)
    res = linalg.svd(a)
    err = np.linalg.norm(reconstruct(res, 5, 3) - a) / np.linalg.norm(a)
    assert err <= 1e-10


def test_svd_descending_and_nonnegative():
    a = random_matrix(6, 6, seed=3)
    res = linalg.svd(a)
    assert np.all(res.sigma >= 0.0)
    assert np.all(np.diff(res.sigma) <= 0.0)


def test_svd_matches_reference_singular_values():
    for seed in range(8):
        m, n = (seed % 6) + 1, ((seed * 3) % 7) + 1
        a = random_matrix(m, n, seed=100 + seed)
        res = linalg.svd(a)
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(res.sigma, ref, rtol=1e-10, atol=1e-12)


def test_svd_nonconvergence_is_explicit(monkeypatch):
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 0)
    with pytest.raises(linalg.JacobiNonConvergence):
        linalg.svd(random_matrix(4, 4, seed=5))


@hyp_settings(max_examples=40)
@given(
    m=st.integers(1, 32),
    n=st.integers(1, 32),
    seed=st.integers(0, 2**31),
    deficient=st.booleans(),
)
def test_svd_properties(m, n, seed, deficient):
    rank = max(1, min(m, n) // 2) if deficient else None
    a = random_matrix(m, n, seed, rank=rank)
    res = linalg.svd(a)
    scale = max(np.linalg.norm(a), 1e-30)
    assert np.linalg.norm(reconstruct(res, m, n) - a) / scale <= 1e-10
    assert np.linalg.norm(res.u.T @ res.u - np.eye(m)) <= 1e-10 * m
    assert np.linalg.norm(res.vt @ res.vt.T - np.eye(n)) <= 1e-10 * n
    assert res.rank <= min(m, n)
    if deficient:
        assert res.rank <= max(1, min(m, n) // 2)


# --- sweep order ---


def row_cyclic_reference(a):
    """One-sided Jacobi with one pair at a time, in row-cyclic order
    (0,1), (0,2), ..., (1,2), ...; returns the rotated a, V and the sweeps."""
    b, v = a.copy(), np.eye(a.shape[1])
    for sweep in range(1, linalg.JACOBI_MAX_SWEEPS + 1):
        worst = 0.0
        for p in range(a.shape[1] - 1):
            for q in range(p + 1, a.shape[1]):
                alpha, beta = b[:, p] @ b[:, p], b[:, q] @ b[:, q]
                if alpha == 0.0 or beta == 0.0:
                    continue
                gamma = b[:, p] @ b[:, q]
                rel = abs(gamma) / math.sqrt(alpha * beta)
                worst = max(worst, rel)
                if rel > linalg.JACOBI_TOL:
                    theta = 0.5 * math.atan2(2.0 * gamma, alpha - beta)
                    rot = np.array([[math.cos(theta), -math.sin(theta)],
                                    [math.sin(theta), math.cos(theta)]])
                    b[:, [p, q]] = b[:, [p, q]] @ rot
                    v[:, [p, q]] = v[:, [p, q]] @ rot
        if worst <= linalg.JACOBI_TOL:
            return b, v, sweep
    raise AssertionError("reference did not converge")


def sweeps_needed(a, monkeypatch):
    for cap in range(1, linalg.JACOBI_MAX_SWEEPS + 1):
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", cap)
        try:
            linalg.svd(a)
            return cap
        except linalg.JacobiNonConvergence:
            pass
    raise AssertionError("svd did not converge")


def test_sweep_steps_cover_every_pair_once_with_disjoint_columns():
    for n in range(1, 12):
        steps = linalg._sweep_steps(n)
        pairs = []
        for p, q in steps:
            assert len(set(p.tolist()) | set(q.tolist())) == 2 * len(p)
            pairs += list(zip(p.tolist(), q.tolist()))
        assert sorted(pairs) == [(p, q) for p in range(n) for q in range(p + 1, n)]
        assert len(steps) == max(0, 2 * n - 3)


def test_step_slices_select_each_steps_rows():
    for n in range(1, 13):
        rows = np.arange(n)
        steps, slices = linalg._sweep_steps(n), linalg._step_slices(n)
        assert len(slices) == len(steps)
        for s, ((p, q), (rows_p, rows_q, span)) in enumerate(zip(steps, slices), start=1):
            assert np.array_equal(rows[rows_p], p)
            assert np.array_equal(rows[rows_q], q)
            middle = [s // 2] if s % 2 == 0 else []
            assert np.array_equal(rows[span], np.concatenate([p, middle, q[::-1]]))


SWEEP_CASES = {
    "n1": random_matrix(5, 1, seed=1),
    "n2": random_matrix(5, 2, seed=2),
    "n3": random_matrix(5, 3, seed=3),
    "n4": random_matrix(5, 4, seed=4),
    "square": random_matrix(9, 9, seed=5),
    "deficient": random_matrix(30, 12, seed=6, rank=5),
    "zero_column": np.insert(random_matrix(7, 4, seed=7), 2, 0.0, axis=1),
    "equal_columns": random_matrix(7, 4, seed=8)[:, [0, 1, 1, 2, 3]],
}


@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
def test_svd_follows_the_row_cyclic_rotations(name, monkeypatch):
    a = SWEEP_CASES[name]
    m, n = a.shape
    b, v, ref_sweeps = row_cyclic_reference(a)
    norms = np.sqrt((b * b).sum(axis=0))
    order = np.argsort(-norms, kind="stable")
    res = linalg.svd(a)
    scale = max(norms[0], 1e-300)
    assert np.max(np.abs(res.sigma - norms[order])) <= 1e-13 * scale
    # right singular vectors of the null space are fixed only up to rounding
    assert np.max(np.abs(res.vt[: res.rank] - v[:, order[: res.rank]].T)) <= 1e-12
    ref = np.linalg.svd(a, compute_uv=False)
    assert np.max(np.abs(res.sigma - ref)) <= 1e-12 * scale
    assert np.linalg.norm(reconstruct(res, m, n) - a) <= 1e-12 * scale
    assert np.linalg.norm(res.u.T @ res.u - np.eye(m)) <= 1e-12 * m
    assert np.linalg.norm(res.vt @ res.vt.T - np.eye(n)) <= 1e-12 * n
    assert sweeps_needed(a, monkeypatch) == ref_sweeps


@pytest.mark.parametrize("shape", [(1, 4), (2, 5), (3, 8)])
def test_svd_wide_inputs(shape):
    a = random_matrix(*shape, seed=sum(shape))
    res = linalg.svd(a)
    m, n = shape
    assert res.u.shape == (m, m) and res.vt.shape == (n, n) and res.sigma.shape == (m,)
    assert np.max(np.abs(res.sigma - np.linalg.svd(a, compute_uv=False))) <= 1e-12 * res.sigma[0]
    assert np.linalg.norm(reconstruct(res, m, n) - a) <= 1e-12 * res.sigma[0]
    assert np.linalg.norm(res.vt @ res.vt.T - np.eye(n)) <= 1e-12 * n


def test_svd_zero_and_repeated_columns_set_the_rank():
    assert linalg.svd(SWEEP_CASES["zero_column"]).rank == 4
    assert linalg.svd(SWEEP_CASES["equal_columns"]).rank == 4


REFERENCE_CASES = {
    "floor_336x97": random_matrix(336, 97, seed=20),
    "floor_192x97": random_matrix(192, 97, seed=21),
    "floor_96x49_zero_last": np.hstack([random_matrix(96, 48, seed=22), np.zeros((96, 1))]),
    "floor_48x25_rank12_bias": np.hstack([random_matrix(48, 24, seed=23, rank=12), np.ones((48, 1))]),
    **{f"sweep_{name}": a for name, a in SWEEP_CASES.items()},
    "wide_3x8": random_matrix(3, 8, seed=11),
    "one_by_one": np.array([[-2.5]]),
    "column_5x1": random_matrix(5, 1, seed=25),
    "all_zero_4x3": np.zeros((4, 3)),
    "ldexp_520": np.ldexp(random_matrix(6, 4, seed=11), 520),
    "ldexp_minus_600": np.ldexp(random_matrix(6, 4, seed=11), -600),
}


def assert_same_bytes(res, ref):
    # tobytes, not array_equal: -0.0 and +0.0 must not pass for each other
    for field in ("u", "sigma", "vt"):
        assert getattr(res, field).tobytes() == getattr(ref, field).tobytes(), field
    assert res.rank == ref.rank


@pytest.mark.parametrize("name", list(REFERENCE_CASES))
def test_svd_is_bitwise_the_gather_scatter_reference(name):
    a = REFERENCE_CASES[name]
    assert_same_bytes(linalg.svd(a), reference_jacobi.svd(a))


def structured_matrix(m, n, seed, kind):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n))
    if kind == "deficient":
        r = int(rng.integers(1, min(m, n) + 1))
        a = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
    elif kind == "zero_column":
        a[:, rng.integers(n)] = 0.0
    elif kind == "repeated_column":
        a[:, rng.integers(n)] = a[:, rng.integers(n)]
    elif kind == "integer":
        a = np.round(3.0 * a)
    return a


@hyp_settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 24),
    n=st.integers(1, 24),
    seed=st.integers(0, 2**31),
    kind=st.sampled_from(["gaussian", "deficient", "zero_column", "repeated_column", "integer"]),
    power=st.sampled_from([0, -600, 600]),
)
def test_svd_is_bitwise_the_reference_on_any_input(m, n, seed, kind, power):
    a = np.ldexp(structured_matrix(m, n, seed, kind), power)
    assert_same_bytes(linalg.svd(a), reference_jacobi.svd(a))


@pytest.mark.parametrize("shape", [(2, 2), (3, 5), (5, 3)])
def test_svd_refuses_a_singular_value_beyond_float64(shape):
    # every entry is finite, but sigma_1 = sqrt(m n) * max > max
    a = np.full(shape, np.finfo(np.float64).max)
    with pytest.raises(ValueError, match=rf"{shape[0]}x{shape[1]} matrix exceeds the float64 range"):
        linalg.svd(a)
    with pytest.raises(ValueError, match="float64 range"):
        linalg.least_squares(a, np.ones((shape[0], 1)))


def test_svd_keeps_a_singular_value_at_the_top_of_float64():
    res = linalg.svd(np.full((2, 2), np.finfo(np.float64).max / 2))
    assert res.sigma[0] == np.finfo(np.float64).max and res.rank == 1


def test_svd_is_bitwise_repeatable():
    a = random_matrix(40, 17, seed=9)
    assert_same_bytes(linalg.svd(a), linalg.svd(a.copy()))


@pytest.mark.parametrize("power", [-600, -520, 520])
def test_svd_scale_is_exact_far_from_unit_scale(power):
    # at 2**-520 squared entries underflow to subnormals, at 2**520 they overflow
    a = random_matrix(6, 4, seed=11)
    res, scaled = linalg.svd(a), linalg.svd(np.ldexp(a, power))
    assert np.array_equal(scaled.sigma, np.ldexp(res.sigma, power))
    assert np.array_equal(scaled.u, res.u) and np.array_equal(scaled.vt, res.vt)


def test_svd_at_the_floor_scale(monkeypatch):
    a = random_matrix(336, 97, seed=10)
    ref = np.linalg.svd(a, compute_uv=False)
    # the row-cyclic order needs about 8 sweeps here; 12 leaves a margin
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 12)
    res = linalg.svd(a)
    assert np.max(np.abs(res.sigma - ref)) <= 1e-12 * ref[0]
    assert res.rank == 97


# --- least squares ---


def test_least_squares_identity_system():
    x = linalg.least_squares(np.eye(2), np.array([[3.0], [4.0]]))
    assert np.allclose(x, [[3.0], [4.0]])


def test_least_squares_averaging_case():
    x = linalg.least_squares(np.array([[1.0], [1.0]]), np.array([[0.0], [2.0]]))
    assert np.allclose(x, [[1.0]])


def test_least_squares_exact_recovery():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 3))
    x0 = rng.normal(size=(3, 2))
    y = a @ x0
    x = linalg.least_squares(a, y)
    assert np.linalg.norm(y - a @ x) <= 1e-10


def test_least_squares_dimension_mismatch():
    with pytest.raises(ValueError):
        linalg.least_squares(np.zeros((3, 2)), np.zeros((4, 1)))
    with pytest.raises(ValueError, match="decomposition"):
        linalg.least_squares(np.ones((3, 2)), np.ones((3, 1)), linalg.svd(np.ones((3, 3))))


@pytest.mark.parametrize("shape, rank", [((7, 4), None), ((5, 5), 2), ((3, 6), None)])
def test_least_squares_reuses_a_given_decomposition(shape, rank):
    a = random_matrix(*shape, seed=12, rank=rank)
    y = random_matrix(shape[0], 2, seed=13)
    res = linalg.svd(a)
    assert np.array_equal(linalg.least_squares(a, y, res), linalg.least_squares(a, y))


def test_least_squares_min_norm_vs_alternative():
    # duplicated column: solutions form a line, lstsq-style min-norm is unique
    a = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.array([[2.0], [4.0], [6.0]])
    x = linalg.least_squares(a, y)
    alt = np.array([[2.0], [0.0]])  # also solves exactly
    assert np.linalg.norm(y - a @ alt) <= 1e-12
    assert np.linalg.norm(x) < np.linalg.norm(alt)
    assert np.allclose(x, [[1.0], [1.0]])


@hyp_settings(max_examples=40)
@given(
    m=st.integers(1, 16),
    n=st.integers(1, 16),
    d=st.integers(1, 4),
    seed=st.integers(0, 2**31),
    deficient=st.booleans(),
)
def test_least_squares_properties(m, n, d, seed, deficient):
    rank = max(1, min(m, n) // 2) if deficient else None
    a = random_matrix(m, n, seed, rank=rank)
    y = random_matrix(m, d, seed + 1)
    x = linalg.least_squares(a, y)
    resid = y - a @ x
    # residual orthogonal to the column space
    assert np.linalg.norm(a.T @ resid) <= 1e-8 * max(
        np.linalg.norm(a) * np.linalg.norm(y), 1e-12
    )
    # agrees with the reference min-norm solution
    ref = np.linalg.lstsq(a, y, rcond=None)[0]
    scale = max(np.linalg.norm(ref), 1.0)
    assert np.linalg.norm(x - ref) <= 1e-8 * scale
