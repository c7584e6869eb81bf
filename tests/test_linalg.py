import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

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
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(ValueError, match="SVD of a 4x3 matrix did not converge"):
        linalg.svd(random_matrix(4, 3, seed=5))


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


# --- the SVD contract on structured inputs ---


# small inputs that once followed the Jacobi's sweeps one rotation at a time
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
    # a 335-column null space of u
    "rank1_336x97": random_matrix(336, 97, seed=24, rank=1),
    # a zero row: rank 13, with no warning
    "zero_row_14x14": np.vstack([np.zeros((1, 14)), random_matrix(14, 14, seed=0)[1:]]),
    # sigma = 1, 1e-10, 1e-13 about the rank threshold 4 * 1e-12: rank 2
    "graded_4x3": np.vstack([np.diag([1.0, 1e-10, 1e-13]), np.zeros((1, 3))]),
}


def assert_same_bytes(res, ref):
    # tobytes, not array_equal: -0.0 and +0.0 must not pass for each other
    for field in ("u", "sigma", "vt"):
        assert getattr(res, field).tobytes() == getattr(ref, field).tobytes(), field
    assert res.rank == ref.rank


def assert_svd_contract(a):
    """u m x m and vt n x n orthogonal, sigma descending and within
    1e-12 sigma_1 of numpy's, a reconstructed within 1e-12 sigma_1, and the
    rank rule; the reconstruction error is divided by sigma_1 before its
    norm, so inputs near the ends of the float64 range square nothing out
    of it."""
    m, n = a.shape
    res = linalg.svd(a)
    assert res.u.shape == (m, m) and res.sigma.shape == (min(m, n),) and res.vt.shape == (n, n)
    ref = np.linalg.svd(a, compute_uv=False)
    scale = ref[0] if ref[0] > 0.0 else 1.0
    assert np.all(res.sigma >= 0.0) and np.all(np.diff(res.sigma) <= 0.0)
    assert np.max(np.abs(res.sigma - ref)) <= 1e-12 * scale
    assert np.linalg.norm((reconstruct(res, m, n) - a) / scale) <= 1e-12
    assert np.linalg.norm(res.u.T @ res.u - np.eye(m)) <= 1e-12 * m
    assert np.linalg.norm(res.vt @ res.vt.T - np.eye(n)) <= 1e-12 * n
    tol = max(m, n) * res.sigma[0] * linalg.RANK_REL_TOL
    assert res.rank == int(np.count_nonzero(res.sigma > tol))


def lapack_reference(a):
    """numpy's LAPACK SVD of ``a`` times the power of two that puts its
    largest entry in [0.5, 1), with sigma scaled back and the rank rule."""
    m, n = a.shape
    exp = int(np.frexp(np.max(np.abs(a)))[1])
    u, sigma, vt = np.linalg.svd(np.ldexp(a, -exp), full_matrices=True)
    rank = int(np.count_nonzero(sigma > sigma[0] * max(m, n) * linalg.RANK_REL_TOL))
    return linalg.SvdResult(u=u, sigma=np.ldexp(sigma, exp), vt=vt, rank=rank)


# The name is kept from the gather/scatter Jacobi step that was the byte
# reference before LAPACK; the reference is now lapack_reference, and every
# case must also meet the SVD contract.
@pytest.mark.parametrize("name", list(REFERENCE_CASES))
def test_svd_is_bitwise_the_gather_scatter_reference(name):
    a = REFERENCE_CASES[name]
    assert_svd_contract(a)
    assert_same_bytes(linalg.svd(a), lapack_reference(a))


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
    elif kind == "zero_row":
        a[rng.integers(m)] = 0.0
    elif kind == "repeated_row":
        a[rng.integers(m)] = a[rng.integers(m)]
    elif kind == "integer":
        a = np.round(3.0 * a)
    return a


@hyp_settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 24),
    n=st.integers(1, 24),
    seed=st.integers(0, 2**31),
    kind=st.sampled_from(["gaussian", "deficient", "zero_column", "repeated_column",
                          "zero_row", "repeated_row", "integer"]),
    power=st.sampled_from([0, -600, 600]),
)
def test_svd_is_bitwise_the_reference_on_any_input(m, n, seed, kind, power):
    a = np.ldexp(structured_matrix(m, n, seed, kind), power)
    assert_svd_contract(a)
    assert_same_bytes(linalg.svd(a), lapack_reference(a))


@pytest.mark.parametrize("shape", [(2, 2), (3, 5), (5, 3)])
def test_svd_refuses_a_singular_value_beyond_float64(shape):
    # every entry is finite, but sigma_1 = sqrt(m n) * max > max
    a = np.full(shape, np.finfo(np.float64).max)
    with pytest.raises(ValueError, match=rf"{shape[0]}x{shape[1]} matrix exceeds the float64 range"):
        linalg.svd(a)
    with pytest.raises(ValueError, match="float64 range"):
        linalg.least_squares(a, np.ones((shape[0], 1)))


def test_svd_keeps_a_singular_value_at_the_top_of_float64():
    top = np.finfo(np.float64).max
    # the exact sigma_1 is top, but LAPACK rounds it up by one ulp to 2**1024
    with pytest.raises(ValueError, match="2x2 matrix exceeds the float64 range"):
        linalg.svd(np.full((2, 2), top / 2))
    res = linalg.svd(np.full((2, 2), top / 4))
    assert abs(res.sigma[0] - top / 2) <= 2 * np.spacing(top / 2) and res.rank == 1


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


def test_svd_at_the_floor_scale():
    a = random_matrix(336, 97, seed=10)
    ref = np.linalg.svd(a, compute_uv=False)
    res = linalg.svd(a)
    assert np.max(np.abs(res.sigma - ref)) <= 1e-12 * ref[0]
    assert res.rank == 97


FLOOR_CASES = ["floor_336x97", "floor_192x97", "floor_96x49_zero_last", "floor_48x25_rank12_bias"]


def test_floor_svd_bytes_do_not_depend_on_the_blas_thread_count():
    # BLAS runs inside LAPACK's SVD, and a threaded kernel may split its
    # sums by thread; the floor shapes must give the same bytes on 1 and 2
    code = ("import hashlib, test_linalg\n"
            "from mola import linalg\n"
            "for name in test_linalg.FLOOR_CASES:\n"
            "    res = linalg.svd(test_linalg.REFERENCE_CASES[name])\n"
            "    h = hashlib.sha256(res.u.tobytes() + res.sigma.tobytes() + res.vt.tobytes())\n"
            "    print(name, res.rank, h.hexdigest())\n")
    path = os.pathsep.join([str(Path(linalg.__file__).resolve().parents[1]),
                            str(Path(__file__).resolve().parent)])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        digests.append(out.stdout)
    assert len(digests[0].splitlines()) == len(FLOOR_CASES)
    assert digests[0] == digests[1]


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
