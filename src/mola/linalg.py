"""Dense 64-bit matrix kernels: SVD and least squares.

Matrices are plain 2-D C-order float64 numpy arrays; :func:`as_matrix` is
the single entry point that enforces shape and finiteness.  The SVD is
numpy's LAPACK routine (``np.linalg.svd``), the routine the floor
benchmark checks every floor against.

The input is scaled by the power of two that puts its largest entry in
[0.5, 1) before the call, and sigma is scaled back by the same power.
Both steps are exact: the first short of entries some 2**1021 below the
largest, far under sigma_1's rounding, and the second unless sigma_1
leaves the float64 range, which is refused on the exponent before
anything overflows.  Inputs that differ only by a power of two therefore
give the same u and vt and exactly scaled sigma.

Results are deterministic for a given numpy and BLAS build: repeated calls
give the same bytes, and ``tests/test_linalg.py`` checks that the floor
shapes decompose to the same bytes on one BLAS thread and on two.
All routines are pure functions over immutable inputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

Mat = NDArray[np.float64]

# Numerical rank: sigma_i > max(m,n) * sigma_1 * RANK_REL_TOL.
RANK_REL_TOL = 1e-12


def as_matrix(values) -> Mat:
    """Validate and return ``values`` as a 2-D float64 matrix.

    Parameters
    ----------
    values : array-like
        Anything ``np.asarray`` accepts, already two-dimensional.

    Returns
    -------
    numpy.ndarray
        C-order float64 view or copy of the input.

    Raises
    ------
    ValueError
        If the input is not 2-D, is empty, or contains NaN/Inf.
    """
    a = np.ascontiguousarray(values, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise ValueError(f"matrix dimensions must be positive, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return a


def append_bias_column(w, b) -> Mat:
    """Return ``[W b]``: the weight matrix with the bias, a length-``rows``
    vector, as an extra column."""
    w = as_matrix(w)
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1 or b.shape[0] != w.shape[0]:
        raise ValueError(
            f"bias must have one entry per row: W is {w.shape}, b has shape {b.shape}"
        )
    if not np.isfinite(b).all():
        raise ValueError("bias entries must be finite")
    return np.hstack([w, b[:, None]])


@dataclass(frozen=True)
class SvdResult:
    """Full SVD ``a = U diag(sigma) Vt`` of an m x n matrix.

    ``u`` is m x m orthogonal, ``sigma`` holds the min(m, n) singular
    values sorted descending, ``vt`` is n x n with right singular vectors
    as rows, and ``rank`` counts singular values above the relative
    tolerance ``max(m, n) * sigma_1 * 1e-12``.
    """

    u: Mat
    sigma: NDArray[np.float64]
    vt: Mat
    rank: int


def svd(a) -> SvdResult:
    """Full singular value decomposition through numpy's LAPACK SVD.

    The input is scaled by the power of two that puts its largest entry
    in [0.5, 1); sigma is scaled back by the same power, exactly.  The
    rank counts the singular values above ``RANK_REL_TOL`` relative to
    ``max(m, n) * sigma_1``.

    A sigma_1 whose scale-back leaves the float64 range is refused.  This
    is decided on LAPACK's sigma_1, which may be one ulp above the exact
    one: ``np.full((2, 2), finfo.max / 2)``, whose exact sigma_1 is
    ``finfo.max``, is rounded up to ``2**1024`` and refused, while
    ``np.full((2, 2), finfo.max / 4)`` is kept.

    Raises
    ------
    ValueError
        If ``sigma_1`` exceeds the float64 range, although every entry of
        ``a`` is finite, or if LAPACK's SVD does not converge; both name
        the shape of ``a``.
    """
    a = as_matrix(a)
    m, n = a.shape
    # frexp(0.0) gives exponent 0, so an all-zero input is left as it is
    exp = math.frexp(float(np.max(np.abs(a))))[1]
    try:
        u, sigma, vt = np.linalg.svd(np.ldexp(a, -exp), full_matrices=True)
    except np.linalg.LinAlgError as e:
        raise ValueError(f"the SVD of a {m}x{n} matrix did not converge ({e})") from None
    # the scale-back is exact unless it leaves the float64 range
    if math.frexp(float(sigma[0]))[1] + exp > sys.float_info.max_exp:
        raise ValueError(
            f"the largest singular value of a {m}x{n} matrix exceeds "
            f"the float64 range (sigma_1 = {float(sigma[0])!r} * 2**{exp})"
        )
    rank = int((sigma > sigma[0] * max(m, n) * RANK_REL_TOL).sum()) if sigma[0] > 0 else 0
    return SvdResult(u=u, sigma=np.ldexp(sigma, exp), vt=vt, rank=rank)


def least_squares(a, y, decomposition: SvdResult | None = None) -> Mat:
    """Minimize ``||Y - A X||_F``; minimum-norm solution via SVD pseudoinverse.

    Parameters
    ----------
    a : matrix, m x n
    y : matrix, m x d
    decomposition : SvdResult, optional
        ``svd(a)``, when the caller already has it; ``a`` is not decomposed
        again.

    Returns
    -------
    numpy.ndarray
        The n x d minimizer; unique even for rank-deficient ``a`` because
        the pseudoinverse picks the smallest-norm solution.
    """
    a = as_matrix(a)
    y = as_matrix(y)
    if a.shape[0] != y.shape[0]:
        raise ValueError(
            f"row mismatch: A has {a.shape[0]} rows, Y has {y.shape[0]}"
        )
    res = svd(a) if decomposition is None else decomposition
    if (res.u.shape[0], res.vt.shape[0]) != a.shape:
        raise ValueError(
            f"decomposition of a {res.u.shape[0]}x{res.vt.shape[0]} matrix "
            f"given for a {a.shape[0]}x{a.shape[1]} one"
        )
    r = res.rank
    if r == 0:
        return np.zeros((a.shape[1], y.shape[1]))
    uty = res.u[:, :r].T @ y
    return res.vt[:r, :].T @ (uty / res.sigma[:r, None])
