"""Dense 64-bit matrix kernels: one-sided Jacobi SVD and least squares.

Matrices are plain 2-D C-order float64 numpy arrays; :func:`as_matrix` is
the single entry point that enforces shape and finiteness.  The SVD is a
hand-rolled one-sided Jacobi iteration rather than a LAPACK call because
everything downstream (rank decisions, null-space energies, pseudoinverse
solves) must be deterministic and auditable at desk scale.  All routines
are pure functions over immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

Mat = NDArray[np.float64]

# Sweep cap for the Jacobi iteration; hitting it raises, never truncates.
JACOBI_MAX_SWEEPS = 60
# A column pair counts as orthogonal once |<a_i,a_j>| <= tol*||a_i||*||a_j||.
JACOBI_TOL = 1e-14
# Numerical rank: sigma_i > max(m,n) * sigma_1 * RANK_REL_TOL.
RANK_REL_TOL = 1e-12


class JacobiNonConvergence(RuntimeError):
    """The Jacobi sweep cap was reached before meeting the tolerance."""


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
    """Return ``[W b]``: the weight matrix with the bias as an extra column.

    ``b`` may be a length-``rows`` vector or a ``rows x 1`` matrix.
    """
    w = as_matrix(w)
    b = np.asarray(b, dtype=np.float64)
    if b.ndim == 2 and b.shape[1] == 1:
        b = b[:, 0]
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
    """Full singular value decomposition via one-sided Jacobi rotations.

    Columns of a working copy are rotated pairwise until all pairs are
    mutually orthogonal to ``JACOBI_TOL`` (relative); column norms then
    give the singular values.  Left singular vectors for (near-)zero
    singular values are filled in by Gram-Schmidt completion so that
    ``u`` is always a full orthogonal basis.

    Raises
    ------
    JacobiNonConvergence
        If the pair tolerance is not met within ``JACOBI_MAX_SWEEPS``.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m < n:
        flipped = _svd_tall(a.T)
        return SvdResult(
            u=np.ascontiguousarray(flipped.vt.T),
            sigma=flipped.sigma,
            vt=np.ascontiguousarray(flipped.u.T),
            rank=flipped.rank,
        )
    return _svd_tall(a)


def _svd_tall(a: Mat) -> SvdResult:
    m, n = a.shape
    b = a.copy()
    v = np.eye(n)
    converged = False
    worst = math.inf
    for _ in range(JACOBI_MAX_SWEEPS):
        worst = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                alpha = float(b[:, p] @ b[:, p])
                beta = float(b[:, q] @ b[:, q])
                if alpha == 0.0 or beta == 0.0:
                    continue
                gamma = float(b[:, p] @ b[:, q])
                rel = abs(gamma) / math.sqrt(alpha * beta)
                worst = max(worst, rel)
                if rel <= JACOBI_TOL:
                    continue
                theta = 0.5 * math.atan2(2.0 * gamma, alpha - beta)
                c, s = math.cos(theta), math.sin(theta)
                _rotate_columns(b, p, q, c, s)
                _rotate_columns(v, p, q, c, s)
        if worst <= JACOBI_TOL:
            converged = True
            break
    if not converged:
        raise JacobiNonConvergence(
            f"one-sided Jacobi did not converge on a {m}x{n} matrix within "
            f"{JACOBI_MAX_SWEEPS} sweeps (worst pair at {worst:.3e})"
        )

    norms = np.sqrt((b * b).sum(axis=0))
    order = np.argsort(-norms, kind="stable")
    sigma = norms[order]

    # Columns with sigma well above underflow noise define U directly;
    # the rest of the orthogonal basis is completed from identity vectors.
    keep_tol = sigma[0] * max(m, n) * 1e-15
    u = np.zeros((m, m))
    kept = 0
    for i, col in enumerate(order):
        if sigma[i] > keep_tol and sigma[i] > 0.0:
            u[:, kept] = b[:, col] / sigma[i]
            kept += 1
        else:
            break
    if kept < m:
        u[:, kept:] = _complete_basis(u[:, :kept])

    vt = np.ascontiguousarray(v[:, order].T)
    rank = int((sigma > sigma[0] * max(m, n) * RANK_REL_TOL).sum()) if sigma[0] > 0 else 0
    return SvdResult(u=u, sigma=sigma, vt=vt, rank=rank)


def _rotate_columns(mat: Mat, p: int, q: int, c: float, s: float) -> None:
    col_p = c * mat[:, p] + s * mat[:, q]
    col_q = -s * mat[:, p] + c * mat[:, q]
    mat[:, p] = col_p
    mat[:, q] = col_q


def _complete_basis(u_part: Mat) -> Mat:
    """Extend orthonormal columns to a full basis of R^m.

    Greedy choice: at each step take the identity vector with the largest
    residual against the current basis (deterministic, and the residual
    norm is bounded below by sqrt((m - k) / m), so normalization is safe).
    """
    m, k = u_part.shape
    basis = np.zeros((m, m))
    basis[:, :k] = u_part
    remaining = list(range(m))
    for j in range(k, m):
        current = basis[:, :j]
        # residual norm^2 of e_i against an orthonormal basis is 1 - ||row_i||^2
        scores = [1.0 - float(current[i] @ current[i]) for i in remaining]
        pick = remaining[int(np.argmax(scores))]
        e = np.zeros(m)
        e[pick] = 1.0
        r = e - current @ (current.T @ e)
        r -= current @ (current.T @ r)  # re-orthogonalize once
        basis[:, j] = r / math.sqrt(float(r @ r))
        remaining.remove(pick)
    return basis[:, k:]


def least_squares(a, y) -> Mat:
    """Minimize ``||Y - A X||_F``; minimum-norm solution via SVD pseudoinverse.

    Parameters
    ----------
    a : matrix, m x n
    y : matrix, m x d

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
    res = svd(a)
    r = res.rank
    if r == 0:
        return np.zeros((a.shape[1], y.shape[1]))
    uty = res.u[:, :r].T @ y
    return res.vt[:r, :].T @ (uty / res.sigma[:r, None])
